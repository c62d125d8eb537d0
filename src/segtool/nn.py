"""Small numpy building blocks with hand-written backward passes.

Each component keeps its parameters in ``self.params`` (name -> array)
and accumulates gradients of the same shapes in ``self.grads``.
``forward`` returns (output, cache); ``backward`` consumes the cache and
the upstream gradient, accumulates parameter gradients, and returns the
gradient with respect to the input.  Sequences are arrays of shape
(..., time, features): the leading axes are independent sequences run in
lockstep, so a mini-batch of documents is one zero-padded (B, T, d)
array.  Padding trails each sequence, so it never feeds a valid step
forward; the bidirectional wrapper reverses each sequence within its own
length for the same reason, and a zero upstream gradient at the padded
positions keeps them out of every gradient.
"""

import numpy as np


def glorot(rng, shape, dtype=np.float64):
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def orthogonal(rng, shape, dtype=np.float64):
    a = rng.standard_normal(shape)
    q, r = np.linalg.qr(a if shape[0] >= shape[1] else a.T)
    q = q * np.sign(np.diag(r))
    if shape[0] < shape[1]:
        q = q.T
    return q[: shape[0], : shape[1]].astype(dtype)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(x, axis=-1):
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(p, d_p, axis=-1):
    """Gradient through y = softmax(x) given p = y and dL/dy."""
    dot = np.sum(p * d_p, axis=axis, keepdims=True)
    return p * (d_p - dot)


class Component:
    def __init__(self):
        self.params = {}
        self.grads = {}

    def _add_param(self, name, value):
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def zero_grads(self):
        for g in self.grads.values():
            g[:] = 0.0


class Linear(Component):
    def __init__(self, rng, d_in, d_out, dtype=np.float64):
        super().__init__()
        self._add_param("W", glorot(rng, (d_in, d_out), dtype))
        self._add_param("b", np.zeros(d_out, dtype=dtype))

    def forward(self, x):
        return x @ self.params["W"] + self.params["b"], x

    def backward(self, cache, d_out):
        x = cache
        d_flat = d_out.reshape(-1, d_out.shape[-1])
        self.grads["W"] += x.reshape(-1, x.shape[-1]).T @ d_flat
        self.grads["b"] += d_flat.sum(axis=0)
        return d_out @ self.params["W"].T


class Gru(Component):
    """Single-direction GRU scanning (..., s, d_in) input: the leading axes
    are independent sequences of length s, run in lockstep.

    Gate order: update z, reset r, candidate n.  An optional recurrent
    dropout mask, one (hidden,) row per sequence (shape (..., hidden),
    the same mask at every step), multiplies the previous hidden state on
    the gate inputs only.  The states are kept time-major, (s, ..., H),
    so every step reads and writes contiguous rows.
    """

    def __init__(self, rng, d_in, hidden, dtype=np.float64):
        super().__init__()
        self.hidden = hidden
        self._add_param(
            "W", np.concatenate([glorot(rng, (d_in, hidden), dtype) for _ in range(3)], axis=1)
        )
        self._add_param(
            "U",
            np.concatenate([orthogonal(rng, (hidden, hidden), dtype) for _ in range(3)], axis=1),
        )
        self._add_param("b", np.zeros(3 * hidden, dtype=dtype))

    def forward(self, x, rec_mask=None):
        H = self.hidden
        s = x.shape[-2]
        lead = x.shape[:-2]
        dtype = self.params["W"].dtype
        xw = np.moveaxis(x, -2, 0) @ self.params["W"] + self.params["b"]
        xw_zr, xw_n = xw[..., : 2 * H], xw[..., 2 * H :]
        U = self.params["U"]
        U_zr, U_n = np.ascontiguousarray(U[:, : 2 * H]), np.ascontiguousarray(U[:, 2 * H :])
        hs = np.zeros((s + 1,) + lead + (H,), dtype=dtype)
        zr = np.empty((s,) + lead + (2 * H,), dtype=dtype)
        z, r = zr[..., :H], zr[..., H:]
        n = np.empty((s,) + lead + (H,), dtype=dtype)
        # h as the gates see it: h itself, or h times the recurrent mask
        hm = hs[:-1] if rec_mask is None else np.empty((s,) + lead + (H,), dtype=dtype)
        for t in range(s):
            if rec_mask is not None:
                hm[t] = hs[t] * rec_mask
            zr[t] = _sigmoid(xw_zr[t] + hm[t] @ U_zr)
            n[t] = np.tanh(xw_n[t] + (r[t] * hm[t]) @ U_n)
            hs[t + 1] = hs[t] + z[t] * (n[t] - hs[t])
        cache = (x, hs, z, r, n, hm, rec_mask)
        return np.moveaxis(hs[1:], 0, -2), cache

    def backward(self, cache, d_h_seq):
        x, hs, z, r, n, hm, rec_mask = cache
        H = self.hidden
        s = x.shape[-2]
        lead = x.shape[:-2]
        U = self.params["U"]
        U_zr_T = np.ascontiguousarray(U[:, : 2 * H].T)
        U_n_T = np.ascontiguousarray(U[:, 2 * H :].T)
        # Everything that does not depend on d_h, per step: d_z_pre and d_n_pre
        # are d_h times z_scale and n_scale; d_r_pre is d_rhm times r_scale.
        z_scale = (n - hs[:-1]) * z * (1.0 - z)
        n_scale = z * (1.0 - n * n)
        r_scale = hm * r * (1.0 - r)
        one_minus_z = 1.0 - z
        d_h_seq = np.moveaxis(d_h_seq, -2, 0)

        # gate pre-activation grads, z r n; the loop indexes views by t only
        d_pre = np.empty((s,) + lead + (3, H), dtype=x.dtype)
        d_z, d_r, d_n = (d_pre[..., k, :] for k in range(3))
        d_zr = d_pre[..., :2, :].reshape((s,) + lead + (2 * H,))
        d_h = np.zeros(lead + (H,), dtype=x.dtype)
        for t in range(s - 1, -1, -1):
            d_h = d_h + d_h_seq[t]
            d_z[t] = d_h * z_scale[t]
            d_n[t] = d_h * n_scale[t]
            # through n: inputs x W_n + (r*hm) U_n
            d_rhm = d_n[t] @ U_n_T
            d_r[t] = d_rhm * r_scale[t]
            d_hm = d_rhm * r[t] + d_zr[t] @ U_zr_T
            if rec_mask is not None:
                # the mask multiplies h on the gate inputs only
                d_hm *= rec_mask
            d_h = d_h * one_minus_z[t] + d_hm

        d_pre = d_pre.reshape(-1, 3 * H)
        x_rows = np.moveaxis(x, -2, 0).reshape(-1, x.shape[-1])
        self.grads["W"] += x_rows.T @ d_pre
        self.grads["b"] += d_pre.sum(axis=0)
        self.grads["U"][:, : 2 * H] += hm.reshape(-1, H).T @ d_pre[:, : 2 * H]
        self.grads["U"][:, 2 * H :] += (r * hm).reshape(-1, H).T @ d_pre[:, 2 * H :]
        d_x = (d_pre @ self.params["W"].T).reshape((s,) + lead + (x.shape[-1],))
        return np.moveaxis(d_x, 0, -2)


class Lstm(Component):
    """Single-direction LSTM scanning (..., s, d_in) input: the leading axes
    are independent sequences of length s, run in lockstep.

    Gate order: input i, forget f, cell g, output o.
    """

    def __init__(self, rng, d_in, hidden, dtype=np.float64):
        super().__init__()
        self.hidden = hidden
        self._add_param(
            "W", np.concatenate([glorot(rng, (d_in, hidden), dtype) for _ in range(4)], axis=1)
        )
        self._add_param(
            "U",
            np.concatenate([orthogonal(rng, (hidden, hidden), dtype) for _ in range(4)], axis=1),
        )
        self._add_param("b", np.zeros(4 * hidden, dtype=dtype))

    def forward(self, x):
        H = self.hidden
        *lead, s, _ = x.shape
        lead = tuple(lead)
        dtype = self.params["W"].dtype
        xw = x @ self.params["W"] + self.params["b"]
        U = self.params["U"]
        hs = np.zeros(lead + (s + 1, H), dtype=dtype)
        cs = np.zeros(lead + (s + 1, H), dtype=dtype)
        gates = np.empty(lead + (s, 4, H), dtype=dtype)
        for t in range(s):
            pre = (xw[..., t, :] + hs[..., t, :] @ U).reshape(lead + (4, H))
            gt = gates[..., t, :, :]
            gt[...] = _sigmoid(pre)
            gt[..., 2, :] = np.tanh(pre[..., 2, :])
            i, f, g, o = (gt[..., k, :] for k in range(4))
            cs[..., t + 1, :] = f * cs[..., t, :] + i * g
            hs[..., t + 1, :] = o * np.tanh(cs[..., t + 1, :])
        cache = (x, hs, cs, gates)
        return hs[..., 1:, :], cache

    def backward(self, cache, d_h_seq):
        x, hs, cs, gates = cache
        H = self.hidden
        *lead, s, _ = x.shape
        lead = tuple(lead)
        i, f, g, o = np.moveaxis(gates, -2, 0)
        U_T = self.params["U"].T
        # Everything that does not depend on d_h or d_c, per step: the i, f, g
        # pre-activation grads are d_c times c_scale, the o one is d_h times
        # o_scale, and d_h reaches d_c through h_to_c.
        tc = np.tanh(cs[..., 1:, :])
        c_scale = np.stack(
            [g * i * (1.0 - i), cs[..., :-1, :] * f * (1.0 - f), i * (1.0 - g * g)], axis=-2
        )
        o_scale = tc * o * (1.0 - o)
        h_to_c = o * (1.0 - tc * tc)

        d_pre = np.empty(lead + (s, 4, H), dtype=x.dtype)  # gate pre-activation grads, i f g o
        d_h = np.zeros(lead + (H,), dtype=x.dtype)
        d_c = np.zeros(lead + (H,), dtype=x.dtype)
        for t in range(s - 1, -1, -1):
            d_h = d_h + d_h_seq[..., t, :]
            d_c = d_c + d_h * h_to_c[..., t, :]
            d_pre[..., t, :3, :] = d_c[..., None, :] * c_scale[..., t, :, :]
            d_pre[..., t, 3, :] = d_h * o_scale[..., t, :]
            d_c = d_c * f[..., t, :]
            d_h = d_pre[..., t, :, :].reshape(lead + (4 * H,)) @ U_T

        d_pre = d_pre.reshape(lead + (s, 4 * H))
        d_flat = d_pre.reshape(-1, 4 * H)
        self.grads["W"] += x.reshape(-1, x.shape[-1]).T @ d_flat
        self.grads["U"] += hs[..., :-1, :].reshape(-1, H).T @ d_flat
        self.grads["b"] += d_flat.sum(axis=0)
        return d_pre @ self.params["W"].T


def _reversal(s, lengths):
    """Per sequence, the index that reverses its first lengths[b] positions
    and keeps the padding after them in place; None without lengths (a
    plain reversal)."""
    if lengths is None:
        return None
    t = np.arange(s)
    lengths = np.asarray(lengths)[..., None]
    return np.where(t < lengths, lengths - 1 - t, t)


def _reverse(a, rev):
    if rev is None:
        return a[..., ::-1, :]
    return np.take_along_axis(a, rev[..., None], axis=-2)


class _Bi:
    """Two independent recurrent cells, one scanning forward and one over
    the reversed sequence; outputs are concatenated per position.

    With ``lengths`` the leading axes hold zero-padded sequences, valid in
    their first lengths[...] positions; each is reversed within its own
    length, so the backward cell, too, meets the padding only after every
    valid step."""

    cell_cls = None

    def __init__(self, rng, d_in, hidden, dtype=np.float64):
        self.hidden = hidden
        self.f = self.cell_cls(rng, d_in, hidden, dtype)
        self.b = self.cell_cls(rng, d_in, hidden, dtype)

    @property
    def params(self):
        out = {f"f_{k}": v for k, v in self.f.params.items()}
        out.update({f"b_{k}": v for k, v in self.b.params.items()})
        return out

    @property
    def grads(self):
        out = {f"f_{k}": v for k, v in self.f.grads.items()}
        out.update({f"b_{k}": v for k, v in self.b.grads.items()})
        return out

    def zero_grads(self):
        self.f.zero_grads()
        self.b.zero_grads()

    def forward(self, x, lengths=None, **kw):
        rev = _reversal(x.shape[-2], lengths)
        hf, cf = self.f.forward(x, **kw)
        hb_rev, cb = self.b.forward(_reverse(x, rev), **kw)
        out = np.concatenate([hf, _reverse(hb_rev, rev)], axis=-1)
        return out, (cf, cb, rev)

    def backward(self, cache, d_out):
        cf, cb, rev = cache
        H = self.hidden
        d_x = self.f.backward(cf, d_out[..., :H])
        d_x = d_x + _reverse(self.b.backward(cb, _reverse(d_out[..., H:], rev)), rev)
        return d_x

    def final_states(self, out):
        """Concatenated last forward and last backward states (the
        backward cell's last state sits at position 0 of its block)."""
        H = self.hidden
        return np.concatenate([out[..., -1, :H], out[..., 0, H:]], axis=-1)

    def backward_from_final(self, cache, d_final, seq_len):
        H = self.hidden
        d_out = np.zeros(d_final.shape[:-1] + (seq_len, 2 * H), dtype=d_final.dtype)
        d_out[..., -1, :H] = d_final[..., :H]
        d_out[..., 0, H:] = d_final[..., H:]
        return self.backward(cache, d_out)


class BiLstm(_Bi):
    cell_cls = Lstm


class BiGru(_Bi):
    cell_cls = Gru


def clip_global_norm(grad_arrays, max_norm):
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grad_arrays))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grad_arrays:
            g *= scale
    return total


class Adam:
    def __init__(self, named_params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in named_params.items()}
        self.v = {k: np.zeros_like(v) for k, v in named_params.items()}

    def step(self, named_params, named_grads):
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for k, p in named_params.items():
            g = named_grads[k]
            m = self.m[k]
            v = self.v[k]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
