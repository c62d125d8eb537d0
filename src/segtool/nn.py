"""Small numpy building blocks with hand-written backward passes.

Each component keeps its parameters in ``self.params`` (name -> array)
and accumulates gradients of the same shapes in ``self.grads``.  A
component built from others lists their arrays in its own two dicts
under a name prefix (``_add_child``): the same array objects, so a
model's ``params``/``grads`` are one live, flat view of its whole tree,
and every update, the optimizer's included, happens in place.
``forward`` returns (output, cache); ``backward`` consumes the cache and
the upstream gradient, accumulates parameter gradients, and returns the
gradient with respect to the input.  Sequences are arrays of shape
(..., time, features): the leading axes are independent sequences run in
lockstep, so a mini-batch of documents is one zero-padded (B, T, d)
array.  Padding trails each sequence, so it never feeds a valid step
forward; the bidirectional wrapper reverses each sequence within its own
length for the same reason, and a zero upstream gradient at the padded
positions keeps them out of every gradient.

The bidirectional wrapper runs both directions as one recurrence over a
leading direction axis of 2: it stores each parameter of the pair as one
stacked array, lists its [0]/[1] views under the names of two separate
cells (``f_W``, ``b_W``, ...), and every time step makes one stacked
matrix product for both directions.
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

    def _add_child(self, prefix, child):
        """List a child's arrays (not copies) here as prefix + name."""
        for name, value in child.params.items():
            self.params[prefix + name] = value
            self.grads[prefix + name] = child.grads[name]

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0


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


def _lift(w, n):
    """A (dirs..., a, b) weight with n unit axes before its matrix axes, so
    that it multiplies (dirs..., n axes..., rows, a) arrays slice by slice."""
    return w.reshape(w.shape[:-2] + (1,) * n + w.shape[-2:])


class Gru(Component):
    """GRU scanning (..., s, d_in) input: the leading axes are independent
    sequences of length s, run in lockstep.

    Gate order: update z, reset r, candidate n.  An optional recurrent
    dropout mask, one (hidden,) row per sequence (shape (..., hidden),
    the same mask at every step), multiplies the previous hidden state on
    the gate inputs only.  The states are kept time-major, (s, ..., H),
    so every step reads and writes contiguous rows.

    The parameters may carry leading direction axes, as in ``_Bi``'s
    (2, d_in, 3H) ``W``: x then leads with the same axes, one independent
    cell each, and every step multiplies all of them in one call.  Each
    direction's matrix products keep the shapes of a lone cell's, so its
    results are bit-identical to that cell's.
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
        W, U, b = self.params["W"], self.params["U"], self.params["b"]
        H = self.hidden
        dirs = W.shape[:-2]
        s = x.shape[-2]
        lead = x.shape[len(dirs) : -2]
        # a unit axis after the directions, so that one sequence, too, is a
        # (1, H) row in each direction's slice of the recurrent product
        rows = dirs + (1,) + lead
        dtype = W.dtype
        # the input projection: one product per direction over all the steps
        xw = np.stack([np.moveaxis(x[k], -2, 0) @ W[k] + b[k] for k in np.ndindex(dirs)], axis=1)
        xw = xw.reshape((s,) + rows + (3 * H,))
        xw_zr, xw_n = xw[..., : 2 * H], xw[..., 2 * H :]
        U_zr = _lift(np.ascontiguousarray(U[..., : 2 * H]), len(lead))
        U_n = _lift(np.ascontiguousarray(U[..., 2 * H :]), len(lead))
        hs = np.zeros((s + 1,) + rows + (H,), dtype=dtype)
        zr = np.empty((s,) + rows + (2 * H,), dtype=dtype)
        z, r = zr[..., :H], zr[..., H:]
        n = np.empty((s,) + rows + (H,), dtype=dtype)
        # h as the gates see it: h itself, or h times the recurrent mask
        hm = hs[:-1] if rec_mask is None else np.empty((s,) + rows + (H,), dtype=dtype)
        # the loop walks the per-step views instead of indexing every array
        steps = zip(xw_zr, xw_n, hs[:-1], hs[1:], hm, zr, z, r, n)
        for xw_zr_t, xw_n_t, h, h_next, hm_t, zr_t, z_t, r_t, n_t in steps:
            if rec_mask is not None:
                hm_t[...] = h * rec_mask
            zr_t[...] = _sigmoid(xw_zr_t + hm_t @ U_zr)
            n_t[...] = np.tanh(xw_n_t + (r_t * hm_t) @ U_n)
            h_next[...] = h + z_t * (n_t - h)
        cache = (x, hs, z, r, n, hm, rec_mask)
        return np.moveaxis(hs[1:], 0, -2).reshape(x.shape[:-1] + (H,)), cache

    def backward(self, cache, d_h_seq):
        x, hs, z, r, n, hm, rec_mask = cache
        W, U = self.params["W"], self.params["U"]
        H = self.hidden
        dirs = W.shape[:-2]
        s, d = x.shape[-2:]
        lead = x.shape[len(dirs) : -2]
        rows = hs.shape[1:-1]
        U_zr_T = _lift(np.ascontiguousarray(np.swapaxes(U[..., : 2 * H], -1, -2)), len(lead))
        U_n_T = _lift(np.ascontiguousarray(np.swapaxes(U[..., 2 * H :], -1, -2)), len(lead))
        # Everything that does not depend on d_h, per step: d_z_pre and d_n_pre
        # are d_h times z_scale and n_scale; d_r_pre is d_rhm times r_scale.
        z_scale = (n - hs[:-1]) * z * (1.0 - z)
        n_scale = z * (1.0 - n * n)
        r_scale = hm * r * (1.0 - r)
        one_minus_z = 1.0 - z
        d_h_seq = np.moveaxis(d_h_seq, -2, 0).reshape((s,) + rows + (H,))

        # gate pre-activation grads, z r n; the loop indexes views by t only.
        # Stored direction-major, so that each direction's steps are one
        # block for the products after the loop.
        d_pre = np.empty(dirs + (s,) + rows[len(dirs) :] + (3, H), dtype=x.dtype)
        d_pre = np.moveaxis(d_pre, len(dirs), 0)
        d_z, d_r, d_n = (d_pre[..., k, :] for k in range(3))
        d_zr = d_pre[..., :2, :].reshape((s,) + rows + (2 * H,))
        d_h = np.zeros(rows + (H,), dtype=x.dtype)
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

        # the weight gradients, one product per direction over all the steps
        for k in np.ndindex(dirs):
            at = (slice(None),) + k
            d_k = d_pre[at].reshape(-1, 3 * H)
            x_rows = np.moveaxis(x[k], -2, 0).reshape(-1, d)
            g_W, g_U, g_b = (self.grads[name][k] for name in ("W", "U", "b"))
            g_W += x_rows.T @ d_k
            g_b += d_k.sum(axis=0)
            g_U[:, : 2 * H] += hm[at].reshape(-1, H).T @ d_k[:, : 2 * H]
            g_U[:, 2 * H :] += (r[at] * hm[at]).reshape(-1, H).T @ d_k[:, 2 * H :]
        d_pre = np.moveaxis(d_pre, 0, len(dirs)).reshape(dirs + (-1, 3 * H))
        d_x = (d_pre @ np.swapaxes(W, -1, -2)).reshape(dirs + (s,) + lead + (d,))
        return np.moveaxis(d_x, len(dirs), -2)


class Lstm(Component):
    """LSTM scanning (..., s, d_in) input: the leading axes are independent
    sequences of length s, run in lockstep.

    Gate order: input i, forget f, cell g, output o.  Leading direction
    axes on the parameters work as in ``Gru``.
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
        W, U, b = self.params["W"], self.params["U"], self.params["b"]
        H = self.hidden
        dirs = W.shape[:-2]
        s = x.shape[-2]
        lead = x.shape[len(dirs) : -2]
        rows = dirs + (1,) + lead  # as in Gru.forward
        dtype = W.dtype
        # one product per sequence over all its steps, as in a lone cell
        xw = x.reshape(rows + x.shape[-2:]) @ _lift(W, len(lead) + 1)
        xw += _lift(b[..., None, :], len(lead) + 1)
        U = _lift(U, len(lead))
        hs = np.zeros(rows + (s + 1, H), dtype=dtype)
        cs = np.zeros(rows + (s + 1, H), dtype=dtype)
        gates = np.empty(rows + (s, 4, H), dtype=dtype)
        for t in range(s):
            pre = (xw[..., t, :] + hs[..., t, :] @ U).reshape(rows + (4, H))
            gt = gates[..., t, :, :]
            gt[...] = _sigmoid(pre)
            gt[..., 2, :] = np.tanh(pre[..., 2, :])
            i, f, g, o = (gt[..., k, :] for k in range(4))
            cs[..., t + 1, :] = f * cs[..., t, :] + i * g
            hs[..., t + 1, :] = o * np.tanh(cs[..., t + 1, :])
        cache = (x, hs, cs, gates)
        return hs[..., 1:, :].reshape(x.shape[:-1] + (H,)), cache

    def backward(self, cache, d_h_seq):
        x, hs, cs, gates = cache
        W, U = self.params["W"], self.params["U"]
        H = self.hidden
        dirs = W.shape[:-2]
        s, d = x.shape[-2:]
        lead = x.shape[len(dirs) : -2]
        rows = hs.shape[:-2]
        i, f, g, o = np.moveaxis(gates, -2, 0)
        U_T = _lift(np.swapaxes(U, -1, -2), len(lead))
        # Everything that does not depend on d_h or d_c, per step: the i, f, g
        # pre-activation grads are d_c times c_scale, the o one is d_h times
        # o_scale, and d_h reaches d_c through h_to_c.
        tc = np.tanh(cs[..., 1:, :])
        c_scale = np.stack(
            [g * i * (1.0 - i), cs[..., :-1, :] * f * (1.0 - f), i * (1.0 - g * g)], axis=-2
        )
        o_scale = tc * o * (1.0 - o)
        h_to_c = o * (1.0 - tc * tc)
        d_h_seq = d_h_seq.reshape(rows + (s, H))

        d_pre = np.empty(rows + (s, 4, H), dtype=x.dtype)  # gate pre-activation grads, i f g o
        d_h = np.zeros(rows + (H,), dtype=x.dtype)
        d_c = np.zeros(rows + (H,), dtype=x.dtype)
        for t in range(s - 1, -1, -1):
            d_h = d_h + d_h_seq[..., t, :]
            d_c = d_c + d_h * h_to_c[..., t, :]
            d_pre[..., t, :3, :] = d_c[..., None, :] * c_scale[..., t, :, :]
            d_pre[..., t, 3, :] = d_h * o_scale[..., t, :]
            d_c = d_c * f[..., t, :]
            d_h = d_pre[..., t, :, :].reshape(rows + (4 * H,)) @ U_T

        d_pre = d_pre.reshape(rows + (s, 4 * H))
        # the weight gradients, one product per direction over all the steps
        for k in np.ndindex(dirs):
            d_flat = d_pre[k].reshape(-1, 4 * H)
            g_W, g_U, g_b = (self.grads[name][k] for name in ("W", "U", "b"))
            g_W += x[k].reshape(-1, d).T @ d_flat
            g_U += hs[k][..., :-1, :].reshape(-1, H).T @ d_flat
            g_b += d_flat.sum(axis=0)
        return (d_pre @ _lift(np.swapaxes(W, -1, -2), len(lead) + 1)).reshape(x.shape)


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


class _Bi(Component):
    """A forward and a backward recurrent cell run as one: ``cell`` holds
    each parameter of the pair as one (2, ...) array, direction 0 scanning
    the sequence and direction 1 its reversal, and one time loop steps
    both.  The outputs are concatenated per position.  ``f_W``, ``b_W``,
    ... are the [0]/[1] views of the stacked arrays, in the order of two
    separate cells.

    With ``lengths`` the leading axes hold zero-padded sequences, valid in
    their first lengths[...] positions; each is reversed within its own
    length, so the backward direction, too, meets the padding only after
    every valid step."""

    cell_cls = None

    def __init__(self, rng, d_in, hidden, dtype=np.float64):
        super().__init__()
        self.hidden = hidden
        fwd, bwd = (self.cell_cls(rng, d_in, hidden, dtype) for _ in range(2))
        self.cell = fwd
        for name, value in list(fwd.params.items()):
            fwd._add_param(name, np.stack([value, bwd.params[name]]))
        for k, prefix in enumerate(("f_", "b_")):
            for name, value in self.cell.params.items():
                self.params[prefix + name] = value[k]
                self.grads[prefix + name] = self.cell.grads[name][k]

    def forward(self, x, lengths=None, **kw):
        rev = _reversal(x.shape[-2], lengths)
        h, cache = self.cell.forward(np.stack([x, _reverse(x, rev)]), **kw)
        return np.concatenate([h[0], _reverse(h[1], rev)], axis=-1), (cache, rev)

    def backward(self, cache, d_out):
        cache, rev = cache
        H = self.hidden
        d_x = self.cell.backward(cache, np.stack([d_out[..., :H], _reverse(d_out[..., H:], rev)]))
        return d_x[0] + _reverse(d_x[1], rev)

    def final_states(self, out):
        """Concatenated last forward and last backward states (the
        backward direction's last state sits at position 0 of its block)."""
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
    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        """Update every array of ``params`` in place."""
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for k, p in params.items():
            g = grads[k]
            m = self.m[k]
            v = self.v[k]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
