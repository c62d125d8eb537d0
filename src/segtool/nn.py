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

The GRU and the LSTM share one recurrent core, ``_Recurrent``: it owns
the gate-blocked parameters, the input projection, the time-major state
layout and the gradients after the backward loop, and each cell adds only
its two time loops.  The bidirectional wrapper runs both directions as
one recurrence over a leading direction axis of 2: it stores each
parameter of the pair as one stacked array, lists its [0]/[1] views under
the names of two separate cells (``f_W``, ``b_W``, ...), and every time
step makes one stacked matrix product for both directions.

The forward time loops allocate nothing per step, since on these small
arrays each numpy call costs about as much as its arithmetic: work that
does not depend on the step happens before the loop (Appleyard et al.
2016), and each call writes with ``out=`` into the cache or a buffer.
"""

import math

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


def finite32(a):
    """Whether every value of ``a`` is finite in float32 (a larger one
    would become inf there; NaN fails too)."""
    return np.all(np.abs(a) <= np.finfo(np.float32).max)


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


def _move(a, src, dst):
    """``np.moveaxis`` of one axis without its argument checks, which cost
    several times the transpose itself on a recurrent layer's small arrays."""
    order = list(range(a.ndim))
    order.insert(dst % a.ndim, order.pop(src))
    return a.transpose(order)


class _Recurrent(Component):
    """A gated recurrent cell scanning (..., s, d_in) input: the leading
    axes are independent sequences of length s, run in lockstep.  The
    subclasses keep only their time loops.  ``_scan(xw, hs, U)``
    fills the states from the projected input and returns the rest of
    the cache, which starts with the time-major input and the states;
    ``_scan_back(cache, d_h_seq, d_pre, U_T)`` fills the gate
    pre-activation grads and returns the (gate columns, recurrent input)
    pairs that U's gradient is formed from.

    ``W``, ``U`` and ``b`` hold ``n_gates`` blocks of ``hidden`` columns.
    The parameters may carry leading direction axes, as in ``_Bi``'s
    (2, d_in, n_gates * H) ``W``: x then leads with the same axes, one
    independent cell each, and every step multiplies all of them in one
    call.  Each direction's matrix products keep the shapes of a lone
    cell's, so its results are bit-identical to that cell's.

    Every per-step array is time-major, (s, dirs..., n, ·), where the one
    row axis n flattens the call's leading axes (n = 1 for a lone
    sequence), so each step reads and writes contiguous rows and makes one
    (n, H) recurrent product per direction.  The states are
    (s + 1, dirs..., n, H), the zero initial state first.
    """

    n_gates = None

    def __init__(self, rng, d_in, hidden, dtype=np.float64):
        super().__init__()
        self.hidden = hidden
        G = self.n_gates
        self._add_param(
            "W", np.concatenate([glorot(rng, (d_in, hidden), dtype) for _ in range(G)], axis=1)
        )
        self._add_param(
            "U",
            np.concatenate([orthogonal(rng, (hidden, hidden), dtype) for _ in range(G)], axis=1),
        )
        self._add_param("b", np.zeros(G * hidden, dtype=dtype))

    def forward(self, x):
        W, U, b = self.params["W"], self.params["U"], self.params["b"]
        dirs, s, n = W.shape[:-2], x.shape[-2], math.prod(x.shape[W.ndim - 2 : -2])
        xt = _move(x, -2, len(dirs))
        # the input projection: one stacked product over the directions and
        # all the steps, stored time-major for the loop's per-step slices
        GH = W.shape[-1]
        xw = (xt.reshape(dirs + (-1, xt.shape[-1])) @ W + b[..., None, :]).reshape(
            dirs + (s, n, GH)
        )
        xw = np.ascontiguousarray(_move(xw, len(dirs), 0))
        hs = np.zeros((s + 1,) + dirs + (n, self.hidden), dtype=W.dtype)
        cache = (xt, hs) + self._scan(xw, hs, U)
        return _move(hs[1:], 0, -2).reshape(x.shape[:-1] + (self.hidden,)), cache

    def backward(self, cache, d_h_seq):
        xt, hs = cache[:2]
        W, U = self.params["W"], self.params["U"]
        H, GH = self.hidden, W.shape[-1]
        dirs, s, n = W.shape[:-2], hs.shape[0] - 1, hs.shape[-2]
        d_h_seq = _move(d_h_seq, -2, 0).reshape((s,) + dirs + (n, H))
        # The gate pre-activation grads, stored direction-major, so that each
        # direction's steps are one block for the products after the loop;
        # the loop indexes them by step through the view d_pre.
        d_blocks = np.empty(dirs + (s, n, GH), dtype=xt.dtype)
        d_pre = _move(d_blocks, len(dirs), 0)
        u_inputs = self._scan_back(cache, d_h_seq, d_pre, np.swapaxes(U, -1, -2))

        # the weight gradients, one product per direction over all the steps;
        # U's from each (gate columns, recurrent input) pair of the cell
        d_rows = d_blocks.reshape(dirs + (-1, GH))
        self.grads["W"] += np.swapaxes(xt.reshape(dirs + (-1, xt.shape[-1])), -1, -2) @ d_rows
        self.grads["b"] += d_rows.sum(axis=-2)
        for cols, h_in in u_inputs:
            h_rows = _move(h_in, 0, len(dirs)).reshape(dirs + (-1, H))
            self.grads["U"][..., cols] += np.swapaxes(h_rows, -1, -2) @ d_rows[..., cols]
        d_x = d_rows @ np.swapaxes(W, -1, -2)
        return _move(d_x.reshape(xt.shape), len(dirs), -2)


class Gru(_Recurrent):
    """GRU, gate order: update z, reset r, candidate n."""

    n_gates = 3

    def _scan(self, xw, hs, U):
        H = self.hidden
        # sigmoid(a + b) = 1 / (1 + exp((-a) - b)): the z/r input is negated
        # once, into a contiguous copy like the n input's, which ufuncs take
        # faster than a strided view; only a zero's sign differs from -(a + b)
        xw_zr, xw_n = np.negative(xw[..., : 2 * H]), np.ascontiguousarray(xw[..., 2 * H :])
        U_zr = np.ascontiguousarray(U[..., : 2 * H])
        U_n = np.ascontiguousarray(U[..., 2 * H :])
        zr = np.empty(xw.shape[:-1] + (2 * H,), dtype=hs.dtype)
        z, r = zr[..., :H], zr[..., H:]
        n = np.empty_like(hs[1:])
        rh, one = np.empty_like(hs[0]), np.ones((), dtype=hs.dtype)  # 0-d: no float conversion
        # The loop walks the per-step views instead of indexing every array;
        # its lines form z and r, n, then h + z * (n - h), each call (read
        # inside out) writing into the cache or rh.
        steps = zip(xw_zr, xw_n, hs[:-1], hs[1:], zr, z, r, n)
        for xw_zr_t, xw_n_t, h, h_next, zr_t, z_t, r_t, n_t in steps:
            np.subtract(xw_zr_t, np.matmul(h, U_zr, out=zr_t), out=zr_t)
            np.reciprocal(np.add(np.exp(zr_t, out=zr_t), one, out=zr_t), out=zr_t)
            np.matmul(np.multiply(r_t, h, out=rh), U_n, out=n_t)
            np.tanh(np.add(xw_n_t, n_t, out=n_t), out=n_t)
            np.add(h, np.multiply(z_t, np.subtract(n_t, h, out=h_next), out=h_next), out=h_next)
        return z, r, n

    def _scan_back(self, cache, d_h_seq, d_pre, U_T):
        _, hs, z, r, n = cache
        H = self.hidden
        U_zr_T = np.ascontiguousarray(U_T[..., : 2 * H, :])
        U_n_T = np.ascontiguousarray(U_T[..., 2 * H :, :])
        h_prev = hs[:-1]
        # Everything that does not depend on d_h, per step: d_z_pre and d_n_pre
        # are d_h times z_scale and n_scale; d_r_pre is d_rh times r_scale.
        z_scale = (n - h_prev) * z * (1.0 - z)
        n_scale = z * (1.0 - n * n)
        r_scale = h_prev * r * (1.0 - r)
        one_minus_z = 1.0 - z
        d_z, d_r, d_n = (d_pre[..., k * H : (k + 1) * H] for k in range(3))
        d_zr = d_pre[..., : 2 * H]
        d_h = np.zeros(hs.shape[1:], dtype=d_pre.dtype)
        for t in range(len(d_pre) - 1, -1, -1):
            d_h = d_h + d_h_seq[t]
            d_z[t] = d_h * z_scale[t]
            d_n[t] = d_h * n_scale[t]
            # through n: inputs x W_n + (r*h) U_n
            d_rh = d_n[t] @ U_n_T
            d_r[t] = d_rh * r_scale[t]
            d_h = d_h * one_minus_z[t] + (d_rh * r[t] + d_zr[t] @ U_zr_T)
        return [(slice(None, 2 * H), h_prev), (slice(2 * H, None), r * h_prev)]


class Lstm(_Recurrent):
    """LSTM, gate order: input i, forget f, cell g, output o.  The gates
    are cached as (s, dirs..., n, 4, H)."""

    n_gates = 4

    def _scan(self, xw, hs, U):
        cs = np.zeros_like(hs)
        gates = np.empty(xw.shape[:-1] + (4, self.hidden), dtype=hs.dtype)
        i, f, g, o = (gates[..., k, :] for k in range(4))
        # as in the GRU, the input is negated once for the sigmoids, and g's
        # pre-activation h U_g - (-x W_g) is x W_g + h U_g bit for bit
        xw_g = np.negative(xw, out=xw).reshape(gates.shape)[..., 2, :]
        hu, ig, one = np.empty(xw.shape[1:], hs.dtype), np.empty_like(hs[0]), np.ones((), hs.dtype)
        hu_g = hu.reshape(gates.shape[1:])[..., 2, :]
        steps = zip(xw, xw_g, hs[:-1], hs[1:], cs[:-1], cs[1:], gates.reshape(xw.shape), i, f, g, o)
        for xw_t, xw_g_t, h, h_next, c, c_next, pre, i_t, f_t, g_t, o_t in steps:
            np.subtract(xw_t, np.matmul(h, U, out=hu), out=pre)
            np.reciprocal(np.add(np.exp(pre, out=pre), one, out=pre), out=pre)
            np.tanh(np.subtract(hu_g, xw_g_t, out=g_t), out=g_t)
            np.add(np.multiply(f_t, c, out=c_next), np.multiply(i_t, g_t, out=ig), out=c_next)
            np.multiply(o_t, np.tanh(c_next, out=h_next), out=h_next)
        return cs, gates

    def _scan_back(self, cache, d_h_seq, d_pre, U_T):
        _, hs, cs, gates = cache
        i, f, g, o = (gates[..., k, :] for k in range(4))
        # Everything that does not depend on d_h or d_c, per step: the i, f, g
        # pre-activation grads are d_c times c_scale, the o one is d_h times
        # o_scale, and d_h reaches d_c through h_to_c.
        tc = np.tanh(cs[1:])
        c_scale = np.stack([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f), i * (1.0 - g * g)], axis=-2)
        o_scale = tc * o * (1.0 - o)
        h_to_c = o * (1.0 - tc * tc)
        d_gates = d_pre.reshape(gates.shape)  # a view: i f g o blocks
        d_h = np.zeros(hs.shape[1:], dtype=d_pre.dtype)
        d_c = np.zeros_like(d_h)
        for t in range(len(d_pre) - 1, -1, -1):
            d_h = d_h + d_h_seq[t]
            d_c = d_c + d_h * h_to_c[t]
            d_gates[t, ..., :3, :] = d_c[..., None, :] * c_scale[t]
            d_gates[t, ..., 3, :] = d_h * o_scale[t]
            d_c = d_c * f[t]
            d_h = d_pre[t] @ U_T
        return [(slice(None), hs[:-1])]


def _reversal(s, lengths):
    """The rows of a (..., s, d) array flattened to (-1, d) in the order
    that reverses each sequence's first lengths[...] positions and keeps
    the padding after them in place; None without lengths (a plain
    reversal)."""
    if lengths is None:
        return None
    t, lengths = np.arange(s), np.asarray(lengths).reshape(-1, 1)
    starts = s * np.arange(len(lengths))[:, None]
    return (np.where(t < lengths, lengths - 1 - t, t) + starts).ravel()


def _reverse(a, rows):
    if rows is None:
        return a[..., ::-1, :]
    return a.reshape(-1, a.shape[-1]).take(rows, axis=0).reshape(a.shape)


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

    def forward(self, x, lengths=None):
        rev = _reversal(x.shape[-2], lengths)
        h, cache = self.cell.forward(np.stack([x, _reverse(x, rev)]))
        return np.concatenate([h[0], _reverse(h[1], rev)], axis=-1), (cache, rev)

    def backward(self, cache, d_out):
        cache, rev = cache
        H = self.hidden
        d_x = self.cell.backward(cache, np.stack([d_out[..., :H], _reverse(d_out[..., H:], rev)]))
        return d_x[0] + _reverse(d_x[1], rev)


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
    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        """Update every array of ``params`` in place."""
        self.t += 1
        b1t = 1.0 - self.B1**self.t
        b2t = 1.0 - self.B2**self.t
        for k, p in params.items():
            g = grads[k]
            m = self.m[k]
            v = self.v[k]
            m *= self.B1
            m += (1.0 - self.B1) * g
            v *= self.B2
            v += (1.0 - self.B2) * (g * g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.EPS)
