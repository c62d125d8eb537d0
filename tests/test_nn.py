"""The GRU and LSTM backward passes against per-step oracles, the
batched (..., s, d) paths against per-sequence loops, and the stacked
bidirectional recurrence against two separate cells.

The oracles are the straightforward backward loops: every parameter
gradient is accumulated as an outer product inside the time loop.  The
library versions keep only the recurrent products in the loop and form
the parameter gradients as matrix products afterwards, so the two agree
to float64 round-off.  The bidirectional layers must equal their
two-cell oracle exactly.
"""

import math

import numpy as np
import pytest

from segtool.nn import BiGru, BiLstm, Component, Gru, Lstm, _reversal, _reverse


class TwoCellBi(Component):
    """The bidirectional wrapper as two separate cells, one time loop
    each: the oracle for the one stacked recurrence of ``nn._Bi``.  Built
    from the same RNG state, its cells draw the stacked pair's parameters."""

    def __init__(self, cell_cls, rng, d_in, hidden, dtype=np.float64):
        super().__init__()
        self.hidden = hidden
        self.f = cell_cls(rng, d_in, hidden, dtype)
        self.b = cell_cls(rng, d_in, hidden, dtype)
        self._add_child("f_", self.f)
        self._add_child("b_", self.b)

    def forward(self, x, lengths=None):
        rev = _reversal(x.shape[-2], lengths)
        hf, cf = self.f.forward(x)
        hb_rev, cb = self.b.forward(_reverse(x, rev))
        out = np.concatenate([hf, _reverse(hb_rev, rev)], axis=-1)
        return out, (cf, cb, rev)

    def backward(self, cache, d_out):
        cf, cb, rev = cache
        H = self.hidden
        d_x = self.f.backward(cf, d_out[..., :H])
        d_x = d_x + _reverse(self.b.backward(cb, _reverse(d_out[..., H:], rev)), rev)
        return d_x


def gru_backward_oracle(cell, cache, d_h_seq):
    """Returns (d_x, grads) without touching ``cell.grads``."""
    x, hs, zs, rs, ns = cache
    H = cell.hidden
    s = x.shape[0]
    # the cached states of one sequence are (steps, 1, H): drop the row axis
    hs, zs, rs, ns = (a.reshape(len(a), H) for a in (hs, zs, rs, ns))
    U = cell.params["U"]
    grads = {k: np.zeros_like(v) for k, v in cell.params.items()}
    d_x = np.zeros_like(x)
    d_h = np.zeros(H, dtype=x.dtype)
    for t in range(s - 1, -1, -1):
        d_h = d_h + d_h_seq[t]
        h_prev = hs[t]
        z, r, n = zs[t], rs[t], ns[t]
        d_z = d_h * (n - h_prev)
        d_n = d_h * z
        d_hprev = d_h * (1.0 - z)

        d_n_pre = d_n * (1.0 - n * n)
        d_z_pre = d_z * z * (1.0 - z)
        d_rh = d_n_pre @ U[:, 2 * H :].T
        d_r = d_rh * h_prev
        d_h_gates = d_rh * r
        d_r_pre = d_r * r * (1.0 - r)

        d_pre = np.concatenate([d_z_pre, d_r_pre, d_n_pre])
        grads["W"] += np.outer(x[t], d_pre)
        grads["b"] += d_pre
        d_x[t] = d_pre @ cell.params["W"].T

        grads["U"][:, :H] += np.outer(h_prev, d_z_pre)
        grads["U"][:, H : 2 * H] += np.outer(h_prev, d_r_pre)
        grads["U"][:, 2 * H :] += np.outer(r * h_prev, d_n_pre)
        d_h_gates = d_h_gates + d_z_pre @ U[:, :H].T + d_r_pre @ U[:, H : 2 * H].T
        d_h = d_hprev + d_h_gates
    return d_x, grads


def lstm_backward_oracle(cell, cache, d_h_seq):
    """Returns (d_x, grads) without touching ``cell.grads``."""
    x, hs, cs, gates = cache
    H = cell.hidden
    s = x.shape[0]
    # the cached states of one sequence are (steps, 1, ...): drop the row axis
    hs, cs, gates = (a[:, 0] for a in (hs, cs, gates))
    U = cell.params["U"]
    grads = {k: np.zeros_like(v) for k, v in cell.params.items()}
    d_x = np.zeros_like(x)
    d_h = np.zeros(H, dtype=x.dtype)
    d_c = np.zeros(H, dtype=x.dtype)
    for t in range(s - 1, -1, -1):
        d_h = d_h + d_h_seq[t]
        i, f, g, o = gates[t]
        tc = np.tanh(cs[t + 1])
        d_o = d_h * tc
        d_c = d_c + d_h * o * (1.0 - tc * tc)
        d_i = d_c * g
        d_g = d_c * i
        d_f = d_c * cs[t]
        d_c = d_c * f
        d_pre = np.concatenate(
            [
                d_i * i * (1.0 - i),
                d_f * f * (1.0 - f),
                d_g * (1.0 - g * g),
                d_o * o * (1.0 - o),
            ]
        )
        grads["W"] += np.outer(x[t], d_pre)
        grads["U"] += np.outer(hs[t], d_pre)
        grads["b"] += d_pre
        d_x[t] = d_pre @ cell.params["W"].T
        d_h = d_pre @ U.T
    return d_x, grads


def _assert_matches(cell, cache, d_h_seq, oracle):
    d_x_ref, grads_ref = oracle(cell, cache, d_h_seq)
    cell.zero_grads()
    d_x = cell.backward(cache, d_h_seq)
    assert d_x.shape == d_x_ref.shape
    np.testing.assert_allclose(d_x, d_x_ref, rtol=1e-10)
    for k in cell.params:
        np.testing.assert_allclose(cell.grads[k], grads_ref[k], rtol=1e-10, err_msg=k)


def _input_dropout(rng, x, dropped):
    """``x`` as input dropout at rate 0.5 leaves it when ``dropped``: each
    entry zeroed or doubled, as the GRU sees its input in training."""
    return x * ((rng.random(x.shape) < 0.5) / 0.5).astype(x.dtype) if dropped else x


@pytest.mark.parametrize("dropped", [False, True])
@pytest.mark.parametrize("s", [0, 1, 5, 80])
def test_gru_backward_matches_oracle(s, dropped):
    rng = np.random.default_rng(10 + s)
    cell = Gru(rng, 6, 5)
    x = _input_dropout(rng, rng.standard_normal((s, 6)), dropped)
    _, cache = cell.forward(x)
    _assert_matches(cell, cache, rng.standard_normal((s, 5)), gru_backward_oracle)


@pytest.mark.parametrize("s", [0, 1, 5, 80])
def test_lstm_backward_matches_oracle(s):
    rng = np.random.default_rng(20 + s)
    cell = Lstm(rng, 6, 5)
    x = rng.standard_normal((s, 6))
    _, cache = cell.forward(x)
    _assert_matches(cell, cache, rng.standard_normal((s, 5)), lstm_backward_oracle)


@pytest.mark.parametrize("cls", [Gru, Lstm])
def test_backward_accumulates(cls):
    # a second backward adds to the gradients instead of overwriting them
    rng = np.random.default_rng(30)
    cell = cls(rng, 3, 4)
    x = rng.standard_normal((7, 3))
    _, cache = cell.forward(x)
    d_h_seq = rng.standard_normal((7, 4))
    cell.zero_grads()
    cell.backward(cache, d_h_seq)
    once = {k: g.copy() for k, g in cell.grads.items()}
    cell.backward(cache, d_h_seq)
    for k, g in cell.grads.items():
        np.testing.assert_allclose(g, 2 * once[k], rtol=1e-12, err_msg=k)


def _assert_batch_matches_loop(cell, x, d_h_seq):
    """(B, ..., s, d) input runs its sequences in lockstep: outputs, input
    gradients and summed parameter gradients equal a loop over the first
    axis."""
    outs, d_xs = [], []
    cell.zero_grads()
    for b in range(len(x)):
        h, cache = cell.forward(x[b])
        outs.append(h)
        d_xs.append(cell.backward(cache, d_h_seq[b]))
    grads_ref = {k: g.copy() for k, g in cell.grads.items()}

    cell.zero_grads()
    h, cache = cell.forward(x)
    d_x = cell.backward(cache, d_h_seq)
    np.testing.assert_allclose(h, np.stack(outs), rtol=1e-10)
    np.testing.assert_allclose(d_x, np.stack(d_xs), rtol=1e-10)
    for k in cell.params:
        np.testing.assert_allclose(cell.grads[k], grads_ref[k], rtol=1e-10, err_msg=k)


# the (3, 2) lead flattens into the recurrent core's one row axis: one
# (3, 2, s, d) call against three (2, s, d) calls
@pytest.mark.parametrize("lead", [(1,), (3,), (3, 2)], ids=["1", "3", "3x2"])
@pytest.mark.parametrize("s", [1, 5])
def test_lstm_batch_matches_per_sequence(lead, s):
    rng = np.random.default_rng(40 + 10 * math.prod(lead) + s)
    cell = Lstm(rng, 6, 5)
    x = rng.standard_normal(lead + (s, 6))
    _assert_batch_matches_loop(cell, x, rng.standard_normal(lead + (s, 5)))


@pytest.mark.parametrize("dropped", [False, True])
@pytest.mark.parametrize("lead", [(1,), (3,), (3, 2)], ids=["1", "3", "3x2"])
def test_gru_batch_matches_per_sequence(lead, dropped):
    rng = np.random.default_rng(60 + 10 * math.prod(lead) + dropped)
    cell = Gru(rng, 6, 5)
    x = _input_dropout(rng, rng.standard_normal(lead + (7, 6)), dropped)
    _assert_batch_matches_loop(cell, x, rng.standard_normal(lead + (7, 5)))


@pytest.mark.parametrize("cls, dropped", [(BiGru, False), (BiGru, True), (BiLstm, False)])
def test_bi_ragged_matches_per_sequence(cls, dropped):
    # zero-padded sequences of lengths 1, 7 and 4: the backward cell sees
    # each reversed within its own length, so the valid outputs and all
    # gradients equal unpadded per-sequence calls, and the padded inputs
    # get no gradient
    rng = np.random.default_rng(70 + dropped)
    bi = cls(rng, 6, 5)
    lengths = np.array([1, 7, 4])
    x = rng.standard_normal((3, 7, 6))
    d_out = rng.standard_normal((3, 7, 10))
    for b, n in enumerate(lengths):
        x[b, n:] = 0.0
        d_out[b, n:] = 0.0
    x = _input_dropout(rng, x, dropped)

    outs, d_xs = [], []
    bi.zero_grads()
    for b, n in enumerate(lengths):
        h, cache = bi.forward(x[b, :n])
        outs.append(h)
        d_xs.append(bi.backward(cache, d_out[b, :n]))
    grads_ref = {k: g.copy() for k, g in bi.grads.items()}

    bi.zero_grads()
    h, cache = bi.forward(x, lengths=lengths)
    d_x = bi.backward(cache, d_out)
    for b, n in enumerate(lengths):
        np.testing.assert_allclose(h[b, :n], outs[b], rtol=1e-10)
        np.testing.assert_allclose(d_x[b, :n], d_xs[b], rtol=1e-10)
        assert np.all(d_x[b, n:] == 0.0)
    for k in bi.params:
        np.testing.assert_allclose(bi.grads[k], grads_ref[k], rtol=1e-10, err_msg=k)


def _stacked_and_oracle(cls, seed, d_in, hidden, dtype):
    bi = cls(np.random.default_rng(seed), d_in, hidden, dtype)
    ref = TwoCellBi(cls.cell_cls, np.random.default_rng(seed), d_in, hidden, dtype)
    assert list(bi.params) == list(ref.params) == list(bi.grads)
    for k in bi.params:
        assert np.array_equal(bi.params[k], ref.params[k]), k
    return bi, ref


def _assert_runs_equal(bi, ref, run):
    """``run(layer)`` returns a list of arrays; both layers' results and
    every parameter gradient must be exactly equal."""
    results = []
    for layer in (bi, ref):
        layer.zero_grads()
        results.append(run(layer) + [layer.grads[k].copy() for k in layer.params])
    for got, want in zip(*results):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead, ragged", [
    ((), False), ((1,), False), ((1,), True), ((8,), False), ((8,), True),
    ((32,), True), ((3, 2), True),
])
@pytest.mark.parametrize("cls, dropped", [(BiGru, False), (BiGru, True), (BiLstm, False)])
def test_stacked_bi_equals_two_cells(cls, dropped, lead, ragged, dtype):
    # outputs, input gradients and every parameter gradient, exactly; the
    # ragged batches hold lengths 1 and T
    seed = 100 + 7 * len(lead) + sum(lead) + 3 * ragged + dropped
    bi, ref = _stacked_and_oracle(cls, seed, 6, 5, dtype)
    rng = np.random.default_rng(seed + 1)
    T = 9
    x = rng.standard_normal(lead + (T, 6)).astype(dtype)
    d_out = rng.standard_normal(lead + (T, 10)).astype(dtype)
    lengths = None
    if ragged:
        lengths = rng.integers(1, T + 1, size=lead)
        lengths.flat[0], lengths.flat[-1] = 1, T
        padded = np.arange(T) >= lengths[..., None]
        x[padded] = 0.0
        d_out[padded] = 0.0
    x = _input_dropout(rng, x, dropped)

    def run(layer):
        h, cache = layer.forward(x, lengths=lengths)
        return [h, layer.backward(cache, d_out)]

    _assert_runs_equal(bi, ref, run)


def test_stacked_bi_names_views_of_the_pair():
    # f_/b_ name the [0]/[1] views: writing through one moves the stacked
    # array the recurrence reads, and zero_grads clears both directions
    bi = BiGru(np.random.default_rng(0), 3, 2)
    for k, prefix in enumerate(("f_", "b_")):
        for name in ("W", "U", "b"):
            view, stacked = bi.params[prefix + name], bi.cell.params[name]
            assert view.base is stacked and view.shape == stacked.shape[1:]
            view[...] = k + 1.0
            assert np.all(stacked[k] == k + 1.0)
            assert bi.grads[prefix + name].base is bi.cell.grads[name]
    for g in bi.cell.grads.values():
        g[...] = 1.0
    bi.zero_grads()
    assert all(not g.any() for g in bi.cell.grads.values())
