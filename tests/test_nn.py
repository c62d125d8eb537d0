"""The GRU and LSTM backward passes against per-step oracles, and the
batched (..., s, d) paths against per-sequence loops.

The oracles are the straightforward backward loops: every parameter
gradient is accumulated as an outer product inside the time loop.  The
library versions keep only the recurrent products in the loop and form
the parameter gradients as matrix products afterwards, so the two agree
to float64 round-off.
"""

import numpy as np
import pytest

from segtool.nn import BiGru, BiLstm, Gru, Lstm


def gru_backward_oracle(cell, cache, d_h_seq):
    """Returns (d_x, grads) without touching ``cell.grads``."""
    x, hs, zs, rs, ns, hms, rec_mask = cache
    H = cell.hidden
    s = x.shape[0]
    U = cell.params["U"]
    grads = {k: np.zeros_like(v) for k, v in cell.params.items()}
    d_x = np.zeros_like(x)
    d_h = np.zeros(H, dtype=x.dtype)
    for t in range(s - 1, -1, -1):
        d_h = d_h + d_h_seq[t]
        h_prev, hm = hs[t], hms[t]
        z, r, n = zs[t], rs[t], ns[t]
        d_z = d_h * (n - h_prev)
        d_n = d_h * z
        d_hprev = d_h * (1.0 - z)

        d_n_pre = d_n * (1.0 - n * n)
        d_z_pre = d_z * z * (1.0 - z)
        d_rhm = d_n_pre @ U[:, 2 * H :].T
        d_r = d_rhm * hm
        d_hm = d_rhm * r
        d_r_pre = d_r * r * (1.0 - r)

        d_pre = np.concatenate([d_z_pre, d_r_pre, d_n_pre])
        grads["W"] += np.outer(x[t], d_pre)
        grads["b"] += d_pre
        d_x[t] = d_pre @ cell.params["W"].T

        grads["U"][:, :H] += np.outer(hm, d_z_pre)
        grads["U"][:, H : 2 * H] += np.outer(hm, d_r_pre)
        grads["U"][:, 2 * H :] += np.outer(r * hm, d_n_pre)
        d_hm = d_hm + d_z_pre @ U[:, :H].T + d_r_pre @ U[:, H : 2 * H].T
        if rec_mask is not None:
            d_hprev = d_hprev + d_hm * rec_mask
        else:
            d_hprev = d_hprev + d_hm
        d_h = d_hprev
    return d_x, grads


def lstm_backward_oracle(cell, cache, d_h_seq):
    """Returns (d_x, grads) without touching ``cell.grads``."""
    x, hs, cs, gates = cache
    H = cell.hidden
    s = x.shape[0]
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


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("s", [0, 1, 5, 80])
def test_gru_backward_matches_oracle(s, masked):
    rng = np.random.default_rng(10 + s)
    cell = Gru(rng, 6, 5)
    x = rng.standard_normal((s, 6))
    rec_mask = (rng.random(5) < 0.5) / 0.5 if masked else None
    _, cache = cell.forward(x, rec_mask=rec_mask)
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


def _mask_kw(rec_mask, b=Ellipsis):
    """Keyword arguments passing sequence b's row of a recurrent mask (all
    rows by default), or none without a mask."""
    return {} if rec_mask is None else {"rec_mask": rec_mask[b]}


def _assert_batch_matches_loop(cell, x, d_h_seq, rec_mask=None):
    """(B, s, d) input runs B independent sequences in lockstep: outputs,
    input gradients and summed parameter gradients equal a per-sequence
    loop (with that sequence's row of ``rec_mask``)."""
    outs, d_xs = [], []
    cell.zero_grads()
    for b in range(len(x)):
        h, cache = cell.forward(x[b], **_mask_kw(rec_mask, b))
        outs.append(h)
        d_xs.append(cell.backward(cache, d_h_seq[b]))
    grads_ref = {k: g.copy() for k, g in cell.grads.items()}

    cell.zero_grads()
    h, cache = cell.forward(x, **_mask_kw(rec_mask))
    d_x = cell.backward(cache, d_h_seq)
    np.testing.assert_allclose(h, np.stack(outs), rtol=1e-10)
    np.testing.assert_allclose(d_x, np.stack(d_xs), rtol=1e-10)
    for k in cell.params:
        np.testing.assert_allclose(cell.grads[k], grads_ref[k], rtol=1e-10, err_msg=k)


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("s", [1, 5])
def test_lstm_batch_matches_per_sequence(B, s):
    rng = np.random.default_rng(40 + 10 * B + s)
    cell = Lstm(rng, 6, 5)
    x = rng.standard_normal((B, s, 6))
    _assert_batch_matches_loop(cell, x, rng.standard_normal((B, s, 5)))


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("B", [1, 3])
def test_gru_batch_matches_per_sequence(B, masked):
    # one recurrent-dropout row per sequence
    rng = np.random.default_rng(60 + 10 * B + masked)
    cell = Gru(rng, 6, 5)
    x = rng.standard_normal((B, 7, 6))
    rec_mask = (rng.random((B, 5)) < 0.5) / 0.5 if masked else None
    _assert_batch_matches_loop(cell, x, rng.standard_normal((B, 7, 5)), rec_mask)


@pytest.mark.parametrize("cls, masked", [(BiGru, False), (BiGru, True), (BiLstm, False)])
def test_bi_ragged_matches_per_sequence(cls, masked):
    # zero-padded sequences of lengths 1, 7 and 4: the backward cell sees
    # each reversed within its own length, so the valid outputs and all
    # gradients equal unpadded per-sequence calls, and the padded inputs
    # get no gradient
    rng = np.random.default_rng(70 + masked)
    bi = cls(rng, 6, 5)
    lengths = np.array([1, 7, 4])
    x = rng.standard_normal((3, 7, 6))
    d_out = rng.standard_normal((3, 7, 10))
    for b, n in enumerate(lengths):
        x[b, n:] = 0.0
        d_out[b, n:] = 0.0
    rec_mask = (rng.random((3, 5)) < 0.5) / 0.5 if masked else None

    outs, d_xs = [], []
    bi.zero_grads()
    for b, n in enumerate(lengths):
        h, cache = bi.forward(x[b, :n], **_mask_kw(rec_mask, b))
        outs.append(h)
        d_xs.append(bi.backward(cache, d_out[b, :n]))
    grads_ref = {k: g.copy() for k, g in bi.grads.items()}

    bi.zero_grads()
    h, cache = bi.forward(x, lengths=lengths, **_mask_kw(rec_mask))
    d_x = bi.backward(cache, d_out)
    for b, n in enumerate(lengths):
        np.testing.assert_allclose(h[b, :n], outs[b], rtol=1e-10)
        np.testing.assert_allclose(d_x[b, :n], d_xs[b], rtol=1e-10)
        assert np.all(d_x[b, n:] == 0.0)
    for k in bi.params:
        np.testing.assert_allclose(bi.grads[k], grads_ref[k], rtol=1e-10, err_msg=k)
