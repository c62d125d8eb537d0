import numpy as np
import pytest

from segtool.encoder import (
    AttentionLayer,
    BiGruEncoder,
    DimMismatch,
    EncoderError,
    scaled_dot_attention,
)


def fd_check(params_grads, loss, rng, step=1e-6, samples=4, tol=1e-4):
    for name, p, g in params_grads:
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for i in rng.choice(flat.size, size=min(samples, flat.size), replace=False):
            old = flat[i]
            flat[i] = old + step
            lp = loss()
            flat[i] = old - step
            lm = loss()
            flat[i] = old
            fd = (lp - lm) / (2 * step)
            assert abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i])) < tol, name


def per_sequence_mask(rng, x, lengths, rate):
    """The input-dropout mask for ``x`` drawn one sequence at a time, its
    valid rows only: the oracle for BiGruEncoder.encode's one draw."""
    keep = 1.0 - rate
    mask = np.zeros(x.shape, dtype=x.dtype)
    lead, s = x.shape[:-2], x.shape[-2]
    n_valid = np.broadcast_to(s if lengths is None else lengths, lead)
    for b in np.ndindex(lead):
        n = n_valid[b]
        mask[b][:n] = (rng.random((n, x.shape[-1])) < keep) / keep
    return mask


class TestBiGruEncoder:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        enc = BiGruEncoder(rng, 5, 4)
        out, _ = enc.encode(rng.standard_normal((7, 5)))
        assert out.shape == (7, 8)
        assert enc.out_dim == 8

    def test_single_step(self):
        # with one token both directions see the same single input
        rng = np.random.default_rng(1)
        enc = BiGruEncoder(rng, 3, 2)
        out, _ = enc.encode(rng.standard_normal((1, 3)))
        assert out.shape == (1, 4)
        assert np.all(np.isfinite(out))

    def test_dim_mismatch(self):
        rng = np.random.default_rng(2)
        enc = BiGruEncoder(rng, 3, 2)
        with pytest.raises(DimMismatch):
            enc.encode(rng.standard_normal((4, 5)))

    def test_bad_dropout(self):
        with pytest.raises(EncoderError):
            BiGruEncoder(np.random.default_rng(0), 3, 2, dropout_rate=1.0)

    def test_tied_params_reversal_symmetry(self):
        # with backward-direction params copied from the forward direction,
        # the forward half on x equals the (position-mirrored) backward
        # half on reversed x
        rng = np.random.default_rng(3)
        enc = BiGruEncoder(rng, 4, 3)
        for k in list(enc.params):
            if k.startswith("f_"):
                enc.params["b_" + k[2:]][...] = enc.params[k]
        x = rng.standard_normal((6, 4))
        out, _ = enc.encode(x)
        out_rev, _ = enc.encode(x[::-1])
        h = enc.hidden
        assert np.allclose(out[:, :h], out_rev[::-1, h:], atol=1e-12)

    def test_forward_half_causal(self):
        # perturbing a suffix cannot change earlier forward states, and
        # perturbing a prefix cannot change later backward states
        rng = np.random.default_rng(4)
        enc = BiGruEncoder(rng, 4, 3)
        x = rng.standard_normal((8, 4))
        out, _ = enc.encode(x)
        y = x.copy()
        y[5:] += rng.standard_normal((3, 4))
        out_suffix, _ = enc.encode(y)
        h = enc.hidden
        assert np.array_equal(out[:5, :h], out_suffix[:5, :h])
        z = x.copy()
        z[:3] += rng.standard_normal((3, 4))
        out_prefix, _ = enc.encode(z)
        assert np.array_equal(out[3:, h:], out_prefix[3:, h:])

    def test_dropout_off_at_inference(self):
        rng = np.random.default_rng(5)
        enc = BiGruEncoder(rng, 4, 3, dropout_rate=0.5)
        x = rng.standard_normal((5, 4))
        a, _ = enc.encode(x)
        b, _ = enc.encode(x)
        assert np.array_equal(a, b)
        c, _ = enc.encode(x, rng=np.random.default_rng(0))
        d, _ = enc.encode(x, rng=np.random.default_rng(1))
        assert not np.array_equal(c, d)

    def test_finite_difference(self):
        rng = np.random.default_rng(6)
        enc = BiGruEncoder(rng, 3, 2)
        x = rng.standard_normal((5, 3))
        w = rng.standard_normal((5, 4))

        def loss():
            out, _ = enc.encode(x)
            return float((out * w).sum())

        out, cache = enc.encode(x)
        enc.zero_grads()
        d_x = enc.backward(cache, w)
        checks = [("x", x, d_x)] + [(k, enc.params[k], enc.grads[k]) for k in enc.params]
        fd_check(checks, loss, rng)

    def test_finite_difference_input_dropout(self):
        # a ragged batch under the same input mask on every loss call:
        # reseed the dropout rng
        rng = np.random.default_rng(7)
        enc = BiGruEncoder(rng, 3, 4, dropout_rate=0.5)
        lengths = np.array([2, 6, 4])
        padded = np.arange(6) >= lengths[:, None]
        x = rng.standard_normal((3, 6, 3))
        w = rng.standard_normal((3, 6, 8))
        x[padded] = 0.0
        w[padded] = 0.0

        def encode():
            return enc.encode(x, rng=np.random.default_rng(11), lengths=lengths)

        def loss():
            return float((encode()[0] * w).sum())

        out, cache = encode()
        in_mask = cache[1]
        assert np.any(in_mask[~padded] == 0) and np.any(in_mask[~padded] != 0)
        assert not in_mask[padded].any()
        enc.zero_grads()
        d_x = enc.backward(cache, w)
        checks = [("x", x, d_x)] + [(k, enc.params[k], enc.grads[k]) for k in enc.params]
        fd_check(checks, loss, rng, samples=8)

    @pytest.mark.parametrize("lead, lengths", [
        ((), None), ((4,), None), ((4,), [3, 1, 5, 2]), ((3, 2), [[1, 5], [4, 4], [2, 3]]),
    ], ids=["one", "batch", "ragged", "two-axes"])
    def test_one_draw_equals_per_sequence_masks(self, lead, lengths):
        # the mask is drawn in one call, in (sequence, step) order: it equals
        # one draw per sequence of its valid rows, and leaves the rng where
        # those draws leave it
        enc = BiGruEncoder(np.random.default_rng(8), 3, 2, dropout_rate=0.4)
        x = np.ones(lead + (5, 3), dtype=np.float32)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        _, (_, mask) = enc.encode(x, rng=rng, lengths=lengths)
        ref = per_sequence_mask(ref_rng, x, lengths, 0.4)
        assert mask.dtype == np.float32 and np.array_equal(mask, ref)
        assert rng.random() == ref_rng.random()


def attention_oracle(q, k, v):
    s, d = q.shape
    out = np.zeros((s, v.shape[1]))
    for i in range(s):
        scores = np.array([q[i] @ k[j] / np.sqrt(d) for j in range(s)])
        exp = np.exp(scores - scores.max())
        w = exp / exp.sum()
        out[i] = sum(w[j] * v[j] for j in range(s))
    return out


class TestAttention:
    def test_single_token_identity(self):
        rng = np.random.default_rng(0)
        layer = AttentionLayer(rng, "unweighted", 4)
        h = rng.standard_normal((1, 4))
        out, _ = layer.forward(h)
        assert np.allclose(out, h)

    def test_identical_rows(self):
        rng = np.random.default_rng(1)
        layer = AttentionLayer(rng, "unweighted", 4)
        row = rng.standard_normal(4)
        out, _ = layer.forward(np.tile(row, (5, 1)))
        assert np.allclose(out, row)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        q, k, v = (rng.standard_normal((6, 4)) for _ in range(3))
        _, attn, _ = scaled_dot_attention(q, k, v)
        assert np.allclose(attn.sum(axis=1), 1.0)
        assert np.all(attn >= 0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.standard_normal((5, 3)) for _ in range(3))
        out, _, _ = scaled_dot_attention(q, k, v)
        assert np.allclose(out, attention_oracle(q, k, v), atol=1e-12)

    def test_weighted_uses_projections(self):
        rng = np.random.default_rng(4)
        layer = AttentionLayer(rng, "weighted", 4, d_a=3)
        h = rng.standard_normal((5, 4))
        out, _ = layer.forward(h)
        assert out.shape == (5, 3)
        q, k, v = (h @ layer.params[w] for w in ("Wq", "Wk", "Wv"))
        assert np.allclose(out, attention_oracle(q, k, v), atol=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(EncoderError):
            AttentionLayer(np.random.default_rng(0), "multihead", 4)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(5)
        layer = AttentionLayer(rng, "unweighted", 4)
        with pytest.raises(DimMismatch):
            layer.forward(rng.standard_normal((3, 5)))

    @pytest.mark.parametrize("mode", ["weighted", "unweighted"])
    def test_finite_difference(self, mode):
        rng = np.random.default_rng(6)
        layer = AttentionLayer(rng, mode, 4, d_a=3)
        h = rng.standard_normal((5, 4))
        w = rng.standard_normal((5, layer.out_dim))

        def loss():
            out, _ = layer.forward(h)
            return float((out * w).sum())

        out, cache = layer.forward(h)
        layer.zero_grads()
        d_h = layer.backward(cache, w)
        checks = [("h", h, d_h)] + [(k, layer.params[k], layer.grads[k]) for k in layer.params]
        fd_check(checks, loss, rng)

    @pytest.mark.parametrize("mode", ["weighted", "unweighted"])
    def test_masked_rows_match_unpadded(self, mode):
        # padded keys get weight 0: the valid rows of a zero-padded batch,
        # and every gradient, equal per-sequence calls on the unpadded rows
        rng = np.random.default_rng(8)
        layer = AttentionLayer(rng, mode, 4, d_a=3)
        lengths = np.array([2, 5, 1])
        h = rng.standard_normal((3, 5, 4))
        d_out = rng.standard_normal((3, 5, layer.out_dim))
        for b, n in enumerate(lengths):
            d_out[b, n:] = 0.0
        layer.zero_grads()
        outs, d_hs = [], []
        for b, n in enumerate(lengths):
            out, cache = layer.forward(h[b, :n])
            outs.append(out)
            d_hs.append(layer.backward(cache, d_out[b, :n]))
        grads_ref = {k: g.copy() for k, g in layer.grads.items()}

        layer.zero_grads()
        out, cache = layer.forward(h, lengths)
        d_h = layer.backward(cache, d_out)
        for b, n in enumerate(lengths):
            np.testing.assert_allclose(out[b, :n], outs[b], rtol=1e-10)
            np.testing.assert_allclose(d_h[b, :n], d_hs[b], rtol=1e-10)
            assert np.all(d_h[b, n:] == 0.0)
        for k in layer.params:
            np.testing.assert_allclose(layer.grads[k], grads_ref[k], rtol=1e-10, err_msg=k)
