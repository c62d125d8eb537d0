import numpy as np
import pytest

from segtool import synth
from segtool.embeddings import (
    CharEncoder,
    ContextualStreamSet,
    EmptyToken,
    FormatError,
    LookupTable,
    MetaCombiner,
    StreamCountMismatch,
    SubwordHashEmbedder,
    TokenCountMismatch,
    combine,
    fnv1a,
    load_lookup_table,
    load_streams,
    save_lookup_table,
    save_streams,
    token_ngrams,
)
from segtool.trainer import SegModel, TrainConfig


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestLookup:
    def test_known_and_unk(self):
        mat = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        t = LookupTable({"ls": 1, "cd": 2}, mat)
        assert np.array_equal(t.embed("ls"), [1.0, 2.0])
        assert np.array_equal(t.embed("unknown-token"), [0.0, 0.0])

    def test_sequence(self):
        mat = np.array([[0.0], [5.0]])
        t = LookupTable({"a": 1}, mat)
        out, idx = t.embed_sequence(["a", "b", "a"])
        assert np.array_equal(out[:, 0], [5.0, 0.0, 5.0])
        assert list(idx) == [1, 0, 1]

    def test_from_tokens_dedup(self):
        rng = np.random.default_rng(0)
        t = LookupTable.from_tokens(["a", "b", "a"], 4, rng)
        assert set(t.vocab) == {"a", "b"}
        assert t.params["matrix"].shape == (3, 4)

    def test_text_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        t = LookupTable.from_tokens(["ls", "/etc", "grep"], 5, rng)
        path = tmp_path / "vecs.txt"
        save_lookup_table(t, path)
        loaded = load_lookup_table(path)
        for tok in t.vocab:
            assert np.array_equal(loaded.embed(tok), t.embed(tok))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n")
        with pytest.raises(FormatError):
            load_lookup_table(path)

    def test_backward_accumulates(self):
        rng = np.random.default_rng(2)
        t = LookupTable.from_tokens(["a"], 3, rng, trainable=True)
        _, idx = t.embed_sequence(["a", "a"])
        t.backward_sequence(idx, np.ones((2, 3)))
        assert np.array_equal(t.grads["matrix"][t.vocab["a"]], [2.0, 2.0, 2.0])


class TestSubword:
    def test_ngram_enumeration(self):
        # "<cat>" has length 5: 3-grams <ca cat at>, 4-grams <cat cat>,
        # 5-gram <cat>, plus the whole padded word appended once more
        grams = token_ngrams("cat", 3, 6)
        assert grams == ["<ca", "cat", "at>", "<cat", "cat>", "<cat>", "<cat>"]

    def test_short_token(self):
        assert token_ngrams("a", 3, 6) == ["<a>", "<a>"]

    def test_fnv1a_reference(self):
        # published FNV-1a 64-bit test vectors
        assert fnv1a(b"") == 0xCBF29CE484222325
        assert fnv1a(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a(b"foobar") == 0x85944171F73967E8

    def test_seed_changes_hash(self):
        assert fnv1a(b"abc", 0) != fnv1a(b"abc", 1)

    def test_embed_is_mean_of_buckets(self):
        rng = np.random.default_rng(3)
        emb = SubwordHashEmbedder(rng, dim=6, n_buckets=97)
        idx = emb.bucket_indices("wireless")
        expected = emb.params["buckets"][idx].mean(axis=0)
        assert np.allclose(emb.embed("wireless"), expected)

    def test_shared_ngrams_give_similar_vectors(self):
        # URL-like tokens sharing most character n-grams should be closer
        # to each other than to an unrelated word
        rng = np.random.default_rng(4)
        emb = SubwordHashEmbedder(rng, dim=32, n_buckets=2**15)
        u1 = emb.embed("http://example.com/wireless/setup")
        u2 = emb.embed("http://example.com/wireless/guide")
        w = emb.embed("wireless")
        assert cosine(u1, u2) > cosine(u1, w)
        assert cosine(u1, u2) > cosine(u2, w)

    def test_empty_token(self):
        rng = np.random.default_rng(5)
        with pytest.raises(EmptyToken):
            SubwordHashEmbedder(rng, dim=4, n_buckets=8).embed("")

    def test_deterministic(self):
        a = SubwordHashEmbedder(np.random.default_rng(7), dim=4, n_buckets=64)
        b = SubwordHashEmbedder(np.random.default_rng(7), dim=4, n_buckets=64)
        assert np.array_equal(a.embed("token"), b.embed("token"))


class TestCharEncoder:
    def test_output_dim_default(self):
        rng = np.random.default_rng(0)
        enc = CharEncoder(rng, "abc")
        vec = enc.forward_tokens(["cab"])[0][0]
        assert vec.shape == (80,)

    def test_unknown_chars_fall_back(self):
        rng = np.random.default_rng(1)
        enc = CharEncoder(rng, "ab", char_dim=4, hidden=3)
        # "xy" and "zq" are all-unknown, same length: identical encodings
        v1 = enc.forward_tokens(["xy"])[0][0]
        v2 = enc.forward_tokens(["zq"])[0][0]
        assert np.array_equal(v1, v2)

    def test_direction_sensitivity(self):
        rng = np.random.default_rng(2)
        enc = CharEncoder(rng, "ab", char_dim=4, hidden=3)
        v_ab = enc.forward_tokens(["ab"])[0][0]
        v_ba = enc.forward_tokens(["ba"])[0][0]
        assert not np.array_equal(v_ab, v_ba)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        enc = CharEncoder(rng, "abcd", char_dim=3, hidden=2)
        w = rng.standard_normal(4)
        token = "abdca"

        def loss():
            vec = enc.forward_tokens([token])[0][0]
            return float(w @ vec)

        _, cache = enc.forward_tokens([token])
        enc.zero_grads()
        enc.backward_tokens(cache, w[None])
        step = 1e-5
        for name, p in enc.params.items():
            flat = p.reshape(-1)
            g = enc.grads[name].reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                old = flat[i]
                flat[i] = old + step
                lp = loss()
                flat[i] = old - step
                lm = loss()
                flat[i] = old
                fd = (lp - lm) / (2 * step)
                assert abs(fd - g[i]) / max(1.0, abs(fd), abs(g[i])) < 1e-4, name


def char_forward_oracle(enc, token):
    """One biLSTM call per token (the encoder before it batched tokens)."""
    x, idx = enc.table.embed_sequence(list(token))
    out, cache = enc.rnn.forward(x)
    return enc.rnn.final_states(out), (idx, cache, len(token))


def char_backward_oracle(enc, cache, d_vec):
    idx, rnn_cache, s = cache
    d_x = enc.rnn.backward_from_final(rnn_cache, d_vec, s)
    enc.table.backward_sequence(idx, d_x)


class PerTokenCharEncoder(CharEncoder):
    """Encodes and back-propagates token by token with the oracle above."""

    def forward_tokens(self, tokens):
        vecs, caches = zip(*(char_forward_oracle(self, t) for t in tokens))
        return np.stack(vecs), caches

    def backward_tokens(self, caches, d_vecs):
        for c, d in zip(caches, d_vecs):
            char_backward_oracle(self, c, d)


class PerStreamContext:
    """The cdme context biLSTM run once per stream (the combiner before it
    batched its streams); parameters and gradients are the wrapped one's."""

    def __init__(self, rnn):
        self.rnn = rnn

    def __getattr__(self, name):
        return getattr(self.rnn, name)

    def forward(self, proj):
        outs, caches = zip(*(self.rnn.forward(p) for p in proj))
        return np.stack(outs), caches

    def backward(self, caches, d_h):
        return np.stack([self.rnn.backward(c, d) for c, d in zip(caches, d_h)])


# lengths 1, 2 and 5; repeated tokens; "q", "x" and "z" are not in the vocabulary
TOKENS = ["ab", "a", "abcde", "ab", "qz", "a", "xbcqa", "abcde", "q"]


class TestBatchedCharEncoder:
    def test_matches_per_token_oracle(self):
        batched = CharEncoder(np.random.default_rng(9), "abcde", char_dim=4, hidden=3)
        oracle = PerTokenCharEncoder(np.random.default_rng(9), "abcde", char_dim=4, hidden=3)
        d_vecs = np.random.default_rng(10).standard_normal((len(TOKENS), batched.out_dim))
        out = []
        for enc in (batched, oracle):
            vecs, cache = enc.forward_tokens(TOKENS)
            enc.zero_grads()
            enc.backward_tokens(cache, d_vecs)
            out.append(vecs)
        np.testing.assert_allclose(out[0], out[1], rtol=1e-10)
        for k in batched.params:
            np.testing.assert_allclose(batched.grads[k], oracle.grads[k], rtol=1e-10, err_msg=k)
        # the one-token call gives the same encoding
        np.testing.assert_allclose(
            batched.forward("xbcqa")[0], out[0][TOKENS.index("xbcqa")], rtol=1e-10
        )

    def test_empty_token(self):
        enc = CharEncoder(np.random.default_rng(0), "ab")
        with pytest.raises(EmptyToken):
            enc.forward_tokens(["ab", ""])


class SegModel64(SegModel):
    DTYPE = np.float64


def test_model_matches_per_token_per_stream_oracle():
    # the whole model, float64: batching the char biLSTM over tokens and the
    # cdme context biLSTM over streams leaves loss and gradients unchanged
    docs = synth.gen_corpus(n_docs=6, seed=4)
    streams = synth.gen_streams(docs, seed=4)
    tokens = [t for d in docs for t in d.token_texts()]
    assert len({len(t) for t in tokens}) > 1 and len(set(tokens)) < len(tokens)
    chars = "".join(sorted({c for t in tokens for c in t}))
    cfg = TrainConfig(
        hidden=6, lookup_dim=4, use_char=True, char_dim=3, char_hidden=4,
        combiner_mode="cdme", d_prime=5, attention_mode="weighted", attention_dim=4,
        dropout=0.0,
    )
    batched = SegModel64(cfg, tokens, chars, streams.dims)
    oracle = SegModel64(cfg, tokens, chars, streams.dims)
    oracle.char.__class__ = PerTokenCharEncoder
    oracle.combiner.context = PerStreamContext(oracle.combiner.context)
    batched.zero_grads()
    oracle.zero_grads()
    for doc in docs:
        loss = batched.doc_loss(doc, streams, train=True, scale=0.5)
        assert loss == pytest.approx(oracle.doc_loss(doc, streams, train=True, scale=0.5),
                                     rel=1e-10, abs=0)
    expected = oracle.named_grads()
    for k, g in batched.named_grads().items():
        if k == "comb.b":
            # softmax over streams ignores a shift shared by all logits, so
            # this gradient is zero up to round-off in both
            assert abs(g) < 1e-14 and abs(expected[k]) < 1e-14
            continue
        np.testing.assert_allclose(g, expected[k], rtol=1e-10, err_msg=k)


def make_streams(rng, dims, docs):
    vectors = {
        doc_id: [rng.standard_normal((count, d)).astype(np.float32).astype(float)
                 for d in dims]
        for doc_id, count in docs
    }
    return ContextualStreamSet(list(dims), vectors)


class TestStreamFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        streams = make_streams(rng, [3, 5], [("a", 4), ("b", 0), ("c", 7)])
        path = tmp_path / "s.bin"
        save_streams(streams, path)
        loaded = load_streams(path)
        assert loaded.dims == [3, 5]
        assert set(loaded.vectors) == {"a", "b", "c"}
        for doc_id in streams.vectors:
            for orig, got in zip(streams.vectors[doc_id], loaded.vectors[doc_id]):
                assert np.array_equal(orig, got)

    def test_standard_four_stream_dims(self, tmp_path):
        rng = np.random.default_rng(1)
        dims = [1024, 256, 256, 256]
        streams = make_streams(rng, dims, [("q1", 2)])
        path = tmp_path / "four.bin"
        save_streams(streams, path)
        assert load_streams(path).dims == dims

    def test_token_count_validation(self, tmp_path):
        rng = np.random.default_rng(2)
        streams = make_streams(rng, [4], [("a", 5)])
        path = tmp_path / "s.bin"
        save_streams(streams, path)
        assert load_streams(path, {"a": 5}).for_doc("a")[0].shape == (5, 4)
        with pytest.raises(TokenCountMismatch) as exc:
            load_streams(path, {"a": 6})
        assert exc.value.doc_id == "a"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!123")
        with pytest.raises(FormatError):
            load_streams(path)

    def test_duplicate_doc_id(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "s.bin"
        save_streams(make_streams(rng, [4], [("a", 2)]), path)
        data = path.read_bytes()
        header = 5 + 4 + 4  # magic, stream count, one dim
        path.write_bytes(data + data[header:])
        with pytest.raises(FormatError, match="'a'"):
            load_streams(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(3)
        streams = make_streams(rng, [4], [("a", 5)])
        path = tmp_path / "s.bin"
        save_streams(streams, path)
        (tmp_path / "t.bin").write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_streams(tmp_path / "t.bin")


def dense_dme_oracle(streams, P, bvecs, a, b):
    """Straight-loop Eq. implementation: alpha_{i,j} = softmax_i(a . w'_{i,j} + b),
    output_j = sum_i alpha_{i,j} w'_{i,j}."""
    n, s = len(streams), streams[0].shape[0]
    out = np.zeros((s, P[0].shape[1]))
    alphas = np.zeros((n, s))
    for j in range(s):
        proj = [P[i].T @ streams[i][j] + bvecs[i] for i in range(n)]
        logits = np.array([a @ proj[i] + b for i in range(n)])
        exp = np.exp(logits - logits.max())
        alpha = exp / exp.sum()
        alphas[:, j] = alpha
        out[j] = sum(alpha[i] * proj[i] for i in range(n))
    return out, alphas


class TestCombiner:
    def test_concat(self):
        rng = np.random.default_rng(0)
        c = MetaCombiner(rng, "concat", [2, 3])
        s1, s2 = rng.standard_normal((4, 2)), rng.standard_normal((4, 3))
        out, alphas, _ = c.forward([s1, s2])
        assert alphas is None
        assert np.array_equal(out, np.hstack([s1, s2]))
        assert c.out_dim == 5

    def test_single_stream_alpha_one(self):
        rng = np.random.default_rng(1)
        c = MetaCombiner(rng, "dme", [3], d_prime=4)
        out, alphas, _ = c.forward([rng.standard_normal((5, 3))])
        assert np.allclose(alphas, 1.0)

    def test_zero_logits_alpha_half(self):
        rng = np.random.default_rng(2)
        c = MetaCombiner(rng, "dme", [3, 3], d_prime=4)
        c._params["a"][:] = 0.0
        _, alphas, _ = c.forward([rng.standard_normal((5, 3))] * 2)
        assert np.allclose(alphas, 0.5)

    def test_dme_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        c = MetaCombiner(rng, "dme", [3, 5, 2], d_prime=6)
        streams = [rng.standard_normal((7, d)) for d in (3, 5, 2)]
        out, alphas, _ = c.forward(streams)
        exp_out, exp_alphas = dense_dme_oracle(
            streams,
            [c._params[f"P{i}"] for i in range(3)],
            [c._params[f"b{i}"] for i in range(3)],
            c._params["a"],
            float(c._params["b"]),
        )
        assert np.allclose(out, exp_out, atol=1e-6)
        assert np.allclose(alphas, exp_alphas, atol=1e-6)

    @pytest.mark.parametrize("mode", ["dme", "cdme"])
    def test_alphas_sum_to_one(self, mode):
        rng = np.random.default_rng(4)
        c = MetaCombiner(rng, mode, [3, 4, 5], d_prime=6)
        _, alphas, _ = c.forward([rng.standard_normal((6, d)) for d in (3, 4, 5)])
        assert alphas.shape == (3, 6)
        assert np.allclose(alphas.sum(axis=0), 1.0)

    def test_dme_position_independent_cdme_not(self):
        # with identical per-position content, dme weights are constant
        # across positions; cdme's context biLSTM can vary them
        rng = np.random.default_rng(5)
        streams = [rng.standard_normal((6, 3)) for _ in range(2)]
        dme = MetaCombiner(rng, "dme", [3, 3], d_prime=4)
        _, a_dme, _ = dme.forward(streams)
        # permuting token order permutes dme alphas identically
        perm = [3, 1, 5, 0, 4, 2]
        _, a_perm, _ = dme.forward([s[perm] for s in streams])
        assert np.allclose(a_dme[:, perm], a_perm)
        cdme = MetaCombiner(rng, "cdme", [3, 3], d_prime=4)
        _, c_a, _ = cdme.forward(streams)
        _, c_perm, _ = cdme.forward([s[perm] for s in streams])
        assert not np.allclose(c_a[:, perm], c_perm)

    def test_stream_count_mismatch(self):
        rng = np.random.default_rng(6)
        c = MetaCombiner(rng, "dme", [3, 3], d_prime=4)
        with pytest.raises(StreamCountMismatch):
            c.forward([rng.standard_normal((4, 3))])
        with pytest.raises(StreamCountMismatch):
            c.forward([rng.standard_normal((4, 3)), rng.standard_normal((4, 2))])

    @pytest.mark.parametrize("mode", ["concat", "dme", "cdme"])
    def test_backward_finite_difference(self, mode):
        rng = np.random.default_rng(7)
        dims = [3, 4]
        c = MetaCombiner(rng, mode, dims, d_prime=5)
        streams = [rng.standard_normal((4, d)) for d in dims]
        w = rng.standard_normal((4, c.out_dim))

        def loss():
            out, _, _ = c.forward(streams)
            return float((out * w).sum())

        out, _, cache = c.forward(streams)
        c.zero_grads()
        d_streams = c.backward(cache if mode != "concat" else None, w)
        step = 1e-6
        checks = [(f"stream{i}", streams[i], d_streams[i]) for i in range(2)]
        checks += [(k, c.params[k], c.grads[k]) for k in c.params]
        for name, p, g in checks:
            flat, gflat = p.reshape(-1), g.reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                old = flat[i]
                flat[i] = old + step
                lp = loss()
                flat[i] = old - step
                lm = loss()
                flat[i] = old
                fd = (lp - lm) / (2 * step)
                assert abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i])) < 1e-4, name

    def test_combine_helper(self):
        rng = np.random.default_rng(8)
        c = MetaCombiner(rng, "concat", [2, 2])
        streams = [rng.standard_normal((3, 2)) for _ in range(2)]
        assert np.array_equal(combine(c, streams), np.hstack(streams))
