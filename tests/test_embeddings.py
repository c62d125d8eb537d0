import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtool import embeddings, synth
from segtool.corpus import AnnotatedDocument, tokenize
from segtool.embeddings import (
    CharEncoder,
    ContextualStreamSet,
    EmbeddingsError,
    EmptyToken,
    FormatError,
    LookupTable,
    MetaCombiner,
    MissingStreams,
    StreamCountMismatch,
    SubwordHashEmbedder,
    TokenCountMismatch,
    fnv1a,
    load_streams,
    save_streams,
    token_ngrams,
)
from segtool.trainer import SegModel, TrainConfig, predict, train


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


class TestLookup:
    def test_known_and_unk(self):
        mat = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        t = LookupTable({"ls": 1, "cd": 2}, mat)
        out, _ = t.embed_sequence(["ls", "unknown-token"])
        assert np.array_equal(out, [[1.0, 2.0], [0.0, 0.0]])

    def test_sequence(self):
        mat = np.array([[0.0], [5.0]])
        t = LookupTable({"a": 1}, mat)
        out, (ids, counts) = t.embed_sequence(["a", "b", "a"])
        assert np.array_equal(out[:, 0], [5.0, 0.0, 5.0])
        assert list(ids) == [1, 0, 1] and list(counts) == [1, 1, 1]

    def test_bare_str_rejected(self):
        t = LookupTable({"a": 1}, np.array([[0.0], [5.0]]))
        with pytest.raises(EmbeddingsError, match="got the str 'wlan0'"):
            t.embed_sequence("wlan0")

    def test_from_tokens_dedup(self):
        rng = np.random.default_rng(0)
        t = LookupTable.from_tokens(["a", "b", "a"], 4, rng)
        assert set(t.vocab) == {"a", "b"}
        assert t.params["matrix"].shape == (3, 4)

    def test_backward_accumulates(self):
        rng = np.random.default_rng(2)
        t = LookupTable.from_tokens(["a"], 3, rng)
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

    def test_embed_is_mean_of_buckets(self):
        rng = np.random.default_rng(3)
        emb = SubwordHashEmbedder(rng, dim=6, n_buckets=97)
        idx = emb.bucket_indices("wireless")
        expected = emb.params["buckets"][idx].mean(axis=0)
        assert np.allclose(emb.embed_sequence(["wireless"])[0][0], expected)

    def test_shared_ngrams_give_similar_vectors(self):
        # URL-like tokens sharing most character n-grams should be closer
        # to each other than to an unrelated word
        rng = np.random.default_rng(4)
        emb = SubwordHashEmbedder(rng, dim=32, n_buckets=2**15)
        (u1, u2, w), _ = emb.embed_sequence(
            ["http://example.com/wireless/setup", "http://example.com/wireless/guide", "wireless"]
        )
        assert cosine(u1, u2) > cosine(u1, w)
        assert cosine(u1, u2) > cosine(u2, w)

    def test_empty_token(self):
        rng = np.random.default_rng(5)
        with pytest.raises(EmptyToken):
            SubwordHashEmbedder(rng, dim=4, n_buckets=8).embed_sequence([""])

    def test_bare_str_rejected(self):
        emb = SubwordHashEmbedder(np.random.default_rng(5), dim=4, n_buckets=8)
        with pytest.raises(EmbeddingsError, match="got the str 'wlan0'"):
            emb.embed_sequence("wlan0")

    def test_deterministic(self):
        a = SubwordHashEmbedder(np.random.default_rng(7), dim=4, n_buckets=64)
        b = SubwordHashEmbedder(np.random.default_rng(7), dim=4, n_buckets=64)
        assert np.array_equal(a.embed_sequence(["token"])[0], b.embed_sequence(["token"])[0])

    def test_ids_once_per_distinct_token(self, monkeypatch):
        emb = SubwordHashEmbedder(np.random.default_rng(8), dim=4, n_buckets=64)
        calls = []
        bucket_indices = emb.bucket_indices
        monkeypatch.setattr(emb, "bucket_indices", lambda t: calls.append(t) or bucket_indices(t))
        tokens = ["wlan0", "up", "wlan0", "ifconfig", "up"]
        out, cache = emb.embed_sequence(tokens)
        out2, _ = emb.embed_sequence(tokens + ["down"])
        assert calls == ["wlan0", "up", "ifconfig", "down"]
        # the cache's bags and the vectors are those the hash gives; the
        # bags are a copy, not the memo's arrays
        ids, counts = cache
        bags = np.split(ids, np.cumsum(counts)[:-1])
        assert len(bags) == len(tokens) and not np.shares_memory(ids, emb._ids["wlan0"])
        buckets = emb.params["buckets"]
        for t, bag, row, row2 in zip(tokens, bags, out, out2):
            assert np.array_equal(bag, bucket_indices(t))
            assert np.array_equal(row, buckets[bucket_indices(t)].mean(axis=0))
            assert np.array_equal(row2, row)
        # backward reads the cached ids: a repeated token's rows add up
        d_out = np.ones((len(tokens), 4))
        emb.zero_grads()
        emb.backward_sequence(cache, d_out)
        expected = np.zeros_like(buckets)
        for t in tokens:
            ids = bucket_indices(t)
            np.add.at(expected, ids, 1.0 / len(ids))
        np.testing.assert_allclose(emb.grads["buckets"], expected, rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        # eight buckets for dozens of n-grams, so a token's n-grams collide
        # and tokens share buckets; "wlan0" comes twice
        rng = np.random.default_rng(9)
        emb = SubwordHashEmbedder(rng, dim=3, n_buckets=8)
        tokens = ["wlan0", "up", "wlan0", "ifconfig"]
        assert any(len(set(emb.bucket_indices(t))) < len(emb.bucket_indices(t)) for t in tokens)
        d_out = rng.standard_normal((len(tokens), 3))

        def loss():
            return float(np.sum(d_out * emb.embed_sequence(tokens)[0]))

        emb.zero_grads()
        emb.backward_sequence(emb.embed_sequence(tokens)[1], d_out)
        flat, g = emb.params["buckets"].reshape(-1), emb.grads["buckets"].reshape(-1)
        step = 1e-6
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + step
            lp = loss()
            flat[i] = old - step
            lm = loss()
            flat[i] = old
            assert abs((lp - lm) / (2 * step) - g[i]) < 1e-8, i


def lookup_embed_oracle(self, tokens):
    """LookupTable.embed_sequence before the shared bag: one vocabulary
    lookup per token, the rows by fancy indexing."""
    idx = np.array([self.vocab.get(t, 0) for t in embeddings._token_list(tokens)], dtype=np.int64)
    return self.params["matrix"][idx], idx


def lookup_backward_oracle(self, idx, d_out):
    np.add.at(self.grads["matrix"], idx, d_out)


def subword_embed_oracle(self, tokens):
    """SubwordHashEmbedder.embed_sequence before the shared bag: one
    ``mean(axis=0)`` per token (and, unlike it, (0, dim) for no tokens)."""
    idx = [self._token_ids(t) for t in embeddings._token_list(tokens)]
    buckets = self.params["buckets"]
    return (np.stack([buckets[i].mean(axis=0) for i in idx]) if idx else buckets[:0]), idx


def subword_backward_oracle(self, idx, d_out):
    for ids, d in zip(idx, d_out):
        np.add.at(self.grads["buckets"], ids, d / len(ids))


ORACLES = {
    LookupTable: (lookup_embed_oracle, lookup_backward_oracle),
    SubwordHashEmbedder: (subword_embed_oracle, subword_backward_oracle),
}


def bag_and_oracle(provider, tokens, d_out, grad_start):
    """(rows, grads) of the bag's forward and backward, then the oracle's,
    each from the same gradient ``grad_start`` (an array or a scalar)."""
    (grad,) = provider.grads.values()
    results = []
    for embed, backward in ((type(provider).embed_sequence, type(provider).backward_sequence),
                            ORACLES[type(provider)]):
        grad[...] = grad_start
        out, cache = embed(provider, tokens)
        backward(provider, cache, d_out)
        results.append((out, grad.copy()))
    return results


def assert_same_bytes(a, b):
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# 1- to 13-character tokens, bags of 2 to 47 bucket ids; the small alphabet
# repeats short tokens and n-grams
TOKEN = st.text(alphabet="ab/.-0\u00e9", min_size=1, max_size=13)


@st.composite
def bag_cases(draw):
    """Tokens drawn from a small pool (so some repeat, some not at all),
    the pool, a dtype, and a seed for the table, d_out and grads."""
    pool = draw(st.lists(TOKEN, min_size=1, max_size=6, unique=True))
    tokens = draw(st.lists(st.sampled_from(pool), max_size=10))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return tokens, pool, dtype, draw(st.integers(0, 2**32 - 1))


def random_start(provider, n_tokens, seed):
    """Fill the table with rows of magnitudes 1e-3 to 1e3 (so rounding
    depends on the order of additions); return d_out and a gradient start."""
    rng = np.random.default_rng(seed)
    (table,) = provider.params.values()
    table[...] = rng.standard_normal(table.shape) * 10.0 ** rng.integers(-3, 4, (len(table), 1))
    d_out = rng.standard_normal((n_tokens, table.shape[1])).astype(table.dtype)
    return d_out, rng.standard_normal(table.shape).astype(table.dtype)


class TestBagMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=bag_cases(), dim=st.integers(2, 6), n_buckets=st.integers(1, 64))
    def test_subword_bytes(self, case, dim, n_buckets):
        tokens, _, dtype, seed = case
        emb = SubwordHashEmbedder(np.random.default_rng(0), dim, n_buckets, dtype)
        start = random_start(emb, len(tokens), seed)
        (out, grad), (want_out, want_grad) = bag_and_oracle(emb, tokens, *start)
        assert_same_bytes(out, want_out)
        assert_same_bytes(grad, want_grad)

    @settings(max_examples=100, deadline=None)
    @given(case=bag_cases(), dim=st.integers(1, 6))
    def test_lookup_bytes(self, case, dim):
        # every other token of the pool is out of the vocabulary
        tokens, pool, dtype, seed = case
        t = LookupTable.from_tokens(pool[::2], dim, np.random.default_rng(0), dtype)
        start = random_start(t, len(tokens), seed)
        (out, grad), (want_out, want_grad) = bag_and_oracle(t, tokens, *start)
        assert_same_bytes(out, want_out)
        assert_same_bytes(grad, want_grad)

    def test_width_one_adds_in_order(self):
        # at width 1 mean(axis=0) sums pairwise; the bag still adds its rows
        # one after another from the first
        emb = SubwordHashEmbedder(np.random.default_rng(1), 1, 4096, np.float32)
        token = "wireless/setup"
        random_start(emb, 1, 2)
        rows = emb.params["buckets"][emb.bucket_indices(token)]
        total = rows[0].copy()
        for r in rows[1:]:
            total += r
        out = emb.embed_sequence([token])[0][0]
        assert_same_bytes(out, total / np.float32(len(rows)))
        np.testing.assert_allclose(out, rows.mean(axis=0), rtol=0, atol=1e-6 * np.abs(rows).mean())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_in_a_bag(self, dtype):
        # a column that is -0.0 in every row of a bag stays -0.0, where
        # mean(axis=0) gives +0.0; with a +0.0 among them both give +0.0
        emb = SubwordHashEmbedder(np.random.default_rng(3), 2, 2**16, dtype)
        buckets = emb.params["buckets"]
        buckets[emb.bucket_indices("a"), 0] = -0.0
        buckets[emb.bucket_indices("ab"), 0] = -0.0
        buckets[emb.bucket_indices("ab")[-1], 0] = 0.0
        out, _ = emb.embed_sequence(["a", "ab"])
        want, _ = subword_embed_oracle(emb, ["a", "ab"])
        assert np.signbit(out[0, 0]) and not np.signbit(want[0, 0])
        assert not np.signbit(out[1, 0]) and not np.signbit(want[1, 0])
        out[0, 0] = want[0, 0]
        assert_same_bytes(out, want)

    def test_signed_zero_lookup_rows(self):
        # a looked-up row is the table row's bytes, -0.0 included (row 0 is unk)
        mat = np.array([[-0.0, 1.0], [2.0, -0.0], [-0.0, -0.0]], dtype=np.float32)
        t = LookupTable({"a": 1, "b": 2}, mat)
        out, _ = t.embed_sequence(["b", "zz", "a", "b"])
        assert_same_bytes(out, mat[[2, 0, 1, 2]])

    @pytest.mark.parametrize("provider", [
        LookupTable({"a": 1}, np.zeros((2, 3), np.float32)),
        SubwordHashEmbedder(np.random.default_rng(4), 3, 16, np.float32),
    ], ids=["lookup", "subword"])
    def test_signed_zero_backward(self, provider):
        # -0.0 gradients into a -0.0 start stay -0.0, as in the per-token loop
        tokens = ["a", "b", "a"]
        d_out = np.full((3, 3), -0.0, np.float32)
        (_, grad), (_, want) = bag_and_oracle(provider, tokens, d_out, -0.0)
        assert np.signbit(grad).all()
        assert_same_bytes(grad, want)


@pytest.mark.parametrize("provider", [
    LookupTable({"a": 1}, np.ones((2, 3), np.float32)),
    SubwordHashEmbedder(np.random.default_rng(5), 3, 16, np.float32),
], ids=["lookup", "subword"])
def test_empty_token_list(provider):
    # (0, dim) rows in the table's dtype, and a backward that adds nothing
    out, cache = provider.embed_sequence([])
    assert out.shape == (0, 3) and out.dtype == np.float32
    (grad,) = provider.grads.values()
    grad[...] = 1.0
    provider.backward_sequence(cache, out)
    assert (grad == 1.0).all()


class TestCharEncoder:
    def test_output_dim_default(self):
        rng = np.random.default_rng(0)
        enc = CharEncoder(rng, "abc")
        vec = enc.forward(["cab"])[0][0]
        assert vec.shape == (80,)

    def test_unknown_chars_fall_back(self):
        rng = np.random.default_rng(1)
        enc = CharEncoder(rng, "ab", char_dim=4, hidden=3)
        # "xy" and "zq" are all-unknown, same length: identical encodings
        v1 = enc.forward(["xy"])[0][0]
        v2 = enc.forward(["zq"])[0][0]
        assert np.array_equal(v1, v2)

    def test_direction_sensitivity(self):
        rng = np.random.default_rng(2)
        enc = CharEncoder(rng, "ab", char_dim=4, hidden=3)
        v_ab = enc.forward(["ab"])[0][0]
        v_ba = enc.forward(["ba"])[0][0]
        assert not np.array_equal(v_ab, v_ba)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        enc = CharEncoder(rng, "abcd", char_dim=3, hidden=2)
        w = rng.standard_normal(4)
        token = "abdca"

        def loss():
            vec = enc.forward([token])[0][0]
            return float(w @ vec)

        _, cache = enc.forward([token])
        enc.zero_grads()
        enc.backward(cache, w[None])
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
    """One biLSTM call per token (the encoder before it batched tokens);
    the backward direction's last state sits at position 0 of its block."""
    H = enc.rnn.hidden
    x, idx = enc.table.embed_sequence(list(token))
    out, cache = enc.rnn.forward(x)
    return np.concatenate([out[-1, :H], out[0, H:]]), (idx, cache, len(token))


def char_backward_oracle(enc, cache, d_vec):
    idx, rnn_cache, s = cache
    H = enc.rnn.hidden
    d_out = np.zeros((s, 2 * H), dtype=d_vec.dtype)
    d_out[-1, :H], d_out[0, H:] = d_vec[:H], d_vec[H:]
    enc.table.backward_sequence(idx, enc.rnn.backward(rnn_cache, d_out))


class PerTokenCharEncoder(CharEncoder):
    """Encodes and back-propagates token by token with the oracle above."""

    def forward(self, tokens):
        vecs, caches = zip(*(char_forward_oracle(self, t) for t in tokens))
        return np.stack(vecs), caches

    def backward(self, caches, d_vecs):
        for c, d in zip(caches, d_vecs):
            char_backward_oracle(self, c, d)


class GroupedBiCharEncoder(CharEncoder):
    """The encoder before it read the stacked cell itself: per token length,
    one call of the bidirectional wrapper, the last states picked from its
    concatenated (tokens, length, 2H) output, and the gradient fed back
    through a zero (tokens, length, 2H) array set at those two positions.
    It runs the encoder's products and sums in the encoder's order, so the
    two must agree bit for bit."""

    def forward(self, tokens):
        distinct = sorted(dict.fromkeys(tokens), key=len)
        row = {t: k for k, t in enumerate(distinct)}
        H = self.rnn.hidden
        vecs = np.empty((len(distinct), self.out_dim), dtype=self.table.params["matrix"].dtype)
        groups = []
        start = 0
        for length, group in itertools.groupby(distinct, key=len):
            group = list(group)
            x, idx = self.table.embed_sequence(list("".join(group)))
            out, cache = self.rnn.forward(x.reshape(len(group), length, -1))
            vecs[start : start + len(group)] = np.concatenate(
                [out[:, -1, :H], out[:, 0, H:]], axis=-1
            )
            groups.append((start, len(group), length, idx, cache))
            start += len(group)
        where = np.array([row[t] for t in tokens], dtype=np.int64)
        return vecs[where], (where, len(distinct), groups)

    def backward(self, cache, d_vecs):
        where, n_distinct, groups = cache
        H = self.rnn.hidden
        d_distinct = np.zeros((n_distinct, self.out_dim), dtype=d_vecs.dtype)
        np.add.at(d_distinct, where, d_vecs)
        for start, count, length, idx, rnn_cache in groups:
            d_out = np.zeros((count, length, 2 * H), dtype=d_vecs.dtype)
            d_out[:, -1, :H] = d_distinct[start : start + count, :H]
            d_out[:, 0, H:] = d_distinct[start : start + count, H:]
            d_x = self.rnn.backward(rnn_cache, d_out)
            self.table.backward_sequence(idx, d_x.reshape(count * length, -1))


class PerStreamContext:
    """The cdme context biLSTM run once per stream (the combiner before it
    batched its streams); parameters and gradients are the wrapped one's."""

    def __init__(self, rnn):
        self.rnn = rnn

    def __getattr__(self, name):
        return getattr(self.rnn, name)

    def forward(self, proj, lengths=None):
        per_stream = [None] * len(proj) if lengths is None else lengths
        outs, caches = zip(*(self.rnn.forward(p, n) for p, n in zip(proj, per_stream)))
        return np.stack(outs), caches

    def backward(self, caches, d_h):
        return np.stack([self.rnn.backward(c, d) for c, d in zip(caches, d_h)])


# lengths 1, 2 and 5; repeated tokens; "q", "x" and "z" are not in the vocabulary
TOKENS = ["ab", "a", "abcde", "ab", "qz", "a", "xbcqa", "abcde", "q"]


# "q" is not in the vocabulary
GROUPED_CASES = {
    "many-lengths": TOKENS + ["abcde" * 6, "eqd" * 7],
    "one-char": ["a", "q", "e", "a"],
    "single": ["cab"],
    "one-length": ["abc", "cqa", "eee", "abc"],
    "repeated": ["de", "de", "de"],
    "unknown-only": ["qq", "q"],
}


class TestBatchedCharEncoder:
    def test_matches_per_token_oracle(self):
        batched = CharEncoder(np.random.default_rng(9), "abcde", char_dim=4, hidden=3)
        oracle = PerTokenCharEncoder(np.random.default_rng(9), "abcde", char_dim=4, hidden=3)
        d_vecs = np.random.default_rng(10).standard_normal((len(TOKENS), batched.out_dim))
        out = []
        for enc in (batched, oracle):
            vecs, cache = enc.forward(TOKENS)
            enc.zero_grads()
            enc.backward(cache, d_vecs)
            out.append(vecs)
        np.testing.assert_allclose(out[0], out[1], rtol=1e-10)
        for k in batched.params:
            np.testing.assert_allclose(batched.grads[k], oracle.grads[k], rtol=1e-10, err_msg=k)

    @pytest.mark.parametrize("dtype, widths", [
        (np.float32, {}), (np.float64, dict(char_dim=4, hidden=3)),
    ], ids=["float32-default-widths", "float64-small"])
    @pytest.mark.parametrize("tokens", GROUPED_CASES.values(), ids=GROUPED_CASES.keys())
    def test_equals_grouped_bi_oracle(self, tokens, dtype, widths):
        # outputs and every gradient, exactly
        encs = [cls(np.random.default_rng(9), "abcde", dtype=dtype, **widths)
                for cls in (CharEncoder, GroupedBiCharEncoder)]
        d_vecs = np.random.default_rng(10).standard_normal((len(tokens), encs[0].out_dim))
        results = []
        for enc in encs:
            vecs, cache = enc.forward(tokens)
            enc.zero_grads()
            enc.backward(cache, d_vecs.astype(dtype))
            results.append([vecs] + [enc.grads[k] for k in enc.params])
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)

    def test_empty_token(self):
        enc = CharEncoder(np.random.default_rng(0), "ab")
        with pytest.raises(EmptyToken):
            enc.forward(["ab", ""])

    def test_bare_str_rejected(self):
        # a str is not read as one token per character
        enc = CharEncoder(np.random.default_rng(0), "wlan0")
        with pytest.raises(EmbeddingsError, match="got the str 'wlan0'"):
            enc.forward("wlan0")
        assert enc.forward(["wlan0"])[0].shape == (1, enc.out_dim)


def counting_forward(monkeypatch, enc):
    """The token lists ``enc.forward`` is called with, as they come."""
    calls = []
    forward = enc.forward
    monkeypatch.setattr(enc, "forward", lambda toks: calls.append(list(toks)) or forward(toks))
    return calls


class TestCharMemo:
    # SegModel's float32 at the default widths, where OpenBLAS gives a
    # token's row the same bits in a batch of any size
    def enc(self, **kw):
        return CharEncoder(np.random.default_rng(9), "abcde", dtype=np.float32, **kw)

    @pytest.mark.parametrize("tokens", [TOKENS, ["abc"], ["abc", "abc"], ["q"], ["zzqab", "e"]],
                             ids=["many-lengths", "one", "repeat", "unknown-char", "unknown-two"])
    def test_equals_forward(self, tokens):
        enc = self.enc()
        first = enc.encode(tokens)
        assert first.dtype == np.float32
        assert np.array_equal(first, enc.forward(tokens)[0])
        # from the memo, alone and among new tokens, and out of order
        assert np.array_equal(enc.encode(tokens), first)
        mixed = ["de"] + tokens[::-1] + ["ceb"]
        assert np.array_equal(enc.encode(mixed), enc.forward(mixed)[0])

    @pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_other_widths_within_a_rounding(self, dtype, rtol):
        # a one-row product ("q" alone, then beside "a") may round otherwise
        enc = CharEncoder(np.random.default_rng(9), "abcde", char_dim=4, hidden=3, dtype=dtype)
        enc.encode(["q"])
        np.testing.assert_allclose(enc.encode(TOKENS), enc.forward(TOKENS)[0], rtol=rtol)

    def test_empty_list(self):
        enc = self.enc()
        out = enc.encode([])
        assert out.shape == (0, enc.out_dim) and out.dtype == np.float32

    def test_bad_tokens_rejected(self):
        enc = self.enc()
        with pytest.raises(EmptyToken):
            enc.encode(["ab", ""])
        with pytest.raises(EmbeddingsError, match="got the str 'abc'"):
            enc.encode("abc")
        assert "" not in enc._memo

    def test_forward_runs_on_missing_tokens_only(self, monkeypatch):
        enc = self.enc()
        calls = counting_forward(monkeypatch, enc)
        enc.encode(["ab", "a", "ab", "abcde"])
        enc.encode(["a", "ab"])
        enc.encode(["abcde", "q", "a", "q", "ce"])
        assert calls == [["ab", "a", "abcde"], ["q", "ce"]]

    def test_parameter_edit_empties_the_memo(self, monkeypatch):
        enc = self.enc()
        enc.encode(TOKENS)
        enc.params["rnn_f_U"][0, 0] += 0.5
        calls = counting_forward(monkeypatch, enc)
        out = enc.encode(TOKENS)
        assert calls == [list(dict.fromkeys(TOKENS))]
        assert np.array_equal(out, enc.forward(TOKENS)[0])
        enc.params["table_matrix"][1] *= 2.0  # the row of "a"
        assert np.array_equal(enc.encode(["a"]), enc.forward(["a"])[0])
        assert len(enc._memo) == 1

    def test_memo_is_capped(self, monkeypatch):
        monkeypatch.setattr(embeddings, "MEMO_CAP", 3)
        enc = self.enc()
        for tokens in (TOKENS, TOKENS[::-1], ["e", "d", "ab"], TOKENS):
            assert np.array_equal(enc.encode(tokens), enc.forward(tokens)[0])
            assert len(enc._memo) <= 3
        assert list(enc._memo) == ["ab", "a", "abcde"]
        emb = SubwordHashEmbedder(np.random.default_rng(8), dim=4, n_buckets=64)
        out, _ = emb.embed_sequence(TOKENS)
        assert len(emb._ids) == 3
        assert np.array_equal(emb.embed_sequence(TOKENS)[0], out)


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
    expected = oracle.grads
    for k, g in batched.grads.items():
        if k == "comb.b":
            # softmax over streams ignores a shift shared by all logits, so
            # this gradient is zero up to round-off in both
            assert abs(g) < 1e-14 and abs(expected[k]) < 1e-14
            continue
        np.testing.assert_allclose(g, expected[k], rtol=1e-10, err_msg=k)


def test_training_matches_grouped_bi_oracle(monkeypatch):
    # float32 char + cdme + weighted attention, with validation: the same
    # epoch lines, parameter bytes and predicted spans as the grouped path
    docs = synth.gen_corpus(n_docs=16, seed=4)
    streams = synth.gen_streams(docs, seed=4)
    tr, va = docs[:12], docs[12:]
    cfg = TrainConfig(
        hidden=6, lookup_dim=4, use_char=True, combiner_mode="cdme", d_prime=5,
        attention_mode="weighted", attention_dim=4, epochs=2, batch_size=4, seed=3,
    )
    runs = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(CharEncoder, "forward", GroupedBiCharEncoder.forward)
            monkeypatch.setattr(CharEncoder, "backward", GroupedBiCharEncoder.backward)
        model, logs = train(tr, va, streams, cfg)
        runs.append(([log.line() for log in logs],
                     {k: v.tobytes() for k, v in model.params.items()},
                     [predict(model, d, streams) for d in docs]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kw", [
    dict(),
    dict(use_lookup=False, use_subword=True, subword_dim=4, subword_buckets=256),
], ids=["lookup", "subword"])
def test_training_matches_per_token_oracles(monkeypatch, kw):
    # float32 training with validation: the bag gives the same epoch lines,
    # parameter bytes and predicted spans as the per-token providers
    docs = synth.gen_corpus(n_docs=16, seed=4)
    tr, va = docs[:12], docs[12:]
    cfg = TrainConfig(hidden=6, lookup_dim=4, epochs=2, batch_size=4, seed=3, **kw)
    runs = []
    for patched in (False, True):
        if patched:
            for cls, (embed, backward) in ORACLES.items():
                monkeypatch.setattr(cls, "embed_sequence", embed)
                monkeypatch.setattr(cls, "backward_sequence", backward)
        model, logs = train(tr, va, None, cfg)
        runs.append(([log.line() for log in logs],
                     {k: v.tobytes() for k, v in model.params.items()},
                     [predict(model, d) for d in docs]))
    assert runs[0] == runs[1]


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
                assert got.dtype == np.float32
                assert np.array_equal(orig, got)

    def test_standard_four_stream_dims(self, tmp_path):
        rng = np.random.default_rng(1)
        dims = [1024, 256, 256, 256]
        streams = make_streams(rng, dims, [("q1", 2)])
        path = tmp_path / "four.bin"
        save_streams(streams, path)
        loaded = load_streams(path)
        assert loaded.dims == dims
        # float32 as in the file: 7168 bytes a token, half of a float64 copy
        assert sum(a.nbytes for a in loaded.vectors["q1"]) == 2 * 7168

    def test_token_count_validation(self, tmp_path):
        rng = np.random.default_rng(2)
        streams = make_streams(rng, [4], [("a", 5)])
        path = tmp_path / "s.bin"
        save_streams(streams, path)
        assert load_streams(path, {"a": 5}).vectors["a"][0].shape == (5, 4)
        with pytest.raises(TokenCountMismatch) as exc:
            load_streams(path, {"a": 6})
        assert exc.value.doc_id == "a"
        assert str(exc.value).startswith(f"{path}: ")

    def test_model_dims_checked(self, tmp_path):
        path = tmp_path / "s.bin"
        save_streams(make_streams(np.random.default_rng(5), [4, 2], [("a", 3)]), path)
        assert load_streams(path, dims=[4, 2]).dims == [4, 2]
        for dims in ([4], [4, 3], [4, 2, 2]):
            with pytest.raises(StreamCountMismatch) as exc:
                load_streams(path, dims=dims)
            assert str(exc.value) == f"{path}: stream dims [4, 2] are not the model's {dims}"

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, value):
        # save_streams refuses such a value, so write it into a saved file
        streams = make_streams(np.random.default_rng(6), [4, 2], [("a", 3), ("b", 2)])
        path = tmp_path / "s.bin"
        save_streams(streams, path)
        raw = path.read_bytes()
        old = np.float32(streams.vectors["b"][1][1, 0]).tobytes()
        assert raw.count(old) == 1
        path.write_bytes(raw.replace(old, np.float32(value).tobytes()))
        with pytest.raises(FormatError) as exc:
            load_streams(path)
        assert str(exc.value) == f"{path}: non-finite vector for doc 'b'"

    @pytest.mark.parametrize("dims, arrays, where", [
        ([2, 2], [np.ones((3, 2)), np.ones((2, 2))], "stream 1: shape (2, 2), not (3, 2)"),
        ([2, 2], [np.ones((3, 2)), np.ones((3, 5))], "stream 1: shape (3, 5), not (3, 2)"),
        ([2, 2], [np.ones((3, 2))], "1 streams, not 2"),
        ([2], [np.ones((3, 2)), np.ones((3, 2))], "2 streams, not 1"),
        ([2], [np.ones(3)], "stream 0: shape (3,), not (3, 2)"),
        ([2, 2], [np.ones((3, 2)), np.full((3, 2), np.nan)],
         "stream 1: a value is not finite in float32"),
        ([2], [np.full((3, 2), -np.inf)], "stream 0: a value is not finite in float32"),
        ([2], [np.full((3, 2), 1e39)], "stream 0: a value is not finite in float32"),
    ], ids=["short-second", "wide-second", "too-few", "too-many", "one-dimensional", "nan",
            "inf", "beyond-float32"])
    def test_malformed_set_not_saved(self, tmp_path, dims, arrays, where):
        streams = make_streams(np.random.default_rng(7), dims, [("ok", 2)])
        streams.vectors["a"] = arrays
        path = tmp_path / "s.bin"
        with pytest.raises(FormatError) as exc:
            save_streams(streams, path)
        assert str(exc.value).startswith(f"doc 'a'{',' if 'stream ' in where else ':'} ")
        assert str(exc.value).endswith(where)
        assert not path.exists()

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(3)
        streams = make_streams(rng, [4], [("a", 5)])
        path = tmp_path / "s.bin"
        save_streams(streams, path)
        (tmp_path / "t.bin").write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_streams(tmp_path / "t.bin")

    @pytest.mark.parametrize("dims", [[], [0, 8], [8, 0]], ids=["no-streams", "zero-width-first",
                                                               "zero-width-second"])
    def test_set_without_width_not_saved(self, tmp_path, dims):
        # a set with no streams wrote a row count of 0 for every document
        streams = ContextualStreamSet(dims, {"a": [np.zeros((3, d)) for d in dims]})
        path = tmp_path / "s.bin"
        with pytest.raises(FormatError) as exc:
            save_streams(streams, path)
        assert str(exc.value) == (
            f"stream dims {dims}: need at least one stream, each at least 1 wide")
        assert not path.exists()

    @pytest.mark.parametrize("dims", [[], [0, 8]], ids=["no-streams", "zero-width"])
    def test_file_without_width_refused(self, tmp_path, dims):
        # written by hand: save_streams refuses such a set
        path = tmp_path / "s.bin"
        path.write_bytes(b"CSTR1" + np.array([len(dims), *dims], "<u4").tobytes()
                         + np.array([1], "<u4").tobytes() + b"a" + np.array([3], "<u4").tobytes()
                         + np.zeros(3 * sum(dims), "<f4").tobytes())
        with pytest.raises(FormatError) as exc:
            load_streams(path, {"a": 3})
        assert str(exc.value) == (
            f"{path}: stream dims {dims}: need at least one stream, each at least 1 wide")

    def test_every_corpus_document_required(self, tmp_path):
        path = tmp_path / "s.bin"
        save_streams(make_streams(np.random.default_rng(8), [4], [("a", 2), ("b", 1)]), path)
        assert set(load_streams(path, {"b": 1}).vectors) == {"a", "b"}  # extra ones may stay
        with pytest.raises(MissingStreams) as exc:
            load_streams(path, {"a": 2, "extra": 3, "b": 1})
        assert exc.value.doc_id == "extra"
        assert str(exc.value) == f"{path}: no contextual streams for document 'extra'"


class TestForDoc:
    def doc(self, text):
        return AnnotatedDocument("d", text, tokenize(text), [])

    def test_returns_the_arrays(self):
        doc = self.doc("a b c")
        arrays = [np.zeros((3, 2)), np.ones((3, 4))]
        assert ContextualStreamSet([2, 4], {"d": arrays}).for_doc(doc) is arrays

    def test_missing_document(self):
        streams = ContextualStreamSet([2], {"other": [np.zeros((3, 2))]})
        with pytest.raises(MissingStreams) as exc:
            streams.for_doc(self.doc("a b c"))
        assert exc.value.doc_id == "d"
        assert str(exc.value) == "no contextual streams for document 'd'"

    @pytest.mark.parametrize("rows", [(2, 3), (3, 2), (3, 4)])
    def test_every_stream_has_a_row_per_token(self, rows):
        # the first stream short, the second short, or the second long
        arrays = [np.zeros((n, 2)) for n in rows]
        streams = ContextualStreamSet([2, 2], {"d": arrays})
        with pytest.raises(TokenCountMismatch) as exc:
            streams.for_doc(self.doc("a b c"))
        assert exc.value.doc_id == "d"
        bad = next(n for n in rows if n != 3)
        assert str(exc.value) == f"doc 'd': {bad} stream tokens, corpus has 3"

    def test_empty_document(self):
        doc = self.doc("")
        arrays = [np.zeros((0, 2)), np.zeros((0, 3))]
        assert ContextualStreamSet([2, 3], {"d": arrays}).for_doc(doc) is arrays
        with pytest.raises(TokenCountMismatch):
            ContextualStreamSet([2], {"d": [np.zeros((1, 2))]}).for_doc(doc)


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
        c.params["a"][:] = 0.0
        _, alphas, _ = c.forward([rng.standard_normal((5, 3))] * 2)
        assert np.allclose(alphas, 0.5)

    def test_dme_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        c = MetaCombiner(rng, "dme", [3, 5, 2], d_prime=6)
        streams = [rng.standard_normal((7, d)) for d in (3, 5, 2)]
        out, alphas, _ = c.forward(streams)
        exp_out, exp_alphas = dense_dme_oracle(
            streams,
            [c.params[f"P{i}"] for i in range(3)],
            [c.params[f"b{i}"] for i in range(3)],
            c.params["a"],
            float(c.params["b"]),
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

    @pytest.mark.parametrize("mode", ["concat", "dme", "cdme"])
    @pytest.mark.parametrize("dims", [[], [0, 8], [3, -1]], ids=["none", "zero-width", "negative"])
    def test_dims_without_width_refused(self, mode, dims):
        # cdme over [0, 8] trained until its backward failed to reshape
        with pytest.raises(EmbeddingsError) as exc:
            MetaCombiner(np.random.default_rng(0), mode, dims, d_prime=4)
        assert str(exc.value) == (
            f"stream dims {dims}: need at least one stream, each at least 1 wide")

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

    @pytest.mark.parametrize("mode", ["concat", "dme", "cdme"])
    def test_padded_batch_matches_per_sequence(self, mode):
        # three sequences zero-padded to T = 6: lengths 1, T and in between
        rng = np.random.default_rng(8)
        dims, lengths = [3, 4, 2], np.array([1, 6, 4])
        c = MetaCombiner(rng, mode, dims, d_prime=5)
        valid = np.arange(6) < lengths[:, None]
        streams = [rng.standard_normal((3, 6, d)) * valid[..., None] for d in dims]
        d_out = rng.standard_normal((3, 6, c.out_dim)) * valid[..., None]
        out, _, cache = c.forward(streams, lengths)
        c.zero_grads()
        d_streams = c.backward(cache, d_out)
        batched_grads = {k: g.copy() for k, g in c.grads.items()}

        c.zero_grads()
        for b, n in enumerate(lengths):
            one = [st[b, :n] for st in streams]
            out_b, _, cache_b = c.forward(one)
            np.testing.assert_allclose(out[b, :n], out_b, rtol=1e-10)
            for d_st, d_one in zip(d_streams, c.backward(cache_b, d_out[b, :n])):
                np.testing.assert_allclose(d_st[b, :n], d_one, rtol=1e-10)
                assert not d_st[b, n:].any()
        for k, g in c.grads.items():
            if k == "b":
                # softmax over streams ignores a shift shared by all logits
                assert abs(batched_grads[k]) < 1e-14 and abs(g) < 1e-14
                continue
            np.testing.assert_allclose(batched_grads[k], g, rtol=1e-10, err_msg=k)
