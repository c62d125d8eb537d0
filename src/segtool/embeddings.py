"""Per-token vector providers and the meta-embedding combiner.

Providers: a plain lookup table (pre-trained vectors consumed from a text
file, or a trainable table built from a corpus vocabulary), a hashed
subword n-gram embedder that composes vectors for unseen tokens from
character n-grams, a character-level biLSTM encoder, and contextual
embedding streams read from a binary file.

Multiple contextual streams are fused by the MetaCombiner: naive
concatenation, or a softmax-weighted sum of linear projections with
weights from per-token logits (dme) or from a tiny context biLSTM run
over each projected stream (cdme).
"""

import itertools
import struct
from dataclasses import dataclass

import numpy as np

from . import nn


class EmbeddingsError(Exception):
    pass


class EmptyToken(EmbeddingsError):
    pass


class FormatError(EmbeddingsError):
    pass


class TokenCountMismatch(EmbeddingsError):
    def __init__(self, doc_id, expected, got):
        super().__init__(f"doc {doc_id!r}: {got} stream tokens, corpus has {expected}")
        self.doc_id = doc_id


class StreamCountMismatch(EmbeddingsError):
    pass


class LookupTable(nn.Component):
    """token -> fixed row, with a shared unk row for out-of-vocabulary
    tokens."""

    def __init__(self, vocab, matrix, unk_row=0, trainable=False):
        super().__init__()
        self.vocab = dict(vocab)
        self.unk_row = unk_row
        self.trainable = trainable
        self._add_param("matrix", np.asarray(matrix))
        assert all(v < self.params["matrix"].shape[0] for v in self.vocab.values())

    @property
    def dim(self):
        return self.params["matrix"].shape[1]

    @classmethod
    def from_tokens(cls, tokens, dim, rng, dtype=np.float64, trainable=True):
        vocab = {}
        for t in tokens:
            if t not in vocab:
                vocab[t] = len(vocab) + 1  # row 0 reserved for unk
        matrix = (rng.standard_normal((len(vocab) + 1, dim)) * 0.1).astype(dtype)
        return cls(vocab, matrix, unk_row=0, trainable=trainable)

    def row_index(self, token):
        return self.vocab.get(token, self.unk_row)

    def embed(self, token):
        return self.params["matrix"][self.row_index(token)]

    def embed_sequence(self, tokens):
        idx = np.array([self.row_index(t) for t in tokens], dtype=np.int64)
        return self.params["matrix"][idx], idx

    def backward_sequence(self, idx, d_out):
        if self.trainable:
            np.add.at(self.grads["matrix"], idx, d_out)


def load_lookup_table(path, trainable=False):
    """Text format: header "<count> <dim>", then one "token v1 .. vd" line
    per word."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError("expected '<count> <dim>' header")
        count, dim = int(header[0]), int(header[1])
        vocab = {}
        rows = np.empty((count + 1, dim))
        rows[0] = 0.0  # unk
        for k in range(count):
            parts = fh.readline().rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise FormatError(f"row {k}: expected {dim} values")
            vocab[parts[0]] = k + 1
            rows[k + 1] = [float(v) for v in parts[1:]]
    return LookupTable(vocab, rows, unk_row=0)


def save_lookup_table(table, path):
    mat = table.params["matrix"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table.vocab)} {mat.shape[1]}\n")
        for tok, row in table.vocab.items():
            vals = " ".join(repr(float(v)) for v in mat[row])
            fh.write(f"{tok} {vals}\n")


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a(data, seed=0):
    h = _FNV_OFFSET ^ seed
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def token_ngrams(token, n_min, n_max):
    """Character n-grams of the boundary-padded token, plus the padded
    whole word as one extra unit."""
    padded = f"<{token}>"
    grams = [
        padded[i : i + n]
        for n in range(n_min, n_max + 1)
        for i in range(len(padded) - n + 1)
    ]
    grams.append(padded)
    return grams


class SubwordHashEmbedder(nn.Component):
    def __init__(self, rng, dim, n_buckets=2**21, n_min=3, n_max=6, hash_seed=0,
                 dtype=np.float64, trainable=False, scale=0.1):
        super().__init__()
        if n_buckets < 1 or not 1 <= n_min <= n_max:
            raise EmbeddingsError("bad subword configuration")
        self.n_buckets = n_buckets
        self.n_min = n_min
        self.n_max = n_max
        self.hash_seed = hash_seed
        self.trainable = trainable
        self._add_param(
            "buckets", (rng.standard_normal((n_buckets, dim)) * scale).astype(dtype)
        )

    @property
    def dim(self):
        return self.params["buckets"].shape[1]

    def bucket_indices(self, token):
        if not token:
            raise EmptyToken("cannot embed the empty token")
        return np.array(
            [
                fnv1a(g.encode("utf-8"), self.hash_seed) % self.n_buckets
                for g in token_ngrams(token, self.n_min, self.n_max)
            ],
            dtype=np.int64,
        )

    def embed(self, token):
        idx = self.bucket_indices(token)
        return self.params["buckets"][idx].mean(axis=0)

    def embed_sequence(self, tokens):
        idx = [self.bucket_indices(t) for t in tokens]
        out = np.stack([self.params["buckets"][i].mean(axis=0) for i in idx])
        return out, idx

    def backward_sequence(self, idx, d_out):
        if self.trainable:
            for ids, d in zip(idx, d_out):
                np.add.at(self.grads["buckets"], ids, d / len(ids))


class CharEncoder:
    """biLSTM over a token's code points; output is the concatenation of
    the final forward and backward states (80-dim at the default width).

    ``forward_tokens`` encodes each distinct token once, and runs the
    distinct tokens of one length as one (tokens, length, char_dim) batch.
    """

    def __init__(self, rng, chars, char_dim=16, hidden=40, dtype=np.float64):
        vocab = {}
        for c in chars:
            if c not in vocab:
                vocab[c] = len(vocab) + 1
        self.char_vocab = vocab
        self.hidden = hidden
        self.table = LookupTable(
            vocab,
            (rng.standard_normal((len(vocab) + 1, char_dim)) * 0.1).astype(dtype),
            unk_row=0,
            trainable=True,
        )
        self.rnn = nn.BiLstm(rng, char_dim, hidden, dtype)

    @property
    def out_dim(self):
        return 2 * self.hidden

    @property
    def params(self):
        out = {f"table_{k}": v for k, v in self.table.params.items()}
        out.update({f"rnn_{k}": v for k, v in self.rnn.params.items()})
        return out

    @property
    def grads(self):
        out = {f"table_{k}": v for k, v in self.table.grads.items()}
        out.update({f"rnn_{k}": v for k, v in self.rnn.grads.items()})
        return out

    def zero_grads(self):
        self.table.zero_grads()
        self.rnn.zero_grads()

    def forward_tokens(self, tokens):
        """(len(tokens), out_dim) encodings and the cache for
        ``backward_tokens``."""
        if not all(tokens):
            raise EmptyToken("cannot encode the empty token")
        distinct = sorted(dict.fromkeys(tokens), key=len)
        row = {t: k for k, t in enumerate(distinct)}
        vecs = np.empty((len(distinct), self.out_dim), dtype=self.table.params["matrix"].dtype)
        groups = []  # (first row, token count, length, char rows, biLSTM cache)
        start = 0
        for length, group in itertools.groupby(distinct, key=len):
            group = list(group)
            x, idx = self.table.embed_sequence("".join(group))
            out, cache = self.rnn.forward(x.reshape(len(group), length, -1))
            vecs[start : start + len(group)] = self.rnn.final_states(out)
            groups.append((start, len(group), length, idx, cache))
            start += len(group)
        where = np.array([row[t] for t in tokens], dtype=np.int64)
        return vecs[where], (where, len(distinct), groups)

    def backward_tokens(self, cache, d_vecs):
        where, n_distinct, groups = cache
        # a repeated token's gradients add up before its one LSTM backward
        d_distinct = np.zeros((n_distinct, self.out_dim), dtype=d_vecs.dtype)
        np.add.at(d_distinct, where, d_vecs)
        for start, count, length, idx, rnn_cache in groups:
            d_x = self.rnn.backward_from_final(
                rnn_cache, d_distinct[start : start + count], length
            )
            self.table.backward_sequence(idx, d_x.reshape(count * length, -1))

    def forward(self, token):
        """One token: its (out_dim,) encoding and the cache for ``backward``."""
        vecs, cache = self.forward_tokens([token])
        return vecs[0], cache

    def backward(self, cache, d_vec):
        self.backward_tokens(cache, d_vec[None])


# ---------------------------------------------------------------------------
# Contextual stream files (CSTR1)

_MAGIC = b"CSTR1"


@dataclass
class ContextualStreamSet:
    dims: list  # per-stream dimensions
    vectors: dict  # doc id -> [array (tokens, dims[i]) per stream]

    @property
    def n(self):
        return len(self.dims)

    def for_doc(self, doc_id):
        return self.vectors[doc_id]


def save_streams(streams, path):
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", streams.n))
        fh.write(struct.pack(f"<{streams.n}I", *streams.dims))
        for doc_id, arrays in streams.vectors.items():
            raw = doc_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arrays[0].shape[0] if arrays else 0))
            for arr in arrays:
                fh.write(np.asarray(arr, dtype="<f4").tobytes(order="C"))


def load_streams(path, doc_token_counts=None):
    """Read a CSTR1 file; optionally validate per-document token counts
    against the corpus (doc id -> expected count)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:5] != _MAGIC:
        raise FormatError("bad magic; not a CSTR1 file")
    off = 5

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(data):
            raise FormatError("truncated stream file")
        vals = struct.unpack_from(fmt, data, off)
        off += size
        return vals

    (n,) = take("<I")
    dims = list(take(f"<{n}I"))
    vectors = {}
    while off < len(data):
        (id_len,) = take("<I")
        if off + id_len > len(data):
            raise FormatError("truncated doc id")
        doc_id = data[off : off + id_len].decode("utf-8")
        off += id_len
        (count,) = take("<I")
        arrays = []
        for d in dims:
            size = count * d * 4
            if off + size > len(data):
                raise FormatError(f"truncated vectors for doc {doc_id!r}")
            arr = np.frombuffer(data, dtype="<f4", count=count * d, offset=off)
            arrays.append(arr.reshape(count, d).astype(np.float64))
            off += size
        if doc_id in vectors:
            raise FormatError(f"duplicate doc id {doc_id!r}")
        if doc_token_counts is not None:
            expected = doc_token_counts.get(doc_id)
            if expected is not None and expected != count:
                raise TokenCountMismatch(doc_id, expected, count)
        vectors[doc_id] = arrays
    return ContextualStreamSet(dims, vectors)


# ---------------------------------------------------------------------------
# Meta-combiner

class MetaCombiner:
    """Fuse n per-token streams: concatenation, or a learned softmax-
    weighted sum of linear projections (dme / cdme)."""

    M_CONTEXT = 2  # context biLSTM width per direction

    def __init__(self, rng, mode, dims, d_prime=256, dtype=np.float64):
        if mode not in ("concat", "dme", "cdme"):
            raise EmbeddingsError(f"unknown combiner mode {mode!r}")
        self.mode = mode
        self.dims = list(dims)
        self.d_prime = d_prime
        self.projections = []
        self._params = {}
        self._grads = {}
        if mode == "concat":
            return
        for i, d in enumerate(self.dims):
            self._add(f"P{i}", nn.glorot(rng, (d, d_prime), dtype))
            self._add(f"b{i}", np.zeros(d_prime, dtype=dtype))
        if mode == "dme":
            self._add("a", (rng.standard_normal(d_prime) * 0.1).astype(dtype))
        else:
            self.context = nn.BiLstm(rng, d_prime, self.M_CONTEXT, dtype)
            self._add("a", (rng.standard_normal(2 * self.M_CONTEXT) * 0.1).astype(dtype))
        self._add("b", np.zeros((), dtype=dtype))

    def _add(self, name, value):
        self._params[name] = value
        self._grads[name] = np.zeros_like(value)

    @property
    def out_dim(self):
        return sum(self.dims) if self.mode == "concat" else self.d_prime

    @property
    def params(self):
        out = dict(self._params)
        if self.mode == "cdme":
            out.update({f"ctx_{k}": v for k, v in self.context.params.items()})
        return out

    @property
    def grads(self):
        out = dict(self._grads)
        if self.mode == "cdme":
            out.update({f"ctx_{k}": v for k, v in self.context.grads.items()})
        return out

    def zero_grads(self):
        for g in self._grads.values():
            g[...] = 0.0
        if self.mode == "cdme":
            self.context.zero_grads()

    def forward(self, streams):
        """streams: list of (s, d_i) arrays for one document.  Returns
        (output, alphas, cache); alphas is (n, s) or None for concat."""
        if len(streams) != len(self.dims):
            raise StreamCountMismatch(
                f"expected {len(self.dims)} streams, got {len(streams)}"
            )
        for arr, d in zip(streams, self.dims):
            if arr.shape[1] != d:
                raise StreamCountMismatch(f"stream dim {arr.shape[1]} != {d}")
        if self.mode == "concat":
            return np.concatenate(streams, axis=1), None, None

        n = len(streams)
        s = streams[0].shape[0]
        proj = np.stack(
            [
                streams[i] @ self._params[f"P{i}"] + self._params[f"b{i}"]
                for i in range(n)
            ]
        )  # (n, s, d')
        a, b = self._params["a"], self._params["b"]
        if self.mode == "dme":
            logits = proj @ a + b  # (n, s)
            ctx_cache, hs = None, None
        else:
            hs, ctx_cache = self.context.forward(proj)  # (n, s, 2m)
            logits = hs @ a + b
        alphas = nn.softmax(logits, axis=0)  # (n, s)
        out = np.einsum("ns,nsd->sd", alphas, proj)
        cache = (streams, proj, alphas, hs, ctx_cache)
        return out, alphas, cache

    def backward(self, cache, d_out):
        if self.mode == "concat":
            dims = np.cumsum([0] + self.dims)
            return [d_out[:, dims[i] : dims[i + 1]] for i in range(len(self.dims))]
        streams, proj, alphas, hs, ctx_cache = cache

        n, s, _ = proj.shape
        a = self._params["a"]
        d_proj = alphas[:, :, None] * d_out[None, :, :]  # weighted-sum path
        d_alpha = np.einsum("sd,nsd->ns", d_out, proj)
        d_logits = nn.softmax_backward(alphas, d_alpha, axis=0)
        self._grads["b"] += d_logits.sum()
        if self.mode == "dme":
            self._grads["a"] += np.einsum("ns,nsd->d", d_logits, proj)
            d_proj = d_proj + d_logits[:, :, None] * a[None, None, :]
        else:
            self._grads["a"] += np.einsum("ns,nsh->h", d_logits, hs)
            d_h = d_logits[:, :, None] * a[None, None, :]
            d_proj += self.context.backward(ctx_cache, d_h)

        d_streams = []
        for i in range(n):
            self._grads[f"P{i}"] += streams[i].T @ d_proj[i]
            self._grads[f"b{i}"] += d_proj[i].sum(axis=0)
            d_streams.append(d_proj[i] @ self._params[f"P{i}"].T)
        return d_streams


def combine(combiner, streams):
    """Fused per-token vectors for one document."""
    out, _, _ = combiner.forward(streams)
    return out
