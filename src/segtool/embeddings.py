"""Per-token vector providers and the meta-embedding combiner.

Providers: a trainable lookup table built from a corpus vocabulary, a
hashed subword n-gram embedder that composes vectors for unseen tokens
from character n-grams, a character-level biLSTM encoder, and contextual
embedding streams read from a binary file.
Each token provider takes a list of tokens and returns one row per token.

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
from .corpus import reading


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


class MissingStreams(EmbeddingsError):
    def __init__(self, doc_id):
        super().__init__(f"no contextual streams for document {doc_id!r}")
        self.doc_id = doc_id


def _token_list(tokens):
    """tokens, when it is not a bare str (which would be read as a list
    of one-character tokens)."""
    if isinstance(tokens, str):
        raise EmbeddingsError(f"expected a list of tokens, got the str {tokens!r}")
    return tokens


class LookupTable(nn.Component):
    """token -> trainable row, with the shared row 0 for
    out-of-vocabulary tokens."""

    def __init__(self, vocab, matrix):
        super().__init__()
        self.vocab = dict(vocab)
        self._add_param("matrix", np.asarray(matrix))
        assert all(v < self.params["matrix"].shape[0] for v in self.vocab.values())

    @classmethod
    def from_tokens(cls, tokens, dim, rng, dtype=np.float64):
        vocab = {}
        for t in tokens:
            if t not in vocab:
                vocab[t] = len(vocab) + 1  # row 0 reserved for unk
        matrix = (rng.standard_normal((len(vocab) + 1, dim)) * 0.1).astype(dtype)
        return cls(vocab, matrix)

    def row_index(self, token):
        return self.vocab.get(token, 0)

    def embed_sequence(self, tokens):
        idx = np.array([self.row_index(t) for t in _token_list(tokens)], dtype=np.int64)
        return self.params["matrix"][idx], idx

    def backward_sequence(self, idx, d_out):
        np.add.at(self.grads["matrix"], idx, d_out)


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
    """A token's vector: the mean of the hashed bucket rows of its 3- to
    6-grams and of its whole padded form (token_ngrams)."""

    N_MIN, N_MAX = 3, 6

    def __init__(self, rng, dim, n_buckets=2**21, dtype=np.float64):
        super().__init__()
        if n_buckets < 1:
            raise EmbeddingsError(f"n_buckets must be at least 1, got {n_buckets}")
        self.n_buckets = n_buckets
        self._add_param(
            "buckets", (rng.standard_normal((n_buckets, dim)) * 0.1).astype(dtype)
        )

    def bucket_indices(self, token):
        if not token:
            raise EmptyToken("cannot embed the empty token")
        return np.array(
            [
                fnv1a(g.encode("utf-8")) % self.n_buckets
                for g in token_ngrams(token, self.N_MIN, self.N_MAX)
            ],
            dtype=np.int64,
        )

    def embed_sequence(self, tokens):
        idx = [self.bucket_indices(t) for t in _token_list(tokens)]
        out = np.stack([self.params["buckets"][i].mean(axis=0) for i in idx])
        return out, idx

    def backward_sequence(self, idx, d_out):
        for ids, d in zip(idx, d_out):
            np.add.at(self.grads["buckets"], ids, d / len(ids))


class CharEncoder(nn.Component):
    """biLSTM over a token's code points; output is the concatenation of
    the final forward and backward states (80-dim at the default width).

    ``forward`` takes a list of tokens, encodes each distinct token once,
    and runs the distinct tokens of one length as one (tokens, length,
    char_dim) batch.
    """

    def __init__(self, rng, chars, char_dim=16, hidden=40, dtype=np.float64):
        super().__init__()
        self.table = LookupTable.from_tokens(chars, char_dim, rng, dtype)
        self.rnn = nn.BiLstm(rng, char_dim, hidden, dtype)
        self._add_child("table_", self.table)
        self._add_child("rnn_", self.rnn)

    @property
    def out_dim(self):
        return 2 * self.rnn.hidden

    def forward(self, tokens):
        """(len(tokens), out_dim) encodings and the cache for
        ``backward``."""
        if not all(_token_list(tokens)):
            raise EmptyToken("cannot encode the empty token")
        distinct = sorted(dict.fromkeys(tokens), key=len)
        row = {t: k for k, t in enumerate(distinct)}
        vecs = np.empty((len(distinct), self.out_dim), dtype=self.table.params["matrix"].dtype)
        groups = []  # (first row, token count, length, char rows, biLSTM cache)
        start = 0
        for length, group in itertools.groupby(distinct, key=len):
            group = list(group)
            x, idx = self.table.embed_sequence(list("".join(group)))
            out, cache = self.rnn.forward(x.reshape(len(group), length, -1))
            vecs[start : start + len(group)] = self.rnn.final_states(out)
            groups.append((start, len(group), length, idx, cache))
            start += len(group)
        where = np.array([row[t] for t in tokens], dtype=np.int64)
        return vecs[where], (where, len(distinct), groups)

    def backward(self, cache, d_vecs):
        where, n_distinct, groups = cache
        # a repeated token's gradients add up before its one LSTM backward
        d_distinct = np.zeros((n_distinct, self.out_dim), dtype=d_vecs.dtype)
        np.add.at(d_distinct, where, d_vecs)
        for start, count, length, idx, rnn_cache in groups:
            d_x = self.rnn.backward_from_final(
                rnn_cache, d_distinct[start : start + count], length
            )
            self.table.backward_sequence(idx, d_x.reshape(count * length, -1))


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


def load_streams(path, doc_token_counts=None, dims=None):
    """Read a CSTR1 file; optionally check per-document token counts
    against the corpus (doc id -> expected count) and the stream dims
    against a model's.  Errors name the file."""
    with reading(path, EmbeddingsError), open(path, "rb") as fh:
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
        file_dims = list(take(f"<{n}I"))
        if dims is not None and file_dims != list(dims):
            raise StreamCountMismatch(f"stream dims {file_dims} are not the model's {list(dims)}")
        vectors = {}
        while off < len(data):
            (id_len,) = take("<I")
            if off + id_len > len(data):
                raise FormatError("truncated doc id")
            try:
                doc_id = data[off : off + id_len].decode("utf-8")
            except UnicodeDecodeError:  # a binary file has no line to name
                raise FormatError(f"doc id at byte {off} is not UTF-8") from None
            off += id_len
            (count,) = take("<I")
            size = count * sum(file_dims)  # the document's floats, stream after stream
            if off + 4 * size > len(data):
                raise FormatError(f"truncated vectors for doc {doc_id!r}")
            block = np.frombuffer(data, dtype="<f4", count=size, offset=off)
            if not np.isfinite(block).all():
                raise FormatError(f"non-finite vector for doc {doc_id!r}")
            off += 4 * size
            cuts = np.cumsum([count * d for d in file_dims])[:-1]
            arrays = [a.reshape(count, d).astype(np.float64)
                      for a, d in zip(np.split(block, cuts), file_dims)]
            if doc_id in vectors:
                raise FormatError(f"duplicate doc id {doc_id!r}")
            if doc_token_counts is not None:
                expected = doc_token_counts.get(doc_id)
                if expected is not None and expected != count:
                    raise TokenCountMismatch(doc_id, expected, count)
            vectors[doc_id] = arrays
    return ContextualStreamSet(file_dims, vectors)


# ---------------------------------------------------------------------------
# Meta-combiner

class MetaCombiner(nn.Component):
    """Fuse n per-token streams: concatenation, or a learned softmax-
    weighted sum of linear projections (dme / cdme).  Streams are
    (..., s, d_i) arrays, zero-padded after their ``lengths`` as in ``nn``:
    the softmax over the streams is per position, and the cdme context
    biLSTM reverses each sequence within its length."""

    M_CONTEXT = 2  # context biLSTM width per direction

    def __init__(self, rng, mode, dims, d_prime=256, dtype=np.float64):
        super().__init__()
        if mode not in ("concat", "dme", "cdme"):
            raise EmbeddingsError(f"unknown combiner mode {mode!r}")
        self.mode = mode
        self.dims = list(dims)
        self.d_prime = d_prime
        if mode == "concat":
            return
        for i, d in enumerate(self.dims):
            self._add_param(f"P{i}", nn.glorot(rng, (d, d_prime), dtype))
            self._add_param(f"b{i}", np.zeros(d_prime, dtype=dtype))
        if mode == "dme":
            self._add_param("a", (rng.standard_normal(d_prime) * 0.1).astype(dtype))
        else:
            # built before ``a`` is drawn (the RNG order), listed after
            # ``a`` and ``b`` (the parameter-name order)
            self.context = nn.BiLstm(rng, d_prime, self.M_CONTEXT, dtype)
            self._add_param("a", (rng.standard_normal(2 * self.M_CONTEXT) * 0.1).astype(dtype))
        self._add_param("b", np.zeros((), dtype=dtype))
        if mode == "cdme":
            self._add_child("ctx_", self.context)

    @property
    def out_dim(self):
        return sum(self.dims) if self.mode == "concat" else self.d_prime

    def forward(self, streams, lengths=None):
        """streams: list of n (..., s, d_i) arrays.  Returns (output,
        alphas, cache): output is (..., s, out_dim), alphas (n, ..., s), or
        None for concat."""
        if len(streams) != len(self.dims):
            raise StreamCountMismatch(
                f"expected {len(self.dims)} streams, got {len(streams)}"
            )
        for arr, d in zip(streams, self.dims):
            if arr.shape[-1] != d:
                raise StreamCountMismatch(f"stream dim {arr.shape[-1]} != {d}")
        if self.mode == "concat":
            return np.concatenate(streams, axis=-1), None, None

        proj = np.stack(
            [st @ self.params[f"P{i}"] + self.params[f"b{i}"] for i, st in enumerate(streams)]
        )  # (n, ..., s, d')
        a, b = self.params["a"], self.params["b"]
        if self.mode == "dme":
            logits = proj @ a + b  # (n, ..., s)
            ctx_cache, hs = None, None
        else:
            if lengths is not None:
                lengths = np.broadcast_to(lengths, proj.shape[:-2])
            hs, ctx_cache = self.context.forward(proj, lengths)  # (n, ..., s, 2m)
            logits = hs @ a + b
        alphas = nn.softmax(logits, axis=0)
        out = np.einsum("n...,n...d->...d", alphas, proj)
        cache = (streams, proj, alphas, hs, ctx_cache)
        return out, alphas, cache

    def backward(self, cache, d_out):
        if self.mode == "concat":
            return np.split(d_out, np.cumsum(self.dims)[:-1], axis=-1)
        streams, proj, alphas, hs, ctx_cache = cache

        a = self.params["a"]
        d_proj = alphas[..., None] * d_out  # weighted-sum path
        d_alpha = np.einsum("...d,n...d->n...", d_out, proj)
        d_logits = nn.softmax_backward(alphas, d_alpha, axis=0)
        self.grads["b"] += d_logits.sum()
        if self.mode == "dme":
            self.grads["a"] += d_logits.reshape(-1) @ proj.reshape(-1, self.d_prime)
            d_proj += d_logits[..., None] * a
        else:
            self.grads["a"] += d_logits.reshape(-1) @ hs.reshape(-1, hs.shape[-1])
            d_proj += self.context.backward(ctx_cache, d_logits[..., None] * a)

        d_streams = []
        for i, st in enumerate(streams):
            d_rows = d_proj[i].reshape(-1, self.d_prime)
            self.grads[f"P{i}"] += st.reshape(-1, st.shape[-1]).T @ d_rows
            self.grads[f"b{i}"] += d_rows.sum(axis=0)
            d_streams.append(d_proj[i] @ self.params[f"P{i}"].T)
        return d_streams
