"""End-to-end segmentation model: embedding providers -> biGRU ->
optional attention -> CRF, with a mini-batch Adam training loop,
checkpointing, and a finite-difference gradient verification harness.

A mini-batch runs as one padded (B, T, .) batch with a vector of
document lengths, from the features on: each embedding provider runs once
over the batch's tokens, the combiner once over its padded streams, and
then the biGRU, attention, emission layer and CRF.
"""

import hashlib
import json
import zipfile
from dataclasses import dataclass, field, asdict

import numpy as np

from . import crf as crf_mod
from . import nn
from .baselines import logreg_loss_and_grad
from .corpus import (
    BIO_TAGS,
    LABELS,
    AnnotatedDocument,
    SegmentSpan,
    bio_to_spans,
    reading,
    spans_to_bio,
    tokenize,
)
from .embeddings import (
    CharEncoder,
    ContextualStreamSet,
    LookupTable,
    MetaCombiner,
    MissingStreams,
    SubwordHashEmbedder,
)
from .encoder import AttentionLayer, BiGruEncoder
from .evalmetrics import soft_pr


class TrainerError(Exception):
    pass


class NonFiniteLoss(TrainerError):
    def __init__(self, epoch, step):
        super().__init__(f"non-finite loss at epoch {epoch}, step {step}")


CHECKPOINT_VERSION = 1

# the CrfParams fields, each a "crf.<field>" array of SegModel.params
_CRF_FIELDS = ("transitions", "start", "stop")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    dropout: float = 0.3
    recurrent_dropout: float = 0.0
    epochs: int = 30
    batch_size: int = 8
    seed: int = 0
    hidden: int = 128
    patience: int = 5
    clip_norm: float = 5.0
    # embedding providers
    use_lookup: bool = True
    lookup_dim: int = 64
    use_subword: bool = False
    subword_dim: int = 64
    subword_buckets: int = 4096
    use_char: bool = False
    char_dim: int = 16
    char_hidden: int = 40
    # contextual streams
    combiner_mode: str = "none"  # none | concat | dme | cdme
    d_prime: int = 256
    stream_indices: tuple = None  # optional subset of streams
    # attention
    attention_mode: str = "none"  # none | weighted | unweighted
    attention_dim: int = None

    def validate(self):
        if not (0 <= self.dropout < 1 and 0 <= self.recurrent_dropout < 1):
            raise TrainerError("dropout rates must lie in [0, 1)")
        for key in ("learning_rate", "clip_norm"):
            if not 0 < getattr(self, key) < float("inf"):  # nan fails too
                raise TrainerError(f"{key} must be positive and finite, got {getattr(self, key)}")
        if self.combiner_mode not in ("none", "concat", "dme", "cdme"):
            raise TrainerError(f"bad combiner_mode {self.combiner_mode!r}")
        if self.attention_mode not in ("none", "weighted", "unweighted"):
            raise TrainerError(f"bad attention_mode {self.attention_mode!r}")
        if self.epochs < 0:  # 0 epochs gives the untrained model
            raise TrainerError(f"epochs must be at least 0, got {self.epochs}")
        sizes = ["batch_size", "hidden", "patience"]
        sizes += ["lookup_dim"] * self.use_lookup
        sizes += ["subword_dim", "subword_buckets"] * self.use_subword
        sizes += ["char_dim", "char_hidden"] * self.use_char
        sizes += ["d_prime"] * (self.combiner_mode != "none")
        sizes += ["attention_dim"] * (self.attention_dim is not None)
        for key in sizes:
            if getattr(self, key) < 1:
                raise TrainerError(f"{key} must be at least 1, got {getattr(self, key)}")

    def fingerprint(self):
        blob = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class SegModel(nn.Component):
    """All parameters of the segmentation network, assembled from a
    TrainConfig plus the training vocabulary.  ``params``/``grads`` list
    every array of the network once, named "<part>.<name>" in the order
    the parts run (checkpoint keys and the gradient-norm sum follow it).
    """

    DTYPE = np.float32

    def __init__(self, cfg, token_vocab=(), char_vocab="", stream_dims=()):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        self.stream_dims = list(stream_dims)
        rng = np.random.default_rng(cfg.seed)
        dt = self.DTYPE

        self.lookup = self.subword = self.char = self.combiner = None
        feat_dim = 0
        if cfg.use_lookup:
            self.lookup = LookupTable.from_tokens(token_vocab, cfg.lookup_dim, rng, dtype=dt)
            feat_dim += cfg.lookup_dim
        if cfg.use_subword:
            self.subword = SubwordHashEmbedder(
                rng, cfg.subword_dim, n_buckets=cfg.subword_buckets, dtype=dt
            )
            feat_dim += cfg.subword_dim
        if cfg.use_char:
            self.char = CharEncoder(
                rng, char_vocab, char_dim=cfg.char_dim, hidden=cfg.char_hidden, dtype=dt
            )
            feat_dim += self.char.out_dim
        if cfg.combiner_mode != "none":
            dims = self.stream_dims
            if cfg.stream_indices is not None:
                for i in cfg.stream_indices:
                    if not 0 <= i < len(dims):
                        raise TrainerError(f"stream index {i} invalid for {len(dims)} streams")
                dims = [dims[i] for i in cfg.stream_indices]
            self.combiner = MetaCombiner(
                rng, cfg.combiner_mode, dims, d_prime=cfg.d_prime, dtype=dt
            )
            feat_dim += self.combiner.out_dim
        if feat_dim == 0:
            raise TrainerError("no embedding provider enabled")

        self.encoder = BiGruEncoder(
            rng, feat_dim, cfg.hidden, cfg.dropout, cfg.recurrent_dropout, dtype=dt
        )
        self.attention = None
        top_dim = self.encoder.out_dim
        if cfg.attention_mode != "none":
            self.attention = AttentionLayer(
                rng, cfg.attention_mode, top_dim, cfg.attention_dim, dtype=dt
            )
            top_dim = self.attention.out_dim
        self.emit = nn.Linear(rng, top_dim, len(BIO_TAGS), dtype=dt)

        parts = (
            ("lookup.", self.lookup), ("subword.", self.subword), ("char.", self.char),
            ("comb.", self.combiner), ("gru.", self.encoder), ("attn.", self.attention),
            ("emit.", self.emit),
        )
        for prefix, part in parts:
            if part is not None:
                self._add_child(prefix, part)
        crf = crf_mod.CrfParams.zeros(dtype=dt)
        for name in _CRF_FIELDS:
            self._add_param(f"crf.{name}", getattr(crf, name))

    # -- forward / backward -------------------------------------------------

    def _doc_streams(self, doc, streams):
        if streams is None or doc.id not in streams.vectors:
            raise MissingStreams(doc.id)
        arrs = streams.for_doc(doc.id)
        if self.cfg.stream_indices is not None:
            arrs = [arrs[i] for i in self.cfg.stream_indices]
        return [np.asarray(a, dtype=self.DTYPE) for a in arrs]

    def _token_parts(self):
        """(forward, backward) of each per-token provider, in column order."""
        parts = []
        if self.lookup is not None:
            parts.append((self.lookup.embed_sequence, self.lookup.backward_sequence))
        if self.subword is not None:
            parts.append((self.subword.embed_sequence, self.subword.backward_sequence))
        if self.char is not None:
            parts.append((self.char.forward, self.char.backward))
        return parts

    def _features(self, docs, streams):
        """The padded (B, T, d) input of a mini-batch, its lengths and the
        caches for ``_features_backward``.  Each per-token provider runs
        once over the batch's tokens, its column zero at the padding; the
        combiner runs on zero-padded streams, and its column holds the
        softmax-weighted projection biases at the padding, which no valid
        position reads."""
        lengths = np.array([len(doc.tokens) for doc in docs])
        valid = np.arange(lengths.max()) < lengths[:, None]
        toks = [t for doc in docs for t in doc.token_texts()]
        cols, caches = [], []
        for forward, _ in self._token_parts():
            out, cache = forward(toks)
            cols.append(_pad(out, valid))
            caches.append(cache)
        if self.combiner is not None:
            per_doc = [self._doc_streams(doc, streams) for doc in docs]
            padded = [_pad(np.concatenate(arrs), valid) for arrs in zip(*per_doc)]
            out, _, cache = self.combiner.forward(padded, _ragged(lengths))
            cols.append(out.astype(self.DTYPE))
            caches.append(cache)
        widths = [c.shape[-1] for c in cols]
        return np.concatenate(cols, axis=-1), lengths, (valid, widths, caches)

    def _features_backward(self, f_cache, d_x):
        # d_x is exactly zero at the padding: the combiner takes its column as is
        valid, widths, caches = f_cache
        d_cols = np.split(d_x, np.cumsum(widths)[:-1], axis=-1)
        for (_, backward), cache, d_col in zip(self._token_parts(), caches, d_cols):
            backward(cache, d_col[valid])
        if self.combiner is not None:
            self.combiner.backward(caches[-1], d_cols[-1])

    def emissions(self, docs, streams=None, rng=None):
        """Emission scores of a mini-batch of non-empty documents: a
        float64 (B, T, n_tags) array padded to the longest document (no
        valid position reads the padding), and the caches for
        ``backward``.  Dropout is drawn from ``rng``; none without one."""
        x, lengths, f_cache = self._features(docs, streams)
        ragged = _ragged(lengths)
        h, e_cache = self.encoder.encode(x, rng=rng, lengths=ragged)
        a_cache = None
        if self.attention is not None:
            h, a_cache = self.attention.forward(h, ragged)
        e, l_cache = self.emit.forward(h)
        return e.astype(np.float64), (f_cache, lengths, e_cache, a_cache, l_cache)

    def backward(self, caches, d_e):
        f_cache, _, e_cache, a_cache, l_cache = caches
        d_h = self.emit.backward(l_cache, d_e.astype(self.DTYPE))
        if self.attention is not None:
            d_h = self.attention.backward(a_cache, d_h)
        self._features_backward(f_cache, self.encoder.backward(e_cache, d_h))

    def batch_loss(self, docs, streams=None, train=False, rng=None, scale=1.0):
        """NLL of each document's gold tags, as a (B,) array, for the
        mini-batch at once, with dropout from ``rng`` as in ``emissions``;
        accumulates gradients scaled by ``scale`` when train=True."""
        e, caches = self.emissions(docs, streams, rng)
        lengths = caches[1]
        gold = np.zeros(e.shape[:2], dtype=np.intp)
        for row, doc, n in zip(gold, docs, lengths):
            row[:n] = spans_to_bio(doc)
        losses, d_e, crf_g = crf_mod.nll_and_grads(e, self._crf64(), gold, _ragged(lengths))
        if train:
            self.backward(caches, d_e * scale)
            for name in _CRF_FIELDS:
                self.grads[f"crf.{name}"] += (getattr(crf_g, name) * scale).astype(self.DTYPE)
        return losses

    def doc_loss(self, doc, streams=None, train=False, rng=None, scale=1.0):
        """NLL of one document's gold tags; accumulates scaled gradients
        when train=True."""
        return float(self.batch_loss([doc], streams, train, rng, scale)[0])

    def _crf64(self):
        return crf_mod.CrfParams(
            *(self.params[f"crf.{name}"].astype(np.float64) for name in _CRF_FIELDS)
        )

    # -- persistence --------------------------------------------------------

    def save(self, path):
        meta = {
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.cfg),
            "fingerprint": self.cfg.fingerprint(),
            "tag_order": BIO_TAGS,
            "stream_dims": self.stream_dims,
            # a table's rows follow its vocabulary's insertion order
            "lookup_vocab": list(self.lookup.vocab) if self.lookup else [],
            "char_vocab": "".join(self.char.table.vocab) if self.char else "",
        }
        arrays = {
            k.replace(".", "__"): v.astype("<f4") for k, v in self.params.items()
        }
        with open(path, "wb") as fh:  # np.savez(path) would add ".npz" to the name
            np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)

    @classmethod
    def load(cls, path):
        """The model a ``save`` file holds.  A file that is not a checkpoint,
        or whose metadata or arrays do not match the model its config
        builds, is a TrainerError naming the file."""
        with reading(path, TrainerError), open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":
                raise TrainerError("not an npz checkpoint")
            try:
                fh.seek(0)  # np.load(path) would leave its own handle open on a corrupt zip
                with np.load(fh, allow_pickle=False) as data:
                    arrays = {k: data[k] for k in data.files}
                meta = json.loads(str(arrays.pop("__meta__")))
                if meta["version"] != CHECKPOINT_VERSION:
                    raise TrainerError(f"unsupported checkpoint version {meta['version']}")
                if meta["tag_order"] != BIO_TAGS:
                    raise TrainerError(f"tag order {meta['tag_order']} is not {BIO_TAGS}")
                cfg_d = dict(meta["config"])
                if cfg_d.get("stream_indices") is not None:
                    cfg_d["stream_indices"] = tuple(cfg_d["stream_indices"])
                cfg = TrainConfig(**cfg_d)
                fingerprint = meta["fingerprint"]
                if fingerprint != cfg.fingerprint():
                    raise TrainerError(f"config does not match its fingerprint {fingerprint!r}")
                model = cls(cfg, meta["lookup_vocab"], meta["char_vocab"], meta["stream_dims"])
                names = {k.replace(".", "__"): v for k, v in model.params.items()}
                if names.keys() != arrays.keys():
                    missing, extra = sorted(names.keys() - arrays), sorted(arrays.keys() - names)
                    raise TrainerError(f"arrays missing {missing}, unexpected {extra}")
                for name, v in names.items():
                    saved = arrays[name]
                    if saved.shape != v.shape:
                        raise TrainerError(f"array {name} has shape {saved.shape}, not {v.shape}")
                    v[...] = saved.astype(cls.DTYPE)
            except KeyError as exc:
                raise TrainerError(f"no {exc} entry") from None
            except (ValueError, TypeError, EOFError, OSError, RuntimeError, NotImplementedError,
                    zipfile.BadZipFile) as exc:  # all but the first two: zipfile on a corrupt file
                raise TrainerError(f"not a checkpoint of this model: {exc}") from None
        return model


def _pad(rows, valid):
    """Scatter the (N, d) rows of a batch's tokens, in document order, into
    a zero-padded (B, T, d) array; ``valid`` marks the (B, T) real slots."""
    out = np.zeros(valid.shape + rows.shape[1:], dtype=rows.dtype)
    out[valid] = rows
    return out


def _ragged(lengths):
    """The lengths of a batch, or None when no document is padded."""
    return lengths if lengths.min() < lengths.max() else None


def _vocabs(docs):
    """The token list and the sorted characters a SegModel's tables take."""
    tokens = [t for d in docs for t in d.token_texts()]
    return tokens, "".join(sorted({c for t in tokens for c in t}))


def predict(model, doc, streams=None):
    """Decode a document to non-O segment spans (BIO-constrained
    Viterbi)."""
    if not doc.tokens:
        return []
    e, _ = model.emissions([doc], streams)
    return bio_to_spans(crf_mod.viterbi(e[0], model._crf64(), constrain_bio=True)[0])


@dataclass
class EpochLog:
    epoch: int
    train_nll: float
    val_p: float
    val_r: float
    val_f1: float

    def line(self):
        return (
            f"epoch {self.epoch} train_nll {self.train_nll:.4f} "
            f"val_P {self.val_p:.4f} val_R {self.val_r:.4f} val_F1 {self.val_f1:.4f}"
        )


def evaluate_model(model, docs, streams=None):
    gold = [d.spans for d in docs]
    pred = [predict(model, d, streams) for d in docs]
    return soft_pr(gold, pred)


def _batches(docs, batch_size, rng):
    # bucket by length, so each batch pads its documents to about the same
    # length, then visit buckets in shuffled order
    order = sorted(range(len(docs)), key=lambda i: (len(docs[i].tokens), i))
    chunks = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    rng.shuffle(chunks)
    return [[docs[i] for i in chunk] for chunk in chunks]


def train(train_docs, val_docs, streams, cfg):
    """Train a SegModel; returns (model_at_best_val_F1, epoch logs)."""
    if not train_docs:
        raise TrainerError("empty training set")
    cfg.validate()
    stream_dims = streams.dims if streams is not None else []
    if cfg.combiner_mode != "none":
        for d in train_docs + val_docs:
            if streams is None or d.id not in streams.vectors:
                raise MissingStreams(d.id)
    model = SegModel(cfg, *_vocabs(train_docs), stream_dims)

    rng = np.random.default_rng(cfg.seed + 1)
    opt = nn.Adam(model.params, lr=cfg.learning_rate)
    logs = []
    best_f1, best_state, best_age = -1.0, None, 0
    for epoch in range(cfg.epochs):
        total_nll, n_docs = 0.0, 0
        for step, batch in enumerate(_batches(train_docs, cfg.batch_size, rng)):
            batch = [d for d in batch if d.tokens]
            if not batch:
                continue
            model.zero_grads()
            losses = model.batch_loss(batch, streams, train=True, rng=rng, scale=1.0 / len(batch))
            if not np.all(np.isfinite(losses)):
                raise NonFiniteLoss(epoch, step)
            total_nll += float(losses.sum())
            n_docs += len(batch)
            nn.clip_global_norm(list(model.grads.values()), cfg.clip_norm)
            opt.step(model.params, model.grads)
        report = evaluate_model(model, val_docs, streams) if val_docs else None
        f1 = report.micro.f1 if report else 0.0
        logs.append(
            EpochLog(
                epoch,
                total_nll / max(n_docs, 1),
                report.micro.precision if report else 0.0,
                report.micro.recall if report else 0.0,
                f1,
            )
        )
        if f1 > best_f1:
            best_f1 = f1
            best_state = {k: v.copy() for k, v in model.params.items()}
            best_age = 0
        else:
            best_age += 1
            if val_docs and best_age >= cfg.patience:
                break
    if best_state is not None:
        for k, v in model.params.items():
            v[...] = best_state[k]
    return model, logs


# ---------------------------------------------------------------------------
# Gradient verification harness

@dataclass
class GradCheckEntry:
    component: str
    probes: int
    max_rel_err: float
    passed: bool


@dataclass
class GradCheckReport:
    entries: list = field(default_factory=list)

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def lines(self):
        return [
            f"{e.component:<12} probes {e.probes:>4} max_rel_err {e.max_rel_err:.3e} "
            f"{'PASS' if e.passed else 'FAIL'}"
            for e in self.entries
        ]


def _fd_probe(params, analytic, loss_fn, rng, n_probes, step=1e-3):
    """Central finite differences on randomly sampled parameter entries.

    params/analytic: parallel dicts of arrays.  Returns (probes, max rel
    err); the relative error uses max(1, |fd|, |an|) as denominator so
    near-zero gradients do not blow up the ratio.
    """
    names = sorted(params)
    worst, probes = 0.0, 0
    for _ in range(n_probes):
        name = names[rng.integers(len(names))]
        flat = np.atleast_1d(params[name]).reshape(-1)
        i = int(rng.integers(flat.size))
        old = flat[i]
        flat[i] = old + step
        lp = loss_fn()
        flat[i] = old - step
        lm = loss_fn()
        flat[i] = old
        fd = (lp - lm) / (2 * step)
        an = float(np.atleast_1d(analytic[name]).reshape(-1)[i])
        rel = abs(fd - an) / max(1.0, abs(fd), abs(an))
        worst = max(worst, rel)
        probes += 1
    return probes, worst


def _check_crf(rng, probes):
    s = int(rng.integers(2, 6))
    e = rng.standard_normal((s, len(BIO_TAGS)))
    p = crf_mod.CrfParams.random(rng)
    gold = [int(rng.integers(len(BIO_TAGS))) for _ in range(s)]
    _, d_e, g = crf_mod.nll_and_grads(e, p, gold)
    params = {"e": e, "T": p.transitions, "start": p.start, "stop": p.stop}
    analytic = {"e": d_e, "T": g.transitions, "start": g.start, "stop": g.stop}
    return _fd_probe(params, analytic, lambda: crf_mod.nll_and_grads(e, p, gold)[0], rng, probes)


def _weighted_sum_check(component, inputs, rng, probes, forward, backward):
    """Probe the loss sum(out * r) over the component's parameters and the
    arrays of ``inputs``: forward() returns (out, cache), and
    backward(cache, r) returns the gradients of ``inputs``, in order."""
    out, cache = forward()
    r = rng.standard_normal(out.shape)
    component.zero_grads()
    d_inputs = backward(cache, r)
    params, analytic = dict(component.params), dict(component.grads)
    for i, x in enumerate(inputs):
        params[f"__x{i}__"], analytic[f"__x{i}__"] = x, d_inputs[i]
    return _fd_probe(params, analytic, lambda: float(np.sum(forward()[0] * r)), rng, probes)


def _check_gru(rng, probes):
    enc = BiGruEncoder(rng, 5, 4)
    x = rng.standard_normal((6, 5))
    return _weighted_sum_check(
        enc, [x], rng, probes, lambda: enc.encode(x), lambda c, r: [enc.backward(c, r)]
    )


def _check_char(rng, probes):
    enc = CharEncoder(rng, "abcxyz/.-", char_dim=4, hidden=5)
    # two lengths, one token repeated, one unknown char ("q")
    tokens = ["xy/z.a", "ab", "xy/z.a", "q.", "zzcaby"]
    return _weighted_sum_check(enc, [], rng, probes, lambda: enc.forward(tokens), enc.backward)


def _check_attention(rng, probes, mode="weighted"):
    layer = AttentionLayer(rng, mode, 6, d_a=4 if mode == "weighted" else None)
    x = rng.standard_normal((5, 6))
    return _weighted_sum_check(
        layer, [x], rng, probes, lambda: layer.forward(x), lambda c, r: [layer.backward(c, r)]
    )


def _check_combiner(rng, probes, mode="cdme"):
    comb = MetaCombiner(rng, mode, [4, 3, 5], d_prime=6)
    streams = [rng.standard_normal((5, d)) for d in comb.dims]
    return _weighted_sum_check(  # forward: (output, cache), without the alphas
        comb, streams, rng, probes, lambda: comb.forward(streams)[::2], comb.backward
    )


class _SegModel64(SegModel):
    DTYPE = np.float64


def _check_model(rng, probes):
    """The composed model's batched loss (lookup, char, cdme and weighted
    attention; no dropout) over a ragged batch of 1, 4 and 7 tokens."""
    docs = []
    for i, n in enumerate((1, 4, 7)):
        text = " ".join(rng.choice(["ab", "c.d", "xyz", "q", "zz-a"], size=n))
        end = int(rng.integers(1, n + 1))
        spans = [SegmentSpan(int(rng.integers(end)), end, LABELS[i])]
        docs.append(AnnotatedDocument(f"d{i}", text, tokenize(text), spans))
    dims = [3, 4]
    streams = ContextualStreamSet(
        dims, {d.id: [rng.standard_normal((len(d.tokens), k)) for k in dims] for d in docs}
    )
    cfg = TrainConfig(
        hidden=4, lookup_dim=3, use_char=True, char_dim=3, char_hidden=3,
        combiner_mode="cdme", d_prime=4, attention_mode="weighted", attention_dim=3,
        dropout=0.0, seed=int(rng.integers(1 << 16)),
    )
    model = _SegModel64(cfg, *_vocabs(docs), dims)
    for name in _CRF_FIELDS:
        crf = model.params[f"crf.{name}"]
        crf[...] = rng.standard_normal(crf.shape)
    model.zero_grads()
    model.batch_loss(docs, streams, train=True)
    return _fd_probe(
        model.params, model.grads, lambda: float(np.sum(model.batch_loss(docs, streams))),
        rng, probes, step=1e-5,
    )


def _check_logreg(rng, probes):
    n, d, c = 12, 5, 7
    x = rng.standard_normal((n, d))
    y = rng.integers(c, size=n)
    w = rng.standard_normal((c, d)) * 0.3
    b = rng.standard_normal(c) * 0.3
    _, d_w, d_b = logreg_loss_and_grad(w, b, x, y, lam=0.1)
    params = {"w": w, "b": b}
    analytic = {"w": d_w, "b": d_b}
    return _fd_probe(
        params, analytic, lambda: logreg_loss_and_grad(w, b, x, y, lam=0.1)[0],
        rng, probes,
    )


CHECKS = {
    "crf": _check_crf,
    "gru": _check_gru,
    "char": _check_char,
    "attention": lambda rng, p: _check_attention(rng, p, "weighted"),
    "attention_unweighted": lambda rng, p: _check_attention(rng, p, "unweighted"),
    "dme": lambda rng, p: _check_combiner(rng, p, "dme"),
    "cdme": lambda rng, p: _check_combiner(rng, p, "cdme"),
    "logreg": _check_logreg,
    "model": _check_model,
}


def gradcheck(component="all", trials=20, tolerance=1e-4, seed=0):
    """Verify analytic gradients against central finite differences.

    component: one name of CHECKS, or "all" for every check in order.
    Each checked component gets `trials` random parameter probes spread
    over freshly sampled instances.
    """
    if tolerance <= 0:
        raise TrainerError("tolerance must be positive")
    if trials < 1:
        raise TrainerError(f"trials must be at least 1, got {trials}")
    names = list(CHECKS) if component == "all" else [component]
    report = GradCheckReport()
    for name in names:
        if name not in CHECKS:
            raise TrainerError(f"unknown component {name!r}")
        rng = np.random.default_rng(seed)
        total_probes, worst = 0, 0.0
        per_instance = 5
        while total_probes < trials:
            p, w = CHECKS[name](rng, min(per_instance, trials - total_probes))
            total_probes += p
            worst = max(worst, w)
        report.entries.append(
            GradCheckEntry(name, total_probes, worst, worst < tolerance)
        )
    return report
