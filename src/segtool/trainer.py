"""End-to-end segmentation model: embedding providers -> biGRU ->
optional attention -> CRF, with a mini-batch Adam training loop,
checkpointing, and a finite-difference gradient verification harness.

Features are computed per document; a mini-batch then runs through the
biGRU, attention, emission layer and CRF as one zero-padded (B, T, .)
batch with a vector of document lengths.
"""

import copy
import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import crf as crf_mod
from . import nn
from .corpus import (
    BIO_TAGS,
    LABELS,
    AnnotatedDocument,
    SegmentSpan,
    bio_to_spans,
    spans_to_bio,
    tokenize,
)
from .embeddings import (
    CharEncoder,
    ContextualStreamSet,
    LookupTable,
    MetaCombiner,
    SubwordHashEmbedder,
)
from .encoder import AttentionLayer, BiGruEncoder
from .evalmetrics import soft_pr


class TrainerError(Exception):
    pass


class MissingStreams(TrainerError):
    def __init__(self, doc_id):
        super().__init__(f"no contextual streams for document {doc_id!r}")
        self.doc_id = doc_id


class NonFiniteLoss(TrainerError):
    def __init__(self, epoch, step):
        super().__init__(f"non-finite loss at epoch {epoch}, step {step}")


CHECKPOINT_VERSION = 1


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
        if self.learning_rate <= 0:
            raise TrainerError("learning_rate must be positive")
        if self.combiner_mode not in ("none", "concat", "dme", "cdme"):
            raise TrainerError(f"bad combiner_mode {self.combiner_mode!r}")
        if self.attention_mode not in ("none", "weighted", "unweighted"):
            raise TrainerError(f"bad attention_mode {self.attention_mode!r}")

    def fingerprint(self):
        blob = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class SegModel:
    """All parameters of the segmentation network, assembled from a
    TrainConfig plus the training vocabulary."""

    DTYPE = np.float32

    def __init__(self, cfg, token_vocab=(), char_vocab="", stream_dims=()):
        cfg.validate()
        self.cfg = cfg
        self.stream_dims = list(stream_dims)
        rng = np.random.default_rng(cfg.seed)
        dt = self.DTYPE

        self.lookup = self.subword = self.char = self.combiner = None
        feat_dim = 0
        if cfg.use_lookup:
            self.lookup = LookupTable.from_tokens(
                token_vocab, cfg.lookup_dim, rng, dtype=dt, trainable=True
            )
            feat_dim += cfg.lookup_dim
        if cfg.use_subword:
            self.subword = SubwordHashEmbedder(
                rng, cfg.subword_dim, n_buckets=cfg.subword_buckets,
                dtype=dt, trainable=True,
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
        self.crf = crf_mod.CrfParams.zeros(dtype=dt)
        self.crf_grads = crf_mod.CrfParams.zeros(dtype=dt)

    # -- parameter plumbing -------------------------------------------------

    def _components(self):
        out = {}
        if self.lookup is not None:
            out["lookup"] = self.lookup
        if self.subword is not None:
            out["subword"] = self.subword
        if self.char is not None:
            out["char"] = self.char
        if self.combiner is not None:
            out["comb"] = self.combiner
        out["gru"] = self.encoder
        if self.attention is not None:
            out["attn"] = self.attention
        out["emit"] = self.emit
        return out

    def named_params(self):
        out = {}
        for prefix, comp in self._components().items():
            for k, v in comp.params.items():
                out[f"{prefix}.{k}"] = v
        out["crf.transitions"] = self.crf.transitions
        out["crf.start"] = self.crf.start
        out["crf.stop"] = self.crf.stop
        return out

    def named_grads(self):
        out = {}
        for prefix, comp in self._components().items():
            for k, v in comp.grads.items():
                out[f"{prefix}.{k}"] = v
        out["crf.transitions"] = self.crf_grads.transitions
        out["crf.start"] = self.crf_grads.start
        out["crf.stop"] = self.crf_grads.stop
        return out

    def zero_grads(self):
        for comp in self._components().values():
            comp.zero_grads()
        self.crf_grads.transitions[...] = 0.0
        self.crf_grads.start[...] = 0.0
        self.crf_grads.stop[...] = 0.0

    # -- forward / backward -------------------------------------------------

    def _doc_streams(self, doc, streams):
        if self.combiner is None:
            return None
        if streams is None or doc.id not in streams.vectors:
            raise MissingStreams(doc.id)
        arrs = streams.for_doc(doc.id)
        if self.cfg.stream_indices is not None:
            arrs = [arrs[i] for i in self.cfg.stream_indices]
        return [np.asarray(a, dtype=self.DTYPE) for a in arrs]

    def _features(self, doc, streams):
        toks = doc.token_texts()
        cols, caches = [], {}
        if self.lookup is not None:
            out, idx = self.lookup.embed_sequence(toks)
            cols.append(out)
            caches["lookup"] = idx
        if self.subword is not None:
            out, idx = self.subword.embed_sequence(toks)
            cols.append(out)
            caches["subword"] = idx
        if self.char is not None:
            out, caches["char"] = self.char.forward_tokens(toks)
            cols.append(out)
        if self.combiner is not None:
            arrs = self._doc_streams(doc, streams)
            out, _, c_cache = self.combiner.forward(arrs)
            cols.append(out.astype(self.DTYPE))
            caches["comb"] = c_cache
        x = np.concatenate(cols, axis=1)
        caches["widths"] = [c.shape[1] for c in cols]
        return x, caches

    def _features_backward(self, caches, d_x):
        offs = np.cumsum([0] + caches["widths"])
        k = 0

        def col():
            nonlocal k
            sl = d_x[:, offs[k] : offs[k + 1]]
            k += 1
            return sl

        if self.lookup is not None:
            self.lookup.backward_sequence(caches["lookup"], col())
        if self.subword is not None:
            self.subword.backward_sequence(caches["subword"], col())
        if self.char is not None:
            self.char.backward_tokens(caches["char"], col())
        if self.combiner is not None:
            self.combiner.backward(caches["comb"], col())

    def emissions(self, docs, streams=None, train=False, rng=None):
        """Emission scores of a mini-batch of non-empty documents: a
        float64 (B, T, n_tags) array zero-padded to the longest document,
        and the caches for ``backward``."""
        feats = [self._features(doc, streams) for doc in docs]
        lengths = np.array([len(x) for x, _ in feats])
        x = np.zeros((len(docs), lengths.max(), feats[0][0].shape[1]), dtype=self.DTYPE)
        for row, (xb, _) in zip(x, feats):
            row[: len(xb)] = xb
        ragged = _ragged(lengths)
        h, e_cache = self.encoder.encode(x, train=train, rng=rng, lengths=ragged)
        a_cache = None
        if self.attention is not None:
            h, a_cache = self.attention.forward(h, ragged)
        e, l_cache = self.emit.forward(h)
        f_caches = [c for _, c in feats]
        return e.astype(np.float64), (f_caches, lengths, e_cache, a_cache, l_cache)

    def backward(self, caches, d_e):
        f_caches, lengths, e_cache, a_cache, l_cache = caches
        d_h = self.emit.backward(l_cache, d_e.astype(self.DTYPE))
        if self.attention is not None:
            d_h = self.attention.backward(a_cache, d_h)
        d_x = self.encoder.backward(e_cache, d_h)
        for f_cache, d_xb, n in zip(f_caches, d_x, lengths):
            self._features_backward(f_cache, d_xb[:n])

    def batch_loss(self, docs, streams=None, train=False, rng=None, scale=1.0):
        """NLL of each document's gold tags, as a (B,) array, computed for
        the mini-batch at once; accumulates gradients scaled by ``scale``
        when train=True."""
        e, caches = self.emissions(docs, streams, train=train, rng=rng)
        lengths = caches[1]
        gold = np.zeros(e.shape[:2], dtype=np.intp)
        for row, doc, n in zip(gold, docs, lengths):
            row[:n] = crf_mod.tags_to_indices(spans_to_bio(doc))
        losses, d_e, crf_g = crf_mod.nll_and_grads(e, self._crf64(), gold, _ragged(lengths))
        if train:
            self.backward(caches, d_e * scale)
            self.crf_grads.transitions += (crf_g.transitions * scale).astype(self.DTYPE)
            self.crf_grads.start += (crf_g.start * scale).astype(self.DTYPE)
            self.crf_grads.stop += (crf_g.stop * scale).astype(self.DTYPE)
        return losses

    def doc_loss(self, doc, streams=None, train=False, rng=None, scale=1.0):
        """NLL of one document's gold tags; accumulates scaled gradients
        when train=True."""
        return float(self.batch_loss([doc], streams, train, rng, scale)[0])

    def _crf64(self):
        return crf_mod.CrfParams(
            self.crf.transitions.astype(np.float64),
            self.crf.start.astype(np.float64),
            self.crf.stop.astype(np.float64),
        )

    # -- persistence --------------------------------------------------------

    def save(self, path):
        meta = {
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.cfg),
            "fingerprint": self.cfg.fingerprint(),
            "tag_order": BIO_TAGS,
            "stream_dims": self.stream_dims,
            "lookup_vocab": _vocab_rows(self.lookup.vocab) if self.lookup else [],
            "char_vocab": "".join(_vocab_rows(self.char.char_vocab)) if self.char else "",
        }
        arrays = {
            k.replace(".", "__"): v.astype("<f4") for k, v in self.named_params().items()
        }
        np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)

    @classmethod
    def load(cls, path):
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["__meta__"]))
            if meta["version"] != CHECKPOINT_VERSION:
                raise TrainerError(f"unsupported checkpoint version {meta['version']}")
            cfg_d = meta["config"]
            if cfg_d.get("stream_indices") is not None:
                cfg_d["stream_indices"] = tuple(cfg_d["stream_indices"])
            cfg = TrainConfig(**cfg_d)
            model = cls(
                cfg,
                token_vocab=meta["lookup_vocab"],
                char_vocab=meta["char_vocab"],
                stream_dims=meta["stream_dims"],
            )
            params = model.named_params()
            for k, v in params.items():
                v[...] = data[k.replace(".", "__")].astype(cls.DTYPE)
        return model


def _ragged(lengths):
    """The lengths of a batch, or None when no document is padded."""
    return lengths if lengths.min() < lengths.max() else None


def _vocab_rows(vocab):
    # tokens ordered by their row index (row 0 is unk, not listed)
    return [t for t, _ in sorted(vocab.items(), key=lambda kv: kv[1])]


def predict(model, doc, streams=None):
    """Decode a document to non-O segment spans (BIO-constrained
    Viterbi)."""
    if not doc.tokens:
        return []
    e, _ = model.emissions([doc], streams)
    tags, _ = crf_mod.viterbi(e[0], model._crf64(), constrain_bio=True)
    return bio_to_spans(tags)


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


def evaluate_model(model, docs, streams=None, macro=False):
    gold = [d.spans for d in docs]
    pred = [predict(model, d, streams) for d in docs]
    return soft_pr(gold, pred, macro=macro)


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
    tokens = [t for d in train_docs for t in d.token_texts()]
    chars = "".join(sorted({c for t in tokens for c in t}))
    stream_dims = streams.dims if streams is not None else []
    if cfg.combiner_mode != "none":
        for d in train_docs + val_docs:
            if streams is None or d.id not in streams.vectors:
                raise MissingStreams(d.id)
    model = SegModel(cfg, tokens, chars, stream_dims)

    rng = np.random.default_rng(cfg.seed + 1)
    opt = nn.Adam(model.named_params(), lr=cfg.learning_rate)
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
            grads = model.named_grads()
            nn.clip_global_norm(list(grads.values()), cfg.clip_norm)
            opt.step(model.named_params(), grads)
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
            best_state = copy.deepcopy(
                {k: v.copy() for k, v in model.named_params().items()}
            )
            best_age = 0
        else:
            best_age += 1
            if val_docs and best_age >= cfg.patience:
                break
    if best_state is not None:
        params = model.named_params()
        for k, v in params.items():
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
    from . import crf as C

    s = int(rng.integers(2, 6))
    e = rng.standard_normal((s, len(BIO_TAGS)))
    p = C.CrfParams.random(rng)
    gold = [int(rng.integers(len(BIO_TAGS))) for _ in range(s)]
    _, d_e, g = C.nll_and_grads(e, p, gold)
    params = {"e": e, "T": p.transitions, "start": p.start, "stop": p.stop}
    analytic = {"e": d_e, "T": g.transitions, "start": g.start, "stop": g.stop}
    return _fd_probe(params, analytic, lambda: C.nll_and_grads(e, p, gold)[0], rng, probes)


def _weighted_sum_check(component, x, rng, probes, forward, backward):
    out0 = forward()
    r = rng.standard_normal(out0.shape)

    def loss():
        return float(np.sum(forward() * r))

    component.zero_grads()
    backward(r)
    params = dict(component.params)
    analytic = dict(component.grads)
    if x is not None:
        params["__x__"], analytic["__x__"] = x
    return _fd_probe(params, analytic, loss, rng, probes)


def _check_gru(rng, probes):
    enc = BiGruEncoder(rng, 5, 4)
    x = rng.standard_normal((6, 5))
    holder = {}

    def forward():
        out, cache = enc.encode(x)
        holder["cache"] = cache
        return out

    d_x = np.zeros_like(x)

    def backward(r):
        d_x[...] = enc.backward(holder["cache"], r)

    return _weighted_sum_check(enc, (x, d_x), rng, probes, forward, backward)


def _check_char(rng, probes):
    enc = CharEncoder(rng, "abcxyz/.-", char_dim=4, hidden=5)
    # two lengths, one token repeated, one unknown char ("q")
    tokens = ["xy/z.a", "ab", "xy/z.a", "q.", "zzcaby"]
    holder = {}

    def forward():
        v, cache = enc.forward_tokens(tokens)
        holder["cache"] = cache
        return v

    def backward(r):
        enc.backward_tokens(holder["cache"], r)

    return _weighted_sum_check(enc, None, rng, probes, forward, backward)


def _check_attention(rng, probes, mode="weighted"):
    layer = AttentionLayer(rng, mode, 6, d_a=4 if mode == "weighted" else None)
    x = rng.standard_normal((5, 6))
    holder = {}

    def forward():
        out, cache = layer.forward(x)
        holder["cache"] = cache
        return out

    d_x = np.zeros_like(x)

    def backward(r):
        d_x[...] = layer.backward(holder["cache"], r)

    return _weighted_sum_check(layer, (x, d_x), rng, probes, forward, backward)


def _check_combiner(rng, probes, mode="cdme"):
    dims = [4, 3, 5]
    comb = MetaCombiner(rng, mode, dims, d_prime=6)
    streams = [rng.standard_normal((5, d)) for d in dims]
    holder = {}

    def forward():
        out, _, cache = comb.forward(streams)
        holder["cache"] = cache
        return out

    def backward(r):
        holder["d_streams"] = comb.backward(holder["cache"], r)

    out0 = forward()
    r = rng.standard_normal(out0.shape)

    def loss():
        return float(np.sum(forward() * r))

    comb.zero_grads()
    forward()
    backward(r)
    params = dict(comb.params)
    analytic = dict(comb.grads)
    for i, (st, ds) in enumerate(zip(streams, holder["d_streams"])):
        params[f"__s{i}__"], analytic[f"__s{i}__"] = st, ds
    return _fd_probe(params, analytic, loss, rng, probes)


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
    tokens = [t for d in docs for t in d.token_texts()]
    model = _SegModel64(cfg, tokens, "".join(sorted(set("".join(tokens)))), dims)
    params = model.named_params()
    for k in ("crf.transitions", "crf.start", "crf.stop"):
        params[k][...] = rng.standard_normal(params[k].shape)
    model.zero_grads()
    model.batch_loss(docs, streams, train=True)
    return _fd_probe(
        params, model.named_grads(), lambda: float(np.sum(model.batch_loss(docs, streams))),
        rng, probes, step=1e-5,
    )


def _check_logreg(rng, probes):
    from .baselines import logreg_loss_and_grad

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


_CHECKS = {
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


def gradcheck(component_selector="all", trials=20, tolerance=1e-4, seed=0,
              _tamper=None):
    """Verify analytic gradients against central finite differences.

    component_selector: one check name, a list of names, or "all".  Each
    selected component gets `trials` random parameter probes spread over
    freshly sampled instances.  ``_tamper`` is a test hook that perturbs
    the recorded error.
    """
    if tolerance <= 0:
        raise TrainerError("tolerance must be positive")
    if component_selector == "all":
        names = list(_CHECKS)
    elif isinstance(component_selector, str):
        names = [component_selector]
    else:
        names = list(component_selector)
    report = GradCheckReport()
    for name in names:
        if name not in _CHECKS:
            raise TrainerError(f"unknown component {name!r}")
        rng = np.random.default_rng(seed)
        total_probes, worst = 0, 0.0
        per_instance = 5
        while total_probes < trials:
            p, w = _CHECKS[name](rng, min(per_instance, trials - total_probes))
            total_probes += p
            worst = max(worst, w)
        if _tamper is not None:
            worst = _tamper(name, worst)
        report.entries.append(
            GradCheckEntry(name, total_probes, worst, worst < tolerance)
        )
    return report
