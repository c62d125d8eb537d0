"""Sentence-level baselines.

Documents are first cut into sentence units (newlines plus a simple
punctuation rule), each unit is represented by mean-pooled contextual
vectors (optionally concatenated with its neighbours), and a multinomial
logistic-regression classifier assigns one of the seven classes (six
segment labels plus O).  Adjacent units with the same predicted non-O
label are merged back into spans for evaluation.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import CLASS_NAMES, Break, SegmentLabel, SegmentSpan, add_run, token_labels
from .embeddings import MissingStreams, TokenCountMismatch


class BaselineError(Exception):
    pass


class DegenerateData(BaselineError):
    pass


class BoundarySource(str, Enum):
    NEWLINE = "newline"
    SENTENCE_PUNCT = "sentence_punct"


@dataclass(frozen=True)
class SentenceUnit:
    start: int  # token index, inclusive
    end: int  # exclusive
    source: BoundarySource


_SENT_END = (".", "?", "!")


def sentence_segment(doc):
    """Partition the token sequence into units.  A boundary falls before
    any token preceded by a newline, and after a token ending in
    sentence punctuation when the next token is capitalized."""
    tokens = doc.tokens
    if not tokens:
        return []
    units = []
    start = 0
    source = BoundarySource.NEWLINE
    for i in range(1, len(tokens)):
        if tokens[i].preceding_break == Break.NEWLINE:
            units.append(SentenceUnit(start, i, source))
            start, source = i, BoundarySource.NEWLINE
        elif (
            tokens[i - 1].text.endswith(_SENT_END)
            and tokens[i].text[:1].isupper()
        ):
            units.append(SentenceUnit(start, i, source))
            start, source = i, BoundarySource.SENTENCE_PUNCT
    units.append(SentenceUnit(start, len(tokens), source))
    return units


def pool_features(unit, doc_vectors, units=None, context=0):
    """Mean of the unit's per-token vectors; with context=1, concatenated
    with the previous and next units' means (zeros at the edges)."""
    if doc_vectors.shape[0] == 0:
        raise MissingStreams()

    def mean_of(u):
        if u is None:
            return np.zeros(doc_vectors.shape[1])
        return doc_vectors[u.start : u.end].mean(axis=0)

    own = mean_of(unit)
    if context == 0:
        return own
    if units is None:
        raise BaselineError("context pooling needs the full unit list")
    k = units.index(unit)
    prev = units[k - 1] if k > 0 else None
    nxt = units[k + 1] if k + 1 < len(units) else None
    return np.concatenate([mean_of(prev), own, mean_of(nxt)])


def unit_labels(doc, units):
    """Majority token class per unit (ties to the lower class index)."""
    per_token = token_labels(doc)
    out = []
    for u in units:
        counts = {}
        for t in range(u.start, u.end):
            counts[per_token[t]] = counts.get(per_token[t], 0) + 1
        out.append(
            max(CLASS_NAMES, key=lambda c: (counts.get(c, 0), -CLASS_NAMES.index(c)))
        )
    return [CLASS_NAMES.index(c) for c in out]


def logreg_loss_and_grad(w, b, x, y, lam):
    """Multinomial logistic loss (mean over examples) with L2 penalty on
    the weights, and its exact gradient."""
    n = x.shape[0]
    logits = x @ w.T + b
    logits = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    ll = np.log(probs[np.arange(n), y])
    loss = -ll.mean() + 0.5 * lam * float(np.sum(w * w))
    d_logits = probs.copy()
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    d_w = d_logits.T @ x + lam * w
    d_b = d_logits.sum(axis=0)
    return float(loss), d_w, d_b


@dataclass
class LogRegClassifier:
    weights: np.ndarray  # (7, d)
    bias: np.ndarray  # (7,)


def train_logreg(features, labels, lam=1e-3, n_classes=7):
    """Fit by L-BFGS down to gradient norm < 1e-6."""
    # imported here: scipy.optimize takes most of the time to import the
    # CLI, and only this fit uses it
    from scipy.optimize import minimize

    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise DegenerateData("no training examples")
    if x.shape[0] != y.shape[0]:
        raise DegenerateData("features and labels differ in length")
    d = x.shape[1]

    def unpack(theta):
        w = theta[: n_classes * d].reshape(n_classes, d)
        b = theta[n_classes * d :]
        return w, b

    def objective(theta):
        w, b = unpack(theta)
        loss, d_w, d_b = logreg_loss_and_grad(w, b, x, y, lam)
        return loss, np.concatenate([d_w.ravel(), d_b])

    theta0 = np.zeros(n_classes * d + n_classes)
    res = minimize(
        objective, theta0, jac=True, method="L-BFGS-B",
        options={"maxiter": 2000, "gtol": 1e-8, "ftol": 1e-14},
    )
    w, b = unpack(res.x)
    return LogRegClassifier(w, b)


def classify(clf, features):
    """Argmax class index (lowest index on ties)."""
    scores = np.atleast_2d(features) @ clf.weights.T + clf.bias
    return [int(np.argmax(row)) for row in scores]


def units_to_spans(units, predicted_classes):
    """Merge adjacent same-label non-O units into spans."""
    runs = []
    for u, c in zip(units, predicted_classes):
        if CLASS_NAMES[c] != "O":
            add_run(runs, u.start, u.end, CLASS_NAMES[c])
    return [SegmentSpan(s, e, SegmentLabel(label)) for s, e, label in runs]


def run_baseline(train_docs, test_docs, doc_vectors, context=0, lam=1e-3):
    """Train and apply a sentence baseline.

    doc_vectors: doc id -> (tokens, d) array of contextual vectors.
    Returns per-document predicted span lists for test_docs.
    """
    def vectors_of(doc):
        vecs = doc_vectors.get(doc.id)
        if vecs is None:
            raise MissingStreams(doc.id)
        if len(vecs) != len(doc.tokens):
            raise TokenCountMismatch(doc.id, len(doc.tokens), len(vecs))
        return vecs

    feats, labels = [], []
    for doc in train_docs:
        vecs = vectors_of(doc)
        units = sentence_segment(doc)
        for u, y in zip(units, unit_labels(doc, units)):
            feats.append(pool_features(u, vecs, units, context))
            labels.append(y)
    clf = train_logreg(np.stack(feats), labels, lam)
    out = []
    for doc in test_docs:
        vecs = vectors_of(doc)
        units = sentence_segment(doc)
        if not units:
            out.append([])
            continue
        x = np.stack([pool_features(u, vecs, units, context) for u in units])
        out.append(units_to_spans(units, classify(clf, x)))
    return out
