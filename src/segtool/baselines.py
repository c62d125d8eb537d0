"""Sentence-level baselines.

Documents are first cut into sentence units (newlines plus a simple
punctuation rule), each unit is represented by the mean of its tokens'
contextual vectors (a token's streams concatenated), optionally beside
its neighbours' means, and a multinomial logistic-regression classifier
assigns one of the seven classes (six segment labels plus O).  Adjacent
units with the same predicted non-O label are merged back into spans for
evaluation.
"""

import re
from dataclasses import dataclass

import numpy as np

from .corpus import CLASS_NAMES, LABELS, SegmentSpan, add_run, token_labels


class BaselineError(Exception):
    pass


class DegenerateData(BaselineError):
    pass


@dataclass(frozen=True)
class SentenceUnit:
    start: int  # token index, inclusive
    end: int  # exclusive


_SENT_END = (".", "?", "!")
_LINE_BREAK = re.compile("[\n\r]")


def sentence_segment(doc):
    """Partition the token sequence into units.  A boundary falls before
    any token whose gap in the text from the token before it holds a
    newline or carriage return, and after a token ending in sentence
    punctuation when the next token is capitalized."""
    tokens, text = doc.tokens, doc.text
    cuts = [
        i
        for i, (a, b) in enumerate(zip(tokens, tokens[1:]), start=1)
        if _LINE_BREAK.search(text, a.end, b.start)
        or (a.text.endswith(_SENT_END) and b.text[:1].isupper())
    ]
    bounds = [0, *cuts, len(tokens)] if tokens else []
    return [SentenceUnit(s, e) for s, e in zip(bounds, bounds[1:])]


def unit_features(units, vecs, context=0):
    """One row per unit: the mean of its rows of ``vecs`` (tokens, d); with
    context=1, concatenated with the previous and next units' means (zero
    rows at the edges)."""
    rows = np.zeros((len(units) + 2, vecs.shape[1]))  # a zero row at each edge
    for k, u in enumerate(units, start=1):
        rows[k] = vecs[u.start : u.end].mean(axis=0)
    if context == 0:
        return rows[1:-1]
    return np.hstack([rows[:-2], rows[1:-1], rows[2:]])


def unit_labels(doc, units):
    """Majority token class index per unit (ties to the lower index)."""
    per_token = token_labels(doc)
    return [int(np.bincount(per_token[u.start : u.end]).argmax()) for u in units]


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
    weights: np.ndarray  # (classes, d)
    bias: np.ndarray  # (classes,)


def train_logreg(features, labels, lam=1e-3, n_classes=len(CLASS_NAMES)):
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
    """Argmax class index of each row (lowest index on ties)."""
    return (features @ clf.weights.T + clf.bias).argmax(axis=1).tolist()


def units_to_spans(units, predicted_classes):
    """Merge adjacent same-label non-O units into spans."""
    runs = []
    for u, c in zip(units, predicted_classes):
        if c:
            add_run(runs, u.start, u.end, c)
    return [SegmentSpan(s, e, LABELS[c - 1]) for s, e, c in runs]


def run_baseline(train_docs, test_docs, streams, context=0, lam=1e-3):
    """Train a sentence baseline on train_docs and apply it to test_docs.

    A token's vector is its streams concatenated (the ``concat``
    combiner's features), read and checked by ``streams.for_doc``.
    Returns the per-document predicted span lists of test_docs.
    """
    if not (train_docs and streams.dims):
        raise DegenerateData("no training documents" if streams.dims else "no streams")

    def units_and_rows(doc):
        vecs = np.hstack(streams.for_doc(doc), dtype=np.float64)
        units = sentence_segment(doc)
        return units, unit_features(units, vecs, context)

    feats, labels = [], []
    for doc in train_docs:
        units, x = units_and_rows(doc)
        feats.append(x)
        labels += unit_labels(doc, units)
    clf = train_logreg(np.vstack(feats), labels, lam)
    tested = map(units_and_rows, test_docs)
    return [units_to_spans(units, classify(clf, x)) for units, x in tested]
