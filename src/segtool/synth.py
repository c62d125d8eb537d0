"""Synthetic corpora for desk-scale experiments.

Three generators: a segmentation corpus whose label vocabularies are
disjoint (so a small model can learn it quickly), a variant where token
identity is uninformative and the signal lives in planted contextual
streams (each stream knows a disjoint label subset), and a retrieval
corpus where correct answers share vocabulary predominantly with the
question's error-message segments.
"""

import numpy as np

from .corpus import (
    LABELS, AnnotatedDocument, SegmentLabel, SegmentSpan, token_labels, tokenize,
)
from .embeddings import ContextualStreamSet
from .retrieval import AnswerDoc

O_POOL = [
    "please", "help", "my", "system", "keeps", "doing", "this", "after",
    "the", "update", "and", "i", "have", "tried", "everything", "it",
    "still", "fails", "when", "booting", "any", "ideas", "thanks", "also",
    "laptop", "desktop", "wifi", "sound", "screen", "driver",
]

LABEL_POOLS = {
    "CC": [f"cmd_{k}" for k in range(30)],
    "CO": [f"out_{k}" for k in range(30)],
    "ES": [f"err_{k}" for k in range(30)],
    "FC": [f"cfg_{k}" for k in range(30)],
    "SS": [f"kv_{k}=v{k}" for k in range(30)],
    "PU": [f"/opt/app{k}/bin" for k in range(30)],
}

SHARED_POOL = [f"tok_{k}" for k in range(60)]

# Which classes each planted stream is informative for (disjoint subsets).
STREAM_SUBSETS = [(1, 2), (3, 4), (5, 6)]  # CLASS_NAMES indices: CC CO, ES FC, SS PU
STREAM_DIM = 8
STREAM_NOISE = 0.3  # standard deviation of the noise around each indicator


def _make_doc(doc_id, rng, shared_vocab=False):
    parts = []  # (class_name, tokens)
    n_segments = int(rng.integers(3, 7))
    parts.append(("O", _draw(rng, O_POOL if not shared_vocab else SHARED_POOL, 2, 8)))
    for _ in range(n_segments):
        label = LABELS[int(rng.integers(len(LABELS)))].value
        pool = SHARED_POOL if shared_vocab else LABEL_POOLS[label]
        parts.append((label, _draw(rng, pool, 4, 11)))
        parts.append(("O", _draw(rng, O_POOL if not shared_vocab else SHARED_POOL, 2, 8)))
    return _assemble(doc_id, parts)


def _assemble(doc_id, parts):
    """The document of ``parts``, (class name, tokens) pairs in order: each
    segment on lines of its own, the O parts as running text."""
    pieces, spans, count = [], [], 0
    for cls, toks in parts:
        if cls != "O":
            spans.append(SegmentSpan(count, count + len(toks), SegmentLabel(cls)))
            pieces.append("\n" + " ".join(toks) + "\n")
        else:
            pieces.append(" ".join(toks) + " ")
        count += len(toks)
    text = "".join(pieces).strip()
    tokens = tokenize(text)  # the module's name: perfbench traces synth.tokenize
    assert len(tokens) == count
    doc = AnnotatedDocument(doc_id, text, tokens, spans)
    doc.validate()
    return doc


def _draw(rng, pool, lo, hi):
    """n words of pool, n drawn in [lo, hi] first; the words come from one
    call, which fills its array draw by draw, as n scalar calls would."""
    n = int(rng.integers(lo, hi + 1))
    return [pool[i] for i in rng.integers(len(pool), size=n).tolist()]


def gen_corpus(n_docs=250, seed=0, shared_vocab=False):
    rng = np.random.default_rng(seed)
    return [_make_doc(f"q{i:04d}", rng, shared_vocab) for i in range(n_docs)]


def gen_streams(docs, seed=0):
    """Planted contextual streams: stream i carries a (noisy) one-hot
    label indicator only for the labels in its subset."""
    rng = np.random.default_rng(seed + 17)
    vectors = {}
    for doc in docs:
        classes = token_labels(doc)
        arrays = []
        for subset in STREAM_SUBSETS:
            arr = rng.standard_normal((len(classes), STREAM_DIM)) * STREAM_NOISE
            rows = np.flatnonzero(np.isin(classes, (0, *subset)))  # O and the stream's classes
            arr[rows, classes[rows]] += 2.0
            arrays.append(arr.astype(np.float32))
        vectors[doc.id] = arrays
    return ContextualStreamSet([STREAM_DIM] * len(STREAM_SUBSETS), vectors)


COMMON_POOL = O_POOL[:24]
CC_SHARED = [f"cmd_{k}" for k in range(24)]


def gen_retrieval(n_questions=60, n_answers=500, seed=0):
    """(questions, answers, qrels): answers share vocabulary with their
    question mostly through the ES segment; distractors overlap on the
    common and command vocabulary instead."""
    rng = np.random.default_rng(seed + 29)
    questions, answers, qrels = [], [], {}
    es_vocab = [f"err_{k}" for k in range(40)]
    for i in range(n_questions):
        es = _draw_distinct(rng, es_vocab, 4)
        cc = _draw(rng, CC_SHARED, 4, 4)
        o1 = _draw(rng, COMMON_POOL, 6, 10)
        o2 = _draw(rng, COMMON_POOL, 4, 8)
        doc = _assemble(f"rq{i:03d}", [("O", o1), ("CC", cc), ("O", o2), ("ES", es)])
        questions.append(doc)
        aid = f"ans{i:03d}"
        ans_tokens = list(es) + _draw(rng, COMMON_POOL, 3, 5)
        rng.shuffle(ans_tokens)
        answers.append(AnswerDoc(aid, " ".join(ans_tokens)))
        qrels[doc.id] = aid
    for j in range(n_answers - n_questions):
        toks = (
            _draw(rng, COMMON_POOL, 4, 8)
            + _draw(rng, CC_SHARED, 3, 6)
            + _draw(rng, es_vocab, 1, 2)
        )
        answers.append(AnswerDoc(f"dis{j:03d}", " ".join(toks)))
    return questions, answers, qrels


def _draw_distinct(rng, pool, n):
    idx = rng.choice(len(pool), size=n, replace=False)
    return [pool[int(i)] for i in idx]
