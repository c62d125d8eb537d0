"""Segment-boosted answer retrieval.

A small from-scratch inverted index with BM25 scoring.  A segmented
question is issued as one sub-query per segment; each sub-query's score
is multiplied by a per-label boost weight, estimated from word overlap
between segments and known correct answers.  BM25 sub-query scores reuse
whole-document statistics, so with all boosts at 1 the fielded query
ranks identically to the whole-question query.
"""

import functools
import gzip
import json
import math
from dataclasses import dataclass, field

from .corpus import LABELS, SegmentLabel, token_labels, tokenize


class RetrievalError(Exception):
    pass


class EmptyCorpus(RetrievalError):
    pass


class UnknownDoc(RetrievalError):
    pass


class NoLabeledPairs(RetrievalError):
    pass


class UnknownGoldId(RetrievalError):
    pass


INDEX_VERSION = 1
BOOST_CLASSES = ["O"] + [l.value for l in LABELS]


def terms_of(text):
    """Lowercased whitespace tokens; no stemming or stopword removal
    (flags and paths are form-sensitive)."""
    return [t.text.lower() for t in tokenize(text)]


@dataclass
class AnswerDoc:
    id: str
    text: str

    @property
    def terms(self):
        return terms_of(self.text)


@dataclass
class FieldedIndex:
    postings: dict  # term -> list of (doc_id, term_freq), sorted by doc_id
    doc_lengths: dict  # doc_id -> token count
    k1: float = 1.2
    b: float = 0.75

    @property
    def n_docs(self):
        return len(self.doc_lengths)

    @functools.cached_property
    def avg_len(self):
        # computed once: an index is not changed after it is built or loaded
        return sum(self.doc_lengths.values()) / self.n_docs

    def idf(self, term):
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def term_freq(self, term, doc_id):
        for d, tf in self.postings.get(term, ()):
            if d == doc_id:
                return tf
        return 0


def build_index(answers, min_len=0, exclusions=(), k1=1.2, b=0.75):
    """Deterministic inverted index; answers shorter than min_len tokens
    or listed in exclusions are skipped."""
    excluded = set(exclusions)
    postings = {}
    lengths = {}
    for ans in answers:
        if ans.id in excluded:
            continue
        terms = ans.terms
        if len(terms) < min_len or not terms:
            continue
        lengths[ans.id] = len(terms)
        counts = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        for t, tf in counts.items():
            postings.setdefault(t, []).append((ans.id, tf))
    if not lengths:
        raise EmptyCorpus("no answers survived filtering")
    for plist in postings.values():
        plist.sort(key=lambda p: p[0])
    return FieldedIndex(postings, lengths, k1, b)


def bm25(index, query_terms, doc_id):
    """BM25 score of one document for a query term multiset (repeated
    query terms contribute repeatedly, keeping the score additive over
    query segments)."""
    if doc_id not in index.doc_lengths:
        raise UnknownDoc(doc_id)
    k1, b = index.k1, index.b
    norm = k1 * (1.0 - b + b * index.doc_lengths[doc_id] / index.avg_len)
    score = 0.0
    for t in query_terms:
        tf = index.term_freq(t, doc_id)
        if tf == 0:
            continue
        score += index.idf(t) * tf * (k1 + 1.0) / (tf + norm)
    return score


def _scores_for_terms(index, query_terms):
    """doc_id -> accumulated BM25 contribution of these query terms."""
    k1, b = index.k1, index.b
    avg = index.avg_len
    out = {}
    for t in query_terms:
        plist = index.postings.get(t)
        if not plist:
            continue
        idf = index.idf(t)
        for doc_id, tf in plist:
            norm = k1 * (1.0 - b + b * index.doc_lengths[doc_id] / avg)
            out[doc_id] = out.get(doc_id, 0.0) + idf * tf * (k1 + 1.0) / (tf + norm)
    return out


def question_segments(doc):
    """(class_name, term list) per segment, with O gaps as segments of
    their own."""
    labels = token_labels(doc)
    segs = []
    cur_label, cur_terms = None, []
    for tok, lab in zip(doc.tokens, labels):
        if lab != cur_label:
            if cur_terms:
                segs.append((cur_label, cur_terms))
            cur_label, cur_terms = lab, []
        cur_terms.append(tok.text.lower())
    if cur_terms:
        segs.append((cur_label, cur_terms))
    return segs


@dataclass
class BoostProfile:
    weights: dict = field(default_factory=lambda: {c: 1.0 for c in BOOST_CLASSES})

    def __getitem__(self, class_name):
        return self.weights.get(class_name, 1.0)

    def to_json_obj(self):
        return dict(self.weights)

    @classmethod
    def from_json_obj(cls, obj):
        w = {c: 1.0 for c in BOOST_CLASSES}
        w.update({k: float(v) for k, v in obj.items()})
        for v in w.values():
            if not (v > 0 and math.isfinite(v)):
                raise RetrievalError(f"boost weights must be positive, got {v}")
        return cls(w)


def fielded_search(index, doc, boosts=None, k=10):
    """Top-k (answer id, score) for a segmented question; each segment's
    BM25 contribution is scaled by its label's boost.  Ties break toward
    the ascending doc id."""
    if k < 1:
        raise RetrievalError("k must be >= 1")
    boosts = boosts or BoostProfile()
    totals = {}
    for label, terms in question_segments(doc):
        w = boosts[label]
        for doc_id, s in _scores_for_terms(index, terms).items():
            totals[doc_id] = totals.get(doc_id, 0.0) + w * s
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def unfielded_search(index, doc, k=10):
    """Whole-question query, no segment weighting."""
    terms = [t.text.lower() for t in doc.tokens]
    totals = _scores_for_terms(index, terms)
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def estimate_boosts(questions, gold_answers, clamp=(0.25, 4.0)):
    """Per-label boost weights from average word overlap with the correct
    answer.

    questions: AnnotatedDocuments with spans; gold_answers: doc id ->
    answer text.  Overlap per label is |segment terms ∩ answer terms| /
    |segment terms|, averaged over the questions where the label occurs;
    weights are normalized to mean 1 over observed labels and clamped.
    Labels never observed stay at the neutral 1.
    """
    overlaps = {c: [] for c in BOOST_CLASSES}
    n_pairs = 0
    for q in questions:
        ans_text = gold_answers.get(q.id)
        if ans_text is None:
            continue
        n_pairs += 1
        ans_terms = set(terms_of(ans_text))
        by_label = {}
        for label, terms in question_segments(q):
            by_label.setdefault(label, []).extend(terms)
        for label, terms in by_label.items():
            uniq = set(terms)
            overlaps[label].append(len(uniq & ans_terms) / len(uniq))
    if n_pairs == 0:
        raise NoLabeledPairs("no question has a known correct answer")
    means = {c: (sum(v) / len(v)) for c, v in overlaps.items() if v}
    grand = sum(means.values()) / len(means)
    weights = {c: 1.0 for c in BOOST_CLASSES}
    lo, hi = clamp
    for c, m in means.items():
        if grand > 0:
            weights[c] = min(hi, max(lo, m / grand))
    return BoostProfile(weights)


def mrr(index, questions, gold_ids, boosts=None, k=100):
    """Mean reciprocal rank of the correct answer within the top k
    (0 when absent).  boosts=None issues unfielded whole-question
    queries."""
    if not questions:
        raise RetrievalError("empty question set")
    total = 0.0
    for q in questions:
        gold = gold_ids[q.id]
        if gold not in index.doc_lengths:
            raise UnknownGoldId(gold)
        if boosts is None:
            ranked = unfielded_search(index, q, k)
        else:
            ranked = fielded_search(index, q, boosts, k)
        for rank, (doc_id, _) in enumerate(ranked, start=1):
            if doc_id == gold:
                total += 1.0 / rank
                break
    return total / len(questions)


def save_index(index, path):
    obj = {
        "version": INDEX_VERSION,
        "k1": index.k1,
        "b": index.b,
        "doc_lengths": index.doc_lengths,
        "postings": {t: p for t, p in index.postings.items()},
    }
    # one string, one gzip stream: json.dump into a text wrapper would make
    # tens of thousands of small writes
    with gzip.open(path, "wb", compresslevel=6) as fh:
        fh.write(json.dumps(obj).encode("utf-8"))


def load_index(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("version") != INDEX_VERSION:
        raise RetrievalError(f"unsupported index version {obj.get('version')}")
    postings = {t: [(d, tf) for d, tf in p] for t, p in obj["postings"].items()}
    return FieldedIndex(postings, obj["doc_lengths"], obj["k1"], obj["b"])


def load_answers(path):
    """Answers JSONL: {"id": str, "text": str} per line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            if "id" not in obj or "text" not in obj:
                raise RetrievalError(f"line {line_no}: answers need 'id' and 'text'")
            out.append(AnswerDoc(obj["id"], obj["text"]))
    return out


def load_qrels(path):
    """Qrels TSV: question_id <tab> answer_id."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            qid, aid = line.split("\t")
            out[qid] = aid
    return out
