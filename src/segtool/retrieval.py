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
import sys
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import CLASS_NAMES, EmptyCorpus, add_run, reading, token_labels
# not called here, but perfbench's tracer patches retrieval.tokenize and
# fails without it
from .corpus import tokenize


class RetrievalError(Exception):
    pass


class UnknownDoc(RetrievalError):
    pass


class NoLabeledPairs(RetrievalError):
    pass


class UnknownGoldId(RetrievalError):
    pass


class MissingQrel(RetrievalError):
    pass


INDEX_VERSION = 2
INDEX_COLUMNS = ("docs", "lengths", "terms", "df", "rows", "tf")


def terms_of(text):
    """Lowercased whitespace tokens, the words tokenize() finds; no
    stemming or stopword removal (flags and paths are form-sensitive)."""
    return text.lower().split()


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

    @functools.cached_property
    def columns(self):
        """(doc ids in sorted order, term -> (rows, impacts)): each posting's
        row in that order and its BM25 contribution ("impact"), computed
        with bm25()'s expression.  Built on the first query, not with the
        index, so building and loading stay as cheap as the dicts."""
        ids, lengths, terms, df, rows, tf = _flat(self)
        k1, b, avg = self.k1, self.b, self.avg_len
        norm = np.array([k1 * (1.0 - b + b * n / avg) for n in lengths])
        rows, tf = np.array(rows, dtype=np.intp), np.array(tf, dtype=np.float64)
        idf = np.repeat(np.array([self.idf(t) for t in terms]), df)
        impacts = idf * tf * (k1 + 1.0) / (tf + norm[rows])
        # seg[rows] += impacts adds a row once: a doc id repeated in one
        # posting list would score differently from bm25()
        ends = _ascending(rows, df, terms, "posting list")
        return ids, {t: (rows[e - n : e], impacts[e - n : e]) for t, n, e in zip(terms, df, ends)}

    def idf(self, term):
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def term_freq(self, term, doc_id):
        for d, tf in self.postings.get(term, ()):
            if d == doc_id:
                return tf
        return 0


def build_index(answers, min_len=0, k1=1.2, b=0.75):
    """Deterministic inverted index; answers shorter than min_len tokens
    are skipped."""
    postings = {}
    lengths = {}
    for ans in answers:
        terms = ans.terms
        if len(terms) < min_len or not terms:
            continue
        if ans.id in lengths:
            raise RetrievalError(f"duplicate answer id {ans.id!r}")
        lengths[ans.id] = len(terms)
        for t, tf in Counter(terms).items():
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


def question_segments(doc):
    """(class_name, term list) per segment, with O gaps as segments of
    their own."""
    runs = []
    for i, c in enumerate(token_labels(doc).tolist()):
        add_run(runs, i, i + 1, c)
    return [(CLASS_NAMES[c], [t.text.lower() for t in doc.tokens[s:e]]) for s, e, c in runs]


@dataclass
class BoostProfile:
    weights: dict = field(default_factory=lambda: {c: 1.0 for c in CLASS_NAMES})

    def __getitem__(self, class_name):
        return self.weights.get(class_name, 1.0)

    def to_json_obj(self):
        return dict(self.weights)

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict):
            raise RetrievalError(f"boosts must be an object of weights, got {type(obj).__name__}")
        w = {c: 1.0 for c in CLASS_NAMES}
        for k, v in obj.items():
            if k not in w:
                raise RetrievalError(f"boost key {k!r} is not a class name {CLASS_NAMES}")
            # a float: no bool, no inf or NaN, no int too large to convert
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            if not (number and 0 < v <= sys.float_info.max):
                raise RetrievalError(f"boost weight of {k!r} must be a positive number, got {v!r}")
            w[k] = float(v)
        return cls(w)


def _top_k(index, segments, k):
    """Top-k (answer id, score) for (weight, terms) segments: each
    segment's BM25 scores, summed term by term from the impact columns,
    scaled by its weight and added to the total.  Each document's
    additions run in the order of a posting-by-posting sum over the
    segments, so the scores equal that sum bit for bit.  Ties break
    toward the ascending doc id."""
    if k < 1:
        raise RetrievalError("k must be >= 1")
    ids, columns = index.columns
    total = np.zeros(len(ids))
    hit = np.zeros(len(ids), dtype=bool)
    for weight, terms in segments:
        seg = np.zeros(len(ids))
        for t in terms:
            if t in columns:
                rows, impacts = columns[t]
                seg[rows] += impacts
                hit[rows] = True
        total += weight * seg
    cand = np.flatnonzero(hit)
    top = cand[np.lexsort((cand, -total[cand]))[:k]]
    return [(ids[r], float(total[r])) for r in top]


def fielded_search(index, doc, boosts, k=10):
    """Top-k (answer id, score) for a segmented question; each segment's
    BM25 contribution is scaled by its label's boost in the BoostProfile.
    Ties break toward the ascending doc id."""
    segments = [(boosts[label], terms) for label, terms in question_segments(doc)]
    return _top_k(index, segments, k)


def unfielded_search(index, doc, k=10):
    """Whole-question query, no segment weighting."""
    return _top_k(index, [(1.0, [t.text.lower() for t in doc.tokens])], k)


def estimate_boosts(questions, gold_answers, clamp=(0.25, 4.0)):
    """Per-label boost weights from average word overlap with the correct
    answer.

    questions: AnnotatedDocuments with spans; gold_answers: doc id ->
    answer text.  Overlap per label is |segment terms ∩ answer terms| /
    |segment terms|, averaged over the questions where the label occurs;
    weights are normalized to mean 1 over observed labels and clamped.
    Labels never observed stay at the neutral 1.
    """
    overlaps = {c: [] for c in CLASS_NAMES}
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
    weights = {c: 1.0 for c in CLASS_NAMES}
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
        gold = gold_ids.get(q.id)
        if gold is None:
            raise MissingQrel(f"no qrel for question {q.id!r}")
        if gold not in index.doc_lengths:
            raise UnknownGoldId(f"answer {gold!r} of question {q.id!r} is not in the index")
        if boosts is None:
            ranked = unfielded_search(index, q, k)
        else:
            ranked = fielded_search(index, q, boosts, k)
        for rank, (doc_id, _) in enumerate(ranked, start=1):
            if doc_id == gold:
                total += 1.0 / rank
                break
    return total / len(questions)


def _flat(index):
    """The index as the columns of its file: the doc ids in sorted order and
    their lengths, the terms in postings order and their document
    frequencies, and each posting's doc row and term frequency."""
    docs = sorted(index.doc_lengths)
    row = {d: i for i, d in enumerate(docs)}
    plists = index.postings.values()
    pairs = [p for plist in plists for p in plist]
    return (docs, [index.doc_lengths[d] for d in docs], list(index.postings),
            [len(p) for p in plists], [row[d] for d, _ in pairs], [tf for _, tf in pairs])


def _ascending(rows, df, terms, name):
    """Where each term's run of rows ends; RetrievalError naming the term
    whose rows do not strictly ascend."""
    ends = np.cumsum(df, dtype=np.intp)
    fall = np.diff(rows) <= 0
    fall[ends[:-1] - 1] = False  # where the next term's run starts
    bad = np.flatnonzero(fall)
    if len(bad):
        t = terms[np.searchsorted(ends, bad[0], side="right")]
        raise RetrievalError(f"{name} of {t!r} repeats a doc id or is unsorted")
    return ends


def save_index(index, path):
    obj = {"version": INDEX_VERSION, "k1": index.k1, "b": index.b,
           **dict(zip(INDEX_COLUMNS, _flat(index)))}
    # one string, one gzip stream; level 1 is ~7x faster than 6, ~20% larger
    with gzip.open(path, "wb", compresslevel=1) as fh:
        fh.write(json.dumps(obj, separators=(",", ":")).encode("utf-8"))


def load_index(path):
    """The index save_index wrote to path; RetrievalError naming the file
    and the field when it is not one."""
    with reading(path, RetrievalError):
        try:
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (gzip.BadGzipFile, EOFError, zlib.error, ValueError) as exc:  # JSON, UTF-8 errors
            raise RetrievalError(f"not a gzipped JSON index ({exc})") from None
        version = obj.get("version") if type(obj) is dict else None
        if version != INDEX_VERSION:
            raise RetrievalError(f"unsupported index version {version!r}; rerun segtool index")
        k1, b = obj.get("k1"), obj.get("b")
        if type(k1) not in (int, float) or not 0 <= k1 <= sys.float_info.max:  # no inf, no huge int
            raise RetrievalError(f"bad value {k1!r} for field 'k1'")
        if type(b) not in (int, float) or not 0 <= b <= 1:
            raise RetrievalError(f"bad value {b!r} for field 'b'")
        docs, lengths, terms, df, rows, tf = cols = [obj.get(f) for f in INDEX_COLUMNS]
        for f, col in zip(INDEX_COLUMNS, cols):
            if type(col) is not list:
                raise RetrievalError(f"field {f!r} must be a list")
        if not docs or set(map(type, docs)) != {str} or any(map(str.__ge__, docs, docs[1:])):
            raise RetrievalError("field 'docs' must be a non-empty list of ascending str ids")
        if not set(map(type, terms)) <= {str} or len(set(terms)) != len(terms):
            raise RetrievalError("field 'terms' must be a list of distinct str terms")
        # whole columns at once: a bool, float or other type shows in the set
        # of types, a value out of range in the min or max
        for f, col, lo, hi in (("lengths", lengths, 1, 2**63 - 1), ("df", df, 1, 2**63 - 1),
                               ("rows", rows, 0, len(docs) - 1), ("tf", tf, 1, 2**63 - 1)):
            if col and not (set(map(type, col)) == {int} and lo <= min(col) and max(col) <= hi):
                v = next(v for v in col if type(v) is not int or not lo <= v <= hi)
                what = "which names a doc not in 'docs'" if f == "rows" else "not a positive int64"
                raise RetrievalError(f"field {f!r} holds {v!r}, {what}")
        for f, col, n in (("lengths", lengths, len(docs)), ("df", df, len(terms)),
                          ("rows", rows, sum(df)), ("tf", tf, sum(df))):
            if len(col) != n:
                raise RetrievalError(f"field {f!r} holds {len(col)} values, not {n}")
        ends = _ascending(np.array(rows, dtype=np.intp), df, terms, "field 'rows'")
    pairs = list(zip(map(docs.__getitem__, rows), tf))
    postings = {t: pairs[e - n : e] for t, n, e in zip(terms, df, ends.tolist())}
    return FieldedIndex(postings, dict(zip(docs, lengths)), k1, b)


def load_answers(path):
    """Answers JSONL: {"id": str, "text": str} per line."""
    out = []
    with reading(path, RetrievalError) as at, open(path, encoding="utf-8") as fh:
        for at.line, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            if type(obj) is not dict or not all(type(obj.get(f)) is str for f in ("id", "text")):
                raise RetrievalError("answers need a str 'id' and 'text'")
            out.append(AnswerDoc(obj["id"], obj["text"]))
    return out


def load_qrels(path):
    """Qrels TSV: question_id <tab> answer_id."""
    out = {}
    with reading(path, RetrievalError) as at, open(path, encoding="utf-8") as fh:
        for at.line, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise RetrievalError("expected question_id<TAB>answer_id")
            qid, aid = fields
            if qid in out:
                raise RetrievalError(f"question {qid!r} already has a qrel")
            out[qid] = aid
    return out
