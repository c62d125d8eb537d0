"""Segment-boosted answer retrieval.

A small from-scratch inverted index with BM25 scoring.  A segmented
question is issued as one sub-query per segment; each sub-query's score
is multiplied by a per-label boost weight, estimated from word overlap
between segments and known correct answers.  BM25 sub-query scores reuse
whole-document statistics, so with all boosts at 1 the fielded query
ranks identically to the whole-question query.
"""

import bisect
import functools
import itertools
import json
import math
import struct
import sys
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .corpus import CLASS_NAMES, LONE_SURROGATE, EmptyCorpus, add_run, reading, token_labels
# unused here, but perfbench's tracer patches retrieval.tokenize
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


INDEX_VERSION = 3
# far above any BM25 k1 in use (about 1-2), far below where tf * (k1 + 1) overflows
MAX_K1 = 1e6
# the integer columns of the file: for "docs" and "terms" the end offset of
# each string in its UTF-8 blob
INDEX_COLUMNS = ("docs", "lengths", "terms", "df", "rows", "tf")
_INDEX_MAGIC = b"SEGIX"
# version, k1, b, counts of docs, terms and postings, byte lengths of the id
# and term blobs, and the byte width of each column
_INDEX_HEADER = struct.Struct("<I2d5Q6B")
_DOCS_RULE = "field 'docs' must be a non-empty list of ascending str ids"
_TERMS_RULE = "field 'terms' must be a list of distinct str terms"
# the (floor, ceiling) of an estimated boost weight
BOOST_CLAMP = (0.25, 4.0)


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


class FieldedIndex:
    """A BM25 index as its file's columns (INDEX_COLUMNS), not changed once
    built or loaded: the doc ids, sorted, and their lengths; the terms, their
    df and (in ``at``) positions; each posting's doc row and tf, by term."""

    def __init__(self, postings, doc_lengths, k1=1.2, b=0.75):
        """The index of term -> (doc id, tf) lists sorted by doc id and doc id
        -> length, checked as load_index checks a file, with its messages:
        ids and terms are str, tf and lengths int (not bool)."""
        for keys, rule in ((doc_lengths, _DOCS_RULE), (postings, _TERMS_RULE)):
            if not all(isinstance(k, str) for k in keys):
                raise RetrievalError(rule)
        docs = sorted(doc_lengths)
        row = {d: i for i, d in enumerate(docs)}
        pairs = [p for plist in postings.values() for p in plist]
        if unknown := [d for d, _ in pairs if d not in row]:
            raise RetrievalError(f"field 'rows' holds {unknown[0]!r}, which names a doc not in"
                                 " 'docs'")
        cols = [np.array(c, dtype=object) for c in (
            [doc_lengths[d] for d in docs], [len(p) for p in postings.values()],
            [row[d] for d, _ in pairs], [tf for _, tf in pairs])]
        for f, col in (("lengths", cols[0]), ("tf", cols[3])):
            bad = [v for v in col if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
            if bad:
                raise RetrievalError(f"field {f!r} holds {bad[0]!r}, not a positive int64")
        at = _checked(docs, list(postings), *cols)
        lengths, df, rows, tf = (c.astype(np.int64) for c in cols)  # checked: each fits
        self._hold(k1, b, docs, lengths, list(at), df, rows, tf, at=at)

    @classmethod
    def _of(cls, *columns, at=None):
        return cls.__new__(cls)._hold(*columns, at=at)

    def _hold(self, k1, b, docs, lengths, terms, df, rows, tf, at=None):
        """self holding these columns, checked as a file's unless at is given."""
        at = _checked(docs, terms, lengths, df, rows, tf) if at is None else at
        # no bool or nan; k1 in [0, MAX_K1] and b in [0, 1] keep impacts positive and finite
        for name, v, hi in (("k1", k1, MAX_K1), ("b", b, 1)):
            if not (isinstance(v, (int, float)) and not isinstance(v, bool) and 0 <= v <= hi):
                raise RetrievalError(f"bad value {v!r} for field {name!r}")
        self.k1, self.b = k1, b
        self.docs, self.n_docs, self.lengths = docs, len(docs), lengths
        self.terms, self.at, self.df, self.rows, self.tf = terms, at, df, rows, tf
        # an int sum: exact, where a uint64 sum could overflow
        self.avg_len = sum(lengths.tolist()) / len(docs)
        return self

    def __contains__(self, doc_id):
        i = bisect.bisect_left(self.docs, doc_id)
        return self.docs[i : i + 1] == [doc_id]

    @functools.cached_property
    def columns(self):
        """(doc ids in sorted order, term -> (rows, impacts)): each posting's
        row and its BM25 contribution ("impact"), with bm25()'s expression;
        built on the first query, so building and loading stay cheap."""
        k1, b, n = self.k1, self.b, self.n_docs
        norm = k1 * (1.0 - b + b * self.lengths.astype(np.float64) / self.avg_len)
        rows, tf, df = self.rows.astype(np.intp), self.tf.astype(np.float64), self.df.tolist()
        idf = np.repeat([math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for d in df], df)
        impacts = idf * tf * (k1 + 1.0) / (tf + norm[rows])
        ends = np.cumsum(df, dtype=np.intp).tolist()
        return self.docs, {t: (rows[e - d : e], impacts[e - d : e])
                           for t, d, e in zip(self.terms, df, ends)}

    @property
    def postings(self):
        """term -> (doc id, tf) list, derived anew for tests and benchmark checks."""
        pairs = zip(map(self.docs.__getitem__, self.rows.tolist()), self.tf.tolist())
        return MappingProxyType({t: list(itertools.islice(pairs, d))
                                 for t, d in zip(self.terms, self.df.tolist())})

    @property
    def doc_lengths(self):
        """doc id -> token count, derived like ``postings``."""
        return MappingProxyType(dict(zip(self.docs, self.lengths.tolist())))


def build_index(answers, min_len=0, k1=1.2, b=0.75):
    """Deterministic inverted index, terms in order of first use; answers
    shorter than min_len tokens are skipped."""
    by_id = {}  # answer id -> its term list, None when skipped
    for ans in answers:
        if ans.id in by_id:
            raise RetrievalError(f"duplicate answer id {ans.id!r}")
        terms = ans.terms
        by_id[ans.id] = terms if terms and len(terms) >= min_len else None
    kept = {d: t for d, t in by_id.items() if t}
    if not kept:
        raise EmptyCorpus("no answers survived filtering")
    at = dict(zip(dict.fromkeys(itertools.chain.from_iterable(kept.values())), itertools.count()))
    docs = sorted(kept)
    by_doc = [kept[d] for d in docs]
    lengths = np.array(list(map(len, by_doc)), dtype=np.int64)
    # one key, row * n_terms + position, per term occurrence: np.unique gives
    # each (row, term) pair once, rows ascending, with its count, the tf
    occurrences = np.fromiter(map(at.__getitem__, itertools.chain.from_iterable(by_doc)),
                              np.int64)
    keys, tf = np.unique(np.repeat(np.arange(len(docs)), lengths) * len(at) + occurrences,
                         return_counts=True)
    rows, pos = np.divmod(keys, len(at))
    # a stable sort by term (radix, on narrow ints) keeps rows ascending
    order = np.argsort(pos.astype(np.min_scalar_type(len(at))), kind="stable")
    df = np.bincount(pos, minlength=len(at))
    return FieldedIndex._of(k1, b, docs, lengths, list(at), df, rows[order], tf[order], at=at)


def bm25(index, query_terms, doc_id):
    """BM25 score of one document for a query term multiset, read from the
    columns; a repeated query term adds again, so scores add over segments."""
    if doc_id not in index:
        raise UnknownDoc(doc_id)
    row = bisect.bisect_left(index.docs, doc_id)
    k1, b = index.k1, index.b
    norm = k1 * (1.0 - b + b * int(index.lengths[row]) / index.avg_len)
    score = 0.0
    for t in query_terms:
        if t in index.at:
            df, end = int(index.df[index.at[t]]), int(index.df[: index.at[t] + 1].sum())
            idf = math.log(1.0 + (index.n_docs - df + 0.5) / (df + 0.5))
            run = slice(end - df, end)
            for tf in index.tf[run][index.rows[run] == row].tolist():  # one or none
                score += idf * tf * (k1 + 1.0) / (tf + norm)
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
    segments, so the scores equal that sum bit for bit.  A document
    matches when a segment scores it above 0, whatever the weight.  With
    more than k matches, only those at or above the k-th largest total
    (np.partition), every tie at the k-th place among them, are sorted.
    Ties break toward the ascending doc id."""
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
        hit |= seg > 0  # impacts are positive; a weight of 0 still lists a match
        total += weight * seg
    cand = np.flatnonzero(hit)
    scores = total[cand]
    if len(cand) > k:
        keep = scores >= np.partition(scores, len(cand) - k)[len(cand) - k]
        cand, scores = cand[keep], scores[keep]
    order = np.lexsort((cand, -scores))[:k]
    return list(zip(map(ids.__getitem__, cand[order].tolist()), scores[order].tolist()))


def fielded_search(index, doc, boosts, k=10):
    """Top-k (answer id, score) for a segmented question; each segment's
    BM25 contribution is scaled by its label's boost in the BoostProfile.
    Ties break toward the ascending doc id."""
    segments = [(boosts[label], terms) for label, terms in question_segments(doc)]
    return _top_k(index, segments, k)


def unfielded_search(index, doc, k=10):
    """Whole-question query, no segment weighting."""
    return _top_k(index, [(1.0, [t.text.lower() for t in doc.tokens])], k)


def estimate_boosts(questions, gold_answers):
    """Per-label boost weights from average word overlap with the correct
    answer.

    questions: AnnotatedDocuments with spans; gold_answers: doc id ->
    answer text.  Overlap per label is |segment terms ∩ answer terms| /
    |segment terms|, averaged over the questions where the label occurs;
    weights are normalized to mean 1 over observed labels and clamped to
    ``BOOST_CLAMP``.  Labels never observed stay at the neutral 1.
    """
    overlaps = {c: [] for c in CLASS_NAMES}
    pairs = [(q, gold_answers[q.id]) for q in questions if q.id in gold_answers]
    for q, ans_text in pairs:
        ans_terms = set(terms_of(ans_text))
        by_label = {}
        for label, terms in question_segments(q):
            by_label.setdefault(label, []).extend(terms)
        for label, terms in by_label.items():
            uniq = set(terms)
            overlaps[label].append(len(uniq & ans_terms) / len(uniq))
    if not pairs:
        raise NoLabeledPairs("no question has a known correct answer")
    means = {c: (sum(v) / len(v)) for c, v in overlaps.items() if v}
    grand = sum(means.values()) / len(means)
    lo, hi = BOOST_CLAMP
    weights = {c: min(hi, max(lo, m / grand)) for c, m in means.items() if grand > 0}
    return BoostProfile({c: 1.0 for c in CLASS_NAMES} | weights)


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
        if gold not in index:
            raise UnknownGoldId(f"answer {gold!r} of question {q.id!r} is not in the index")
        ranked = (unfielded_search(index, q, k) if boosts is None
                  else fielded_search(index, q, boosts, k))
        for rank, (doc_id, _) in enumerate(ranked, start=1):
            if doc_id == gold:
                total += 1.0 / rank
                break
    return total / len(questions)


def _checked(docs, terms, lengths, df, rows, tf):
    """term -> position for an index of these columns; RetrievalError
    naming the field that breaks the rules of the file format."""
    if not docs or any(map(str.__ge__, docs, docs[1:])):
        raise RetrievalError(_DOCS_RULE)
    at = dict(zip(terms, itertools.count()))
    if len(at) != len(terms):
        raise RetrievalError(_TERMS_RULE)
    # whole columns at once: a value out of range shows in the min or max
    for f, col, lo, hi in (("lengths", lengths, 1, 2**63 - 1), ("df", df, 1, 2**63 - 1),
                           ("rows", rows, 0, len(docs) - 1), ("tf", tf, 1, 2**63 - 1)):
        if len(col) and not (lo <= int(col.min()) and int(col.max()) <= hi):
            v = int(col[(col < lo) | (col > hi)][0])
            what = "which names a doc not in 'docs'" if f == "rows" else "not a positive int64"
            raise RetrievalError(f"field {f!r} holds {v!r}, {what}")
    if (n := sum(df.tolist())) != len(rows):
        raise RetrievalError(f"field 'rows' holds {len(rows)} values, not {n}")
    # each term's rows strictly ascend: search's seg[rows] += impacts adds a repeated row once
    ends = np.cumsum(df, dtype=np.intp)
    fall = np.diff(rows.astype(np.intp)) <= 0
    fall[ends[:-1] - 1] = False  # where the next term's run starts
    if fall.any():
        t = terms[np.searchsorted(ends, fall.argmax(), side="right")]
        raise RetrievalError(f"field 'rows' of {t!r} repeats a doc id or is unsorted")
    return at


def _uints(values):
    """values as little-endian unsigned ints of the narrowest width, 1, 2,
    4 or 8 bytes, that holds the largest."""
    col = np.asarray(values, dtype=np.uint64)
    top = int(col.max()) if len(col) else 0
    return col.astype(f"<u{next(w for w in (1, 2, 4, 8) if top < 256**w)}")


def _blob(strings):
    """The UTF-8 bytes of strings, one after another, and where each ends.
    A lone surrogate, which a JSON escape can put in an answer, keeps its
    three-byte form, so every str round-trips."""
    raw = [s.encode("utf-8", "surrogatepass") for s in strings]
    return b"".join(raw), _uints(np.cumsum([len(r) for r in raw], dtype=np.uint64))


def save_index(index, path):
    """Write index in format 3: the magic, the header, the six integer
    columns, then the UTF-8 bytes of the doc ids and of the terms.  No
    compression and no save time: equal indexes give equal bytes."""
    (id_blob, id_ends), (term_blob, term_ends) = _blob(index.docs), _blob(index.terms)
    cols = (id_ends, _uints(index.lengths), term_ends, _uints(index.df), _uints(index.rows),
            _uints(index.tf))
    header = _INDEX_HEADER.pack(INDEX_VERSION, index.k1, index.b, index.n_docs,
                                len(index.terms), len(index.rows), len(id_blob), len(term_blob),
                                *(c.itemsize for c in cols))
    with open(path, "wb") as fh:
        fh.write(b"".join([_INDEX_MAGIC, header, *(c.tobytes() for c in cols), id_blob, term_blob]))


def _strings(blob, ends, message):
    """The strings of a UTF-8 blob that end at ends; RetrievalError(message)
    when the ends fall or miss the blob's end, or a string is not UTF-8 (a
    binary file has no line for ``reading`` to name)."""
    cuts = ends.tolist()
    if any(map(int.__gt__, [0] + cuts, cuts)) or (cuts[-1] if cuts else 0) != len(blob):
        raise RetrievalError(message)
    try:
        return [blob[s:e].decode("utf-8", "surrogatepass") for s, e in zip([0] + cuts, cuts)]
    except UnicodeDecodeError:
        raise RetrievalError(message) from None


def load_index(path):
    """The index save_index wrote to path; RetrievalError naming the file
    and the field when it is not one."""
    with reading(path, RetrievalError), open(path, "rb") as fh:
        data = fh.read()
        if not data.startswith(_INDEX_MAGIC):
            if data.startswith(b"\x1f\x8b"):  # formats 1 and 2 were gzip JSON
                raise RetrievalError("unsupported index version (a gzip JSON index of format 1"
                                     " or 2); rerun segtool index")
            raise RetrievalError("not a segtool index file")
        off = len(_INDEX_MAGIC) + _INDEX_HEADER.size
        if len(data) < off:
            raise RetrievalError(f"file holds {len(data)} bytes, too few for a header")
        version, k1, b, n_docs, n_terms, n_postings, id_bytes, term_bytes, *widths = (
            _INDEX_HEADER.unpack_from(data, len(_INDEX_MAGIC)))
        if version != INDEX_VERSION:
            raise RetrievalError(f"unsupported index version {version}; rerun segtool index")
        for f, w in zip(INDEX_COLUMNS, widths):
            if w not in (1, 2, 4, 8):
                raise RetrievalError(f"field {f!r} must be a list of ints 1, 2, 4 or 8 bytes"
                                     f" wide, not {w}")
        counts = (n_docs, n_docs, n_terms, n_terms, n_postings, n_postings)
        size = off + sum(w * n for w, n in zip(widths, counts)) + id_bytes + term_bytes
        if len(data) != size:
            raise RetrievalError(f"file holds {len(data)} bytes, not the {size} its header gives")
        starts = itertools.accumulate([w * n for w, n in zip(widths, counts)], initial=off)
        id_ends, lengths, term_ends, df, rows, tf = (
            np.frombuffer(data, f"<u{w}", n, o) for w, n, o in zip(widths, counts, starts))
        off = size - id_bytes - term_bytes
        docs = _strings(data[off : off + id_bytes], id_ends, _DOCS_RULE)
        terms = _strings(data[off + id_bytes :], term_ends, _TERMS_RULE)
        return FieldedIndex._of(k1, b, docs, lengths, terms, df, rows, tf)


def load_answers(path):
    """Answers JSONL: {"id": str, "text": str} per line, ids unique."""
    out = {}
    with reading(path, RetrievalError) as at, open(path, encoding="utf-8") as fh:
        for at.line, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            if type(obj) is not dict or not all(type(obj.get(f)) is str for f in ("id", "text")):
                raise RetrievalError("answers need a str 'id' and 'text'")
            if LONE_SURROGATE.search(obj["id"]):  # the text may hold one: its terms round-trip
                raise RetrievalError("a lone surrogate, which UTF-8 cannot encode, in field 'id'")
            if obj["id"] in out:
                raise RetrievalError(f"duplicate answer id {obj['id']!r}")
            out[obj["id"]] = AnswerDoc(obj["id"], obj["text"])
    return list(out.values())


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
