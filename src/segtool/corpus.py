"""Data model for segmented support questions.

Questions are whitespace-tokenized, and non-natural-language regions are
stored as half-open token spans with one of six labels (CC, CO, ES, FC,
SS, PU).  Everything outside a span is implicitly "O".  This module owns
the BIO codec, JSONL corpus I/O, corpus statistics, deterministic
splitting, and word-level inter-annotator agreement.
"""

import contextlib
import json
import random
import re
import types
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np


class CorpusError(Exception):
    pass


class OverlappingSpans(CorpusError):
    pass


class IndexOutOfRange(CorpusError):
    pass


class ParseError(CorpusError):
    pass


class SchemaError(CorpusError):
    """A field that is missing, or (with ``problem``) holds a bad value."""

    def __init__(self, missing_field, problem="missing field"):
        super().__init__(f"{problem} {missing_field!r}")
        self.missing_field = missing_field


class BadRatios(CorpusError):
    pass


class EmptyCorpus(CorpusError):
    pass


class MismatchedDocuments(CorpusError):
    pass


class Break(str, Enum):
    """Kind of whitespace preceding a token."""

    NONE = "n"
    SPACE = "s"
    NEWLINE = "nl"


class SegmentLabel(str, Enum):
    CC = "CC"  # command / code
    CO = "CO"  # command output
    ES = "ES"  # error message / stack trace
    FC = "FC"  # file content
    SS = "SS"  # semi-structured information
    PU = "PU"  # path / URL


LABELS = list(SegmentLabel)

# Word-level classes: O, then the segment labels
CLASS_NAMES = ["O"] + [l.value for l in LABELS]

# Fixed tag order; index 0 is O so that zero-score ties decode to O.  Tags
# 2c - 1 (odd) and 2c are B- and I- of class c, CLASS_NAMES[c] (LABELS[c - 1]).
BIO_TAGS = ["O"] + [f"{p}-{l.value}" for l in LABELS for p in ("B", "I")]
TAG_INDEX = {t: i for i, t in enumerate(BIO_TAGS)}
N_TAGS = len(BIO_TAGS)  # 13


@dataclass(frozen=True)
class Token:
    text: str
    start: int  # offset into the document text (inclusive)
    end: int  # offset (exclusive)
    preceding_break: Break = Break.NONE


@dataclass(frozen=True)
class SegmentSpan:
    start_token: int  # inclusive
    end_token: int  # exclusive
    label: SegmentLabel

    def __post_init__(self):
        if not self.start_token < self.end_token:
            raise IndexOutOfRange(
                f"empty or inverted span ({self.start_token}, {self.end_token})"
            )


@dataclass
class AnnotatedDocument:
    id: str
    text: str
    tokens: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def validate(self):
        n = len(self.tokens)
        for sp in self.spans:
            if sp.end_token > n or sp.start_token < 0:
                raise IndexOutOfRange(f"span {sp} outside 0..{n}")
        _check_no_overlap(self.spans)

    def token_texts(self):
        return [t.text for t in self.tokens]


@dataclass
class CorpusStats:
    question_count: int
    avg_words: Fraction
    avg_spans_total: Fraction
    avg_spans_per_label: dict


@dataclass
class AgreementReport:
    kappa: float
    confusion: np.ndarray  # 7x7 over CLASS_NAMES, rows = annotator a, cols = annotator b


def _check_no_overlap(spans):
    ordered = sorted(spans, key=lambda s: s.start_token)
    for a, b in zip(ordered, ordered[1:]):
        if b.start_token < a.end_token:
            raise OverlappingSpans(f"{a} overlaps {b}")


_WORD = re.compile(r"\S+")  # for str patterns \s is str.isspace, the rule of str.split


def tokenize(text):
    """Whitespace tokenization with offsets and preceding-break kinds.

    Any maximal run of non-whitespace characters becomes one token, the
    words of ``text.split()``.  The break kind records whether the
    whitespace gap before the token contained a newline (used by the
    sentence baseline).
    """
    tokens, end = [], 0
    for m in _WORD.finditer(text):
        gap = text[end : m.start()]
        brk = Break.NEWLINE if "\n" in gap or "\r" in gap else Break.SPACE if gap else Break.NONE
        tokens.append(Token(m.group(), m.start(), m.end(), brk))
        end = m.end()
    return tokens


def add_run(runs, start, end, label, join=True):
    """Extend the last of ``runs``, (start, end, label) triples, to ``end``
    when it ends at ``start`` with ``label`` (and ``join`` is true); else
    append (start, end, label)."""
    if join and runs and runs[-1][1:] == (start, label):
        runs[-1] = (runs[-1][0], end, label)
    else:
        runs.append((start, end, label))


def spans_to_bio(doc):
    """Project a document's spans to per-token BIO_TAGS indices, an intp array."""
    doc.validate()
    tags = np.zeros(len(doc.tokens), dtype=np.intp)
    for sp in doc.spans:
        b = 2 * LABELS.index(sp.label) + 1
        tags[sp.start_token] = b
        tags[sp.start_token + 1 : sp.end_token] = b + 1
    return tags


def bio_to_spans(tags):
    """Decode BIO_TAGS indices to spans.

    Accepts ill-formed sequences: a stray I tag (not continuing a run of
    its class) is repaired to B.
    """
    runs = []
    for i, t in enumerate(tags):
        if t:
            add_run(runs, i, i + 1, (t + 1) // 2, join=t % 2 == 0)
    return [SegmentSpan(s, e, LABELS[c - 1]) for s, e, c in runs]


def doc_to_json(doc):
    return {
        "id": doc.id,
        "text": doc.text,
        "tokens": [
            {"t": t.text, "s": t.start, "e": t.end, "brk": t.preceding_break.value}
            for t in doc.tokens
        ],
        "spans": [
            {"st": s.start_token, "et": s.end_token, "label": s.label.value}
            for s in doc.spans
        ],
    }


_DOC_FIELDS = (("id", str), ("text", str), ("tokens", list), ("spans", list))
_TOKEN_FIELDS = (("t", str), ("s", int), ("e", int), ("brk", Break))
_SPAN_FIELDS = (("st", int), ("et", int), ("label", SegmentLabel))


def _values(obj, prefix, fields):
    """The values of ``fields``, (key, kind) pairs, in order, of obj, a
    JSON object: each already exactly of its kind (a bool is no int) or,
    for an Enum kind, one of its values, made into the member."""
    if type(obj) is not dict:
        raise SchemaError(prefix[:-1] or "document", "expected an object for")
    vals = []
    for key, kind in fields:
        try:
            val = obj[key]
        except KeyError:
            raise SchemaError(prefix + key) from None
        if type(val) is not kind:
            try:
                val = kind(val) if issubclass(kind, Enum) else None
            except ValueError:
                val = None
            if val is None:
                raise SchemaError(prefix + key, f"bad value {obj[key]!r} for field")
        vals.append(val)
    return vals


def doc_from_json(obj):
    doc_id, text, tokens, spans = _values(obj, "", _DOC_FIELDS)
    tokens = [Token(*_values(t, "tokens.", _TOKEN_FIELDS)) for t in tokens]
    spans = [SegmentSpan(*_values(s, "spans.", _SPAN_FIELDS)) for s in spans]
    doc = AnnotatedDocument(doc_id, text, tokens, spans)
    doc.validate()
    return doc


def non_utf8_line(path):
    """The number of the first line of the file at ``path`` that is not
    UTF-8 text (None when all of it is)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None


@contextlib.contextmanager
def reading(path, error):
    """Context of a loader reading the file at ``path``: it yields an object
    whose ``line`` the loader sets as it reads lines.  Text that is not
    UTF-8 or not JSON leaves as ``error``; that or any CorpusError leaves
    prefixed ``path:line: `` (``path: `` with no line set), its type kept
    and its ``line_no`` set."""
    at = types.SimpleNamespace(line=None)
    try:
        try:
            yield at
        except UnicodeDecodeError:
            at.line = non_utf8_line(path)
            raise error("not UTF-8 text") from None
        except (json.JSONDecodeError, RecursionError) as exc:  # JSON nested too deeply
            raise error(str(exc)) from None
    except (CorpusError, error) as exc:
        exc.args = (f"{path}:{at.line}: {exc}" if at.line else f"{path}: {exc}",)
        exc.line_no = at.line
        raise


def load_corpus(path):
    """Documents of a JSONL corpus, ids unique; errors as ``reading`` gives them."""
    docs = {}
    with reading(path, ParseError) as at, open(path, encoding="utf-8") as fh:
        for at.line, line in enumerate(fh, start=1):
            if line.strip():
                doc = doc_from_json(json.loads(line))
                if doc.id in docs:
                    raise ParseError(f"repeated document id {doc.id!r}")
                docs[doc.id] = doc
    return list(docs.values())


def save_corpus(docs, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in docs:
            fh.write(json.dumps(doc_to_json(doc), ensure_ascii=False))
            fh.write("\n")


def split_corpus(docs, ratios=(0.8, 0.1, 0.1), seed=0):
    """Deterministic random partition into train/val/test.

    Train and val sizes are floors of their ratios; test takes the
    remainder (matching a 1317-document corpus splitting 1053/131/133).
    """
    r_train, r_val, r_test = ratios
    if min(ratios) <= 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must be positive and sum to 1, got {ratios}")
    order = list(range(len(docs)))
    random.Random(seed).shuffle(order)
    n = len(docs)
    n_train = int(n * r_train)
    n_val = int(n * r_val)
    train = [docs[i] for i in order[:n_train]]
    val = [docs[i] for i in order[n_train : n_train + n_val]]
    test = [docs[i] for i in order[n_train + n_val :]]
    return train, val, test


def corpus_stats(docs):
    """Exact (rational) per-question averages of word and span counts."""
    if not docs:
        raise EmptyCorpus("no documents")
    n = len(docs)
    words = sum(len(d.tokens) for d in docs)
    per_label = {}
    for lab in LABELS:
        per_label[lab] = Fraction(
            sum(sum(1 for s in d.spans if s.label == lab) for d in docs), n
        )
    total = sum(per_label.values(), Fraction(0))
    return CorpusStats(n, Fraction(words, n), total, per_label)


def token_labels(doc):
    """Per-token class indices into CLASS_NAMES, the class view of ``spans_to_bio``."""
    return (spans_to_bio(doc) + 1) // 2


def kappa_from_confusion(confusion):
    total = confusion.sum()
    if total == 0:
        raise EmptyCorpus("empty confusion matrix")
    p_o = np.trace(confusion) / total
    p_e = float(np.dot(confusion.sum(axis=1), confusion.sum(axis=0))) / total**2
    if p_e >= 1.0:
        return 1.0 if p_o >= 1.0 else 0.0
    return float((p_o - p_e) / (1.0 - p_e))


def matching(docs_a, docs_b, name_a):
    """The document of docs_b with the id of each of docs_a, in order: it
    must exist and have the same tokens.  ``name_a`` names docs_a in errors."""
    by_id = {d.id: d for d in docs_b}
    for da in docs_a:
        db = by_id.get(da.id)
        if db is None:
            raise MismatchedDocuments(f"no document {da.id!r} of {name_a}")
        if da.token_texts() != db.token_texts():
            raise MismatchedDocuments(f"document {da.id!r} of {name_a} tokenized differently")
    return [by_id[d.id] for d in docs_a]


def agreement(docs_a, docs_b):
    """Word-level agreement between two annotations of the same questions."""
    confusion = np.zeros((len(CLASS_NAMES),) * 2, dtype=np.int64)
    for da, db in zip(docs_a, matching(docs_a, docs_b, "the first annotation")):
        np.add.at(confusion, (token_labels(da), token_labels(db)), 1)
    if len(docs_a) != len(docs_b):
        raise MismatchedDocuments("annotation lists differ in length")
    return AgreementReport(kappa_from_confusion(confusion), confusion)
