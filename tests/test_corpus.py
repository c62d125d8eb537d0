import itertools
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtool.corpus import (
    BIO_TAGS,
    CLASS_NAMES,
    LABELS,
    N_TAGS,
    TAG_INDEX,
    AnnotatedDocument,
    BadRatios,
    EmptyCorpus,
    MismatchedDocuments,
    OverlappingSpans,
    ParseError,
    SchemaError,
    SegmentLabel,
    SegmentSpan,
    Token,
    agreement,
    bio_to_spans,
    corpus_stats,
    doc_to_json,
    kappa_from_confusion,
    load_corpus,
    save_corpus,
    spans_to_bio,
    split_corpus,
    token_labels,
    tokenize,
)


# every str.isspace character, and letters whose lowercase depends on the
# letters around them (Σ), combines with the one before (U+0301) or is two
# characters long (İ)
SPACE_AND_CASE_TEXT = st.text(
    st.sampled_from([chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
                    + ["a", "Σ", "\u0301", "İ"]),
    max_size=40,
)


def tokenize_oracle(text):
    """Tokens by a walk over the characters, testing each with str.isspace."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        tokens.append(Token(text[i:j], i, j))
        i = j
    return tokens


def make_doc(doc_id, n_tokens, spans=()):
    text = " ".join(f"w{i}" for i in range(n_tokens))
    return AnnotatedDocument(doc_id, text, tokenize(text), list(spans))


def tag_indices(*names):
    return [TAG_INDEX[t] for t in names]


def spans_to_bio_oracle(doc):
    """A document's spans as per-token BIO tag names."""
    tags = ["O"] * len(doc.tokens)
    for sp in doc.spans:
        tags[sp.start_token] = f"B-{sp.label.value}"
        for k in range(sp.start_token + 1, sp.end_token):
            tags[k] = f"I-{sp.label.value}"
    return tags


def bio_to_spans_oracle(tags):
    """Spans of BIO tag names: a B-X starts a span, an I-X extends a span of
    X that ends just before it and otherwise starts one (a stray I-X)."""
    runs = []
    for i, tag in enumerate(tags):
        if tag != "O":
            prefix, label = tag.split("-", 1)
            if prefix == "I" and runs and runs[-1][1:] == [i, label]:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1, label])
    return [SegmentSpan(s, e, SegmentLabel(label)) for s, e, label in runs]


def token_labels_oracle(doc):
    """Per-token class names ("O" or a segment label)."""
    out = ["O"] * len(doc.tokens)
    for sp in doc.spans:
        for k in range(sp.start_token, sp.end_token):
            out[k] = sp.label.value
    return out


class TestTokenize:
    def test_basic(self):
        toks = tokenize("ls -la\n/etc/fstab")
        assert toks == [Token("ls", 0, 2), Token("-la", 3, 6), Token("/etc/fstab", 7, 17)]

    def test_empty(self):
        assert tokenize("") == []

    @given(st.text(max_size=60))
    def test_tokens_are_named_tuples(self, text):
        for t in tokenize(text):
            assert type(t) is Token
            same = Token(t.text, t.start, t.end)
            assert t == same and hash(t) == hash(same)
            assert repr(t) == f"Token(text={t.text!r}, start={t.start}, end={t.end})"

    def test_token_is_immutable(self):
        (t,) = tokenize("ls")
        with pytest.raises(AttributeError):
            t.text = "cd"
        with pytest.raises(AttributeError):
            t.extra = 1

    def test_double_space(self):
        toks = tokenize("a  b")
        assert [(t.start, t.end) for t in toks] == [(0, 1), (3, 4)]

    @given(st.text(max_size=200))
    def test_offsets_recover_text(self, text):
        for t in tokenize(text):
            assert text[t.start : t.end] == t.text
            assert not any(c.isspace() for c in t.text)

    @given(SPACE_AND_CASE_TEXT)
    @settings(max_examples=300)
    def test_matches_character_walk(self, text):
        assert tokenize(text) == tokenize_oracle(text)

    @given(st.text(max_size=200))
    def test_covers_all_nonspace(self, text):
        toks = tokenize(text)
        assert "".join(t.text for t in toks) == "".join(
            c for c in text if not c.isspace()
        )


class TestBioCodec:
    def test_simple_span(self):
        doc = make_doc("d", 5, [SegmentSpan(1, 3, SegmentLabel.ES)])
        tags = spans_to_bio(doc)
        assert tags.dtype == np.intp
        assert tags.tolist() == tag_indices("O", "B-ES", "I-ES", "O", "O")

    def test_no_spans(self):
        assert spans_to_bio(make_doc("d", 3)).tolist() == tag_indices("O", "O", "O")

    def test_adjacent_same_label(self):
        doc = make_doc(
            "d", 3, [SegmentSpan(0, 2, SegmentLabel.CC), SegmentSpan(2, 3, SegmentLabel.CC)]
        )
        assert spans_to_bio(doc).tolist() == tag_indices("B-CC", "I-CC", "B-CC")

    def test_overlap_rejected(self):
        doc = make_doc(
            "d", 5, [SegmentSpan(0, 3, SegmentLabel.CC), SegmentSpan(2, 4, SegmentLabel.ES)]
        )
        with pytest.raises(OverlappingSpans):
            spans_to_bio(doc)

    def test_decode_round_trip(self):
        tags = tag_indices("O", "B-ES", "I-ES", "O")
        assert bio_to_spans(tags) == [SegmentSpan(1, 3, SegmentLabel.ES)]

    def test_decode_repairs_stray_i(self):
        assert bio_to_spans(tag_indices("I-CO", "I-CO")) == [SegmentSpan(0, 2, SegmentLabel.CO)]

    def test_decode_label_switch(self):
        assert bio_to_spans(tag_indices("B-CC", "I-ES")) == [
            SegmentSpan(0, 1, SegmentLabel.CC),
            SegmentSpan(1, 2, SegmentLabel.ES),
        ]

    def test_decode_o_closes_a_run(self):
        assert bio_to_spans(tag_indices("B-CC", "O", "I-CC", "B-CC")) == [
            SegmentSpan(0, 1, SegmentLabel.CC),
            SegmentSpan(2, 3, SegmentLabel.CC),
            SegmentSpan(3, 4, SegmentLabel.CC),
        ]


@st.composite
def span_sets(draw, n_tokens=12):
    """Random non-overlapping span sets over n_tokens tokens."""
    spans = []
    pos = 0
    while pos < n_tokens - 1 and draw(st.booleans()):
        start = draw(st.integers(pos, n_tokens - 1))
        end = draw(st.integers(start + 1, n_tokens))
        label = draw(st.sampled_from(LABELS))
        spans.append(SegmentSpan(start, end, label))
        pos = end
    return spans


class TestBioProperties:
    @given(span_sets())
    def test_span_round_trip(self, spans):
        doc = make_doc("d", 12, spans)
        assert bio_to_spans(spans_to_bio(doc)) == spans

    @given(st.lists(st.integers(0, N_TAGS - 1), max_size=10))
    def test_tag_round_trip_after_repair(self, tags):
        spans = bio_to_spans(tags)
        doc = make_doc("d", max(len(tags), 1), spans)
        normalized = spans_to_bio(doc)[: len(tags)]
        # re-decoding the normalized tags is stable
        assert bio_to_spans(normalized) == spans


# documents of 0 to 12 tokens with their spans; span_sets draws adjacent
# spans of one label too
DOCS = st.integers(0, 12).flatmap(lambda n: span_sets(n).map(lambda sp: make_doc("d", n, sp)))
ADJACENT_CC = make_doc(
    "d", 3, [SegmentSpan(0, 2, SegmentLabel.CC), SegmentSpan(2, 3, SegmentLabel.CC)]
)


class TestIndexCodecMatchesNames:
    """The index codec equals the name codec, mapped through BIO_TAGS,
    TAG_INDEX and CLASS_NAMES."""

    @given(DOCS)
    @example(make_doc("d", 0))
    @example(ADJACENT_CC)
    def test_spans_to_bio(self, doc):
        assert [BIO_TAGS[t] for t in spans_to_bio(doc)] == spans_to_bio_oracle(doc)

    @given(DOCS)
    @example(make_doc("d", 0))
    @example(ADJACENT_CC)
    def test_token_labels(self, doc):
        assert [CLASS_NAMES[c] for c in token_labels(doc)] == token_labels_oracle(doc)

    @given(st.lists(st.sampled_from(BIO_TAGS), max_size=12))
    @example([])
    @example(["I-CO", "I-CO", "O", "I-CO"])  # stray I tags
    @example(["B-CC", "I-CC", "B-CC", "I-ES"])  # adjacent spans, one label and two
    def test_bio_to_spans(self, names):
        assert bio_to_spans(tag_indices(*names)) == bio_to_spans_oracle(names)


def doc_to_json_with_tokens(doc):
    """The line an older version wrote: each token's text and offsets too."""
    return {**doc_to_json(doc), "tokens": [{"t": t.text, "s": t.start, "e": t.end}
                                           for t in doc.tokens]}


# documents over texts that use every str.isspace character, with spans
SPACE_DOCS = SPACE_AND_CASE_TEXT.flatmap(lambda text: span_sets(len(tokenize(text))).map(
    lambda spans: AnnotatedDocument("d", text, tokenize(text), spans)))


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        docs = [
            make_doc("a", 4, [SegmentSpan(0, 2, SegmentLabel.PU)]),
            AnnotatedDocument("b", "x\ny z", tokenize("x\ny z"), []),
        ]
        path = tmp_path / "c.jsonl"
        save_corpus(docs, path)
        loaded = load_corpus(path)
        assert loaded == docs

    @given(SPACE_DOCS)
    def test_round_trip_any_whitespace(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("c") / "c.jsonl"
        save_corpus([doc], path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[1:] == [""]  # one line: no space of the text breaks it
        assert list(json.loads(lines[0])) == ["id", "text", "spans"]
        assert load_corpus(path) == [doc]

    @given(SPACE_DOCS)
    def test_older_lines_with_tokens_load(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("c") / "old.jsonl"
        path.write_text(json.dumps(doc_to_json_with_tokens(doc)) + "\n")
        assert load_corpus(path) == [doc]

    def test_older_file_loads(self, tmp_path):
        # a file written when each token record also held its break kind
        # ("n", "s" or "nl"); the key is ignored
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"id": "b", "text": "x\\ny z", "tokens": [{"t": "x", "s": 0, "e": 1, "brk": "n"}, '
            '{"t": "y", "s": 2, "e": 3, "brk": "nl"}, {"t": "z", "s": 4, "e": 5, "brk": "s"}], '
            '"spans": [{"st": 1, "et": 3, "label": "CC"}]}\n'
        )
        spans = [SegmentSpan(1, 3, SegmentLabel.CC)]
        assert load_corpus(path) == [AnnotatedDocument("b", "x\ny z", tokenize("x\ny z"), spans)]

    def test_written_token_fields(self, tmp_path):
        # the tokens are the text's words: a line holds none
        path = tmp_path / "c.jsonl"
        save_corpus([AnnotatedDocument("b", "x\ny", tokenize("x\ny"), [])], path)
        assert json.loads(path.read_text()) == {"id": "b", "text": "x\ny", "spans": []}

    # a line written by an older version holds "tokens", which must be the
    # words of its text "ab cd": ("ab", 0, 2) and ("cd", 3, 5)
    @pytest.mark.parametrize("tokens, message", [
        ('{"t": "", "s": 0, "e": 0}', "token 0 is {'t': '', 's': 0, 'e': 0} where"),
        ('{"t": "ab", "s": -1, "e": 1}', "token 0 is {'t': 'ab', 's': -1, 'e': 1} where"),
        ('{"t": "ab", "s": 2, "e": 2}', "token 0 is {'t': 'ab', 's': 2, 'e': 2} where"),
        ('{"t": "ab", "s": 3, "e": 1}', "token 0 is {'t': 'ab', 's': 3, 'e': 1} where"),
        ('{"t": "ab", "s": 0, "e": 2}, {"t": "cd", "s": 3, "e": 6}',
         "token 1 is {'t': 'cd', 's': 3, 'e': 6} where the text has ('cd', 3, 5)"),
        ('{"t": "ab", "s": 0, "e": 2}, {"t": "b", "s": 1, "e": 2}',
         "token 1 is {'t': 'b', 's': 1, 'e': 2} where the text has ('cd', 3, 5)"),
        ('{"t": "zz", "s": 0, "e": 2}, {"t": "cd", "s": 3, "e": 5}',
         "token 0 is {'t': 'zz', 's': 0, 'e': 2} where the text has ('ab', 0, 2)"),
        ('{"t": "ab", "s": 0, "e": 2}', "token 1 is missing where the text has ('cd', 3, 5)"),
        ('{"t": "a", "s": 0, "e": 1}, {"t": "b", "s": 1, "e": 2}, {"t": "cd", "s": 3, "e": 5}',
         "token 0 is {'t': 'a', 's': 0, 'e': 1} where the text has ('ab', 0, 2)"),
        ('{"t": "ab", "s": 0, "e": 2}, {"t": "cd", "s": 3, "e": 5}, {"t": "cd", "s": 3, "e": 5}',
         "token 2 is {'t': 'cd', 's': 3, 'e': 5} where the text has no word"),
        ('{"t": "ab", "s": 0.0, "e": 2}, {"t": "cd", "s": 3, "e": 5}', "token 0 is "),
        ('{"t": "ab", "s": 0, "e": 2}, {"t": "cd", "s": 3, "e": true}', "token 1 is "),
        ('{"s": 0, "e": 2}, {"t": "cd", "s": 3, "e": 5}', "token 0 is {'s': 0, 'e': 2} where"),
        ('{"t": "ab", "s": 0, "e": 2}, null', "token 1 is None where"),
    ], ids=["text-empty", "start-negative", "empty-range", "inverted", "past-text",
            "before-previous-end", "other-word", "one-short", "splits-word", "one-extra",
            "offset-float", "offset-bool", "text-missing", "record-null"])
    def test_bad_token(self, tmp_path, tokens, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"id": "ok", "text": "", "tokens": [], "spans": []}\n'
            f'{{"id": "a", "text": "ab cd", "tokens": [{tokens}], "spans": []}}\n'
        )
        with pytest.raises(SchemaError) as exc:
            load_corpus(path)
        assert exc.value.missing_field == "tokens"
        assert str(exc.value).startswith(f"{path}:2: {message}")
        assert str(exc.value).endswith(", in field 'tokens'")

    def test_missing_field(self, tmp_path):
        # a line needs no "tokens", but needs its spans
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x", "spans": []}\n{"id": "b", "text": "x"}\n')
        with pytest.raises(SchemaError) as exc:
            load_corpus(path)
        assert exc.value.missing_field == "spans"
        assert exc.value.line_no == 2
        path.write_text('{"id": "a", "text": "x", "spans": []}\n')
        assert load_corpus(path) == [AnnotatedDocument("a", "x", tokenize("x"), [])]

    @pytest.mark.parametrize("line, field", [
        ('[1, 2]', "document"),
        ('{"id": 5, "text": "x", "spans": []}', "id"),
        ('{"id": "a", "text": null, "spans": []}', "text"),
        ('{"id": "a", "text": "x", "tokens": "x", "spans": []}', "tokens"),
        ('{"id": "a", "text": "x", "tokens": [1], "spans": []}', "tokens"),
        ('{"id": "a", "text": "x", "spans": {}}', "spans"),
        ('{"id": "a", "text": "x", "spans": [[0, 1, "CC"]]}', "spans"),
    ], ids=["doc-list", "id-int", "text-null", "tokens-str", "token-int", "spans-object",
            "span-list"])
    def test_bad_container_or_doc_field(self, tmp_path, line, field):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok", "text": "", "spans": []}\n' + line + "\n")
        with pytest.raises(SchemaError) as exc:
            load_corpus(path)
        assert (exc.value.missing_field, exc.value.line_no) == (field, 2)
        assert str(exc.value).startswith(f"{path}:2: ")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{nope}\n")
        with pytest.raises(ParseError) as exc:
            load_corpus(path)
        assert exc.value.line_no == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(path) == []


class TestSplit:
    def test_sizes_10(self):
        docs = [make_doc(str(i), 2) for i in range(10)]
        tr, va, te = split_corpus(docs, (0.8, 0.1, 0.1), seed=0)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_deterministic(self):
        docs = [make_doc(str(i), 2) for i in range(23)]
        a = split_corpus(docs, seed=5)
        b = split_corpus(docs, seed=5)
        assert [[d.id for d in part] for part in a] == [[d.id for d in part] for part in b]

    def test_paper_scale_sizes(self):
        # 1317 documents split 80:10:10 must give 1053/131/133
        docs = [make_doc(str(i), 1) for i in range(1317)]
        tr, va, te = split_corpus(docs, seed=0)
        assert (len(tr), len(va), len(te)) == (1053, 131, 133)

    def test_partition(self):
        docs = [make_doc(str(i), 1) for i in range(37)]
        tr, va, te = split_corpus(docs, seed=2)
        ids = [d.id for d in tr + va + te]
        assert sorted(ids) == sorted(d.id for d in docs)
        assert len(set(ids)) == len(ids)

    def test_bad_ratios(self):
        with pytest.raises(BadRatios):
            split_corpus([make_doc("a", 1)], (0.5, 0.5, 0.5))


class TestStats:
    def test_arithmetic(self):
        docs = [
            make_doc("a", 10, [SegmentSpan(0, 2, SegmentLabel.CC)]),
            make_doc(
                "b",
                20,
                [
                    SegmentSpan(0, 2, SegmentLabel.CC),
                    SegmentSpan(3, 5, SegmentLabel.CC),
                    SegmentSpan(6, 8, SegmentLabel.CC),
                ],
            ),
        ]
        stats = corpus_stats(docs)
        assert stats.avg_words == 15
        assert stats.avg_spans_per_label[SegmentLabel.CC] == 2
        assert stats.avg_spans_total == sum(stats.avg_spans_per_label.values())

    def test_no_spans(self):
        assert corpus_stats([make_doc("a", 3)]).avg_spans_total == 0

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_stats([])


def kappa_oracle(labels_a, labels_b):
    """Independent Cohen's kappa over two parallel label lists."""
    n = len(labels_a)
    classes = sorted(set(labels_a) | set(labels_b))
    p_o = sum(1 for x, y in zip(labels_a, labels_b) if x == y) / n
    p_e = sum(
        (labels_a.count(c) / n) * (labels_b.count(c) / n) for c in classes
    )
    if p_e >= 1:
        return 1.0 if p_o >= 1 else 0.0
    return (p_o - p_e) / (1 - p_e)


class TestAgreement:
    def test_identical(self):
        docs = [make_doc("a", 6, [SegmentSpan(1, 4, SegmentLabel.ES)])]
        rep = agreement(docs, docs)
        assert rep.kappa == 1.0
        off_diag = rep.confusion - np.diag(np.diag(rep.confusion))
        assert off_diag.sum() == 0

    def test_hand_fixture(self):
        # binary confusion [[45,5],[5,45]]: p_o=.9, p_e=.5, kappa=.8
        confusion = np.zeros((7, 7))
        confusion[0, 0] = 45
        confusion[0, 1] = 5
        confusion[1, 0] = 5
        confusion[1, 1] = 45
        assert kappa_from_confusion(confusion) == pytest.approx(0.8, abs=1e-12)

    def test_all_o_annotator_nonpositive(self):
        # annotator b labels everything O while a has spans: kappa <= 0
        for spans in [
            [SegmentSpan(0, 3, SegmentLabel.CC)],
            [SegmentSpan(0, 2, SegmentLabel.ES), SegmentSpan(4, 9, SegmentLabel.CO)],
        ]:
            a = [make_doc("d", 10, spans)]
            b = [make_doc("d", 10)]
            rep = agreement(a, b)
            la = ["O"] * 10
            for sp in spans:
                for k in range(sp.start_token, sp.end_token):
                    la[k] = sp.label.value
            assert rep.kappa == pytest.approx(kappa_oracle(la, ["O"] * 10), abs=1e-12)
            assert rep.kappa <= 0

    @given(span_sets(), span_sets())
    @settings(max_examples=50)
    def test_matches_oracle(self, spans_a, spans_b):
        a = [make_doc("d", 12, spans_a)]
        b = [make_doc("d", 12, spans_b)]
        rep = agreement(a, b)
        oracle = kappa_oracle(token_labels_oracle(a[0]), token_labels_oracle(b[0]))
        assert rep.kappa == pytest.approx(oracle, abs=1e-12)

    @given(span_sets())
    def test_self_agreement_is_one(self, spans):
        docs = [make_doc("d", 12, spans)]
        assert agreement(docs, docs).kappa == 1.0

    def test_mismatched(self):
        with pytest.raises(MismatchedDocuments):
            agreement([make_doc("a", 3)], [make_doc("b", 3)])
