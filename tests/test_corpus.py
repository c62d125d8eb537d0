import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtool.corpus import (
    LABELS,
    AnnotatedDocument,
    BadRatios,
    Break,
    EmptyCorpus,
    MismatchedDocuments,
    OverlappingSpans,
    ParseError,
    SchemaError,
    SegmentLabel,
    SegmentSpan,
    agreement,
    bio_to_spans,
    corpus_stats,
    kappa_from_confusion,
    load_corpus,
    save_corpus,
    spans_to_bio,
    split_corpus,
    tokenize,
)


def make_doc(doc_id, n_tokens, spans=()):
    text = " ".join(f"w{i}" for i in range(n_tokens))
    return AnnotatedDocument(doc_id, text, tokenize(text), list(spans))


class TestTokenize:
    def test_basic(self):
        toks = tokenize("ls -la\n/etc/fstab")
        assert [(t.text, t.start, t.end, t.preceding_break) for t in toks] == [
            ("ls", 0, 2, Break.NONE),
            ("-la", 3, 6, Break.SPACE),
            ("/etc/fstab", 7, 17, Break.NEWLINE),
        ]

    def test_empty(self):
        assert tokenize("") == []

    def test_double_space(self):
        toks = tokenize("a  b")
        assert [(t.start, t.end) for t in toks] == [(0, 1), (3, 4)]

    @given(st.text(max_size=200))
    def test_offsets_recover_text(self, text):
        for t in tokenize(text):
            assert text[t.start : t.end] == t.text
            assert not any(c.isspace() for c in t.text)

    @given(st.text(max_size=200))
    def test_covers_all_nonspace(self, text):
        toks = tokenize(text)
        assert "".join(t.text for t in toks) == "".join(
            c for c in text if not c.isspace()
        )


class TestBioCodec:
    def test_simple_span(self):
        doc = make_doc("d", 5, [SegmentSpan(1, 3, SegmentLabel.ES)])
        assert spans_to_bio(doc) == ["O", "B-ES", "I-ES", "O", "O"]

    def test_no_spans(self):
        assert spans_to_bio(make_doc("d", 3)) == ["O", "O", "O"]

    def test_adjacent_same_label(self):
        doc = make_doc(
            "d", 3, [SegmentSpan(0, 2, SegmentLabel.CC), SegmentSpan(2, 3, SegmentLabel.CC)]
        )
        assert spans_to_bio(doc) == ["B-CC", "I-CC", "B-CC"]

    def test_overlap_rejected(self):
        doc = make_doc(
            "d", 5, [SegmentSpan(0, 3, SegmentLabel.CC), SegmentSpan(2, 4, SegmentLabel.ES)]
        )
        with pytest.raises(OverlappingSpans):
            spans_to_bio(doc)

    def test_decode_round_trip(self):
        assert bio_to_spans(["O", "B-ES", "I-ES", "O"]) == [SegmentSpan(1, 3, SegmentLabel.ES)]

    def test_decode_repairs_stray_i(self):
        assert bio_to_spans(["I-CO", "I-CO"]) == [SegmentSpan(0, 2, SegmentLabel.CO)]

    def test_decode_label_switch(self):
        assert bio_to_spans(["B-CC", "I-ES"]) == [
            SegmentSpan(0, 1, SegmentLabel.CC),
            SegmentSpan(1, 2, SegmentLabel.ES),
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

    @given(st.lists(st.sampled_from(
        ["O"] + [f"{p}-{l.value}" for l in LABELS for p in "BI"]), max_size=10))
    def test_tag_round_trip_after_repair(self, tags):
        spans = bio_to_spans(tags)
        doc = make_doc("d", max(len(tags), 1), spans)
        normalized = spans_to_bio(doc)[: len(tags)]
        # re-decoding the normalized tags is stable
        assert bio_to_spans(normalized) == spans


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

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "text": "x", "spans": []}\n')
        with pytest.raises(SchemaError) as exc:
            load_corpus(path)
        assert exc.value.missing_field == "tokens"
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("line, field", [
        ('[1, 2]', "document"),
        ('{"id": 5, "text": "x", "tokens": [], "spans": []}', "id"),
        ('{"id": "a", "text": null, "tokens": [], "spans": []}', "text"),
        ('{"id": "a", "text": "x", "tokens": "x", "spans": []}', "tokens"),
        ('{"id": "a", "text": "x", "tokens": [1], "spans": []}', "tokens"),
        ('{"id": "a", "text": "x", "tokens": [], "spans": {}}', "spans"),
        ('{"id": "a", "text": "x", "tokens": [], "spans": [[0, 1, "CC"]]}', "spans"),
    ], ids=["doc-list", "id-int", "text-null", "tokens-str", "token-int", "spans-object",
            "span-list"])
    def test_bad_container_or_doc_field(self, tmp_path, line, field):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "ok", "text": "", "tokens": [], "spans": []}\n' + line + "\n")
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
        from segtool.corpus import token_labels

        oracle = kappa_oracle(token_labels(a[0]), token_labels(b[0]))
        assert rep.kappa == pytest.approx(oracle, abs=1e-12)

    @given(span_sets())
    def test_self_agreement_is_one(self, spans):
        docs = [make_doc("d", 12, spans)]
        assert agreement(docs, docs).kappa == 1.0

    def test_mismatched(self):
        with pytest.raises(MismatchedDocuments):
            agreement([make_doc("a", 3)], [make_doc("b", 3)])
