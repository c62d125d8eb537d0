import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtool.baselines import (
    DegenerateData,
    SentenceUnit,
    classify,
    logreg_loss_and_grad,
    run_baseline,
    sentence_segment,
    train_logreg,
    unit_features,
    unit_labels,
    units_to_spans,
)
from segtool.corpus import AnnotatedDocument, SegmentLabel, SegmentSpan, tokenize
from segtool.embeddings import ContextualStreamSet, MissingStreams, TokenCountMismatch


def doc_of(text, spans=()):
    return AnnotatedDocument("d", text, tokenize(text), list(spans))


def sentence_bounds_oracle(text):
    """(start, end) word indices of the units of ``text``, found line by
    line: the words of each piece between newlines and carriage returns,
    cut before a line's first word and after a word ending in . ? or !
    that a capitalized word follows."""
    words, bounds = [], [0]
    for line in re.split("[\n\r]", text):
        for k, w in enumerate(line.split()):
            if words and bounds[-1] != len(words) and (
                k == 0 or words[-1].endswith((".", "?", "!")) and w[:1].isupper()
            ):
                bounds.append(len(words))
            words.append(w)
    return list(zip(bounds, bounds[1:] + [len(words)])) if words else []


class TestSentenceSegment:
    def test_newline_units(self):
        units = sentence_segment(doc_of("run this\nls -la\ncat out.log"))
        assert [(u.start, u.end) for u in units] == [(0, 2), (2, 4), (4, 6)]

    @pytest.mark.parametrize("gap", ["\n", "\r", "\r\n", " \n\t", "\n\n"])
    def test_line_break_in_gap_cuts(self, gap):
        units = sentence_segment(doc_of(f"ls -la{gap}cat out.log"))
        assert [(u.start, u.end) for u in units] == [(0, 2), (2, 4)]

    @pytest.mark.parametrize("gap", [" ", "\t", "\x0b", "\x0c", "\u2028"])
    def test_other_whitespace_does_not_cut(self, gap):
        assert len(sentence_segment(doc_of(f"ls -la{gap}cat out.log"))) == 1

    def test_leading_and_trailing_line_breaks(self):
        units = sentence_segment(doc_of("\nls\r\n"))
        assert [(u.start, u.end) for u in units] == [(0, 1)]

    def test_sentence_punct(self):
        units = sentence_segment(doc_of("Done. Now run it"))
        assert [(u.start, u.end) for u in units] == [(0, 1), (1, 4)]

    def test_punct_at_line_end_cuts_once(self):
        units = sentence_segment(doc_of("Done.\nNow run it"))
        assert [(u.start, u.end) for u in units] == [(0, 1), (1, 4)]

    @given(st.text(st.sampled_from(["a", "B", ".", "?", " ", "\t", "\n", "\r", "\u2028"]),
                   max_size=40))
    @settings(max_examples=300)
    def test_matches_line_oracle(self, text):
        units = sentence_segment(doc_of(text))
        assert [(u.start, u.end) for u in units] == sentence_bounds_oracle(text)

    def test_punct_without_capital_no_split(self):
        units = sentence_segment(doc_of("file.txt is fine"))
        assert len(units) == 1

    def test_empty_doc(self):
        assert sentence_segment(doc_of("")) == []

    def test_units_partition_tokens(self):
        doc = doc_of("a b. Cd\ne f? Gh i")
        units = sentence_segment(doc)
        assert units[0].start == 0
        assert units[-1].end == len(doc.tokens)
        for a, b in zip(units, units[1:]):
            assert a.end == b.start


class TestPooling:
    def test_mean(self):
        vecs = np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 10.0]])
        u = SentenceUnit(0, 2)
        assert np.array_equal(unit_features([u], vecs), [[2.0, 3.0]])

    def test_context_concatenates_neighbours(self):
        vecs = np.arange(8, dtype=float).reshape(4, 2)
        units = [
            SentenceUnit(0, 1),
            SentenceUnit(1, 3),
            SentenceUnit(3, 4),
        ]
        out = unit_features(units, vecs, context=1)
        assert np.array_equal(out[1], [0.0, 1.0, 3.0, 4.0, 6.0, 7.0])

    def test_context_zeros_at_edges(self):
        vecs = np.ones((2, 3))
        units = [SentenceUnit(0, 2)]
        out = unit_features(units, vecs, context=1)
        assert np.array_equal(out, [[0, 0, 0, 1, 1, 1, 0, 0, 0]])


class TestUnitLabels:
    def test_majority(self):
        doc = doc_of("a b c d", [SegmentSpan(0, 3, SegmentLabel.CC)])
        labels = unit_labels(doc, [SentenceUnit(0, 4)])
        assert labels == [1]  # CC is class 1

    def test_tie_goes_to_lower_index(self):
        doc = doc_of("a b", [SegmentSpan(1, 2, SegmentLabel.CC)])
        labels = unit_labels(doc, [SentenceUnit(0, 2)])
        assert labels == [0]  # O vs CC tie resolves to O


class TestLogReg:
    def test_finite_difference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 4))
        y = rng.integers(7, size=10)
        w = rng.standard_normal((7, 4)) * 0.3
        b = rng.standard_normal(7) * 0.3
        _, d_w, d_b = logreg_loss_and_grad(w, b, x, y, 0.05)
        step = 1e-6
        for arr, grad in ((w, d_w), (b, d_b)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in rng.choice(flat.size, size=6, replace=False):
                old = flat[i]
                flat[i] = old + step
                lp = logreg_loss_and_grad(w, b, x, y, 0.05)[0]
                flat[i] = old - step
                lm = logreg_loss_and_grad(w, b, x, y, 0.05)[0]
                flat[i] = old
                fd = (lp - lm) / (2 * step)
                assert abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i])) < 1e-5

    def test_separable_data_fits(self):
        rng = np.random.default_rng(1)
        x = np.vstack([rng.standard_normal((20, 2)) + off for off in (-4, 4)])
        y = np.array([0] * 20 + [1] * 20)
        clf = train_logreg(x, y, lam=1e-4, n_classes=2)
        assert classify(clf, x) == list(y)

    def test_huge_lambda_shrinks_weights(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 3))
        y = rng.integers(2, size=30)
        small = train_logreg(x, y, lam=1e-4, n_classes=2)
        big = train_logreg(x, y, lam=1e4, n_classes=2)
        assert np.linalg.norm(big.weights) < 1e-3 * np.linalg.norm(small.weights)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateData):
            train_logreg(np.zeros((0, 3)), [])

    def test_mismatched_rejected(self):
        with pytest.raises(DegenerateData):
            train_logreg(np.zeros((3, 2)), [0, 1])


class TestUnitsToSpans:
    def unit_row(self, bounds):
        return [SentenceUnit(a, b) for a, b in bounds]

    def test_merges_adjacent_same_label(self):
        units = self.unit_row([(0, 2), (2, 5), (5, 6)])
        spans = units_to_spans(units, [1, 1, 0])
        assert spans == [SegmentSpan(0, 5, SegmentLabel.CC)]

    def test_label_switch_closes_span(self):
        units = self.unit_row([(0, 2), (2, 4)])
        spans = units_to_spans(units, [1, 3])
        assert spans == [
            SegmentSpan(0, 2, SegmentLabel.CC),
            SegmentSpan(2, 4, SegmentLabel.ES),
        ]

    def test_all_o(self):
        assert units_to_spans(self.unit_row([(0, 3)]), [0]) == []

    def test_o_unit_closes_span(self):
        units = self.unit_row([(0, 2), (2, 3), (3, 5)])
        assert units_to_spans(units, [1, 0, 1]) == [
            SegmentSpan(0, 2, SegmentLabel.CC),
            SegmentSpan(3, 5, SegmentLabel.CC),
        ]

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_spans_valid_and_disjoint(self, classes):
        bounds = [(i * 2, i * 2 + 2) for i in range(len(classes))]
        spans = units_to_spans(self.unit_row(bounds), classes)
        last_end = 0
        for sp in spans:
            assert sp.start_token >= last_end
            assert sp.end_token > sp.start_token
            last_end = sp.end_token


class TestRunBaseline:
    def test_learns_planted_signal(self):
        # one newline-delimited ES line per doc carries a distinctive
        # constant feature; the baseline must recover it on held-out docs
        rng = np.random.default_rng(0)
        docs, streams = [], ContextualStreamSet([4], {})
        for k in range(30):
            text = "please help me\nerror trace here\nthanks a lot"
            doc = AnnotatedDocument(
                f"d{k}", text, tokenize(text), [SegmentSpan(3, 6, SegmentLabel.ES)]
            )
            vecs = rng.standard_normal((9, 4)) * 0.1
            vecs[3:6] += np.array([3.0, 0.0, 0.0, 0.0])
            docs.append(doc)
            streams.vectors[doc.id] = [vecs]
        preds = run_baseline(docs[:24], docs[24:], streams)
        assert preds == [[SegmentSpan(3, 6, SegmentLabel.ES)]] * 6

    @pytest.mark.parametrize("context", [0, 1])
    def test_empty_document_has_no_units_or_spans(self, context):
        docs = [doc_of("please help\nls -la", [SegmentSpan(2, 4, SegmentLabel.CC)]),
                AnnotatedDocument("e", "", tokenize(""), [])]
        streams = ContextualStreamSet([2], {"d": [np.eye(4, 2)], "e": [np.zeros((0, 2))]})
        assert unit_features([], streams.vectors["e"][0], context).shape == (0, 2 + 4 * context)
        assert run_baseline(docs, docs[1:], streams, context) == [[]]

    def test_no_training_documents(self):
        doc = doc_of("a b")
        with pytest.raises(DegenerateData, match="^no training documents$"):
            run_baseline([], [doc], ContextualStreamSet([3], {doc.id: [np.zeros((2, 3))]}))

    def test_no_streams(self):
        doc = doc_of("a b")
        with pytest.raises(DegenerateData, match="^no streams$"):
            run_baseline([doc], [doc], ContextualStreamSet([], {doc.id: []}))

    def test_missing_vectors(self):
        doc = doc_of("a b")
        with pytest.raises(MissingStreams):
            run_baseline([doc], [doc], ContextualStreamSet([3], {}))

    @pytest.mark.parametrize("extra", [-5, 5])
    def test_vector_count_must_match_tokens(self, extra):
        # too few rows, or too many: either way the document and both counts are named
        doc = doc_of("please help\nls -la /tmp\nerror here now\nthanks")
        n = len(doc.tokens)
        streams = ContextualStreamSet([3], {doc.id: [np.zeros((n + extra, 3))]})
        with pytest.raises(TokenCountMismatch) as exc:
            run_baseline([doc], [doc], streams)
        assert str(exc.value) == f"doc 'd': {n + extra} stream tokens, corpus has {n}"
