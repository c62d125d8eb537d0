import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segtool.corpus import LABELS, SegmentLabel, SegmentSpan
from segtool.evalmetrics import (
    PRF,
    OverlapWithinSet,
    exact_match_pr,
    soft_pr,
    span_coverage,
    span_set_coverage,
)
from test_corpus import span_sets

ES = SegmentLabel.ES
CO = SegmentLabel.CO


def sp(s, e, lab):
    return SegmentSpan(s, e, lab)


def _pr_oracle(gold, pred):
    p = 1.0 if not pred else span_set_coverage(gold, pred) / len(pred)
    r = 1.0 if not gold else span_set_coverage(pred, gold) / len(gold)
    return PRF(p, r)


def soft_pr_pooled_oracle(gold_sets, pred_sets, macro=False):
    """The pooled soft P/R: every document's spans are shifted past the
    previous documents' tokens, and micro scores come from one coverage
    over all span pairs of the corpus (quadratic in its span count).
    Takes parallel lists of per-document span lists."""
    pooled_g, pooled_p = [], []
    offset = 0
    for g, p in zip(gold_sets, pred_sets):
        hi = max([s.end_token for s in g + p], default=0)
        pooled_g += [sp(s.start_token + offset, s.end_token + offset, s.label) for s in g]
        pooled_p += [sp(s.start_token + offset, s.end_token + offset, s.label) for s in p]
        offset += hi

    def score(keep):
        if not macro:
            return _pr_oracle([s for s in pooled_g if keep(s)], [s for s in pooled_p if keep(s)])
        prs = [
            _pr_oracle([s for s in g if keep(s)], [s for s in p if keep(s)])
            for g, p in zip(gold_sets, pred_sets)
        ]
        return PRF(
            sum(x.precision for x in prs) / len(prs), sum(x.recall for x in prs) / len(prs)
        )

    micro = score(lambda s: True)
    per_label = {lab: score(lambda s, lab=lab: s.label == lab) for lab in LABELS}
    return micro, per_label


class TestSpanCoverage:
    def test_containment(self):
        assert span_coverage(sp(0, 10, ES), sp(0, 5, ES)) == 1.0

    def test_label_mismatch(self):
        assert span_coverage(sp(0, 10, ES), sp(0, 10, CO)) == 0.0

    def test_partial(self):
        assert span_coverage(sp(0, 5, ES), sp(0, 10, ES)) == 0.5

    def test_disjoint(self):
        assert span_coverage(sp(0, 2, ES), sp(5, 8, ES)) == 0.0


class TestSpanSetCoverage:
    def test_self_coverage(self):
        s = [sp(0, 3, ES), sp(4, 8, CO), sp(9, 10, ES)]
        assert span_set_coverage(s, s) == len(s)

    def test_disjoint_labels(self):
        assert span_set_coverage([sp(0, 5, ES)], [sp(0, 5, CO)]) == 0.0

    def test_split_prediction(self):
        assert span_set_coverage([sp(0, 10, ES)], [sp(0, 5, ES), sp(5, 10, CO)]) == 1.0

    def test_overlap_within_set_rejected(self):
        with pytest.raises(OverlapWithinSet):
            span_set_coverage([sp(0, 5, ES), sp(3, 8, ES)], [])


class TestSoftPR:
    def test_identity(self):
        s = [sp(0, 3, ES), sp(5, 9, CO)]
        rep = soft_pr(s, list(s))
        assert rep.micro.precision == rep.micro.recall == rep.micro.f1 == 1.0

    def test_worked_example(self):
        # gold {(0,10,ES)}, pred {(0,5,ES),(5,10,CO)}: the ES prediction is
        # fully inside gold (precision credit 1 of 2 predictions); gold is
        # half covered
        rep = soft_pr([sp(0, 10, ES)], [sp(0, 5, ES), sp(5, 10, CO)])
        assert rep.micro.precision == 0.5
        assert rep.micro.recall == 0.5
        assert rep.micro.f1 == 0.5

    def test_empty_prediction(self):
        rep = soft_pr([sp(0, 10, ES)], [])
        assert rep.micro.precision == 1.0
        assert rep.micro.recall == 0.0
        assert rep.micro.f1 == 0.0

    def test_empty_gold(self):
        rep = soft_pr([], [sp(0, 4, ES)])
        assert rep.micro.recall == 1.0
        assert rep.micro.precision == 0.0

    def test_per_label_restriction(self):
        rep = soft_pr([sp(0, 10, ES)], [sp(0, 5, ES), sp(5, 10, CO)])
        assert rep.per_label[ES].precision == 1.0
        assert rep.per_label[ES].recall == 0.5
        assert rep.per_label[CO].precision == 0.0

    def test_micro_pools_documents(self):
        gold = [[sp(0, 4, ES)], [sp(0, 4, ES)]]
        pred = [[sp(0, 4, ES)], []]
        rep = soft_pr(gold, pred)
        assert rep.micro.precision == 1.0
        assert rep.micro.recall == 0.5

    def test_macro_averages_documents(self):
        gold = [[sp(0, 4, ES)], [sp(0, 4, ES)]]
        pred = [[sp(0, 4, ES)], []]
        rep = soft_pr(gold, pred, macro=True)
        assert rep.micro.precision == 1.0  # vacuous 1 on the empty doc
        assert rep.micro.recall == 0.5


class TestProperties:
    @given(span_sets(), span_sets())
    @settings(max_examples=100)
    def test_symmetry(self, s, s_hat):
        a = soft_pr(s, s_hat)
        b = soft_pr(s_hat, s)
        assert a.micro.precision == pytest.approx(b.micro.recall, abs=1e-12)
        assert a.micro.recall == pytest.approx(b.micro.precision, abs=1e-12)

    @given(span_sets(), span_sets())
    @settings(max_examples=100)
    def test_bounded(self, s, s_hat):
        rep = soft_pr(s, s_hat)
        assert 0.0 <= rep.micro.precision <= 1.0
        assert 0.0 <= rep.micro.recall <= 1.0

    @given(span_sets(), span_sets())
    @settings(max_examples=50)
    def test_exact_below_soft(self, s, s_hat):
        soft = soft_pr(s, s_hat)
        exact = exact_match_pr(s, s_hat)
        assert exact.precision <= soft.micro.precision + 1e-12
        assert exact.recall <= soft.micro.recall + 1e-12

    @given(span_sets(), span_sets())
    @settings(max_examples=50)
    def test_order_invariance(self, s, s_hat):
        # up to float summation reordering (1 ulp), the span order in
        # each set must not matter
        a = soft_pr(s, s_hat)
        b = soft_pr(list(reversed(s)), list(reversed(s_hat)))
        assert a.micro.precision == pytest.approx(b.micro.precision, abs=1e-12)
        assert a.micro.recall == pytest.approx(b.micro.recall, abs=1e-12)


class TestAgainstPooledOracle:
    @given(st.lists(st.tuples(span_sets(), span_sets()), min_size=1, max_size=6),
           st.booleans())
    @settings(max_examples=150)
    def test_per_document_sums_match_pooling(self, docs, macro):
        gold = [g for g, _ in docs]
        pred = [p for _, p in docs]
        rep = soft_pr(gold, pred, macro=macro)
        micro, per_label = soft_pr_pooled_oracle(gold, pred, macro=macro)
        for got, want in [(rep.micro, micro)] + [(rep.per_label[lab], per_label[lab])
                                                for lab in LABELS]:
            assert got.precision == pytest.approx(want.precision, rel=1e-12, abs=0)
            assert got.recall == pytest.approx(want.recall, rel=1e-12, abs=0)
