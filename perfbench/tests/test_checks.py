"""The output checks flag wrong outputs, not only accept right ones."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

import checks  # noqa: E402
from segtool import evalmetrics, retrieval, synth  # noqa: E402
from segtool.corpus import SegmentLabel, SegmentSpan  # noqa: E402

CC, ES = SegmentLabel.CC, SegmentLabel.ES


def test_spans_valid_flags_overlap_and_range():
    assert checks.spans_valid([SegmentSpan(0, 2, CC), SegmentSpan(2, 4, ES)], 4) == []
    assert checks.spans_valid([SegmentSpan(0, 3, CC), SegmentSpan(2, 4, ES)], 4)
    assert checks.spans_valid([SegmentSpan(3, 5, CC)], 4)


def test_soft_pr_reference_agrees_and_flags_a_wrong_report():
    gold = [[SegmentSpan(0, 4, CC)], [SegmentSpan(1, 3, ES)], []]
    pred = [[SegmentSpan(0, 2, CC), SegmentSpan(2, 6, CC)], [SegmentSpan(1, 3, CC)], []]
    report = evalmetrics.soft_pr(gold, pred)
    assert checks.soft_pr_matches(report, gold, pred) == []
    report.micro = evalmetrics.PRF(report.micro.precision + 1e-9, report.micro.recall)
    assert checks.soft_pr_matches(report, gold, pred)


def test_neutral_search_check_flags_a_wrong_score(monkeypatch):
    questions, answers, _ = synth.gen_retrieval(n_questions=5, n_answers=50, seed=1)
    index = retrieval.build_index(answers)
    assert all(checks.neutral_search_matches(index, q) == [] for q in questions)
    real = retrieval.fielded_search
    monkeypatch.setattr(
        retrieval, "fielded_search",
        lambda *a, **kw: [(d, s * (1 + 1e-6)) for d, s in real(*a, **kw)],
    )
    assert checks.neutral_search_matches(index, questions[0])


def test_round_trip_checks_flag_changes():
    docs = synth.gen_corpus(3, seed=1)
    assert checks.corpus_round_trip(docs, list(docs)) == []
    assert checks.corpus_round_trip(docs, docs[:2])
    index = retrieval.build_index(synth.gen_retrieval(3, 20, seed=1)[1])
    changed = retrieval.FieldedIndex(dict(index.postings), dict(index.doc_lengths), 1.5, index.b)
    assert checks.index_round_trip(index, index) == []
    assert checks.index_round_trip(index, changed)
