"""Acceptance suite: one criterion per test, one pass/fail line each.

Criterion 8 depends on the released dataset; point SEGTOOL_DATASET at its
corpus JSONL to enable it, otherwise it is skipped.
"""

import os
import time

import numpy as np
import pytest

from segtool import crf as crf_mod
from segtool import synth
from segtool.corpus import (
    AnnotatedDocument,
    SegmentLabel,
    SegmentSpan,
    agreement,
    corpus_stats,
    kappa_from_confusion,
    load_corpus,
    split_corpus,
    tokenize,
)
from segtool.evalmetrics import soft_pr
from segtool.retrieval import (
    AnswerDoc,
    BoostProfile,
    bm25,
    build_index,
    estimate_boosts,
    fielded_search,
    mrr,
    unfielded_search,
)
from segtool.trainer import TrainConfig, evaluate_model, gradcheck, train

N = 13


# one line per criterion; conftest prints these in the terminal summary
RESULT_LINES = []


def _report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULT_LINES.append(line)
    print(line)
    assert ok, detail


def _score_tensor(e, p):
    """Total path score for every tag path, shape (13,)*s.  Built by
    folding the per-step (prev, next) score matrices into two half
    tensors joined on a shared middle axis, so only the final broadcast
    add touches all 13^s entries."""
    s = e.shape[0]
    v = p.start + e[0]
    if s == 1:
        return v + p.stop
    mats = [p.transitions + e[j][None, :] for j in range(1, s)]
    mats[-1] = mats[-1] + p.stop[None, :]

    def fold(init, ms):
        out = init
        for m in ms:
            out = out[..., :, None] + m
        return out

    mid = (s - 1) // 2
    left = fold(v, mats[:mid])  # axes t_1 .. t_{mid+1}
    right = fold(mats[mid][:, :], mats[mid + 1 :]) if mid < len(mats) else None
    if right is None:
        return left
    # join on the shared axis t_{mid+1} (last of left, first of right)
    return (
        left.reshape(left.shape + (1,) * (right.ndim - 1))
        + right.reshape((1,) * (left.ndim - 1) + right.shape)
    )


def _brute_viterbi(total):
    """Argmax path with the decoder's tie-break (prefer the lower tag
    index at every backpointer = the reversed-lexicographic minimum
    among maximal paths)."""
    m = total.max()
    cands = np.argwhere(total == m)
    best = min(tuple(reversed(c)) for c in cands)
    path = list(reversed(best))
    return [int(t) for t in path], float(m)


def _brute_logsumexp(total):
    m = total.max()
    return float(m + np.log(np.exp(total - m).sum()))


def test_criterion_1_crf_oracles():
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst_rel = 0.0
    for _ in range(200):
        s = int(rng.integers(1, 7))
        e = rng.standard_normal((s, N))
        p = crf_mod.CrfParams.random(rng)
        total = _score_tensor(e, p)

        lz = crf_mod.log_partition(e, p)
        lz_brute = _brute_logsumexp(total)
        worst_rel = max(worst_rel, abs(lz - lz_brute) / max(1.0, abs(lz_brute)))
        assert worst_rel < 1e-9

        path, score = crf_mod.viterbi(e, p)
        brute_path, brute_score = _brute_viterbi(total)
        assert path == brute_path
        assert score == pytest.approx(brute_score, rel=1e-9)
    elapsed = time.time() - t0
    _report(
        1,
        elapsed < 10.0,
        f"200 instances, logZ rel err {worst_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_suite():
    t0 = time.time()
    report = gradcheck("all", trials=20, tolerance=1e-4, seed=0)
    elapsed = time.time() - t0
    worst = max(e.max_rel_err for e in report.entries)
    probes_ok = all(e.probes >= 20 for e in report.entries)
    _report(
        2,
        report.passed and probes_ok and elapsed < 60.0,
        f"{len(report.entries)} components, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_metric_hand_cases():
    worked = soft_pr(
        [[SegmentSpan(0, 10, SegmentLabel.ES)]],
        [[SegmentSpan(0, 5, SegmentLabel.ES), SegmentSpan(5, 10, SegmentLabel.CO)]],
    )
    exact_half = (
        worked.micro.precision == 0.5
        and worked.micro.recall == 0.5
        and worked.micro.f1 == 0.5
    )
    ident = soft_pr([[SegmentSpan(2, 7, SegmentLabel.CC)]],
                    [[SegmentSpan(2, 7, SegmentLabel.CC)]])
    identity_ok = ident.micro.f1 == 1.0

    rng = np.random.default_rng(3)
    labels = list(SegmentLabel)

    def random_set():
        spans, pos = [], 0
        while pos < 18 and rng.random() < 0.6:
            start = int(rng.integers(pos, 19))
            end = int(rng.integers(start + 1, 21))
            spans.append(SegmentSpan(start, end, labels[int(rng.integers(6))]))
            pos = end
        return spans

    symmetric = True
    for _ in range(100):
        a, b = random_set(), random_set()
        fwd, rev = soft_pr([a], [b]), soft_pr([b], [a])
        symmetric &= abs(fwd.micro.precision - rev.micro.recall) < 1e-12
        symmetric &= abs(fwd.micro.recall - rev.micro.precision) < 1e-12
    _report(
        3,
        exact_half and identity_ok and symmetric,
        "worked example 0.5, identity 1.0, symmetry on 100 pairs",
    )


def test_criterion_4_learnability():
    t0 = time.time()
    docs = synth.gen_corpus(n_docs=250, seed=0)
    stats = corpus_stats(docs)
    avg_ok = 50 <= float(stats.avg_words) <= 70
    tr, va, te = split_corpus(docs, seed=0)
    cfg = TrainConfig(hidden=32, lookup_dim=32, epochs=30, seed=0)
    model, logs = train(tr, va, None, cfg)
    f1 = evaluate_model(model, te).micro.f1
    elapsed = time.time() - t0
    _report(
        4,
        avg_ok and f1 >= 0.90 and elapsed < 300.0,
        f"avg words {float(stats.avg_words):.1f}, held-out F1 {f1:.3f} "
        f"after {len(logs)} epochs, {elapsed:.0f}s",
    )


def test_criterion_5_meta_embedding_ablation():
    docs = synth.gen_corpus(n_docs=150, seed=1, shared_vocab=True)
    streams = synth.gen_streams(docs, seed=1)
    tr, va, te = split_corpus(docs, seed=0)

    def run(**overrides):
        cfg = TrainConfig(
            hidden=32, use_lookup=False, d_prime=16, epochs=12, seed=0,
            dropout=0.0, **overrides,
        )
        model, _ = train(tr, va, streams, cfg)
        return model, evaluate_model(model, te, streams).micro.f1

    singles = [
        run(combiner_mode="dme", stream_indices=(i,))[1] for i in range(3)
    ]
    best_single = max(singles)
    _, concat_f1 = run(combiner_mode="concat")
    cdme_model, cdme_f1 = run(combiner_mode="cdme")

    # CDME attention weights must form a distribution on every token
    sums_ok = True
    for doc in te[:5]:
        arrs = cdme_model._doc_streams(doc, streams)
        _, alphas, _ = cdme_model.combiner.forward(arrs)
        sums_ok &= bool(np.all(np.abs(alphas.sum(axis=0) - 1.0) < 1e-6))

    margin_ok = (concat_f1 >= best_single + 0.03) and (cdme_f1 >= best_single + 0.03)
    _report(
        5,
        margin_ok and sums_ok,
        f"singles {['%.3f' % f for f in singles]}, concat {concat_f1:.3f}, "
        f"cdme {cdme_f1:.3f}, alpha sums ok {sums_ok}",
    )


def test_criterion_6_retrieval():
    questions, answers, qrels = synth.gen_retrieval(seed=0)
    index = build_index(answers)
    gold_texts = {a.id: a.text for a in answers}
    gold = {q.id: gold_texts[qrels[q.id]] for q in questions}
    boosts = estimate_boosts(questions, gold)
    m_unfielded = mrr(index, questions, qrels)
    m_boosted = mrr(index, questions, qrels, boosts=boosts)
    directional = m_boosted >= m_unfielded
    bounded = 0.0 <= m_unfielded <= 1.0 and 0.0 <= m_boosted <= 1.0

    neutral = BoostProfile()
    equivalent = all(
        [d for d, _ in fielded_search(index, q, neutral, k=20)]
        == [d for d, _ in unfielded_search(index, q, k=20)]
        for q in questions
    )

    # hand-computed three-document BM25 fixture
    fixture = build_index(
        [
            AnswerDoc("a1", "restart the wireless router"),
            AnswerDoc("a2", "run iwconfig now"),
            AnswerDoc("a3", "kernel panic log"),
        ]
    )
    import math

    idf = math.log(1.0 + (3 - 1 + 0.5) / (1 + 0.5))
    norm = 1.2 * (1 - 0.75 + 0.75 * 3 / (10 / 3))
    expected = idf * 2.2 / (1 + norm)
    hand_ok = abs(bm25(fixture, ["iwconfig"], "a2") - expected) < 1e-9

    _report(
        6,
        directional and bounded and equivalent and hand_ok,
        f"mrr unfielded {m_unfielded:.3f} boosted {m_boosted:.3f}, "
        f"neutral-boost equivalence {equivalent}, hand fixture {hand_ok}",
    )


def test_criterion_7_agreement():
    confusion = np.zeros((7, 7))
    confusion[0, 0] = confusion[1, 1] = 45
    confusion[0, 1] = confusion[1, 0] = 5
    fixture_ok = abs(kappa_from_confusion(confusion) - 0.8) < 1e-12

    rng = np.random.default_rng(7)
    labels = list(SegmentLabel)
    self_ok = True
    for k in range(20):
        spans, pos = [], 0
        while pos < 15 and rng.random() < 0.7:
            start = int(rng.integers(pos, 16))
            end = int(rng.integers(start + 1, 18))
            spans.append(SegmentSpan(start, end, labels[int(rng.integers(6))]))
            pos = end
        text = " ".join(f"w{i}" for i in range(18))
        docs = [AnnotatedDocument(f"d{k}", text, tokenize(text), spans)]
        self_ok &= agreement(docs, docs).kappa == 1.0
    _report(7, fixture_ok and self_ok, "kappa fixture 0.8, self-agreement 1.0")


def test_criterion_8_released_dataset():
    path = os.environ.get("SEGTOOL_DATASET")
    if not path or not os.path.exists(path):
        pytest.skip("released dataset not available (set SEGTOOL_DATASET)")
    docs = load_corpus(path)
    stats = corpus_stats(docs)
    tr, va, te = split_corpus(docs, seed=0)
    sizes_ok = (len(docs), len(tr), len(va), len(te)) == (1317, 1053, 131, 133)
    cfg = TrainConfig(hidden=128, use_subword=True, use_char=True, seed=0)
    model, _ = train(tr, va, None, cfg)
    f1 = evaluate_model(model, te).micro.f1
    _report(
        8,
        sizes_ok,
        f"questions {len(docs)}, splits {len(tr)}/{len(va)}/{len(te)}, "
        f"micro soft-F1 {f1:.4f} (reference no-LM 75.04; tokenizer and "
        f"optimizer choices differ)",
    )
