"""Output checks, written independently of the code they check.

Each check returns a list of failure messages; an empty list means the
output is correct.
"""

import math

from segtool import retrieval


def spans_valid(spans, n_tokens):
    """Predicted spans lie within the document and do not overlap."""
    out = []
    prev_end = 0
    for s in sorted(spans, key=lambda s: s.start_token):
        if not 0 <= s.start_token < s.end_token <= n_tokens:
            out.append(f"span {s} outside 0..{n_tokens}")
        if s.start_token < prev_end:
            out.append(f"span {s} overlaps its predecessor")
        prev_end = max(prev_end, s.end_token)
    return out


def reference_pr(gold_sets, pred_sets):
    """Micro soft P/R as sums of per-document coverages.  Spans of
    different documents never overlap, so pooling adds nothing."""

    def covered(covering, covered_spans):
        total = 0.0
        for c in covered_spans:
            for s in covering:
                if s.label == c.label:
                    inter = min(s.end_token, c.end_token) - max(s.start_token, c.start_token)
                    if inter > 0:
                        total += inter / (c.end_token - c.start_token)
        return total

    p_num = sum(covered(g, p) for g, p in zip(gold_sets, pred_sets))
    r_num = sum(covered(p, g) for g, p in zip(gold_sets, pred_sets))
    n_pred = sum(len(p) for p in pred_sets)
    n_gold = sum(len(g) for g in gold_sets)
    return (p_num / n_pred if n_pred else 1.0), (r_num / n_gold if n_gold else 1.0)


def soft_pr_matches(report, gold_sets, pred_sets, tol=1e-12):
    p, r = reference_pr(gold_sets, pred_sets)
    out = []
    if abs(report.micro.precision - p) > tol:
        out.append(f"soft_pr precision {report.micro.precision!r} != reference {p!r}")
    if abs(report.micro.recall - r) > tol:
        out.append(f"soft_pr recall {report.micro.recall!r} != reference {r!r}")
    return out


def neutral_search_matches(index, doc, k=10, tol=1e-9):
    """Neutral-boost fielded search ranks exactly as the whole-question
    query, and its scores equal the linear-scan bm25() oracle."""
    fielded = retrieval.fielded_search(index, doc, retrieval.BoostProfile(), k=k)
    whole = retrieval.unfielded_search(index, doc, k=k)
    out = []
    if [d for d, _ in fielded] != [d for d, _ in whole]:
        out.append(f"{doc.id}: neutral fielded ranking differs from unfielded")
    terms = [t.text.lower() for t in doc.tokens]
    for doc_id, score in fielded:
        oracle = retrieval.bm25(index, terms, doc_id)
        if not math.isclose(score, oracle, rel_tol=0.0, abs_tol=tol):
            out.append(f"{doc.id}: score of {doc_id} {score!r} != bm25 {oracle!r}")
    return out


def nll_finite(logs):
    return [f"epoch {log.epoch}: train NLL {log.train_nll}" for log in logs
            if not math.isfinite(log.train_nll)]


def corpus_round_trip(saved, loaded):
    if len(saved) != len(loaded):
        return [f"corpus round trip: {len(saved)} docs saved, {len(loaded)} loaded"]
    return [f"corpus round trip changed {a.id}" for a, b in zip(saved, loaded) if a != b]


def index_round_trip(built, loaded):
    out = []
    if loaded.doc_lengths != built.doc_lengths:
        out.append("index round trip changed doc lengths")
    if loaded.postings != built.postings:
        out.append("index round trip changed postings")
    if (loaded.k1, loaded.b) != (built.k1, built.b):
        out.append("index round trip changed k1/b")
    return out

