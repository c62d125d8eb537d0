"""Proportional-overlap (soft) precision/recall/F1 over labelled spans.

A predicted span gets partial credit for the fraction of a gold span's
tokens it covers, provided the labels match.  Scores can be pooled over
documents (micro) or averaged per document (macro), and broken down per
label.
"""

import json
from dataclasses import dataclass, field

from .corpus import LABELS


class MetricsError(Exception):
    pass


class OverlapWithinSet(MetricsError):
    pass


@dataclass
class PRF:
    precision: float
    recall: float

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 0.0 if p + r == 0 else 2 * p * r / (p + r)


@dataclass
class EvalReport:
    micro: PRF
    per_label: dict
    n_gold: int
    n_pred: int

    def to_json_obj(self):
        return {
            "micro": {
                "P": self.micro.precision,
                "R": self.micro.recall,
                "F1": self.micro.f1,
            },
            "per_label": {
                lab.value: {"P": prf.precision, "R": prf.recall, "F1": prf.f1}
                for lab, prf in self.per_label.items()
            },
            "n_gold": self.n_gold,
            "n_pred": self.n_pred,
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), indent=2)

    def to_table(self):
        lines = [f"{'label':<8}{'P':>9}{'R':>9}{'F1':>9}"]
        for lab, prf in self.per_label.items():
            lines.append(
                f"{lab.value:<8}{prf.precision:>9.4f}{prf.recall:>9.4f}{prf.f1:>9.4f}"
            )
        m = self.micro
        lines.append(f"{'micro':<8}{m.precision:>9.4f}{m.recall:>9.4f}{m.f1:>9.4f}")
        return "\n".join(lines)


def _normalize(gold_sets, pred_sets):
    """Accept a single (gold, pred) span-list pair or parallel lists of
    per-document span lists."""
    flat = any(
        seq and not isinstance(seq[0], list) for seq in (gold_sets, pred_sets)
    )
    if flat or (not gold_sets and not pred_sets):
        return [list(gold_sets)], [list(pred_sets)]
    return gold_sets, pred_sets


def span_coverage(s, s_prime):
    """How well s' is covered by s: shared-token fraction of s', or 0 on
    label mismatch."""
    if s.label != s_prime.label:
        return 0.0
    inter = min(s.end_token, s_prime.end_token) - max(s.start_token, s_prime.start_token)
    if inter <= 0:
        return 0.0
    return inter / (s_prime.end_token - s_prime.start_token)


def _check_disjoint(spans):
    ordered = sorted(spans, key=lambda s: s.start_token)
    for a, b in zip(ordered, ordered[1:]):
        if b.start_token < a.end_token:
            raise OverlapWithinSet(f"{a} overlaps {b}")


def span_set_coverage(spans, spans_prime):
    _check_disjoint(spans)
    _check_disjoint(spans_prime)
    return sum(span_coverage(s, sp) for s in spans for sp in spans_prime)


def _label_coverages(gold, pred):
    """One document's coverage sums per label: label -> (coverage of the
    predictions by gold, coverage of gold by the predictions, #pred,
    #gold).  Spans of different labels cover each other 0."""
    by_label = {}
    for sp in gold:
        by_label.setdefault(sp.label, ([], []))[0].append(sp)
    for sp in pred:
        by_label.setdefault(sp.label, ([], []))[1].append(sp)
    return {
        lab: (
            sum(span_coverage(s, sp) for s in g for sp in p),
            sum(span_coverage(sp, s) for sp in p for s in g),
            len(p),
            len(g),
        )
        for lab, (g, p) in by_label.items()
    }


def _total(docs, labels=None):
    """(coverage of pred, coverage of gold, #pred, #gold) summed over
    documents and over ``labels`` (all when None)."""
    cov_p = cov_g = 0.0
    n_p = n_g = 0
    for doc in docs:
        for lab in doc if labels is None else labels:
            cp, cg, npred, ngold = doc.get(lab, (0.0, 0.0, 0, 0))
            cov_p, cov_g, n_p, n_g = cov_p + cp, cov_g + cg, n_p + npred, n_g + ngold
    return cov_p, cov_g, n_p, n_g


def _prf(cov_p, cov_g, n_p, n_g):
    # Empty-set conventions: precision is vacuously 1 with no predictions,
    # recall vacuously 1 with no gold.
    return PRF(1.0 if n_p == 0 else cov_p / n_p, 1.0 if n_g == 0 else cov_g / n_g)


def soft_pr(gold_sets, pred_sets, macro=False):
    """Evaluate predicted span sets against gold, one pair per document.

    Accepts either a single pair of span lists or parallel lists of
    per-document span lists.  Micro scores pool spans across documents;
    macro averages per-document P/R.  Spans of different documents never
    overlap, so the pooled coverages are sums of per-document ones.
    """
    gold_sets, pred_sets = _normalize(gold_sets, pred_sets)
    if len(gold_sets) != len(pred_sets):
        raise MetricsError("gold and predicted lists must be parallel")
    for g, p in zip(gold_sets, pred_sets):
        _check_disjoint(g)
        _check_disjoint(p)
    docs = [_label_coverages(g, p) for g, p in zip(gold_sets, pred_sets)]

    def score(labels):
        if not macro:
            return _prf(*_total(docs, labels))
        prs = [_prf(*_total([doc], labels)) for doc in docs]
        return PRF(
            sum(x.precision for x in prs) / len(prs),
            sum(x.recall for x in prs) / len(prs),
        )

    micro = score(None)
    per_label = {lab: score([lab]) for lab in LABELS}
    n_gold = sum(len(g) for g in gold_sets)
    n_pred = sum(len(p) for p in pred_sets)
    return EvalReport(micro, per_label, n_gold, n_pred)


def exact_match_pr(gold_sets, pred_sets):
    """Exact span match P/R (a lower bound on the soft scores)."""
    gold_sets, pred_sets = _normalize(gold_sets, pred_sets)
    tp = sum(
        len(set(map(_key, g)) & set(map(_key, p)))
        for g, p in zip(gold_sets, pred_sets)
    )
    n_pred = sum(len(p) for p in pred_sets)
    n_gold = sum(len(g) for g in gold_sets)
    p = 1.0 if n_pred == 0 else tp / n_pred
    r = 1.0 if n_gold == 0 else tp / n_gold
    return PRF(p, r)


def _key(s):
    return (s.start_token, s.end_token, s.label)
