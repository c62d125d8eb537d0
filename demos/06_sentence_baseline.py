"""Sentence-classification baseline: split a question into newline/
punctuation units, pool per-token vectors per unit, classify each unit
with multinomial logistic regression, and merge into spans.

Run from the repository root:  python3 demos/06_sentence_baseline.py
"""

from segtool import synth
from segtool.baselines import run_baseline, sentence_segment, unit_labels
from segtool.corpus import split_corpus
from segtool.evalmetrics import soft_pr

docs = synth.gen_corpus(n_docs=150, seed=1, shared_vocab=True)
# the baseline reads each token's streams concatenated, as the tagger's
# concat combiner does
streams = synth.gen_streams(docs, seed=1)

doc = docs[0]
units = sentence_segment(doc)
print(f"document {doc.id} has {len(units)} sentence units:")
for u, y in zip(units[:5], unit_labels(doc, units)):
    toks = " ".join(t.text for t in doc.tokens[u.start : u.end])
    print(f"  [{u.start:2}:{u.end:2}] class {y} ({u.source.value}): {toks[:60]}")

tr, va, te = split_corpus(docs, seed=0)
for context in (0, 1):
    preds = run_baseline(tr + va, te, streams, context=context)
    rep = soft_pr([d.spans for d in te], preds)
    name = "unit mean" if context == 0 else "with neighbour context"
    print(f"\nbaseline ({name}): micro soft-F1 {rep.micro.f1:.3f}")
    print(rep.to_table())
