"""Corpus walkthrough: tokenization, BIO codec, splits, statistics, and
inter-annotator agreement.

Run from the repository root:  python3 demos/01_corpus_and_agreement.py
"""

from segtool import synth
from segtool.corpus import (
    BIO_TAGS,
    AnnotatedDocument,
    SegmentLabel,
    SegmentSpan,
    agreement,
    bio_to_spans,
    corpus_stats,
    spans_to_bio,
    split_corpus,
    tokenize,
)

# -- tokenize a raw question ------------------------------------------------

text = "My wifi dies randomly.\niwconfig wlan0\nwlan0 IEEE 802.11 ESSID:off"
tokens = tokenize(text)
print("tokens with offsets:")
for t in tokens[:6]:
    print(f"  {t.text!r:14} [{t.start:2}:{t.end:2}]")

# -- annotate it with segment spans and round-trip through BIO --------------

doc = AnnotatedDocument(
    "q1",
    text,
    tokens,
    [
        SegmentSpan(4, 6, SegmentLabel.CC),  # the iwconfig command line
        SegmentSpan(6, 10, SegmentLabel.CO),  # its output
    ],
)
tags = spans_to_bio(doc)  # indices into BIO_TAGS
print("\nBIO tags:", [BIO_TAGS[t] for t in tags])
print("decoded back:", bio_to_spans(tags) == doc.spans)

# -- corpus statistics on a synthetic corpus --------------------------------

docs = synth.gen_corpus(n_docs=250, seed=0)
stats = corpus_stats(docs)
print(f"\nsynthetic corpus: {stats.question_count} questions, "
      f"avg {float(stats.avg_words):.1f} words, "
      f"avg {float(stats.avg_spans_total):.2f} spans/question")

tr, va, te = split_corpus(docs, seed=0)
print(f"80:10:10 split sizes: {len(tr)}/{len(va)}/{len(te)}")

# -- agreement between two annotators ---------------------------------------

# annotator B agrees except on one document where a CO span became ES
docs_b = [AnnotatedDocument(d.id, d.text, d.tokens, list(d.spans)) for d in docs]
first_with_co = next(
    d for d in docs_b if any(s.label == SegmentLabel.CO for s in d.spans)
)
first_with_co.spans[:] = [
    SegmentSpan(s.start_token, s.end_token,
                SegmentLabel.ES if s.label == SegmentLabel.CO else s.label)
    for s in first_with_co.spans
]
rep = agreement(docs, docs_b)
print(f"\ntoken-level Cohen's kappa after one disagreement: {rep.kappa:.4f}")
print("confusion row sums:", rep.confusion.sum(axis=1).astype(int).tolist())
