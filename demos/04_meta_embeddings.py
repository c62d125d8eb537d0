"""Embedding streams and meta-embedding fusion: subword hashing, the
character biLSTM, and combining planted contextual streams by concat,
DME, and CDME — including the ablation showing fusion beats any single
stream.

Run from the repository root:  python3 demos/04_meta_embeddings.py
(the ablation at the end takes a few minutes)
"""

import numpy as np

from segtool import synth
from segtool.corpus import split_corpus
from segtool.embeddings import CharEncoder, MetaCombiner, SubwordHashEmbedder
from segtool.trainer import TrainConfig, evaluate_model, train


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


rng = np.random.default_rng(0)

# -- subword hashing handles unseen tokens compositionally ------------------

sub = SubwordHashEmbedder(rng, dim=64, n_buckets=2**16)
pairs = [
    ("/etc/network/interfaces", "/etc/network/if-up.d"),
    ("/etc/network/interfaces", "randomly"),
]
print("subword n-gram similarity:")
for a, b in pairs:
    va, vb = sub.embed_sequence([a, b])[0]
    print(f"  cos({a!r}, {b!r}) = {cosine(va, vb):.3f}")

# -- character biLSTM encodes spelling --------------------------------------

chars = "abcdefghijklmnopqrstuvwxyz0123456789/.-_"
char_enc = CharEncoder(rng, chars)
v = char_enc.forward(["wlan0"])[0][0]
print(f"\nchar encoder output dim: {v.shape[0]} "
      "(final forward state ++ final backward state)")

# -- fusing contextual streams ---------------------------------------------

docs = synth.gen_corpus(n_docs=150, seed=1, shared_vocab=True)
streams = synth.gen_streams(docs, seed=1)
print(f"\nplanted streams: {streams.n} per document, dims {streams.dims}")

comb = MetaCombiner(np.random.default_rng(0), "cdme", streams.dims, d_prime=16)
arrs = [a.astype(np.float64) for a in streams.for_doc(docs[0])]
out, alphas, _ = comb.forward(arrs)
print(f"CDME output shape {out.shape}; alpha column sums "
      f"(first 5 tokens): {np.round(alphas.sum(axis=0)[:5], 6).tolist()}")

# -- the Table-4-style ablation ---------------------------------------------
# each stream is informative only for two of the six labels, so a single
# stream cannot solve the task while any fusion can

tr, va, te = split_corpus(docs, seed=0)


def run(label, **overrides):
    cfg = TrainConfig(hidden=32, use_lookup=False, d_prime=16, epochs=12,
                      dropout=0.0, seed=0, **overrides)
    model, _ = train(tr, va, streams, cfg)
    f1 = evaluate_model(model, te, streams).micro.f1
    print(f"  {label:<12} micro soft-F1 {f1:.3f}")
    return f1


print("\nablation (held-out micro soft-F1):")
for i in range(streams.n):
    run(f"single-{i}", combiner_mode="dme", stream_indices=(i,))
run("concat", combiner_mode="concat")
run("cdme", combiner_mode="cdme")
