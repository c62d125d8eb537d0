"""Train the GRU-CRF segmenter end to end on a synthetic corpus, then
evaluate with the soft (proportional-overlap) metrics and save/reload
the checkpoint.

Run from the repository root:  python3 demos/03_train_segmenter.py
(takes a minute or two on a laptop CPU)
"""

import tempfile
from pathlib import Path

from segtool import synth
from segtool.corpus import split_corpus
from segtool.evalmetrics import soft_pr
from segtool.trainer import SegModel, TrainConfig, evaluate_model, predict, train

docs = synth.gen_corpus(n_docs=250, seed=0)
tr, va, te = split_corpus(docs, seed=0)
print(f"corpus: {len(tr)} train / {len(va)} val / {len(te)} test")

cfg = TrainConfig(hidden=32, lookup_dim=32, epochs=30, seed=0)
print(f"config fingerprint: {cfg.fingerprint()}")

model, logs = train(tr, va, None, cfg)
for log in logs:
    print(log.line())

report = evaluate_model(model, te)
print("\nheld-out soft metrics:")
print(report.to_table())

# -- inspect one prediction -------------------------------------------------

doc = te[0]
print(f"\ndocument {doc.id}:")
print("  gold:", [(s.start_token, s.end_token, s.label.value) for s in doc.spans])
pred = predict(model, doc)
print("  pred:", [(s.start_token, s.end_token, s.label.value) for s in pred])
print("  doc soft-F1:", f"{soft_pr([doc.spans], [pred]).micro.f1:.3f}")

# -- checkpoint round trip --------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.npz"
    model.save(path)
    reloaded = SegModel.load(path)
    same = all(
        v.tobytes() == reloaded.params[k].tobytes()
        for k, v in model.params.items()
    )
    print(f"\ncheckpoint round trip bit-identical: {same}")
