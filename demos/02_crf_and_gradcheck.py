"""Linear-chain CRF mechanics: scoring, the partition function, Viterbi
decoding with BIO constraints, and finite-difference gradient checks.

Run from the repository root:  python3 demos/02_crf_and_gradcheck.py
"""

import numpy as np

from segtool.corpus import BIO_TAGS, N_TAGS, TAG_INDEX
from segtool.crf import CrfParams, log_partition, nll_and_grads, path_score, viterbi
from segtool.trainer import gradcheck

rng = np.random.default_rng(0)

# -- a tiny emission matrix favouring one error-span reading ---------------

e = np.zeros((4, N_TAGS))
e[0, TAG_INDEX["O"]] = 2.0
e[1, TAG_INDEX["B-ES"]] = 3.0
e[2, TAG_INDEX["I-ES"]] = 3.0
e[3, TAG_INDEX["O"]] = 2.0
params = CrfParams.zeros()

# the CRF takes and returns tags as indices into BIO_TAGS; names are for display
gold = [TAG_INDEX[t] for t in ("O", "B-ES", "I-ES", "O")]
print("gold path score:  ", path_score(e, params, gold))
print("log partition:    ", log_partition(e, params))
loss, d_e, _ = nll_and_grads(e, params, gold)
print("NLL of gold path: ", loss)

path, score = viterbi(e, params, constrain_bio=True)
print("Viterbi decode:   ", [BIO_TAGS[t] for t in path], f"(score {score})")

# -- the BIO constraint in action ------------------------------------------
# put all the mass on a stray continuation tag; the constrained decoder
# refuses to start a span with I-ES

e2 = np.zeros((2, N_TAGS))
e2[0, TAG_INDEX["I-ES"]] = 5.0
e2[1, TAG_INDEX["I-ES"]] = 5.0
print("\nunconstrained:", [BIO_TAGS[t] for t in viterbi(e2, params)[0]])
print("BIO-constrained:", [BIO_TAGS[t] for t in viterbi(e2, params, constrain_bio=True)[0]])

# -- gradient verification --------------------------------------------------
# every hand-derived backward pass in the package is checked against
# central finite differences; `segtool gradcheck` exposes the same harness

print("\nfinite-difference checks (20 probes each):")
report = gradcheck("all", trials=20, seed=0)
for line in report.lines():
    print(" ", line)
print("all passed:", report.passed)
