import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from segtool.corpus import BIO_TAGS, N_TAGS, TAG_INDEX
from segtool.crf import (
    CrfParams,
    LengthMismatch,
    bio_transition_mask,
    log_partition,
    nll_and_grads,
    path_score,
    tags_to_indices,
    viterbi,
)


def score_oracle(e, p, path, start_mask=None, trans_mask=None):
    """Independent left-to-right summation of one path's score."""
    total = p.start[path[0]] + e[0, path[0]]
    if start_mask is not None:
        total += start_mask[path[0]]
    for j in range(1, len(path)):
        total += p.transitions[path[j - 1], path[j]] + e[j, path[j]]
        if trans_mask is not None:
            total += trans_mask[path[j - 1], path[j]]
    return total + p.stop[path[-1]]


def nll_and_grads_oracle(e, p, idx):
    """Step-by-step forward-backward with scipy's logsumexp: the gold
    score, the alphas, the betas and the pairwise marginals are all
    accumulated one position at a time."""
    s = e.shape[0]
    alphas = np.empty_like(e)
    alphas[0] = p.start + e[0]
    for j in range(1, s):
        alphas[j] = logsumexp(alphas[j - 1][:, None] + p.transitions, axis=0) + e[j]
    betas = np.empty_like(e)
    betas[-1] = p.stop
    for j in range(s - 2, -1, -1):
        betas[j] = logsumexp(p.transitions + (e[j + 1] + betas[j + 1])[None, :], axis=1)
    log_z = logsumexp(alphas[-1] + p.stop)
    gold = p.start[idx[0]] + e[0, idx[0]]
    for j in range(1, s):
        gold = gold + p.transitions[idx[j - 1], idx[j]] + e[j, idx[j]]
    loss = log_z - (gold + p.stop[idx[-1]])

    unary = np.exp(alphas + betas - log_z)
    d_e = unary.copy()
    d_e[np.arange(s), idx] -= 1.0
    d_start = unary[0].copy()
    d_start[idx[0]] -= 1.0
    d_stop = unary[-1].copy()
    d_stop[idx[-1]] -= 1.0
    d_trans = np.zeros_like(p.transitions)
    for j in range(s - 1):
        d_trans += np.exp(
            alphas[j][:, None] + p.transitions + (e[j + 1] + betas[j + 1])[None, :] - log_z
        )
        d_trans[idx[j], idx[j + 1]] -= 1.0
    return float(loss), d_e, CrfParams(d_trans, d_start, d_stop)


def enumerate_paths(s, n=N_TAGS):
    return itertools.product(range(n), repeat=s)


def brute_log_partition(e, p):
    scores = [score_oracle(e, p, path) for path in enumerate_paths(e.shape[0])]
    m = max(scores)
    return m + math.log(sum(math.exp(v - m) for v in scores))


def brute_viterbi(e, p, constrain=False):
    """Exhaustive argmax with the backpointer tie-break: among maximal
    paths, minimize the reversed tag tuple."""
    sm, tm = bio_transition_mask() if constrain else (None, None)
    best, best_score = None, -np.inf
    for path in enumerate_paths(e.shape[0]):
        sc = score_oracle(e, p, path, sm, tm)
        if sc > best_score or (
            sc == best_score and tuple(reversed(path)) < tuple(reversed(best))
        ):
            best, best_score = path, sc
    return list(best), best_score


class TestPathScore:
    def test_single_token_zero_params(self):
        e = np.arange(N_TAGS, dtype=float).reshape(1, -1)
        p = CrfParams.zeros()
        for t in range(N_TAGS):
            assert path_score(e, p, [t]) == e[0, t]

    def test_all_zero(self):
        e = np.zeros((4, N_TAGS))
        p = CrfParams.zeros()
        assert path_score(e, p, [3, 1, 0, 12]) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((5, N_TAGS))
        p = CrfParams.random(rng)
        path = [2, 0, 11, 5, 5]
        assert path_score(e, p, path) == pytest.approx(
            score_oracle(e, p, path), rel=1e-12
        )

    def test_tag_names_accepted(self):
        e = np.zeros((2, N_TAGS))
        p = CrfParams.zeros()
        assert path_score(e, p, ["B-ES", "I-ES"]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            path_score(np.zeros((3, N_TAGS)), CrfParams.zeros(), [0, 1])


class TestLogPartition:
    def test_single_token_zero(self):
        e = np.zeros((1, N_TAGS))
        assert log_partition(e, CrfParams.zeros()) == pytest.approx(math.log(13))

    def test_single_token_row(self):
        rng = np.random.default_rng(1)
        e = rng.standard_normal((1, N_TAGS))
        assert log_partition(e, CrfParams.zeros()) == pytest.approx(
            float(logsumexp(e[0]))
        )

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_enumeration(self, s):
        rng = np.random.default_rng(s)
        e = rng.standard_normal((s, N_TAGS))
        p = CrfParams.random(rng)
        assert log_partition(e, p) == pytest.approx(
            brute_log_partition(e, p), rel=1e-9
        )

    def test_path_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        e = rng.standard_normal((3, N_TAGS))
        p = CrfParams.random(rng)
        log_z = log_partition(e, p)
        total = sum(
            math.exp(score_oracle(e, p, path) - log_z)
            for path in enumerate_paths(3)
        )
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_emission_shift(self):
        rng = np.random.default_rng(8)
        e = rng.standard_normal((4, N_TAGS))
        p = CrfParams.random(rng)
        c = 0.7
        shifted = log_partition(e + c, p)
        assert shifted == pytest.approx(log_partition(e, p) + 4 * c, rel=1e-9)


class TestNll:
    def test_uniform_single_token(self):
        e = np.zeros((1, N_TAGS))
        loss, d_e, _ = nll_and_grads(e, CrfParams.zeros(), [4])
        assert loss == pytest.approx(math.log(13))
        assert d_e[0, 4] == pytest.approx(1 / 13 - 1)
        assert d_e[0, 0] == pytest.approx(1 / 13)

    def test_loss_decreases_toward_dominant_gold(self):
        p = CrfParams.zeros()
        losses = []
        for boost in (0.0, 2.0, 5.0, 20.0):
            e = np.zeros((3, N_TAGS))
            for j, t in enumerate([1, 2, 0]):
                e[j, t] = boost
            losses.append(nll_and_grads(e, p, [1, 2, 0])[0])
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6

    def test_nll_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = int(rng.integers(1, 5))
            e = rng.standard_normal((s, N_TAGS))
            p = CrfParams.random(rng)
            gold = [int(rng.integers(N_TAGS)) for _ in range(s)]
            assert nll_and_grads(e, p, gold)[0] >= 0.0

    @pytest.mark.parametrize("trial", range(5))
    def test_finite_difference(self, trial):
        rng = np.random.default_rng(100 + trial)
        s = int(rng.integers(1, 6))
        e = rng.standard_normal((s, N_TAGS))
        p = CrfParams.random(rng)
        gold = [int(rng.integers(N_TAGS)) for _ in range(s)]
        _, d_e, g = nll_and_grads(e, p, gold)
        step = 1e-3
        arrays = [
            (e, d_e),
            (p.transitions, g.transitions),
            (p.start, g.start),
            (p.stop, g.stop),
        ]
        for arr, grad in arrays:
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for i in rng.choice(flat.size, size=5, replace=False):
                old = flat[i]
                flat[i] = old + step
                lp = nll_and_grads(e, p, gold)[0]
                flat[i] = old - step
                lm = nll_and_grads(e, p, gold)[0]
                flat[i] = old
                fd = (lp - lm) / (2 * step)
                assert abs(fd - gflat[i]) / max(1.0, abs(fd), abs(gflat[i])) < 1e-4


    @pytest.mark.parametrize("s", [1, 2, 80, 900])
    def test_matches_stepwise_oracle(self, s):
        rng = np.random.default_rng(300 + s)
        e = rng.standard_normal((s, N_TAGS)) * 5
        p = CrfParams.random(rng)
        gold = [int(t) for t in rng.integers(N_TAGS, size=s)]
        loss, d_e, g = nll_and_grads(e, p, gold)
        loss_ref, d_e_ref, g_ref = nll_and_grads_oracle(e, p, gold)
        assert loss == pytest.approx(loss_ref, rel=1e-10)
        np.testing.assert_allclose(d_e, d_e_ref, rtol=1e-10)
        for name in ("transitions", "start", "stop"):
            np.testing.assert_allclose(
                getattr(g, name), getattr(g_ref, name), rtol=1e-10, err_msg=name
            )

    def test_masked_transitions_stay_finite(self):
        # -inf transitions (the BIO mask, plus a tag that can be neither
        # entered nor left) must not turn the recursions into nan or warn
        rng = np.random.default_rng(9)
        e = rng.standard_normal((6, N_TAGS))
        start_mask, trans_mask = bio_transition_mask()
        p = CrfParams(trans_mask.copy(), start_mask.copy(), np.zeros(N_TAGS))
        dead = TAG_INDEX["B-SS"]
        p.transitions[:, dead] = p.transitions[dead, :] = p.start[dead] = -np.inf
        gold = [TAG_INDEX[t] for t in ["O", "B-CC", "I-CC", "O", "B-PU", "O"]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, d_e, g = nll_and_grads(e, p, gold)
        loss_ref, d_e_ref, _ = nll_and_grads_oracle(e, p, gold)
        assert np.isfinite(loss) and loss == pytest.approx(loss_ref, rel=1e-10)
        np.testing.assert_allclose(d_e, d_e_ref, rtol=1e-10)
        assert np.all(np.isfinite(g.transitions))
        assert np.all(d_e[:, dead] == 0.0)

    def test_numpy_integer_tags(self):
        rng = np.random.default_rng(11)
        e = rng.standard_normal((7, N_TAGS))
        p = CrfParams.random(rng)
        tags = list(rng.integers(N_TAGS, size=7))
        assert tags_to_indices(tags) == [int(t) for t in tags]
        loss, d_e, _ = nll_and_grads(e, p, tags)
        loss_int, d_e_int, _ = nll_and_grads(e, p, [int(t) for t in tags])
        assert loss == loss_int
        assert np.array_equal(d_e, d_e_int)
        assert path_score(e, p, tags) == path_score(e, p, [int(t) for t in tags])


class TestBatchedNll:
    def test_matches_per_document_oracle(self):
        # lengths 1, 80 and 2 zero-padded into one (3, 80, n) batch; the
        # padded emissions and tags hold junk that must not matter
        rng = np.random.default_rng(400)
        lengths = np.array([1, 80, 2])
        e = rng.standard_normal((3, 80, N_TAGS)) * 5
        gold = rng.integers(N_TAGS, size=(3, 80))
        p = CrfParams.random(rng)
        losses, d_e, g = nll_and_grads(e, p, gold, lengths)
        assert losses.shape == (3,)
        g_ref = CrfParams.zeros()
        for b, n in enumerate(lengths):
            loss_ref, d_e_ref, g_b = nll_and_grads_oracle(e[b, :n], p, gold[b, :n])
            assert losses[b] == pytest.approx(loss_ref, rel=1e-10)
            np.testing.assert_allclose(d_e[b, :n], d_e_ref, rtol=1e-10)
            assert np.all(d_e[b, n:] == 0.0)
            for name in ("transitions", "start", "stop"):
                getattr(g_ref, name)[...] += getattr(g_b, name)
        for name in ("transitions", "start", "stop"):
            np.testing.assert_allclose(
                getattr(g, name), getattr(g_ref, name), rtol=1e-10, err_msg=name
            )

    def test_full_lengths_equal_no_lengths(self):
        rng = np.random.default_rng(401)
        e = rng.standard_normal((2, 6, N_TAGS))
        gold = rng.integers(N_TAGS, size=(2, 6))
        p = CrfParams.random(rng)
        a = nll_and_grads(e, p, gold)
        b = nll_and_grads(e, p, gold, [6, 6])
        np.testing.assert_allclose(a[0], b[0], rtol=1e-12)
        np.testing.assert_allclose(a[1], b[1], rtol=1e-12)

    @pytest.mark.parametrize("lengths", [[0, 3], [3, 4], [3]])
    def test_bad_lengths(self, lengths):
        e = np.zeros((2, 3, N_TAGS))
        with pytest.raises(LengthMismatch):
            nll_and_grads(e, CrfParams.zeros(), np.zeros((2, 3), dtype=int), lengths)


class TestViterbi:
    def test_dominant_emissions(self):
        e = np.zeros((2, N_TAGS))
        e[0, TAG_INDEX["B-ES"]] = 10.0
        e[1, TAG_INDEX["I-ES"]] = 10.0
        tags, _ = viterbi(e, CrfParams.zeros())
        assert tags == ["B-ES", "I-ES"]

    def test_zero_scores_constrained_all_o(self):
        e = np.zeros((5, N_TAGS))
        tags, score = viterbi(e, CrfParams.zeros(), constrain_bio=True)
        assert tags == ["O"] * 5
        assert score == 0.0

    @pytest.mark.parametrize("constrain", [False, True])
    @pytest.mark.parametrize("trial", range(6))
    def test_matches_enumeration(self, trial, constrain):
        rng = np.random.default_rng(200 + trial)
        s = int(rng.integers(1, 5))
        e = rng.standard_normal((s, N_TAGS))
        p = CrfParams.random(rng)
        tags, score = viterbi(e, p, constrain_bio=constrain)
        path = [TAG_INDEX[t] for t in tags]
        brute_path, brute_score = brute_viterbi(e, p, constrain)
        assert path == brute_path
        assert score == pytest.approx(brute_score, rel=1e-12)

    def test_constrained_never_stray_i(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s = int(rng.integers(1, 10))
            e = rng.standard_normal((s, N_TAGS)) * 3
            p = CrfParams.random(rng)
            tags, _ = viterbi(e, p, constrain_bio=True)
            prev = "O"
            for t in tags:
                if t.startswith("I-"):
                    assert prev in (f"B-{t[2:]}", t)
                prev = t

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        e = rng.standard_normal((5, N_TAGS))
        p = CrfParams.random(rng)
        tags_a, _ = viterbi(e, p)
        tags_b, _ = viterbi(e + 3.25, p)
        assert tags_a == tags_b
