import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from segtool.corpus import BIO_TAGS, N_TAGS, TAG_INDEX
from segtool.crf import (
    MAX_SPAN,
    CrfError,
    CrfParams,
    LengthMismatch,
    bio_transition_mask,
    log_partition,
    nll_and_grads,
    path_score,
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


def nll_and_grads_exact(e, p, idx, dps=30):
    """The step-by-step forward-backward in probability space, in mpmath at
    ``dps`` digits, where exponents do not underflow; the counts are
    subtracted before the one rounding to float64."""
    with mpmath.workdps(dps):

        def exp(a):
            return [[mpmath.exp(x) for x in row] for row in np.atleast_2d(a).tolist()]

        s = len(idx)
        E, T = exp(e), exp(p.transitions)
        (start,), (stop,) = exp(p.start), exp(p.stop)
        alphas = [[a * x for a, x in zip(start, E[0])]]
        for j in range(1, s):
            alphas.append([mpmath.fdot(alphas[-1], col) * x for col, x in zip(zip(*T), E[j])])
        betas, nexts = [stop], []  # nexts[j]: E[j + 1] * betas[j + 1]
        for j in range(s - 1, 0, -1):
            nexts.append([x * b for x, b in zip(E[j], betas[-1])])
            betas.append([mpmath.fdot(row, nexts[-1]) for row in T])
        betas.reverse()
        nexts.reverse()
        z = mpmath.fdot(alphas[-1], stop)
        gold = mpmath.fsum(
            [p.start[idx[0]], p.stop[idx[-1]]]
            + [e[j, t] for j, t in enumerate(idx)]
            + [p.transitions[a, b] for a, b in zip(idx, idx[1:])]
        )
        d_e = [
            [a * b / z - (k == t) for k, (a, b) in enumerate(zip(ar, br))]
            for ar, br, t in zip(alphas, betas, idx)
        ]
        counts = np.zeros((N_TAGS, N_TAGS), dtype=int)
        np.add.at(counts, (idx[:-1], idx[1:]), 1)
        d_trans = [
            [
                T[i][k] * mpmath.fdot([a[i] for a in alphas[:-1]], [x[k] for x in nexts]) / z
                - counts[i, k]
                for k in range(N_TAGS)
            ]
            for i in range(N_TAGS)
        ]
        loss = float(mpmath.log(z) - gold)
    d_e, d_trans = np.array(d_e, dtype=float), np.array(d_trans, dtype=float)
    return loss, d_e, CrfParams(d_trans, d_e[0], d_e[-1])


def assert_gradients_close(actual, desired, counts, rtol=1e-12):
    """Each gradient is an expectation minus a count, rounded relative to
    the larger of the two; ``|desired| + counts`` lies between that and
    twice it."""
    bad = ~(np.abs(actual - desired) <= rtol * (np.abs(desired) + counts))
    assert not bad.any(), f"at {np.argwhere(bad)}: {actual[bad]} != {desired[bad]}"


def enumerate_paths(s, n=N_TAGS):
    return itertools.product(range(n), repeat=s)


def brute_log_partition(e, p):
    scores = [score_oracle(e, p, path) for path in enumerate_paths(e.shape[0])]
    m = max(scores)
    return m + math.log(sum(math.exp(v - m) for v in scores))


def bio_transition_mask_oracle():
    """The BIO masks built from the tag names: -inf where an I-X tag would
    start the sequence or follow anything but B-X or I-X."""
    start = np.zeros(N_TAGS)
    trans = np.zeros((N_TAGS, N_TAGS))
    for j, tag in enumerate(BIO_TAGS):
        if tag.startswith("I-"):
            label = tag[2:]
            start[j] = -np.inf
            for i, prev in enumerate(BIO_TAGS):
                if prev == "O" or (prev != f"B-{label}" and prev != f"I-{label}"):
                    trans[i, j] = -np.inf
    return start, trans


def test_bio_transition_mask_matches_names():
    start, trans = bio_transition_mask()
    start_ref, trans_ref = bio_transition_mask_oracle()
    np.testing.assert_array_equal(start, start_ref)
    np.testing.assert_array_equal(trans, trans_ref)


def brute_viterbi(e, p, constrain=False):
    """Exhaustive argmax with the backpointer tie-break: among maximal
    paths, minimize the reversed tag tuple."""
    sm, tm = bio_transition_mask_oracle() if constrain else (None, None)
    best, best_score = None, -np.inf
    for path in enumerate_paths(e.shape[0]):
        sc = score_oracle(e, p, path, sm, tm)
        if sc > best_score or (
            sc == best_score and tuple(reversed(path)) < tuple(reversed(best))
        ):
            best, best_score = path, sc
    return list(best), best_score


def viterbi_oracle(emissions, params, constrain_bio=False):
    """Viterbi with the max read back through the backpointers, a numpy
    backtrack and a scalar re-summation loop: ``viterbi`` must return
    exactly its path and score."""
    s, n = emissions.shape
    start_mask, trans_mask = bio_transition_mask_oracle()
    start = params.start + (start_mask if constrain_bio else 0.0)
    trans = params.transitions + (trans_mask if constrain_bio else 0.0)

    delta = start + emissions[0]
    backptr = np.empty((s, n), dtype=np.int64)
    for j in range(1, s):
        cand = delta[:, None] + trans
        backptr[j] = np.argmax(cand, axis=0)
        delta = cand[backptr[j], np.arange(n)] + emissions[j]
    delta = delta + params.stop

    path = [int(np.argmax(delta))]
    for j in range(s - 1, 0, -1):
        path.append(int(backptr[j, path[-1]]))
    path.reverse()

    score = params.start[path[0]] + emissions[0, path[0]]
    if constrain_bio:
        score = score + start_mask[path[0]]
    for j in range(1, s):
        score = score + trans[path[j - 1], path[j]] + emissions[j, path[j]]
    score = float(score + params.stop[path[-1]])
    return path, score


def viterbi_max_oracle(emissions, params, constrain_bio=False):
    """``viterbi`` with each step's maximum taken by a second reduction,
    ``max(1)``, beside the argmax, and the backpointers gathered in a list:
    the oracle of the step that takes the element its argmax picks."""
    s, n = emissions.shape
    start_mask, trans_mask = bio_transition_mask()
    start = params.start + start_mask if constrain_bio else params.start
    trans = params.transitions + (trans_mask if constrain_bio else 0.0)
    to_from = np.ascontiguousarray(trans.T)
    delta = start + emissions[0]
    backptr = []
    for e in emissions[1:]:
        cand = to_from + delta
        backptr.append(cand.argmax(1))
        delta = cand.max(1) + e
    delta = delta + params.stop

    path = [int(delta.argmax())]
    for row in reversed(np.array(backptr, dtype=np.intp).reshape(s - 1, n).tolist()):
        path.append(row[path[-1]])
    path.reverse()
    return path, float(delta[path[-1]])


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
        # names become indices at the corpus boundary
        assert path_score(e, p, [TAG_INDEX["B-ES"], TAG_INDEX["I-ES"]]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            path_score(np.zeros((3, N_TAGS)), CrfParams.zeros(), [0, 1])


@pytest.mark.parametrize("bad", [-1, N_TAGS])
@pytest.mark.parametrize("call", [path_score, nll_and_grads], ids=["path_score", "nll_and_grads"])
def test_tag_index_out_of_range(call, bad):
    # the first index outside [0, N_TAGS) is named; -1 must not read tag 12
    tags = [0, bad, {-1: N_TAGS, N_TAGS: -1}[bad]]
    with pytest.raises(CrfError, match=rf"^tag index {bad} outside \[0, {N_TAGS}\)$"):
        call(np.zeros((3, N_TAGS)), CrfParams.zeros(), tags)


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
        # the oracle is the exact stepwise recursion (mpmath), not a float64
        # one, whose own rounding grows with s
        rng = np.random.default_rng(300 + s)
        e = rng.standard_normal((s, N_TAGS)) * 5
        p = CrfParams.random(rng)
        gold = [int(t) for t in rng.integers(N_TAGS, size=s)]
        loss, d_e, g = nll_and_grads(e, p, gold)
        loss_ref, d_e_ref, g_ref = nll_and_grads_exact(e, p, np.array(gold))
        assert loss == pytest.approx(loss_ref, rel=1e-10, abs=0)
        np.testing.assert_allclose(d_e, d_e_ref, rtol=1e-10, atol=0)
        for name in ("transitions", "start", "stop"):
            np.testing.assert_allclose(
                getattr(g, name), getattr(g_ref, name), rtol=1e-10, atol=0, err_msg=name
            )

    @pytest.mark.parametrize("scale", [50, 200, 400])
    def test_large_scores_exact_or_rejected(self, scale):
        # Scores spanning more than MAX_SPAN nats raise CrfError; the rest
        # match the exact oracle.  Neither warns or gives nan.  A gradient
        # next to a marginal within 2**-53 of 1 is that marginal minus 1
        # rounded, hence the atol.
        rng = np.random.default_rng(600 + scale)
        e = rng.standard_normal((6, N_TAGS)) * scale
        p = CrfParams.random(rng, scale=scale)
        gold = rng.integers(N_TAGS, size=6)
        spans = [np.ptp(a) for a in (p.transitions, p.start, p.stop)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if max(spans) > MAX_SPAN:
                for call in (lambda: nll_and_grads(e, p, gold), lambda: log_partition(e, p)):
                    with pytest.raises(CrfError, match=f"more than {MAX_SPAN:g}"):
                        call()
                return
            loss, d_e, g = nll_and_grads(e, p, gold)
        loss_ref, d_e_ref, g_ref = nll_and_grads_exact(e, p, gold)
        assert loss == pytest.approx(loss_ref, rel=1e-10, abs=0)
        np.testing.assert_allclose(d_e, d_e_ref, rtol=1e-10, atol=2.0**-52)
        for name in ("transitions", "start", "stop"):
            np.testing.assert_allclose(
                getattr(g, name), getattr(g_ref, name), rtol=1e-10, atol=2.0**-52, err_msg=name
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
        loss, d_e, _ = nll_and_grads(e, p, tags)
        loss_int, d_e_int, _ = nll_and_grads(e, p, [int(t) for t in tags])
        assert loss == loss_int
        assert np.array_equal(d_e, d_e_int)
        assert path_score(e, p, tags) == path_score(e, p, [int(t) for t in tags])

    @pytest.mark.parametrize("tags", [[1.0, 0.0], ["B-ES", "I-ES"]], ids=["float", "name"])
    def test_non_integer_tags_rejected(self, tags):
        # tags are indices; a float is not truncated, a name is not looked up
        e, p = np.zeros((2, N_TAGS)), CrfParams.zeros()
        with pytest.raises(TypeError):
            nll_and_grads(e, p, tags)
        with pytest.raises(TypeError):
            path_score(e, p, tags)


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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_sequence_calls(self, data):
        # a ragged batch holding lengths 1 and T, junk in the padding, with
        # or without the BIO masks' -inf scores
        T = data.draw(st.integers(1, 12), label="T")
        extra = data.draw(st.lists(st.integers(1, T), max_size=3), label="extra")
        lengths = np.array(data.draw(st.permutations([1, T] + extra), label="lengths"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        e = rng.standard_normal((len(lengths), T, N_TAGS)) * 3
        gold = rng.integers(N_TAGS, size=e.shape[:2])
        p = CrfParams.random(rng)
        if data.draw(st.booleans(), label="masked"):
            start_mask, trans_mask = bio_transition_mask()
            p = CrfParams(p.transitions + trans_mask, p.start + start_mask, p.stop)
        losses, d_e, g = nll_and_grads(e, p, gold, lengths)
        total, counts = CrfParams.zeros(), CrfParams.zeros()
        for b, n in enumerate(lengths):
            loss_b, d_e_b, g_b = nll_and_grads(e[b, :n], p, gold[b, :n])
            np.testing.assert_allclose(losses[b], loss_b, rtol=1e-12)
            assert_gradients_close(d_e[b, :n], d_e_b, gold[b, :n, None] == np.arange(N_TAGS))
            assert np.all(d_e[b, n:] == 0.0)
            for name in ("transitions", "start", "stop"):
                getattr(total, name)[...] += getattr(g_b, name)
            np.add.at(counts.transitions, (gold[b, : n - 1], gold[b, 1:n]), 1)
            counts.start[gold[b, 0]] += 1
            counts.stop[gold[b, n - 1]] += 1
        for name in ("transitions", "start", "stop"):
            assert_gradients_close(getattr(g, name), getattr(total, name), getattr(counts, name))


@pytest.mark.parametrize(
    "call",
    [
        lambda e, p: log_partition(e, p),
        lambda e, p: nll_and_grads(e, p, []),
        lambda e, p: viterbi(e, p),
        lambda e, p: path_score(e, p, []),
    ],
    ids=["log_partition", "nll_and_grads", "viterbi", "path_score"],
)
def test_empty_sequence(call):
    with pytest.raises(LengthMismatch, match="empty sequence"):
        call(np.zeros((0, N_TAGS)), CrfParams.zeros())


class TestViterbi:
    def test_dominant_emissions(self):
        e = np.zeros((2, N_TAGS))
        e[0, TAG_INDEX["B-ES"]] = 10.0
        e[1, TAG_INDEX["I-ES"]] = 10.0
        path, _ = viterbi(e, CrfParams.zeros())
        assert path == [TAG_INDEX["B-ES"], TAG_INDEX["I-ES"]]

    def test_zero_scores_constrained_all_o(self):
        e = np.zeros((5, N_TAGS))
        path, score = viterbi(e, CrfParams.zeros(), constrain_bio=True)
        assert path == [TAG_INDEX["O"]] * 5
        assert score == 0.0

    @pytest.mark.parametrize("constrain", [False, True])
    @pytest.mark.parametrize("trial", range(6))
    def test_matches_enumeration(self, trial, constrain):
        rng = np.random.default_rng(200 + trial)
        s = int(rng.integers(1, 5))
        e = rng.standard_normal((s, N_TAGS))
        p = CrfParams.random(rng)
        path, score = viterbi(e, p, constrain_bio=constrain)
        brute_path, brute_score = brute_viterbi(e, p, constrain)
        assert path == brute_path
        assert score == pytest.approx(brute_score, rel=1e-12)

    def test_constrained_never_stray_i(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            s = int(rng.integers(1, 10))
            e = rng.standard_normal((s, N_TAGS)) * 3
            p = CrfParams.random(rng)
            path, _ = viterbi(e, p, constrain_bio=True)
            prev = "O"
            for t in (BIO_TAGS[i] for i in path):
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


class TestViterbiOracle:
    """``viterbi`` equals ``viterbi_oracle`` exactly (``==``): path and score."""

    @pytest.mark.parametrize("constrain", [False, True])
    @pytest.mark.parametrize("s", [1, 2, 3, 17, 90])
    def test_random_params(self, s, constrain):
        rng = np.random.default_rng(300 + s + 1000 * constrain)
        for _ in range(5):
            e = rng.standard_normal((s, N_TAGS)) * 3
            p = CrfParams.random(rng)
            assert viterbi(e, p, constrain) == viterbi_oracle(e, p, constrain)

    @pytest.mark.parametrize("constrain", [False, True])
    @pytest.mark.parametrize("s", [1, 2, 9])
    def test_planted_ties(self, s, constrain):
        # scores on a grid of halves tie at almost every step; all zeros
        # tie everywhere
        rng = np.random.default_rng(400 + s + 1000 * constrain)
        cases = [(np.zeros((s, N_TAGS)), CrfParams.zeros())]
        for _ in range(5):
            grid = lambda *shape: rng.integers(-1, 2, size=shape) / 2.0  # noqa: E731
            cases.append(
                (grid(s, N_TAGS), CrfParams(grid(N_TAGS, N_TAGS), grid(N_TAGS), grid(N_TAGS)))
            )
        for e, p in cases:
            assert viterbi(e, p, constrain) == viterbi_oracle(e, p, constrain)

    @pytest.mark.parametrize("s", [1, 2, 12])
    def test_minus_inf_scores(self, s):
        # -inf transitions and emissions beside the BIO masks' own -inf
        rng = np.random.default_rng(500 + s)
        for constrain in (False, True):
            e = rng.standard_normal((s, N_TAGS))
            e[rng.random(e.shape) < 0.3] = -np.inf
            p = CrfParams.random(rng)
            p.transitions[rng.random(p.transitions.shape) < 0.3] = -np.inf
            assert viterbi(e, p, constrain) == viterbi_oracle(e, p, constrain)


# the scores of TestViterbiBits: a grid of halves (ties at almost every
# step), signed zeros only, or normal draws at one of several scales
_SCORE_KINDS = {
    "halves": lambda rng, shape: rng.integers(-4, 5, size=shape) / 2.0,
    "signed-zeros": lambda rng, shape: rng.choice([0.0, -0.0], size=shape),
    "negative-zeros": lambda rng, shape: np.full(shape, -0.0),
    "normal": lambda rng, shape: rng.standard_normal(shape) * rng.choice([0.1, 1.0, 100.0]),
}


class TestViterbiBits:
    """``viterbi``'s score is ``viterbi_oracle``'s re-summation of the
    returned path to the bit, the sign of a zero included."""

    @given(
        s=st.integers(1, 40),
        constrain=st.booleans(),
        kind=st.sampled_from(sorted(_SCORE_KINDS)),
        minus_inf=st.sampled_from([0.0, 0.1, 0.5]),
        float32=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_score_is_the_resummation_bit_for_bit(self, s, constrain, kind, minus_inf, float32,
                                                   seed):
        rng = np.random.default_rng(seed)
        draw = _SCORE_KINDS[kind]
        e = draw(rng, (s, N_TAGS)).astype(np.float32 if float32 else np.float64)
        p = CrfParams(draw(rng, (N_TAGS, N_TAGS)), draw(rng, N_TAGS), draw(rng, N_TAGS))
        p.transitions[rng.random(p.transitions.shape) < minus_inf] = -np.inf
        path, score = viterbi(e, p, constrain)
        want_path, want = viterbi_oracle(e, p, constrain)
        assert path == want_path
        assert score == want
        assert np.float64(score).tobytes() == np.float64(want).tobytes()


class TestViterbiStep:
    """``viterbi`` equals ``viterbi_max_oracle``: path, and score to the bit."""

    @pytest.mark.parametrize("float32", [False, True])
    @pytest.mark.parametrize("s", [1, 2, 5, 80])
    @pytest.mark.parametrize("kind", sorted(_SCORE_KINDS))
    def test_equals_the_max_oracle(self, kind, s, float32):
        kinds = sorted(_SCORE_KINDS)
        rng = np.random.default_rng(600 + s + 100 * float32 + 1000 * kinds.index(kind))
        draw = _SCORE_KINDS[kind]
        for constrain in (False, True):
            for minus_inf in (0.0, 0.3):
                e = draw(rng, (s, N_TAGS)).astype(np.float32 if float32 else np.float64)
                p = CrfParams(draw(rng, (N_TAGS, N_TAGS)), draw(rng, N_TAGS), draw(rng, N_TAGS))
                p.transitions[rng.random(p.transitions.shape) < minus_inf] = -np.inf
                path, score = viterbi(e, p, constrain)
                want_path, want = viterbi_max_oracle(e, p, constrain)
                assert path == want_path
                assert np.float64(score).tobytes() == np.float64(want).tobytes()
