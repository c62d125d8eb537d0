"""Linear-chain CRF over the 13 BIO tags.

Exact log-partition via the forward recursion, gradients via
forward-backward marginals, and Viterbi decoding with optional BIO
well-formedness constraints.  All arithmetic is in log space with
max-shifted logsumexp; documents in this domain run to ~900 tokens, so
naive probability products would underflow.  Only the recursions loop
over time; marginals and counts are whole-array operations.  The
likelihood also takes a zero-padded batch of sequences, (..., s, n), and
runs the recursions of all of them in lockstep.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import BIO_TAGS, N_TAGS, TAG_INDEX


class CrfError(Exception):
    pass


class LengthMismatch(CrfError):
    pass


@dataclass
class CrfParams:
    transitions: np.ndarray  # [from, to]
    start: np.ndarray
    stop: np.ndarray

    @classmethod
    def zeros(cls, n_tags=N_TAGS, dtype=np.float64):
        return cls(
            np.zeros((n_tags, n_tags), dtype=dtype),
            np.zeros(n_tags, dtype=dtype),
            np.zeros(n_tags, dtype=dtype),
        )

    @classmethod
    def random(cls, rng, n_tags=N_TAGS, scale=1.0, dtype=np.float64):
        return cls(
            (rng.standard_normal((n_tags, n_tags)) * scale).astype(dtype),
            (rng.standard_normal(n_tags) * scale).astype(dtype),
            (rng.standard_normal(n_tags) * scale).astype(dtype),
        )


def bio_transition_mask(tags=BIO_TAGS):
    """(start_mask, trans_mask): 0 where allowed, -inf where a transition
    would create a stray I tag."""
    n = len(tags)
    start = np.zeros(n)
    trans = np.zeros((n, n))
    for j, tag in enumerate(tags):
        if tag.startswith("I-"):
            label = tag[2:]
            start[j] = -np.inf
            for i, prev in enumerate(tags):
                if prev == "O" or (prev != f"B-{label}" and prev != f"I-{label}"):
                    trans[i, j] = -np.inf
    return start, trans


_BIO_START_MASK, _BIO_TRANS_MASK = bio_transition_mask()


def tags_to_indices(tags):
    """Tag names or integer tags (Python or numpy) -> list of int indices."""
    return [int(t) if isinstance(t, (int, np.integer)) else TAG_INDEX[t] for t in tags]


def _logsumexp(a, axis):
    """log(sum(exp(a), axis)), shifted by the max along ``axis``."""
    top = a.max(axis=axis, keepdims=True)
    if np.isfinite(top).all():
        return np.log(np.exp(a - top).sum(axis=axis)) + top.squeeze(axis)
    # A max of -inf shifts by 0, so an all -inf slice gives log(0) = -inf, not nan.
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - top).sum(axis=axis)) + top.squeeze(axis)


def path_score(emissions, params, tags):
    """Score of one tag path: start + emissions + transitions + stop."""
    s = emissions.shape[0]
    if len(tags) != s:
        raise LengthMismatch(f"{len(tags)} tags for {s} emissions")
    return float(_score(emissions, params, np.asarray(tags_to_indices(tags), dtype=np.intp)))


def _score(emissions, params, idx, lengths=None, valid=None):
    """Gold path scores of (..., s) tag indices, each summed over its own
    length."""
    gold_e = np.take_along_axis(emissions, idx[..., None], axis=-1)[..., 0]
    trans = params.transitions[idx[..., :-1], idx[..., 1:]]
    if valid is None:
        last = idx[..., -1]
    else:
        gold_e = np.where(valid, gold_e, 0.0)
        trans = np.where(valid[..., 1:], trans, 0.0)
        last = np.take_along_axis(idx, lengths[..., None] - 1, axis=-1)[..., 0]
    total = params.start[idx[..., 0]] + gold_e.sum(axis=-1)
    total = total + trans.sum(axis=-1)
    return total + params.stop[last]


def _forward(emissions, params, valid=None):
    s = emissions.shape[-2]
    alphas = np.empty_like(emissions)
    alphas[..., 0, :] = params.start + emissions[..., 0, :]
    for j in range(1, s):
        a = _logsumexp(alphas[..., j - 1, :, None] + params.transitions, -2) + emissions[..., j, :]
        if valid is not None:
            # a sequence that has ended carries its last alphas through the padding
            a = np.where(valid[..., j, None], a, alphas[..., j - 1, :])
        alphas[..., j, :] = a
    return alphas


def _backward(emissions, params, valid=None):
    s = emissions.shape[-2]
    betas = np.empty_like(emissions)
    betas[..., -1, :] = params.stop
    for j in range(s - 2, -1, -1):
        nxt = emissions[..., j + 1, None, :] + betas[..., j + 1, None, :]
        b = _logsumexp(params.transitions + nxt, -1)
        if valid is not None:
            # the stop scores stand at every position from a sequence's last on
            b = np.where(valid[..., j + 1, None], b, betas[..., j + 1, :])
        betas[..., j, :] = b
    return betas


def log_partition(emissions, params):
    alphas = _forward(emissions, params)
    return float(_logsumexp(alphas[-1] + params.stop, 0))


def nll_and_grads(emissions, params, gold_tags, lengths=None):
    """Negative log-likelihood of the gold path and its exact gradients.

    Gradients are model expectations (forward-backward marginals) minus
    empirical counts.  ``emissions`` is (s, n) for one sequence, or
    (..., s, n) for a batch of sequences zero-padded after their
    ``lengths`` (all s when None), with (..., s) gold tag indices.  Returns
    the loss per sequence (a float for one sequence), the emission
    gradients (zero at padded positions) and the parameter gradients
    summed over the batch.
    """
    s, n = emissions.shape[-2:]
    idx = np.asarray(gold_tags)
    if idx.dtype.kind not in "iu":
        idx = np.asarray(tags_to_indices(gold_tags), dtype=np.intp)
    if idx.shape != emissions.shape[:-1]:
        raise LengthMismatch(f"{idx.shape} tags for {emissions.shape[:-1]} emissions")
    valid = None
    if lengths is not None:
        lengths = np.asarray(lengths)
        if lengths.shape != idx.shape[:-1] or lengths.min() < 1 or lengths.max() > s:
            raise LengthMismatch(f"lengths {lengths} for {emissions.shape[:-1]} emissions")
        valid = np.arange(s) < lengths[..., None]
    if s == 0:
        raise LengthMismatch("empty sequence")

    alphas = _forward(emissions, params, valid)
    betas = _backward(emissions, params, valid)
    # the alphas of a padded sequence end on those of its last position
    log_z = _logsumexp(alphas[..., -1, :] + params.stop, -1)
    loss = log_z - _score(emissions, params, idx, lengths, valid)

    # Unary marginals; at padded positions they repeat the last position's.
    unary = np.exp(alphas + betas - log_z[..., None, None])
    gold = idx[..., None] == np.arange(n)

    d_e = unary - gold
    if valid is not None:
        d_e = np.where(valid[..., None], d_e, 0.0)
    d_start = (unary[..., 0, :] - gold[..., 0, :]).reshape(-1, n).sum(axis=0)
    last_gold = gold[..., -1, :] if valid is None else np.take_along_axis(
        gold, lengths[..., None, None] - 1, axis=-2
    )[..., 0, :]
    d_stop = (unary[..., -1, :] - last_gold).reshape(-1, n).sum(axis=0)

    # Pairwise marginals of every step j -> j+1 at once: (..., s-1, from, to).
    pair = alphas[..., :-1, :, None] + params.transitions
    pair += (emissions[..., 1:, :] + betas[..., 1:, :])[..., None, :]
    pair -= log_z[..., None, None, None]
    if valid is not None:
        pair[~valid[..., 1:]] = -np.inf
    d_trans = np.exp(pair, out=pair).reshape(-1, n, n).sum(axis=0)
    pairs = (idx[..., :-1] * n + idx[..., 1:]).ravel()
    weights = None if valid is None else valid[..., 1:].ravel()
    d_trans -= np.bincount(pairs, weights, minlength=n * n).reshape(n, n)

    grads = CrfParams(d_trans, d_start, d_stop)
    return (float(loss) if loss.ndim == 0 else loss), d_e, grads


def viterbi(emissions, params, constrain_bio=False):
    """Maximum-score tag path, ties broken toward the lower tag index at
    every backpointer.  Returns (tag_names, score); the score is the
    left-to-right re-summation of the returned path."""
    s, n = emissions.shape
    start = params.start + (_BIO_START_MASK if constrain_bio else 0.0)
    trans = params.transitions + (_BIO_TRANS_MASK if constrain_bio else 0.0)

    delta = start + emissions[0]
    backptr = np.empty((s, n), dtype=np.int64)
    for j in range(1, s):
        cand = delta[:, None] + trans  # [prev, cur]
        backptr[j] = np.argmax(cand, axis=0)  # argmax picks the lowest index on ties
        delta = cand[backptr[j], np.arange(n)] + emissions[j]
    delta = delta + params.stop

    path = [int(np.argmax(delta))]
    for j in range(s - 1, 0, -1):
        path.append(int(backptr[j, path[-1]]))
    path.reverse()

    score = params.start[path[0]] + emissions[0, path[0]]
    if constrain_bio:
        score = score + _BIO_START_MASK[path[0]]
    for j in range(1, s):
        score = score + trans[path[j - 1], path[j]] + emissions[j, path[j]]
    score = float(score + params.stop[path[-1]])
    return [BIO_TAGS[t] for t in path], score
