"""Linear-chain CRF over the 13 BIO tags.

Exact log-partition and gradients by forward-backward, and Viterbi
decoding with optional BIO well-formedness constraints.  Documents run to
~900 tokens, where raw probability products underflow, so forward-backward
rescales its states to sum 1 at every step (one small matrix product each)
and adds up the logs of the scales.  That holds while the finite
transition, start and stop scores each span at most MAX_SPAN = 600 nats;
wider ones raise CrfError.  Viterbi is max-plus in log space.  The
likelihood also takes a zero-padded batch, (..., s, n), run in lockstep.
Tags are indices into corpus.BIO_TAGS, taken and returned as such.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import N_TAGS


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
    def zeros(cls, dtype=np.float64):
        return cls(
            np.zeros((N_TAGS, N_TAGS), dtype=dtype),
            np.zeros(N_TAGS, dtype=dtype),
            np.zeros(N_TAGS, dtype=dtype),
        )

    @classmethod
    def random(cls, rng, scale=1.0, dtype=np.float64):
        return cls(
            (rng.standard_normal((N_TAGS, N_TAGS)) * scale).astype(dtype),
            (rng.standard_normal(N_TAGS) * scale).astype(dtype),
            (rng.standard_normal(N_TAGS) * scale).astype(dtype),
        )


def bio_transition_mask():
    """(start_mask, trans_mask) over BIO_TAGS: 0 where allowed, -inf where a
    stray I tag (even t > 0) would follow no tag of its class (t + 1) // 2."""
    tags = np.arange(N_TAGS)
    inside, cls = (tags > 0) & (tags % 2 == 0), (tags + 1) // 2
    start = np.where(inside, -np.inf, 0.0)
    trans = np.where(inside & (cls[:, None] != cls), -np.inf, 0.0)
    return start, trans


_BIO_START_MASK, _BIO_TRANS_MASK = bio_transition_mask()


# The widest span, in nats, of the finite transition, start or stop scores:
# each factor exp(x - max x) and, with no -inf score, each step's sum is at
# least e**-600, so underflow (below ~e**-744) loses under e**-140 of a step.
MAX_SPAN = 600.0


def _length(emissions):
    """The length s of (..., s, n) emissions; an empty sequence has no path."""
    if emissions.shape[-2] == 0:
        raise LengthMismatch("empty sequence")
    return emissions.shape[-2]


def _indices(tags):
    """``tags`` as intp; a float or name raises TypeError, an index outside [0, N_TAGS) CrfError."""
    idx = np.asarray(tags).astype(np.intp, casting="same_kind")
    outside = (idx < 0) | (idx >= N_TAGS)
    if outside.any():
        raise CrfError(f"tag index {idx[outside][0]} outside [0, {N_TAGS})")
    return idx


def path_score(emissions, params, tags):
    """Score of one path of tag indices: start + emissions + transitions + stop."""
    s = _length(emissions)
    if len(tags) != s:
        raise LengthMismatch(f"{len(tags)} tags for {s} emissions")
    idx = _indices(tags)[None]
    return float(_score(emissions[None], params, idx, np.ones((1, s), dtype=bool))[0])


def _score(e, params, idx, valid):
    """Gold path scores of (B, s) tag indices over their valid positions."""
    gold_e = np.where(valid, np.take_along_axis(e, idx[..., None], axis=-1)[..., 0], 0.0)
    trans = np.where(valid[:, 1:], params.transitions[idx[:, :-1], idx[:, 1:]], 0.0)
    last = idx[np.arange(len(idx)), valid.sum(axis=1) - 1]
    total = params.start[idx[:, 0]] + gold_e.sum(axis=1)
    return total + trans.sum(axis=1) + params.stop[last]


def _factors(scores, name):
    """exp(scores - max) and the max; a -inf score gives an exact 0."""
    top = scores.max()
    span = top - np.where(scores == -np.inf, top, scores).min()
    if not span <= MAX_SPAN:  # also a nan or an infinite max
        raise CrfError(f"finite {name} scores span {span:.4g} nats, more than {MAX_SPAN:g}")
    return np.exp(scores - top), top


def _expectations(e, params, lengths):
    """log Z (B,), unary marginals (B, s, n) (a padded position repeats the
    last) and expected transition counts summed over the batch (n, n).

    One scaled recursion (Rabiner 1989, sec. V.A) runs both directions on a
    (2, B, n) state: x_t = (x_{t-1} @ M) * exp(e_t - max e_t), divided by
    its sum c_t.  The alphas take M = exp(T - max T); the backward states
    (betas times emission factors) take M's transpose over each sequence
    reversed within its length.  log Z sums the alphas' log c_t and shifts.
    """
    s, n = e.shape[1:]
    eT, t_top = _factors(params.transitions, "transition")
    f_start, start_top = _factors(params.start, "start")
    f_stop, stop_top = _factors(params.stop, "stop")
    # each position's source in the forward frame and the reversed one, and
    # its row in a (B, s, n) array or the (s, 2, B, n) states, flattened
    last, pos, b = lengths[:, None] - 1, np.arange(s), np.arange(len(e))[:, None]
    fwd, rev = np.minimum(pos, last), np.maximum(last - pos, 0)
    rev_rows, fwd_rows = rev + s * b, fwd * 2 * len(e) + b
    M = np.stack([eT, eT.T])
    # a 0/0 on junk in the padding must not warn; elsewhere it raises below
    with np.errstate(divide="ignore", invalid="ignore"):
        e_top = e.max(axis=-1)
        f = np.exp(e - e_top[..., None])
        x = np.stack([f, f.reshape(-1, n).take(rev_rows, axis=0)]).transpose(2, 0, 1, 3).copy()
        x[0] *= np.stack([f_start, f_stop])[:, None]
        c = np.empty(x.shape[:-1])  # (s, 2, B)
        for t in range(s):
            if t:
                x[t] *= x[t - 1] @ M
            c[t] = x[t].sum(axis=-1)
            x[t] /= c[t][..., None]
        alphas = x.reshape(-1, n).take(fwd_rows, axis=0)
        g_next = np.zeros_like(alphas)  # g_{j+1} at j, 0 from the last position on
        g_next[:, 1:] = x[:-1, 1].transpose(1, 0, 2)
        g_next = g_next.reshape(-1, n).take(rev_rows, axis=0)
        betas = g_next @ eT.T + (rev == 0)[..., None] * f_stop
        norm = (alphas * betas).sum(axis=-1)
        if not (norm > 0).all():
            raise CrfError("no tag path has a finite nonzero probability in float64")
        log_c = np.where(fwd == pos, np.log(c[:, 0].T) + e_top, 0.0)
    log_z = log_c.sum(axis=-1) + (last[:, 0] * t_top + start_top + stop_top) + np.log(norm[:, -1])
    alphas /= norm[..., None]
    return log_z, alphas * betas, eT * (alphas.reshape(-1, n).T @ g_next.reshape(-1, n))


def log_partition(emissions, params):
    e = np.asarray(emissions, dtype=np.float64)[None]
    return float(_expectations(e, params, np.array([_length(emissions)]))[0][0])


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
    s, n = _length(emissions), emissions.shape[-1]
    idx = _indices(gold_tags)
    if idx.shape != emissions.shape[:-1]:
        raise LengthMismatch(f"{idx.shape} tags for {emissions.shape[:-1]} emissions")
    lead = idx.shape[:-1]
    lengths = np.full(lead, s) if lengths is None else np.asarray(lengths)
    if lengths.shape != lead or lengths.min() < 1 or lengths.max() > s:
        raise LengthMismatch(f"lengths {lengths} for {emissions.shape[:-1]} emissions")
    e, idx = np.asarray(emissions, dtype=np.float64).reshape(-1, s, n), idx.reshape(-1, s)
    lengths = lengths.reshape(-1)
    valid = np.arange(s) < lengths[:, None]
    log_z, unary, d_trans = _expectations(e, params, lengths)
    loss = (log_z - _score(e, params, idx, valid)).reshape(lead)
    gold = idx[..., None] == np.arange(n)
    d_e = np.where(valid[..., None], unary - gold, 0.0)
    d_start = (unary[:, 0] - gold[:, 0]).sum(axis=0)
    # the marginals of a padded sequence end on those of its last position
    d_stop = (unary[:, -1] - gold[np.arange(len(idx)), lengths - 1]).sum(axis=0)
    pairs = (idx[:, :-1] * n + idx[:, 1:]).ravel()
    d_trans -= np.bincount(pairs, valid[:, 1:].ravel(), minlength=n * n).reshape(n, n)
    loss = float(loss) if loss.ndim == 0 else loss
    return loss, d_e.reshape(emissions.shape), CrfParams(d_trans, d_start, d_stop)


def viterbi(emissions, params, constrain_bio=False):
    """Maximum-score tag path, ties broken toward the lower tag index at
    every backpointer.  Returns (tag index list, score); the score is the
    recursion's maximum, which equals the left-to-right sum of the returned
    path: each step adds the same transition and emission to the same value."""
    s, n = _length(emissions), emissions.shape[1]
    # no mask, no + 0.0: that would make a -0.0 start +0.0, unlike the path's sum
    start = params.start + _BIO_START_MASK if constrain_bio else params.start
    trans = params.transitions + (_BIO_TRANS_MASK if constrain_bio else 0.0)
    to_from = np.ascontiguousarray(trans.T)
    delta = start + emissions[0]
    cand = np.empty((n, n), dtype=np.result_type(to_from, delta, emissions))  # [cur, prev]
    backptr, rows = np.empty((s - 1, n), dtype=np.intp), np.arange(n)
    for e, bp in zip(emissions[1:], backptr):
        np.add(to_from, delta, out=cand)
        cand.argmax(1, out=bp)  # argmax picks the lowest index on ties
        delta = cand[rows, bp] + e  # the maximum: the element argmax picks
    delta = delta + params.stop

    path = [int(delta.argmax())]
    for row in reversed(backptr.tolist()):
        path.append(row[path[-1]])
    path.reverse()
    return path, float(delta[path[-1]])
