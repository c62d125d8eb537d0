"""Linear-chain CRF over the 13 BIO tags.

Exact log-partition and gradients by forward-backward, and Viterbi
decoding with optional BIO well-formedness constraints.  Documents run to
~900 tokens, where raw probability products underflow, so forward-backward
rescales its states to sum 1 at every step (one small matrix product each)
and adds up the logs of the scales.  That holds while the finite
transition, start and stop scores each span at most MAX_SPAN = 600 nats;
wider ones raise CrfError.  Viterbi is max-plus in log space.  The
likelihood also takes a zero-padded batch, (..., s, n), run in lockstep.
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


# The widest span, in nats, of the finite transition, start or stop scores:
# each factor exp(x - max x) and, with no -inf score, each step's sum is at
# least e**-600, so underflow (below ~e**-744) loses under e**-140 of a step.
MAX_SPAN = 600.0


def _length(emissions):
    """The length s of (..., s, n) emissions; an empty sequence has no path."""
    if emissions.shape[-2] == 0:
        raise LengthMismatch("empty sequence")
    return emissions.shape[-2]


def path_score(emissions, params, tags):
    """Score of one tag path: start + emissions + transitions + stop."""
    s = _length(emissions)
    if len(tags) != s:
        raise LengthMismatch(f"{len(tags)} tags for {s} emissions")
    idx = np.asarray(tags_to_indices(tags), dtype=np.intp)[None]
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
    # each position's source in the forward frame and the reversed one
    last = lengths[:, None] - 1
    fwd = np.minimum(np.arange(s), last)[..., None]
    rev = np.maximum(last - np.arange(s), 0)[..., None]
    M = np.stack([eT, eT.T])
    # a 0/0 on junk in the padding must not warn; elsewhere it raises below
    with np.errstate(divide="ignore", invalid="ignore"):
        e_top = e.max(axis=-1)
        f = np.exp(e - e_top[..., None])
        x = np.stack([f, np.take_along_axis(f, rev, axis=1)]).transpose(2, 0, 1, 3).copy()
        x[0] *= np.stack([f_start, f_stop])[:, None]
        c = np.empty(x.shape[:-1])  # (s, 2, B)
        for t in range(s):
            if t:
                x[t] *= x[t - 1] @ M
            c[t] = x[t].sum(axis=-1)
            x[t] /= c[t][..., None]
        alphas = np.take_along_axis(x[:, 0].transpose(1, 0, 2), fwd, axis=1)
        g_next = np.zeros_like(alphas)  # g_{j+1} at j, 0 from the last position on
        g_next[:, 1:] = x[:-1, 1].transpose(1, 0, 2)
        g_next = np.take_along_axis(g_next, rev, axis=1)
        betas = g_next @ eT.T + (rev == 0) * f_stop
        norm = (alphas * betas).sum(axis=-1)
        if not (norm > 0).all():
            raise CrfError("no tag path has a finite nonzero probability in float64")
        log_c = np.where(fwd[..., 0] == np.arange(s), np.log(c[:, 0].T) + e_top, 0.0)
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
    idx = np.asarray(gold_tags)
    if idx.dtype.kind not in "iu":
        idx = np.asarray(tags_to_indices(gold_tags), dtype=np.intp)
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
    every backpointer.  Returns (tag_names, score); the score is the
    left-to-right re-summation of the returned path."""
    s, n = _length(emissions), emissions.shape[1]
    start = params.start + (_BIO_START_MASK if constrain_bio else 0.0)
    trans = params.transitions + (_BIO_TRANS_MASK if constrain_bio else 0.0)

    to_from = np.ascontiguousarray(trans.T)
    delta = start + emissions[0]
    backptr = []
    for e in emissions[1:]:
        cand = to_from + delta  # [cur, prev]
        backptr.append(cand.argmax(1))  # argmax picks the lowest index on ties
        delta = cand.max(1) + e  # the element argmax picks
    delta = delta + params.stop

    path = [int(delta.argmax())]
    for row in reversed(np.array(backptr, dtype=np.intp).reshape(-1, n).tolist()):
        path.append(row[path[-1]])
    path.reverse()

    # the left-to-right sum: start, e0, the start mask, then each step's
    # transition and emission, then stop
    idx = np.array(path)
    terms = [params.start[idx[:1]], emissions[0, idx[:1]]]
    if constrain_bio:
        terms.append(_BIO_START_MASK[idx[:1]])
    steps = np.stack([trans[idx[:-1], idx[1:]], emissions[np.arange(1, s), idx[1:]]], axis=1)
    terms += [steps.ravel(), params.stop[idx[-1:]]]
    score = float(np.add.accumulate(np.concatenate(terms))[-1])
    return [BIO_TAGS[t] for t in path], score
