"""Context encoder: bidirectional GRU over per-token features, with an
optional scaled dot-product attention layer on top.

The "unweighted" attention variant uses the GRU hidden states directly as
query, key, and value; the "weighted" variant learns the three
projections.
"""

import numpy as np

from . import nn


class EncoderError(Exception):
    pass


class DimMismatch(EncoderError):
    pass


class BiGruEncoder:
    def __init__(self, rng, input_dim, hidden, dropout_rate=0.0,
                 recurrent_dropout_rate=0.0, dtype=np.float64):
        if not (0 <= dropout_rate < 1 and 0 <= recurrent_dropout_rate < 1):
            raise EncoderError("dropout rates must lie in [0, 1)")
        self.input_dim = input_dim
        self.hidden = hidden
        self.dropout_rate = dropout_rate
        self.recurrent_dropout_rate = recurrent_dropout_rate
        self.rnn = nn.BiGru(rng, input_dim, hidden, dtype)

    @property
    def out_dim(self):
        return 2 * self.hidden

    @property
    def params(self):
        return self.rnn.params

    @property
    def grads(self):
        return self.rnn.grads

    def zero_grads(self):
        self.rnn.zero_grads()

    def encode(self, x, train=False, rng=None, lengths=None):
        """x: (..., s, input_dim) -> (..., s, 2H).  The leading axes hold
        sequences zero-padded after their ``lengths`` (all s when None).
        Dropout is applied only when train=True, drawn per sequence in
        order: its (length, input_dim) input mask, then its recurrent mask,
        which is shared across time steps."""
        if x.ndim < 2 or x.shape[-1] != self.input_dim:
            raise DimMismatch(f"expected (..., s, {self.input_dim}), got {x.shape}")
        lead, s = x.shape[:-2], x.shape[-2]
        in_mask = None
        rec_mask = None
        if train and rng is not None:
            keep_in = 1.0 - self.dropout_rate
            keep_rec = 1.0 - self.recurrent_dropout_rate
            # masks in the features' dtype, so float32 stays float32
            if self.dropout_rate > 0:
                in_mask = np.zeros(x.shape, dtype=x.dtype)
            if self.recurrent_dropout_rate > 0:
                rec_mask = np.empty(lead + (self.hidden,), dtype=x.dtype)
            n_valid = np.broadcast_to(s if lengths is None else lengths, lead)
            for b in np.ndindex(lead):
                if in_mask is not None:
                    n = n_valid[b]
                    in_mask[b][:n] = (rng.random((n, x.shape[-1])) < keep_in) / keep_in
                if rec_mask is not None:
                    rec_mask[b] = (rng.random(self.hidden) < keep_rec) / keep_rec
            if in_mask is not None:
                x = x * in_mask
        out, cache = self.rnn.forward(x, lengths=lengths, rec_mask=rec_mask)
        return out, (cache, in_mask)

    def backward(self, cache, d_out):
        rnn_cache, in_mask = cache
        d_x = self.rnn.backward(rnn_cache, d_out)
        if in_mask is not None:
            d_x = d_x * in_mask
        return d_x


def scaled_dot_attention(q, k, v, lengths=None):
    """softmax(QK^T/sqrt(d)) V with row-wise softmax over (..., s, d)
    inputs; with ``lengths``, keys past each sequence's length get weight 0.
    Returns the output and a cache for the backward pass."""
    d = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(d)
    if lengths is not None:
        padded = np.arange(k.shape[-2]) >= np.asarray(lengths)[..., None, None]
        scores = np.where(padded, -np.inf, scores)
    attn = nn.softmax(scores, axis=-1)
    out = attn @ v
    return out, attn, (q, k, v, attn)


def scaled_dot_attention_backward(cache, d_out):
    q, k, v, attn = cache
    d = q.shape[-1]
    d_v = np.swapaxes(attn, -1, -2) @ d_out
    d_attn = d_out @ np.swapaxes(v, -1, -2)
    d_scores = nn.softmax_backward(attn, d_attn, axis=-1)
    d_q = d_scores @ k / np.sqrt(d)
    d_k = np.swapaxes(d_scores, -1, -2) @ q / np.sqrt(d)
    return d_q, d_k, d_v


class AttentionLayer:
    """mode: "unweighted" (Q=K=V=H) or "weighted" (learned projections of
    width d_a)."""

    def __init__(self, rng, mode, d_model, d_a=None, dtype=np.float64):
        if mode not in ("weighted", "unweighted"):
            raise EncoderError(f"unknown attention mode {mode!r}")
        self.mode = mode
        self.d_model = d_model
        self.d_a = d_a or d_model
        self.params = {}
        self.grads = {}
        if mode == "weighted":
            for name in ("Wq", "Wk", "Wv"):
                self.params[name] = nn.glorot(rng, (d_model, self.d_a), dtype)
                self.grads[name] = np.zeros_like(self.params[name])

    @property
    def out_dim(self):
        return self.d_model if self.mode == "unweighted" else self.d_a

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

    def forward(self, h, lengths=None):
        """h: (..., s, d_model); ``lengths`` as in scaled_dot_attention."""
        if h.ndim < 2 or h.shape[-1] != self.d_model:
            raise DimMismatch(f"expected (..., s, {self.d_model}), got {h.shape}")
        if self.mode == "unweighted":
            out, attn, cache = scaled_dot_attention(h, h, h, lengths)
            return out, (cache, None)
        q = h @ self.params["Wq"]
        k = h @ self.params["Wk"]
        v = h @ self.params["Wv"]
        out, attn, cache = scaled_dot_attention(q, k, v, lengths)
        return out, (cache, h)

    def backward(self, cache, d_out):
        sdp_cache, h = cache
        d_q, d_k, d_v = scaled_dot_attention_backward(sdp_cache, d_out)
        if self.mode == "unweighted":
            return d_q + d_k + d_v
        h_rows = h.reshape(-1, h.shape[-1]).T
        self.grads["Wq"] += h_rows @ d_q.reshape(-1, d_q.shape[-1])
        self.grads["Wk"] += h_rows @ d_k.reshape(-1, d_k.shape[-1])
        self.grads["Wv"] += h_rows @ d_v.reshape(-1, d_v.shape[-1])
        return (
            d_q @ self.params["Wq"].T
            + d_k @ self.params["Wk"].T
            + d_v @ self.params["Wv"].T
        )


def attend(layer, h):
    return layer.forward(h)[0]
