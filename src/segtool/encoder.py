"""Context encoder: bidirectional GRU over per-token features, with an
optional scaled dot-product attention layer on top.

The "unweighted" attention variant uses the GRU hidden states directly as
query, key, and value; the "weighted" variant learns the three
projections.
"""

import math

import numpy as np

from . import nn


class EncoderError(Exception):
    pass


class DimMismatch(EncoderError):
    pass


class BiGruEncoder(nn.Component):
    def __init__(self, rng, input_dim, hidden, dropout_rate=0.0, dtype=np.float64):
        super().__init__()
        if not 0 <= dropout_rate < 1:
            raise EncoderError("dropout rate must lie in [0, 1)")
        self.input_dim = input_dim
        self.hidden = hidden
        self.dropout_rate = dropout_rate
        self.rnn = nn.BiGru(rng, input_dim, hidden, dtype)
        self._add_child("", self.rnn)

    @property
    def out_dim(self):
        return 2 * self.hidden

    def encode(self, x, rng=None, lengths=None):
        """x: (..., s, input_dim) -> (..., s, 2H).  The leading axes hold
        sequences zero-padded after their ``lengths`` (all s when None).
        Input dropout is applied only with an ``rng``: one draw of a row per
        valid position, in (sequence, step) order; the padding stays zero."""
        if x.ndim < 2 or x.shape[-1] != self.input_dim:
            raise DimMismatch(f"expected (..., s, {self.input_dim}), got {x.shape}")
        in_mask = None
        if rng is not None and self.dropout_rate > 0:
            keep = 1.0 - self.dropout_rate
            s = x.shape[-2]
            n_valid = np.broadcast_to(s if lengths is None else lengths, x.shape[:-2])
            valid = np.arange(s) < n_valid[..., None]
            # the mask in the features' dtype, so float32 stays float32
            in_mask = np.zeros(x.shape, dtype=x.dtype)
            in_mask[valid] = (rng.random((np.count_nonzero(valid), x.shape[-1])) < keep) / keep
            x = x * in_mask
        out, cache = self.rnn.forward(x, lengths=lengths)
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
    The scale is a Python float, so float32 inputs stay float32.  Returns
    the output and a cache for the backward pass."""
    d = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(d)
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
    d_q = d_scores @ k / math.sqrt(d)
    d_k = np.swapaxes(d_scores, -1, -2) @ q / math.sqrt(d)
    return d_q, d_k, d_v


class AttentionLayer(nn.Component):
    """mode: "unweighted" (Q=K=V=H) or "weighted" (learned projections of
    width d_a)."""

    def __init__(self, rng, mode, d_model, d_a=None, dtype=np.float64):
        super().__init__()
        if mode not in ("weighted", "unweighted"):
            raise EncoderError(f"unknown attention mode {mode!r}")
        self.mode = mode
        self.d_model = d_model
        self.d_a = d_a or d_model
        if mode == "weighted":
            for name in ("Wq", "Wk", "Wv"):
                self._add_param(name, nn.glorot(rng, (d_model, self.d_a), dtype))

    @property
    def out_dim(self):
        return self.d_model if self.mode == "unweighted" else self.d_a

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
