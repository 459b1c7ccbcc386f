"""Per-anchor temporal fusion: an LSTM over the last T frames of features.

One LSTM (parameters shared across anchors) consumes each anchor's T
frame features in chronological order from a zero initial state, and the
final hidden state is projected back to feature space through
relu(W h_T + b).  The fused vector replaces the current frame's feature
ahead of the detection heads.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad


def lstm_step(x, h_prev, c_prev, params):
    """One LSTM cell update on a (K, C) anchor batch.

    i, f, o gates are sigmoids, candidate g is tanh, then
    c = f*c_prev + i*g and h = o*tanh(c).  Reads ``lstm.w_ih`` (4H, C),
    ``lstm.w_hh`` (4H, H) and ``lstm.bias`` (4H,), gates stacked (i, f, g, o).
    """
    w_ih, w_hh, bias = (ad.as_var(params[n]) for n in ("lstm.w_ih", "lstm.w_hh", "lstm.bias"))
    x, h_prev, c_prev = ad.as_var(x), ad.as_var(h_prev), ad.as_var(c_prev)
    hidden = w_hh.shape[1]
    z = x @ w_ih.T + h_prev @ w_hh.T + bias
    gate = lambda j: z[:, j * hidden : (j + 1) * hidden]
    i = ad.sigmoid(gate(0))
    f = ad.sigmoid(gate(1))
    g = ad.tanh(gate(2))
    o = ad.sigmoid(gate(3))
    c = f * c_prev + i * g
    h = o * ad.tanh(c)
    return h, c


def fuse_all_anchors(batch, params):
    """Fuse a (K, T, C) anchor batch with shared parameters; returns (K, C).

    Anchors are independent: the batch dimension only rides through the
    matrix products, so row k depends on anchor k's frames alone.  The
    projection reads ``lstm.proj_w`` (C, H) and ``lstm.proj_b`` (C,).
    """
    batch = ad.as_var(batch)
    if batch.ndim != 3:
        raise ValueError("fuse_all_anchors: need a (K, T, C) batch")
    k, T, _ = batch.shape
    p = {name: ad.as_var(value) for name, value in params.items() if name.startswith("lstm.")}
    hidden = p["lstm.w_hh"].shape[1]
    h = ad.Var(np.zeros((k, hidden)))
    c = ad.Var(np.zeros((k, hidden)))
    for t in range(T):
        h, c = lstm_step(batch[:, t, :], h, c, p)
    return ad.relu(h @ p["lstm.proj_w"].T + p["lstm.proj_b"])
