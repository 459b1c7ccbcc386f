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

LSTM_PARAMS = ("lstm.w_ih", "lstm.w_hh", "lstm.bias", "lstm.proj_w", "lstm.proj_b")


def lstm_step(x, h_prev, c_prev, params):
    """One LSTM cell update on a (K, C) anchor batch; returns (h, c).

    i, f, o gates are sigmoids, candidate g is tanh, then
    c = f*c_prev + i*g and h = o*tanh(c).  Reads ``lstm.w_ih`` (4H, C),
    ``lstm.w_hh`` (4H, H) and ``lstm.bias`` (4H,), gates stacked (i, f, g, o).
    The fused ``autodiff.lstm_cell`` computes both states as one node.
    """
    w_ih, w_hh = ad.as_var(params["lstm.w_ih"]), ad.as_var(params["lstm.w_hh"])
    hidden = w_hh.shape[1]
    hc = ad.lstm_cell(x, w_ih.T, params["lstm.bias"], c_prev, h_prev, w_hh.T)
    return hc[:, :hidden], hc[:, hidden:]


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
    p = {name: ad.as_var(params[name]) for name in LSTM_PARAMS}
    hidden = p["lstm.w_hh"].shape[1]
    h = ad.as_var(np.zeros((k, hidden)))
    c = ad.as_var(np.zeros((k, hidden)))
    for t in range(T):
        h, c = lstm_step(batch[:, t, :], h, c, p)
    return ad.relu(h @ p["lstm.proj_w"].T + p["lstm.proj_b"])
