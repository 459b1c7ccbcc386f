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


def fuse_all_anchors(batch, params, frames=1):
    """Fuse the windows of the last ``frames`` frames of a (K, T, C) batch.

    Frame t's window is [f0]*(T-1-t) + [f0..ft]: left-padded by repeating
    the oldest frame, so the fuser always runs the window length it was
    trained on.  Returns (frames*K, C), frame-major: rows j*K .. (j+1)*K
    hold frame T-frames+j; ``frames=1`` fuses each row's whole sequence.
    Rows are independent: the batch dimension only rides through the
    matrix products, so row k depends on anchor k's frames alone.  The
    projection reads ``lstm.proj_w`` (C, H) and ``lstm.proj_b`` (C,).

    Windows that have read only f0 so far share one state, so step s runs
    the cell on the rows of frames lo..s alone, lo = max(s+1-frames, 0)
    (K, 2K, 3K rows for T = frames = 3, not 3K each), and a window that
    leaves the shared group starts from a repeat of the shared rows.
    """
    batch = ad.as_var(batch)
    if batch.ndim != 3:
        raise ValueError("fuse_all_anchors: need a (K, T, C) batch")
    k, T, _ = batch.shape
    if not 1 <= frames <= T:  # T = 0 included
        raise ValueError(f"fuse_all_anchors: frames = {frames} outside 1..T = {T}")
    p = {name: ad.as_var(params[name]) for name in LSTM_PARAMS}
    hidden = p["lstm.w_hh"].shape[1]
    h = ad.as_var(np.zeros((k, hidden)))
    c = ad.as_var(np.zeros((k, hidden)))
    rows = np.arange(k)
    for s in range(T):
        lo = max(s + 1 - frames, 0)
        if lo == s:
            x = batch[:, s, :]
        else:  # frames lo..s, frame-major
            x = batch[np.tile(rows, s + 1 - lo), np.repeat(np.arange(lo, s + 1), k)]
        if lo == 0 and s > 0:  # the window reading f1 leaves the shared group
            shared = np.concatenate([rows, np.arange(s * k)])
            h, c = h[shared], c[shared]
        h, c = lstm_step(x, h, c, p)
    return ad.relu(h @ p["lstm.proj_w"].T + p["lstm.proj_b"])
