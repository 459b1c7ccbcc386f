"""Per-anchor temporal fusion: an LSTM over the last T frames of features.

One LSTM (parameters shared across anchors) consumes each anchor's T
frame features in chronological order from a zero initial state, and the
final hidden state is projected back to feature space through
relu(W h_T + b).  The fused vector replaces the current frame's feature
ahead of the detection heads.
"""

from __future__ import annotations

from . import autodiff as ad


def fuse_all_anchors(batch, params, frames=1):
    """Fuse the windows of the last ``frames`` frames of a (K, T, C) batch.

    Frame t's window is [f0]*(T-1-t) + [f0..ft]: left-padded by repeating
    the oldest frame, so the fuser always runs the window length it was
    trained on.  Returns (frames*K, C), frame-major: rows j*K .. (j+1)*K
    hold frame T-frames+j; ``frames=1`` fuses each row's whole sequence.
    Rows are independent: the batch dimension only rides through the
    matrix products, so row k depends on anchor k's frames alone.  The
    projection reads ``lstm.proj_w`` (C, H) and ``lstm.proj_b`` (C,).

    The recurrence is one ``autodiff.lstm_windows`` node (see there for
    the shared-prefix rows each step runs on); the projection is built
    from ordinary primitives.
    """
    batch = ad.as_var(batch)
    if batch.ndim != 3:
        raise ValueError("fuse_all_anchors: need a (K, T, C) batch")
    T = batch.shape[1]
    if not 1 <= frames <= T:  # T = 0 included
        raise ValueError(f"fuse_all_anchors: frames = {frames} outside 1..T = {T}")
    h = ad.lstm_windows(batch, params["lstm.w_ih"], params["lstm.w_hh"], params["lstm.bias"],
                        frames)
    return ad.relu(h @ params["lstm.proj_w"].T + params["lstm.proj_b"])
