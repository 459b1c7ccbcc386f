"""Per-anchor temporal fusion: an LSTM over the last T frames of features.

One LSTM (parameters shared across anchors) consumes each anchor's T
frame features in chronological order from a zero initial state, and the
final hidden state is projected back to feature space through
relu(W h_T + b).  The fused vector replaces the current frame's feature
ahead of the detection heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

PARAM_NAMES = ("w_ih", "w_hh", "bias", "proj_w", "proj_b")


@dataclass(frozen=True)
class LstmParameters:
    """Gate weights stacked in (i, f, g, o) order plus the fusion projection.

    w_ih: (4H, C), w_hh: (4H, H), bias: (4H,), proj_w: (C, H), proj_b: (C,).
    """

    w_ih: np.ndarray
    w_hh: np.ndarray
    bias: np.ndarray
    proj_w: np.ndarray
    proj_b: np.ndarray

    def __post_init__(self):
        for name in PARAM_NAMES:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        four_h, c = self.w_ih.shape
        if four_h % 4 != 0:
            raise ValueError("LstmParameters: stacked gate dimension must be 4H")
        h = four_h // 4
        if self.w_hh.shape != (four_h, h) or self.bias.shape != (four_h,):
            raise ValueError("LstmParameters: recurrent shapes inconsistent")
        if self.proj_w.shape != (c, h) or self.proj_b.shape != (c,):
            raise ValueError("LstmParameters: projection shapes inconsistent")
        for name in PARAM_NAMES:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"LstmParameters: {name} must be finite")

    @property
    def hidden_size(self) -> int:
        return self.w_ih.shape[0] // 4

    @property
    def channels(self) -> int:
        return self.w_ih.shape[1]

    @staticmethod
    def initialize(channels: int, hidden_size: int | None = None, rng=None) -> "LstmParameters":
        """Uniform(-1/sqrt(H), 1/sqrt(H)) weights, forget-gate bias +1."""
        h = channels if hidden_size is None else hidden_size
        if channels < 1 or h < 1:
            raise ValueError("LstmParameters.initialize: need positive sizes")
        rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
        scale = 1.0 / np.sqrt(h)
        u = lambda *shape: rng.uniform(-scale, scale, size=shape)
        bias = u(4 * h)
        bias[h : 2 * h] += 1.0
        return LstmParameters(
            w_ih=u(4 * h, channels),
            w_hh=u(4 * h, h),
            bias=bias,
            proj_w=u(channels, h),
            proj_b=u(channels),
        )


def _as_param_vars(params) -> dict:
    if isinstance(params, LstmParameters):
        return {name: ad.Var(getattr(params, name)) for name in PARAM_NAMES}
    missing = [name for name in PARAM_NAMES if name not in params]
    if missing:
        raise ValueError(f"lstm parameters missing entries: {missing}")
    return {name: ad.as_var(params[name]) for name in PARAM_NAMES}


def lstm_step(x, h_prev, c_prev, params):
    """One LSTM cell update on a (K, C) anchor batch.

    i, f, o gates are sigmoids, candidate g is tanh, then
    c = f*c_prev + i*g and h = o*tanh(c).
    """
    p = _as_param_vars(params)
    x, h_prev, c_prev = ad.as_var(x), ad.as_var(h_prev), ad.as_var(c_prev)
    hidden = p["w_hh"].shape[1]
    z = x @ p["w_ih"].T + h_prev @ p["w_hh"].T + p["bias"]
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
    matrix products, so row k depends on anchor k's frames alone.
    """
    batch = ad.as_var(batch)
    if batch.ndim != 3:
        raise ValueError("fuse_all_anchors: need a (K, T, C) batch")
    k, T, _ = batch.shape
    p = _as_param_vars(params)
    hidden = p["w_hh"].shape[1]
    h = ad.Var(np.zeros((k, hidden)))
    c = ad.Var(np.zeros((k, hidden)))
    for t in range(T):
        h, c = lstm_step(batch[:, t, :], h, c, p)
    return ad.relu(h @ p["proj_w"].T + p["proj_b"])
