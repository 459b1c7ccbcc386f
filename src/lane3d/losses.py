"""Training losses with analytic gradients.

Balanced L1 regression, bidirectional Chamfer over point sets, focal
classification, soft Dice on visibility, and the uncertainty-weighted
multi-task combination  sum_i e^{-s_i} L_i + s_i.
Every loss accepts autodiff Vars (or plain arrays, treated as constants)
and returns a scalar Var, so gradients flow wherever the caller needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

# the four supervised tasks, in the order of the learned log-variances
TASK_NAMES = ("regression", "curve", "classification", "visibility")

CONTINUITY_TOL = 1e-9
# largest x with a finite e^x in float64
MAX_EXPONENT = float(np.log(np.finfo(np.float64).max))


@dataclass(frozen=True)
class LossConfig:
    """Parameters for every loss term.

    b is never free: it solves alpha*ln(b+1) = gamma so the two Balanced
    L1 branches meet at delta=beta with matching value and slope.
    """

    alpha: float = 0.5
    beta: float = 1.0
    gamma: float = 1.5
    focal_gamma: float = 2.0
    focal_alpha: float = 0.25
    dice_epsilon: float = 1.0
    b: float = field(init=False)

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0 or self.gamma <= 0:
            raise ValueError("LossConfig: alpha, beta, gamma must be positive")
        if self.focal_gamma < 0 or self.focal_alpha <= 0:
            raise ValueError("LossConfig: focal parameters out of range")
        if self.dice_epsilon <= 0:
            raise ValueError("LossConfig: dice epsilon must be positive")
        if not self.gamma / self.alpha < MAX_EXPONENT:
            raise ValueError(
                f"LossConfig: gamma/alpha = {self.gamma / self.alpha:.6g} overflows "
                f"b = e^(gamma/alpha) - 1; keep it below {MAX_EXPONENT:.6g}"
            )
        b = float(np.expm1(self.gamma / self.alpha))
        object.__setattr__(self, "b", b)
        if abs(self.alpha * np.log1p(b) - self.gamma) > CONTINUITY_TOL:
            raise ValueError("LossConfig: continuity constraint violated")


def balanced_l1(delta, config: LossConfig):
    """Two-branch regression loss of a non-negative residual magnitude.

    Below beta the log-shaped branch applies; at and above beta the
    affine branch gamma*delta + gamma/b - alpha*beta takes over.  With b
    from the continuity constraint both value and slope agree at beta,
    so which branch evaluates the boundary point is immaterial.
    """
    delta = ad.as_var(delta)
    if np.any(delta.value < 0.0):
        raise ValueError("balanced_l1: residual magnitudes must be non-negative")
    a, beta, g, b = config.alpha, config.beta, config.gamma, config.b
    below = delta.value < beta
    scaled = delta * (b / beta) + 1.0
    left = (delta * b + 1.0) * ad.log(scaled) * (a / b) - delta * a
    right = delta * g + (g / b - a * beta)
    return ad.where(below, left, right)


def balanced_l1_vector(predicted, target, weights, config: LossConfig):
    """Weighted mean of balanced_l1(|predicted - target|) entries.

    Offset vectors are flat (callers concatenate their delta-x and
    delta-z blocks); weights are per-entry, non-negative, positive sum.
    """
    predicted, target = ad.as_var(predicted), ad.as_var(target)
    w = np.asarray(weights, dtype=np.float64)
    if predicted.shape != target.shape or predicted.shape != w.shape:
        raise ValueError("balanced_l1_vector: inputs must share one length")
    if np.any(w < 0.0):
        raise ValueError("balanced_l1_vector: weights must be non-negative")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("balanced_l1_vector: weights must have positive sum")
    per_entry = balanced_l1(ad.absolute(predicted - target), config)
    return (per_entry * w).sum() / total


def _as_points(ps):
    ps = ad.as_var(ps)
    if ps.ndim != 2 or ps.shape[1] != 3 or ps.shape[0] == 0:
        raise ValueError("chamfer: need non-empty (n, 3) point arrays")
    return ps


def chamfer(P, Q, mask=None):
    """Bidirectional mean of nearest-neighbor squared distances.

    Gradients flow into both sets through the argmin pairs; nearest
    neighbor ties resolve to the lowest index.  Two (n, 3) and (m, 3)
    sets give a scalar.  A row batch of (R, n, 3) predictions and
    (R, m, 3) padded sets with a boolean (R, m) ``mask`` of their valid
    points gives the (R,) per-row values; padded points take no part.
    """
    if mask is None:
        P, Q = _as_points(P), _as_points(Q)
        n, m = P.shape[0], Q.shape[0]
        diff = P.reshape((n, 1, 3)) - Q.reshape((1, m, 3))
        d2 = ad.square(diff).sum(axis=2)
        return ad.reduce_min(d2, axis=1).mean() + ad.reduce_min(d2, axis=0).mean()
    P, Q = ad.as_var(P), ad.as_var(Q)
    mask = np.asarray(mask, dtype=bool)
    if P.ndim != 3 or P.shape[2] != 3 or P.shape[1] == 0 or Q.ndim != 3 or Q.shape[2] != 3:
        raise ValueError("chamfer: need (R, n, 3) and (R, m, 3) point batches")
    rows, n, m = P.shape[0], P.shape[1], Q.shape[1]
    if Q.shape[0] != rows or mask.shape != (rows, m):
        raise ValueError("chamfer: need one (m,) validity row per pair")
    count = mask.sum(axis=1)
    if np.any(count == 0):
        raise ValueError("chamfer: every row needs a valid point")
    diff = P.reshape((rows, n, 1, 3)) - Q.reshape((rows, 1, m, 3))
    d2 = ad.square(diff).sum(axis=3)
    to_q = ad.reduce_min(ad.where(mask[:, None, :], d2, np.inf), axis=2).mean(axis=1)
    to_p = (ad.reduce_min(d2, axis=1) * (mask / count[:, None])).sum(axis=1)
    return to_q + to_p


def log_softmax(logits):
    """Numerically stable log-softmax along the last axis; the constant
    per-row max shift leaves the function (hence its gradient) unchanged."""
    logits = ad.as_var(logits)
    shift = np.max(logits.value, axis=-1, keepdims=True)
    shifted = logits - shift
    return shifted - ad.log(ad.exp(shifted).sum(axis=-1, keepdims=True))


def focal(class_logits, target_category, config: LossConfig):
    """-alpha_f * (1 - p_t)^gamma_f * ln(p_t) with softmax p_t.

    Works along the last axis: a (C,) logit vector with one integer
    target gives a scalar, and an (N, C) row batch with N targets gives
    the (N,) per-row losses.  gamma_f = 0, alpha_f = 1 reduces exactly
    to cross-entropy.
    """
    class_logits = ad.as_var(class_logits)
    num_classes = class_logits.shape[-1]
    if num_classes < 2:
        raise ValueError("focal: need at least 2 categories")
    targets = np.asarray(target_category)
    if targets.shape != class_logits.shape[:-1]:
        raise ValueError("focal: need exactly one target per row of logits")
    bad = (targets < 0) | (targets >= num_classes)
    if np.any(bad):
        raise ValueError(f"focal: target index {targets[bad].flat[0]} out of range")
    # leading indices enumerate the rows; the last picks each row's target
    index = tuple(np.indices(targets.shape)) + (targets.astype(np.intp),)
    log_pt = log_softmax(class_logits)[index]
    pt = ad.exp(log_pt)
    modulator = ad.power(1.0 - pt, config.focal_gamma)
    return modulator * log_pt * (-config.focal_alpha)


def cross_entropy(class_logits, target_category: int):
    """Plain softmax cross-entropy (the focal gamma_f=0, alpha_f=1 case)."""
    class_logits = ad.as_var(class_logits)
    return -log_softmax(class_logits)[int(target_category)]


def dice(pred_probabilities, target_mask, config: LossConfig):
    """Soft Dice 1 - (2*sum(p*g) + eps) / (sum(p) + sum(g) + eps).

    Sums run along the last axis: one (S,) row gives a scalar and a
    (P, S) row batch gives the (P,) per-row losses.
    """
    p = ad.as_var(pred_probabilities)
    g = np.asarray(target_mask, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError("dice: prediction and target must share one shape")
    if np.any(p.value < 0.0) or np.any(p.value > 1.0):
        raise ValueError("dice: predictions must lie in [0, 1]")
    if not np.all((g == 0.0) | (g == 1.0)):
        raise ValueError("dice: target mask must be binary")
    eps = config.dice_epsilon
    overlap = (p * g).sum(axis=-1) * 2.0 + eps
    return 1.0 - overlap / (p.sum(axis=-1) + g.sum(axis=-1) + eps)


def combine_uncertainty(task_losses: dict, s_map: dict):
    """sum_i e^{-s_i} L_i + s_i over matching task keys.

    ``s_map`` holds one s value per task; both losses and s entries may
    be Vars.  d/ds_i = 1 - e^{-s_i} L_i, so the stationary point for
    frozen L_i sits at s_i = ln L_i.
    """
    if set(task_losses.keys()) != set(s_map.keys()):
        raise ValueError("combine_uncertainty: task keys must match")
    total = None
    for name in sorted(task_losses):
        loss = ad.as_var(task_losses[name])
        if np.any(loss.value < 0.0):
            raise ValueError(f"combine_uncertainty: negative loss for task {name}")
        s = ad.as_var(s_map[name])
        term = ad.exp(-s) * loss + s
        total = term if total is None else total + term
    if total is None:
        raise ValueError("combine_uncertainty: need at least one task")
    return total
