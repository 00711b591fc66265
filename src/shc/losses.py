"""Numeric loss kernels for training hash codes against fixed centers.

These operate on plain values (relaxed codes in [-1, 1]^q and their binary
target centers); no autodiff machinery is provided.  The central loss is
the binary cross-entropy between the bit probabilities (1 + b)/2 of a
relaxed code and the target bits of its center, averaged over the batch;
the quantization loss pushes relaxed entries toward +-1.
"""

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, ValidationError, _pm1_array

__all__ = ["LossConfig", "central_loss", "quantization_loss", "total_loss"]


@dataclass(frozen=True)
class LossConfig:
    """gamma weights the quantization term; epsilon floors the log arguments."""

    gamma: float = 1e-4
    epsilon: float = 1e-12

    def __post_init__(self):
        if self.gamma < 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if not 0 < self.epsilon < 1e-3:
            raise ValidationError(f"epsilon must lie in (0, 1e-3), got {self.epsilon}")


_DEFAULT = LossConfig()


def _lengths(rows, what) -> set[int]:
    """The distinct lengths of ``rows``, each of which must be a nonempty vector."""
    shapes = {np.shape(row) for row in rows}
    for shape in shapes:
        if len(shape) != 1 or shape[0] == 0:
            raise ValidationError(f"{what} must be a nonempty vector, got shape {shape}")
    return {shape[0] for shape in shapes}


def _relaxed(rows) -> np.ndarray:
    """The entries of nonempty relaxed-code vectors, joined into one float64 vector in [-1, 1]."""
    arr = np.concatenate(rows, dtype=np.float64)
    if not (np.abs(arr) <= 1.0).all():
        raise ValidationError("relaxed code entries must lie in [-1, 1]")
    return arr


def central_loss(batch, cfg: LossConfig = _DEFAULT) -> float:
    """Mean per-image cross-entropy between relaxed codes and their centers.

    ``batch`` is a sequence of (relaxed code, center) pairs of one common
    length; a center is a +-1 vector, such as a row of ``CenterSet.matrix``.
    Probabilities (1 + b)/2 are clamped into [epsilon, 1 - epsilon] before
    the log, so exact +-1 entries are legal input.  Zero batch size is an
    error.
    """
    pairs = list(batch)
    if not pairs:
        raise ValidationError("central loss needs a nonempty batch")
    codes = [b for b, _ in pairs]
    centers = [h for _, h in pairs]
    lengths = _lengths(codes, "relaxed code") | _lengths(centers, "center")
    if len(lengths) > 1:
        raise DimensionMismatchError(f"batch mixes code lengths {sorted(lengths)}")
    b = _relaxed(codes).reshape(len(pairs), -1)
    h = _pm1_array(centers, "center")
    p = np.clip((1.0 + b) / 2.0, cfg.epsilon, 1.0 - cfg.epsilon)
    return -float(np.log(np.where(h > 0, p, 1.0 - p)).sum()) / len(pairs)


def quantization_loss(batch) -> float:
    """Sum over the batch of sum_j (|b_j| - 1)^2; zero iff every entry is +-1.

    Rows may differ in length, and an empty batch gives 0.
    """
    rows = list(batch)
    if not rows:
        return 0.0
    _lengths(rows, "relaxed code")
    gap = np.abs(_relaxed(rows)) - 1.0
    return float(gap @ gap)


def total_loss(batch, cfg: LossConfig = _DEFAULT) -> float:
    """central_loss + gamma * quantization_loss over a batch of (code, center) pairs."""
    pairs = list(batch)
    return central_loss(pairs, cfg) + cfg.gamma * quantization_loss(b for b, _ in pairs)
