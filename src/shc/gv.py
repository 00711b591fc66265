"""Feasible minimum pairwise Hamming distance for C codewords of length q.

The bound guarantees that C codewords of length q with minimum pairwise
distance d exist whenever 2^q / C <= sum_{i=0}^{d-1} binom(q, i).  All
arithmetic is exact integer arithmetic, so q = 64 and beyond are safe.
"""

from .core import InfeasibleError, ValidationError

__all__ = ["compute_min_distance"]


def _check_code_space(q: int, C: int) -> None:
    """Check that q >= 1, C >= 1 and that C distinct codewords fit in {-1,+1}^q."""
    if q < 1:
        raise ValidationError(f"code length must be positive, got {q}")
    if C < 1:
        raise ValidationError(f"class count must be positive, got {C}")
    if C > 2**q:
        raise InfeasibleError(f"{C} classes do not fit in {{-1,+1}}^{q} ({2**q} codewords)")


def compute_min_distance(q: int, C: int) -> int:
    """Smallest d in {1..q} such that 2^q <= C * sum_{i<d} binom(q, i).

    For C == 1 there are no pairs to separate and the full length q is
    returned.  Raises :class:`InfeasibleError` when C > 2^q, i.e. there are
    not even C distinct codewords of length q.
    """
    _check_code_space(q, C)
    if C == 1:
        return q
    total = 2**q
    ball = 0
    term = 1  # binom(q, d - 1), updated in O(q) big-int steps instead of recomputed
    for d in range(1, q):
        ball += term
        if total <= C * ball:
            return d
        term = term * (q - d + 1) // d
    # d = q always qualifies: it gives ball = 2^q - 1, and C >= 2 satisfies
    # 2^q <= C * (2^q - 1).
    return q
