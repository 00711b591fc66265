from math import comb, factorial

import pytest

from shc.core import InfeasibleError, ValidationError
from shc.gv import compute_min_distance


def binom(n, k):
    return factorial(n) // (factorial(k) * factorial(n - k))


def brute_force_min_distance(q, C):
    """Independent scan: the set of d satisfying the bound, then its minimum."""
    satisfying = [
        d for d in range(1, q + 1)
        if 2**q <= C * sum(binom(q, i) for i in range(d))
    ]
    return min(satisfying) if satisfying else None


# Known-good minimum distances for common (class count, code length) settings.
KNOWN_DISTANCES = {
    (100, 16): 4, (100, 32): 10, (100, 64): 24,
    (196, 16): 4, (196, 32): 10, (196, 64): 23,
    (555, 16): 3, (555, 32): 9, (555, 64): 21,
}


@pytest.mark.parametrize(("C", "q"), sorted(KNOWN_DISTANCES))
def test_known_values(C, q):
    assert compute_min_distance(q, C) == KNOWN_DISTANCES[(C, q)]


def test_tiny_case():
    # 2^1 / 2 = 1 <= binom(1, 0) = 1
    assert compute_min_distance(1, 2) == 1


@pytest.mark.parametrize("q", range(1, 21))
def test_brute_force_oracle(q):
    for C in (2, 3, 5, 17, 100, 1000, 2**q):
        if C > 2**q:
            continue
        assert compute_min_distance(q, C) == brute_force_min_distance(q, C)


def test_monotonicity_grid():
    qs = [8, 16, 32, 64]
    Cs = [2, 10, 100, 196, 555, 1000]
    table = {(q, C): compute_min_distance(q, C) for q in qs for C in Cs if C <= 2**q}
    for q in qs:
        ds = [table[(q, C)] for C in Cs if (q, C) in table]
        assert all(a >= b for a, b in zip(ds, ds[1:])), f"d not non-increasing in C at q={q}"
    for C in Cs:
        ds = [table[(q, C)] for q in qs if (q, C) in table]
        assert all(a <= b for a, b in zip(ds, ds[1:])), f"d not non-decreasing in q at C={C}"


def test_infeasible_when_classes_exceed_codewords():
    with pytest.raises(InfeasibleError):
        compute_min_distance(1, 3)
    with pytest.raises(InfeasibleError):
        compute_min_distance(4, 17)


def test_single_class_gets_full_length():
    assert compute_min_distance(16, 1) == 16


def test_input_validation():
    with pytest.raises(ValidationError):
        compute_min_distance(0, 5)
    with pytest.raises(ValidationError):
        compute_min_distance(8, 0)


def test_exact_arithmetic_at_q64_boundary():
    # The d=24 answer for (q=64, C=100) hinges on exact integer sums around 2^64.
    q, C = 64, 100
    ball = sum(binom(q, i) for i in range(23))
    assert C * ball < 2**q
    ball += binom(q, 23)
    assert C * ball >= 2**q


def comb_sum_min_distance(q, C):
    """The bound scan with a fresh binom(q, d - 1) at every step."""
    ball = 0
    for d in range(1, q + 1):
        ball += comb(q, d - 1)
        if 2**q <= C * ball:
            return d
    return None


@pytest.mark.parametrize("q", range(1, 65))
def test_running_binomial_matches_comb_sum(q):
    for C in (2, 3, 100, 2**q):
        if C > 2**q:
            with pytest.raises(InfeasibleError):
                compute_min_distance(q, C)
        else:
            assert compute_min_distance(q, C) == comb_sum_min_distance(q, C)


@pytest.mark.parametrize("q", [500, 2000])
def test_running_binomial_at_long_codes(q):
    assert compute_min_distance(q, 3) == comb_sum_min_distance(q, 3)
