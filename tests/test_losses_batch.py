"""The batch loss kernels against the per-pair loops they replaced.

``oracle_central_loss`` and ``oracle_quantization_loss`` keep the loop
bodies of the per-pair kernels verbatim, with their two helpers, so every
value and every error class of the array kernels is checked against them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from shc.core import CenterSet, DimensionMismatchError, ValidationError
from shc.losses import LossConfig, central_loss, quantization_loss, total_loss


def _relaxed(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"relaxed code must be a nonempty vector, got shape {arr.shape}")
    if not np.isfinite(arr).all() or np.abs(arr).max() > 1.0:
        raise ValidationError("relaxed code entries must lie in [-1, 1]")
    return arr


def _center_bits(center) -> np.ndarray:
    arr = np.asarray(center)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"center must be a nonempty vector, got shape {arr.shape}")
    if not ((arr == 1) | (arr == -1)).all():
        raise ValidationError("center entries must be exactly -1 or +1")
    return arr.astype(np.float64)


def oracle_central_loss(batch, cfg: LossConfig = LossConfig()) -> float:
    total = 0.0
    n = 0
    q = None
    for relaxed, center in batch:
        b = _relaxed(relaxed)
        h = _center_bits(center)
        if b.size != h.size:
            raise DimensionMismatchError(f"code lengths differ: {b.size} vs {h.size}")
        if q is None:
            q = b.size
        elif b.size != q:
            raise DimensionMismatchError(f"batch mixes code lengths {q} and {b.size}")
        p = np.clip((1.0 + b) / 2.0, cfg.epsilon, 1.0 - cfg.epsilon)
        t = (1.0 + h) / 2.0
        total -= float(t @ np.log(p) + (1.0 - t) @ np.log(1.0 - p))
        n += 1
    if n == 0:
        raise ValidationError("central loss needs a nonempty batch")
    return total / n


def oracle_quantization_loss(batch) -> float:
    total = 0.0
    for relaxed in batch:
        b = _relaxed(relaxed)
        gap = np.abs(b) - 1.0
        total += float(gap @ gap)
    return total


# Each center in a batch takes one of these forms, picked per pair.
CENTER_FORMS = [
    lambda bits: CenterSet(bits[None, :]).matrix[0],
    lambda bits: bits,
    lambda bits: bits.astype(np.float64),
    lambda bits: [int(x) for x in bits],
]


def relaxed_rows(rng, n, q, ends):
    """n relaxed codes in [-1, 1]^q with a share ``ends`` of exact +-1 entries."""
    codes = rng.uniform(-1.0, 1.0, (n, q))
    exact = rng.random((n, q)) < ends
    codes[exact] = rng.choice([-1.0, 1.0], size=int(exact.sum()))
    return codes


@given(
    st.integers(1, 50),
    st.integers(1, 70),
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    st.sampled_from([1e-12, 1e-6, 1e-4]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_central_and_total_loss_match_the_per_pair_loop(n, q, ends, epsilon, seed):
    rng = np.random.default_rng(seed)
    codes = relaxed_rows(rng, n, q, ends)
    bits = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, q))
    forms = rng.integers(0, len(CENTER_FORMS), n)
    batch = [(codes[i], CENTER_FORMS[forms[i]](bits[i])) for i in range(n)]
    cfg = LossConfig(gamma=float(rng.uniform(0.0, 10.0)), epsilon=epsilon)
    want = oracle_central_loss(batch, cfg)
    assert_allclose(central_loss(batch, cfg), want, rtol=1e-12)
    want += cfg.gamma * oracle_quantization_loss(b for b, _ in batch)
    assert_allclose(total_loss(iter(batch), cfg), want, rtol=1e-12)


@given(
    st.lists(st.integers(1, 70), max_size=50),
    st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_quantization_loss_matches_the_per_row_loop(lengths, ends, seed):
    rng = np.random.default_rng(seed)
    batch = [relaxed_rows(rng, 1, q, ends)[0] for q in lengths]
    got = quantization_loss(iter(batch))
    assert_allclose(got, oracle_quantization_loss(batch), rtol=1e-12, atol=0.0)
    assert (got == 0.0) == all((np.abs(b) == 1.0).all() for b in batch)


def h(*bits):
    return np.array(bits, dtype=np.int8)


# Malformed central-loss batches and the error class of the per-pair loop.
MALFORMED_CENTRAL = {
    "empty batch": ([], ValidationError),
    "ragged relaxed codes": ([(np.zeros(2), h(1, -1)), (np.zeros(3), h(1, -1, 1))], DimensionMismatchError),
    "ragged centers, equal-length codes": (
        [(np.zeros(2), h(1, -1)), (np.zeros(2), h(1, -1, 1))], DimensionMismatchError),
    "code longer than its center": ([(np.zeros(3), h(1, -1))], DimensionMismatchError),
    "2-D relaxed row": ([(np.zeros((1, 2)), h(1, -1))], ValidationError),
    "2-D relaxed row after a good pair": (
        [(np.zeros(2), h(1, -1)), (np.zeros((1, 2)), h(1, -1))], ValidationError),
    "2-D center": ([(np.zeros(2), np.array([[1, -1]]))], ValidationError),
    "scalar relaxed row": ([(0.5, h(1))], ValidationError),
    "empty relaxed vector": ([(np.zeros(0), np.zeros(0))], ValidationError),
    "empty center": ([(np.zeros(2), np.zeros(0))], ValidationError),
    "NaN entry": ([(np.array([np.nan, 0.0]), h(1, -1))], ValidationError),
    "infinite entry": ([(np.array([0.0, -np.inf]), h(1, -1))], ValidationError),
    "entry 1.5": ([(np.array([1.5, 0.0]), h(1, -1))], ValidationError),
    "entry 1.5 after a good pair": (
        [(np.zeros(2), h(1, -1)), (np.array([0.0, 1.5]), h(1, 1))], ValidationError),
    "0/2 center": ([(np.zeros(2), np.array([0, 2]))], ValidationError),
    "0/1 center after a good pair": ([(np.zeros(2), h(1, -1)), (np.zeros(2), [0, 1])], ValidationError),
}

# Malformed quantization-loss batches; this loss has no length rule and accepts the empty batch.
MALFORMED_QUANTIZATION = {
    "2-D row": ([np.zeros((2, 2))], ValidationError),
    "2-D row after a good row": ([np.zeros(2), np.zeros((1, 3))], ValidationError),
    "scalar row": ([0.5], ValidationError),
    "empty vector": ([np.zeros(2), np.zeros(0)], ValidationError),
    "NaN entry": ([np.array([0.0, np.nan])], ValidationError),
    "entry 1.5": ([np.zeros(3), np.array([1.5])], ValidationError),
}


@pytest.mark.parametrize("batch, error", MALFORMED_CENTRAL.values(), ids=MALFORMED_CENTRAL.keys())
def test_malformed_central_batch_raises_the_loop_error(batch, error):
    with pytest.raises(error):
        oracle_central_loss(batch)
    with pytest.raises(error):
        central_loss(batch)
    with pytest.raises(error):
        total_loss(batch)


@pytest.mark.parametrize("batch, error", MALFORMED_QUANTIZATION.values(),
                         ids=MALFORMED_QUANTIZATION.keys())
def test_malformed_quantization_batch_raises_the_loop_error(batch, error):
    with pytest.raises(error):
        oracle_quantization_loss(batch)
    with pytest.raises(error):
        quantization_loss(batch)


def test_quantization_loss_of_mixed_lengths_and_of_nothing():
    assert quantization_loss([np.zeros(2), np.zeros(3)]) == 5.0
    assert quantization_loss([[0.5], np.array([1.0, -1.0, 0.0])]) == 1.25
    assert quantization_loss([]) == 0.0
    assert quantization_loss(iter([])) == 0.0


def test_central_loss_of_list_input():
    # plain lists for codes and centers, as the loop took them
    batch = [([0.5, -0.5], [1, -1]), ([0.0, 1.0], [-1, 1])]
    assert_allclose(central_loss(batch), oracle_central_loss(batch), rtol=1e-12)
