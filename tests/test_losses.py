import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shc.core import CenterSet, DimensionMismatchError, ValidationError
from shc.losses import LossConfig, central_loss, quantization_loss, total_loss


def pm1(rng, q):
    return (rng.integers(0, 2, q) * 2 - 1).astype(np.int8)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.gamma == 1e-4
        assert cfg.epsilon == 1e-12

    @pytest.mark.parametrize("kwargs", [{"gamma": -1.0}, {"epsilon": 0.0}, {"epsilon": 1e-2}])
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            LossConfig(**kwargs)


class TestCentralLoss:
    def test_near_perfect_alignment(self):
        b = np.array([0.999, -0.999])
        h = np.array([1, -1], dtype=np.int8)
        assert_allclose(central_loss([(b, h)]), -2 * math.log(0.9995), rtol=1e-12)

    def test_maximal_uncertainty(self):
        h = np.array([1, -1, 1], dtype=np.int8)
        assert_allclose(central_loss([(np.zeros(3), h)]), 3 * math.log(2), rtol=1e-12)

    def test_batch_mean(self):
        h = np.array([1, -1], dtype=np.int8)
        one = central_loss([(np.zeros(2), h)])
        two = central_loss([(np.zeros(2), h), (np.zeros(2), h)])
        assert_allclose(one, two, rtol=1e-12)

    def test_takes_center_set_rows(self):
        # an external trainer pairs each relaxed code with its class's row of ``CenterSet.matrix``
        centers = CenterSet([[1, -1], [-1, -1]])
        codes, labels = np.array([[0.5, -0.5], [0.25, 0.0], [-0.5, 0.0]]), np.array([0, 1, 1])
        assert central_loss(zip(codes, centers.matrix[labels])) == central_loss(
            zip(codes, [[1.0, -1.0], [-1.0, -1.0], [-1.0, -1.0]])
        )

    def test_exact_binary_input_is_finite(self):
        # fully wrong exact-binary input hits the clamp on both bits;
        # 1 - (1 - eps) reconstructs eps only to ~1e-4 relative
        h = np.array([1, -1], dtype=np.int8)
        worst = central_loss([(np.array([-1.0, 1.0]), h)])
        assert math.isfinite(worst)
        assert_allclose(worst, -2 * math.log(1e-12), rtol=1e-4)

    def test_strict_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            q = int(rng.integers(1, 12))
            h = pm1(rng, q)
            b = rng.uniform(-0.999, 0.999, q)
            j = int(rng.integers(0, q))
            closer = b.copy()
            # move component j strictly toward h_j without entering the clamp zone
            closer[j] = b[j] + (h[j] - b[j]) * rng.uniform(0.05, 0.9)
            assert central_loss([(closer, h)]) < central_loss([(b, h)])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            central_loss([(np.zeros(3), np.array([1, -1], dtype=np.int8))])

    def test_empty_batch(self):
        with pytest.raises(ValidationError):
            central_loss([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            central_loss([(np.array([1.5, 0.0]), np.array([1, 1], dtype=np.int8))])


class TestQuantizationLoss:
    def test_exact_binary_is_zero(self):
        assert quantization_loss([np.array([1.0, -1.0])]) == 0.0

    def test_hand_arithmetic(self):
        assert_allclose(quantization_loss([np.array([0.5, -0.5])]), 0.5, rtol=1e-12)

    def test_worst_case_per_bit(self):
        assert_allclose(quantization_loss([np.zeros(3)]), 3.0, rtol=1e-12)

    def test_batch_is_a_sum(self):
        a, b = np.array([0.5, -0.5]), np.zeros(2)
        assert_allclose(
            quantization_loss([a, b]),
            quantization_loss([a]) + quantization_loss([b]),
            rtol=1e-12,
        )

    def test_zero_iff_exact_binary(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            q = int(rng.integers(1, 16))
            if rng.random() < 0.5:
                b = pm1(rng, q).astype(np.float64)
                assert quantization_loss([b]) == 0.0
            else:
                b = pm1(rng, q).astype(np.float64)
                j = int(rng.integers(0, q))
                b[j] *= rng.uniform(0.0, 0.999)
                assert quantization_loss([b]) > 0.0


class TestTotalLoss:
    def test_gamma_zero(self):
        rng = np.random.default_rng(2)
        h = pm1(rng, 6)
        b = rng.uniform(-1, 1, 6)
        cfg = LossConfig(gamma=0.0)
        assert total_loss([(b, h)], cfg) == central_loss([(b, h)], cfg)

    def test_binary_input_reduces_to_central(self):
        rng = np.random.default_rng(3)
        h = pm1(rng, 6)
        b = pm1(rng, 6).astype(np.float64)
        cfg = LossConfig(gamma=5.0)
        assert total_loss([(b, h)], cfg) == central_loss([(b, h)], cfg)

    def test_hand_arithmetic(self):
        b = np.array([0.5, -0.5])
        h = np.array([1, -1], dtype=np.int8)
        got = total_loss([(b, h)], LossConfig(gamma=1.0))
        assert_allclose(got, -2 * math.log(0.75) + 0.5, rtol=1e-12)


class TestInvariances:
    def test_batch_permutation_invariance(self):
        rng = np.random.default_rng(4)
        batch = [(rng.uniform(-1, 1, 8), pm1(rng, 8)) for _ in range(6)]
        shuffled = [batch[i] for i in rng.permutation(6)]
        assert_allclose(central_loss(batch), central_loss(shuffled), rtol=1e-12)
        assert_allclose(
            quantization_loss([b for b, _ in batch]),
            quantization_loss([b for b, _ in shuffled]),
            rtol=1e-12,
        )

    def test_bit_permutation_invariance(self):
        rng = np.random.default_rng(5)
        b = rng.uniform(-1, 1, 10)
        h = pm1(rng, 10)
        perm = rng.permutation(10)
        assert_allclose(
            central_loss([(b, h)]), central_loss([(b[perm], h[perm])]), rtol=1e-12
        )
        assert_allclose(
            quantization_loss([b]), quantization_loss([b[perm]]), rtol=1e-12
        )

    def test_finite_on_closed_interval_fuzz(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            q = int(rng.integers(1, 10))
            h = pm1(rng, q)
            b = rng.uniform(-1, 1, q)
            # sprinkle exact endpoints
            ends = rng.random(q) < 0.3
            b[ends] = pm1(rng, q).astype(np.float64)[ends]
            assert math.isfinite(total_loss([(b, h)], LossConfig(gamma=1.0)))
