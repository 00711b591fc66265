import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shc import optimizer
from shc.core import (
    CenterSet,
    InfeasibleError,
    ShcError,
    SimilarityMatrix,
    ValidationError,
    _hamming,
    _pack_words,
)
from shc.gv import compute_min_distance
from shc.optimizer import (
    INIT_GREEDY,
    INIT_HADAMARD,
    _CANDIDATES_PER_SLOT,
    _exhaustive_max_min,
    _hadamard_centers,
    descend,
    init_centers,
    quality_metrics,
    violation_count,
    _sylvester_hadamard,
)

from alm_reference import (
    AlmHyperParams,
    AlmState,
    alm_objective,
    center_gradient,
    constrained_objective,
    optimize,
    update_center,
    update_multipliers,
    update_proxy,
    update_slack,
)
from oracles import hamming_matrix


def random_state(rng, q, C, d=None):
    H = (rng.integers(0, 2, (q, C)) * 2 - 1).astype(np.float64)
    M = H + rng.normal(0, 0.5, (q, C))
    K = np.abs(rng.normal(0, 2, (C, C)))
    np.fill_diagonal(K, 0.0)
    Lam = rng.normal(0, 0.3, (q, C))
    Alpha = rng.normal(0, 0.3, (C, C))
    np.fill_diagonal(Alpha, 0.0)
    if d is None:
        d = int(rng.integers(1, max(2, q // 2)))
    return AlmState(H=H, M=M, K=K, Lam=Lam, Alpha=Alpha, d=d)


def random_similarity(rng, C):
    A = rng.uniform(-1, 1, (C, C))
    S = (A + A.T) / 2
    np.fill_diagonal(S, 1.0)
    return S


def planted_similarity(rng, q, C):
    rows = (rng.integers(0, 2, (C, q)) * 2 - 1).astype(np.float64)
    S = (rows @ rows.T) / q
    np.clip(S, -1.0, 1.0, out=S)
    np.fill_diagonal(S, 1.0)
    return CenterSet(rows.astype(np.int8)), S


def objective_oracle(state, S, hp):
    """Term-by-term scalar-loop evaluation of the augmented Lagrangian."""
    q, C = state.q, state.C
    H, M, K, Lam, Alpha = state.H, state.M, state.K, state.Lam, state.Alpha
    total = 0.0
    for a in range(C):
        for b in range(C):
            dot_hm = sum(H[k, a] * M[k, b] for k in range(q))
            total += (S[a, b] - dot_hm / q) ** 2
    for a in range(C):
        for b in range(C):
            if a != b:
                total += hp.mu * sum(H[k, a] * H[k, b] for k in range(q))
    for a in range(C):
        for k in range(q):
            total += Lam[k, a] * (H[k, a] - M[k, a])
            total += 0.5 * hp.rho * (H[k, a] - M[k, a]) ** 2
    for a in range(C):
        for b in range(C):
            if a != b:
                r = q - 2 * state.d - sum(H[k, a] * H[k, b] for k in range(q)) - K[a, b]
                total += Alpha[a, b] * r + 0.5 * hp.beta * r * r
    return total


def finite_difference_gradient(state, S, hp, i, eps=1e-5):
    q = state.q
    grad = np.zeros(q)
    for j in range(q):
        orig = state.H[j, i]
        state.H[j, i] = orig + eps
        f_plus = alm_objective(state, S, hp)
        state.H[j, i] = orig - eps
        f_minus = alm_objective(state, S, hp)
        state.H[j, i] = orig
        grad[j] = (f_plus - f_minus) / (2 * eps)
    return grad


class TestHyperParams:
    def test_defaults(self):
        hp = AlmHyperParams()
        assert (hp.mu, hp.rho, hp.beta, hp.eta) == (0.625, 0.2, 1e-6, 0.5)
        assert (hp.cycles, hp.inner) == (20, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [{"mu": -0.1}, {"rho": 0.0}, {"beta": 0.0}, {"eta": 0.0}, {"cycles": 0}, {"inner": 0}]
        + [{name: value} for name in ("mu", "rho", "beta", "eta") for value in (np.nan, np.inf, -np.inf)],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            AlmHyperParams(**kwargs)


class TestInitCenters:
    def test_easily_satisfiable(self):
        for seed in range(5):
            cs = init_centers(8, 2, 4, seed)
            d_min, _ = quality_metrics(cs, np.eye(2))
            assert d_min >= 4

    def test_full_space_reports_best_found(self):
        # q=2, C=4 must return all four codewords; min distance 1 < 2
        cs = init_centers(2, 4, 2, seed=0)
        got = {tuple(row) for row in cs.matrix.tolist()}
        assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        d_min, _ = quality_metrics(cs, np.eye(4))
        assert d_min == 1

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            init_centers(1, 3, 1, seed=0)

    def test_deterministic_and_distinct(self):
        a = init_centers(16, 24, 5, seed=9)
        b = init_centers(16, 24, 5, seed=9)
        assert a == b
        assert len({tuple(r) for r in a.matrix.tolist()}) == 24

    def test_hadamard_spacing(self):
        cs = init_centers(16, 32, 8, seed=0, method=INIT_HADAMARD)
        d_min, _ = quality_metrics(cs, np.eye(32))
        assert d_min == 8
        assert cs.C == 32 and cs.q == 16

    def test_hadamard_restrictions(self):
        with pytest.raises(ValidationError):
            init_centers(12, 4, 2, seed=0, method=INIT_HADAMARD)
        with pytest.raises(ValidationError):
            init_centers(8, 17, 2, seed=0, method=INIT_HADAMARD)

    @pytest.mark.parametrize("q, C, d, message", [
        (0, 2, 1, "code length must be positive, got 0"),
        (8, 0, 1, "class count must be positive, got 0"),
        (8, 2, 0, "d must lie in [1, 8], got 0"),
        (8, 2, 9, "d must lie in [1, 8], got 9"),
    ])
    def test_size_checks(self, q, C, d, message):
        with pytest.raises(ValidationError) as info:
            init_centers(q, C, d, seed=0)
        assert str(info.value) == message

    # (q, C) outside the code space, and the error both entry points raise for it; init_centers
    # is asked for d = q + 1, so the rule is seen to come before the distance check
    @pytest.mark.parametrize("q, C, error, message", [
        (0, 2, ValidationError, "code length must be positive, got 0"),
        (-3, 0, ValidationError, "code length must be positive, got -3"),
        (8, 0, ValidationError, "class count must be positive, got 0"),
        (8, -1, ValidationError, "class count must be positive, got -1"),
        (1, 3, InfeasibleError, "3 classes do not fit in {-1,+1}^1 (2 codewords)"),
        (8, 257, InfeasibleError, "257 classes do not fit in {-1,+1}^8 (256 codewords)"),
    ])
    @pytest.mark.parametrize("entry", ["compute_min_distance", "init_centers"])
    def test_one_code_space_rule(self, entry, q, C, error, message):
        with pytest.raises(ShcError) as info:
            if entry == "compute_min_distance":
                compute_min_distance(q, C)
            else:
                init_centers(q, C, q + 1, seed=0)
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize("d", [-1, 0, 9, 100])
    @pytest.mark.parametrize("entry", ["init_centers", "descend"])
    def test_one_distance_rule(self, entry, d):
        with pytest.raises(ValidationError) as info:
            if entry == "init_centers":
                init_centers(8, 4, d, seed=0)
            else:
                descend(np.eye(4), init_centers(8, 4, 2, seed=0), d)
        assert str(info.value) == f"d must lie in [1, 8], got {d}"

    def test_hadamard_warns_once_when_d_exceeds_half_q(self, caplog):
        with caplog.at_level(logging.WARNING, logger="shc.optimizer"):
            init_centers(16, 4, 9, seed=0, method=INIT_HADAMARD)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, "hadamard init: 6 center pairs below target distance 9 (pairwise spacing is q/2=8)")
        ]

    def test_bad_method(self):
        with pytest.raises(ValidationError):
            init_centers(8, 2, 2, seed=0, method="mds")

    @pytest.mark.parametrize("q", [2**k for k in range(9)])
    def test_sylvester_hadamard_equals_scipy(self, q):
        from scipy.linalg import hadamard

        rows = _sylvester_hadamard(q)
        assert rows.dtype == np.int8
        assert np.array_equal(rows, hadamard(q))


log = logging.getLogger("shc.optimizer")


def reference_init_centers(q: int, C: int, d: int, seed: int, method: str = INIT_GREEDY) -> CenterSet:
    """init_centers as it was before the candidates were ranked in blocks: all of a slot's at once.

    The body is verbatim but for the closing count of close pairs, taken over all pairs
    of the finished set; the fast :func:`init_centers` must return the same centers and
    log the same warning.
    """
    if q < 1:
        raise ValidationError(f"code length must be positive, got {q}")
    if C < 1:
        raise ValidationError(f"class count must be positive, got {C}")
    if not 1 <= d <= q:
        raise ValidationError(f"d must lie in [1, {q}], got {d}")
    if C > 2**q:
        raise InfeasibleError(f"{C} classes do not fit in {{-1,+1}}^{q} ({2**q} codewords)")

    if method == INIT_HADAMARD:
        return _hadamard_centers(q, C, d)
    if method != INIT_GREEDY:
        raise ValidationError(f"unknown init method {method!r}")

    rng = np.random.default_rng(seed)
    rows = np.empty((C, q), dtype=np.int8)
    words = np.empty((C, (q + 63) // 64), dtype=np.uint64)  # rows[:filled], packed
    filled = 0
    while filled < C:
        cand = (rng.integers(0, 2, size=(_CANDIDATES_PER_SLOT, q), dtype=np.int8) * 2) - 1
        if filled == 0:
            rows[0] = cand[0]
        else:
            min_dist = _hamming(_pack_words(cand), words[:filled], q).min(axis=1)
            qualified = np.nonzero(min_dist >= d)[0]
            if qualified.size:
                rows[filled] = cand[qualified[0]]
            else:
                best = int(np.argmax(min_dist))
                if min_dist[best] == 0:
                    rows[filled] = _exhaustive_max_min(words[:filled], q)
                else:
                    rows[filled] = cand[best]
        words[filled] = _pack_words(rows[filled])
        filled += 1

    bad = int(np.count_nonzero(np.triu(_hamming(words, words, q) < d, k=1)))
    if bad:
        log.warning(
            "greedy init: %d of %d center pairs below target distance %d (q=%d, C=%d)",
            bad, C * (C - 1) // 2, d, q, C,
        )
    return CenterSet(rows)


def warnings_of(caplog, init, *args):
    """The centers ``init(*args)`` returns and the WARNING lines it logs."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="shc.optimizer"):
        centers = init(*args)
    return centers.matrix, [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


class TestInitMatchesReference:
    # Every slot of (64, 600, 21) takes a candidate from the first block of 16; (16, 200, 6)
    # and (8, 200, 2) also take some from a later block, and most slots there have no
    # candidate at distance >= d, so they take the argmax of all 200.  All but the first
    # case warn, and the count of close pairs each slot adds as it fills must equal the
    # reference's count over all pairs of the finished set.
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("q, C, d", [(64, 600, 21), (16, 200, 6), (8, 200, 2), (65, 40, 30)])
    def test_same_centers(self, q, C, d, seed, caplog):
        rows, messages = warnings_of(caplog, init_centers, q, C, d, seed)
        ref_rows, ref_messages = warnings_of(caplog, reference_init_centers, q, C, d, seed)
        assert np.array_equal(rows, ref_rows)
        assert messages == ref_messages
        assert len(messages) == (q != 64)

    def test_same_centers_through_the_exhaustive_branch(self, monkeypatch, caplog):
        # With 20 candidates per slot (one full block and a partial one), all of them
        # often repeat accepted centers of q = 4, and the slot enumerates the 16 codewords.
        calls = []

        def counted(accepted, q):
            calls.append(len(accepted))
            return _exhaustive_max_min(accepted, q)

        monkeypatch.setattr(optimizer, "_CANDIDATES_PER_SLOT", 20)
        monkeypatch.setitem(globals(), "_CANDIDATES_PER_SLOT", 20)
        monkeypatch.setattr(optimizer, "_exhaustive_max_min", counted)
        warned = 0
        for d in (1, 2):
            for seed in range(4):
                rows, messages = warnings_of(caplog, init_centers, 4, 16, d, seed)
                ref_rows, ref_messages = warnings_of(caplog, reference_init_centers, 4, 16, d, seed)
                assert np.array_equal(rows, ref_rows), (d, seed)
                assert messages == ref_messages, (d, seed)
                warned += len(messages)
        assert calls and warned


class TestObjective:
    def test_penalty_terms_vanish(self):
        # M = H, Lam = 0, Alpha = 0, K = q - 2d - G off-diagonal (feasible H)
        rng = np.random.default_rng(0)
        q, C, d = 16, 4, 4
        cs = init_centers(q, C, d, seed=1)
        H = cs.matrix.T.astype(np.float64)
        G = H.T @ H
        K = (q - 2 * d) - G
        np.fill_diagonal(K, 0.0)
        assert (K >= 0).all()
        state = AlmState(H=H, M=H.copy(), K=K, Lam=np.zeros((q, C)),
                         Alpha=np.zeros((C, C)), d=d)
        S = random_similarity(rng, C)
        hp = AlmHyperParams()
        want = float(((S - G / q) ** 2).sum()) + hp.mu * float(G.sum() - np.trace(G))
        assert_allclose(alm_objective(state, S, hp), want, rtol=1e-12)

    def test_single_center_formula(self):
        rng = np.random.default_rng(1)
        q = 6
        H = (rng.integers(0, 2, (q, 1)) * 2 - 1).astype(np.float64)
        M = rng.normal(0, 1, (q, 1))
        Lam = rng.normal(0, 1, (q, 1))
        state = AlmState(H=H, M=M, K=np.zeros((1, 1)), Lam=Lam, Alpha=np.zeros((1, 1)), d=2)
        hp = AlmHyperParams()
        h, m, lam = H[:, 0], M[:, 0], Lam[:, 0]
        want = (1.0 - h @ m / q) ** 2 + lam @ (h - m) + 0.5 * hp.rho * ((h - m) ** 2).sum()
        assert_allclose(alm_objective(state, [[1.0]], hp), want, rtol=1e-12)

    def test_matches_term_by_term_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            q, C = 4, 3
            state = random_state(rng, q, C)
            S = random_similarity(rng, C)
            hp = AlmHyperParams(mu=0.7, rho=0.3, beta=0.4)
            assert_allclose(
                alm_objective(state, S, hp), objective_oracle(state, S, hp),
                rtol=1e-12, atol=1e-12,
            )


class TestProxyUpdate:
    def test_hand_solved_example(self):
        # q=2, C=1, h=(1,1), S=[1], rho=0.2, lam=0: A=[[0.7,0.5],[0.5,0.7]],
        # b=(1.2,1.2) -> m=(1,1)
        H = np.ones((2, 1))
        state = AlmState(H=H, M=H.copy(), K=np.zeros((1, 1)),
                         Lam=np.zeros((2, 1)), Alpha=np.zeros((1, 1)), d=1)
        M = update_proxy(state, [[1.0]], AlmHyperParams())
        assert_allclose(M, [[1.0], [1.0]], atol=1e-12)

    def test_large_rho_pins_proxy_to_centers(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, 8, 4)
        S = random_similarity(rng, 4)
        M = update_proxy(state, S, AlmHyperParams(rho=1e6))
        assert np.linalg.norm(M - state.H, axis=0).max() <= 1e-4

    def test_residual_on_random_instances(self):
        rng = np.random.default_rng(4)
        hp = AlmHyperParams()
        for _ in range(25):
            q, C = int(rng.integers(2, 20)), int(rng.integers(1, 10))
            state = random_state(rng, q, C)
            S = random_similarity(rng, C)
            M = update_proxy(state, S, hp)
            A = (2.0 / q**2) * (state.H @ state.H.T) + hp.rho * np.eye(q)
            B = (2.0 / q) * (state.H @ S) + state.Lam + hp.rho * state.H
            residual = np.linalg.norm(A @ M - B, axis=0)
            assert (residual <= 1e-8 * (1.0 + np.linalg.norm(B, axis=0))).all()


class TestSlackUpdate:
    def _state(self, q, d, gram_target):
        # two centers with h_1^T h_2 == gram_target
        diff = (q - gram_target) // 2
        h1 = np.ones(q)
        h2 = np.ones(q)
        h2[:diff] = -1
        H = np.column_stack([h1, h2])
        return AlmState(H=H, M=H.copy(), K=np.zeros((2, 2)),
                        Lam=np.zeros((q, 2)), Alpha=np.zeros((2, 2)), d=d)

    def test_boundary_zero(self):
        state = self._state(16, 4, 8)
        K = update_slack(state, AlmHyperParams())
        assert K[0, 1] == 0.0

    def test_positive_slack(self):
        state = self._state(16, 4, 4)
        K = update_slack(state, AlmHyperParams())
        assert K[0, 1] == 4.0

    def test_clamp_active(self):
        state = self._state(16, 4, 4)
        hp = AlmHyperParams(beta=1.0)
        state.Alpha[0, 1] = -10.0
        K = update_slack(state, hp)
        assert K[0, 1] == 0.0
        assert K[1, 0] == 4.0

    def test_diagonal_zero_and_nonnegative(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 8, 5)
        K = update_slack(state, AlmHyperParams())
        assert (np.diag(K) == 0.0).all()
        assert (K >= 0.0).all()


class TestCenterGradient:
    def test_single_center_reduction(self):
        rng = np.random.default_rng(6)
        q = 8
        H = (rng.integers(0, 2, (q, 1)) * 2 - 1).astype(np.float64)
        state = AlmState(H=H, M=H.copy(), K=np.zeros((1, 1)),
                         Lam=np.zeros((q, 1)), Alpha=np.zeros((1, 1)), d=2)
        g = center_gradient(state, [[1.0]], AlmHyperParams(), 0)
        h = H[:, 0]
        want = (2.0 / q**2) * (H @ H.T @ h) - (2.0 / q) * h
        assert_allclose(g, want, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            state = random_state(rng, 6, 4)
            S = random_similarity(rng, 4)
            hp = AlmHyperParams(
                mu=(0.625, 2.0)[trial % 2],
                rho=(0.2, 1.5)[trial % 2],
                beta=(1e-6, 0.5)[(trial // 2) % 2],
            )
            i = int(rng.integers(0, 4))
            g = center_gradient(state, S, hp, i)
            fd = finite_difference_gradient(state, S, hp, i)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5

    def test_linear_in_mu(self):
        rng = np.random.default_rng(8)
        state = random_state(rng, 6, 4)
        S = random_similarity(rng, 4)
        grads = {
            mu: center_gradient(state, S, AlmHyperParams(mu=mu), 2) for mu in (0.0, 0.3, 0.6)
        }
        assert_allclose(grads[0.6] - grads[0.3], grads[0.3] - grads[0.0], atol=1e-12)


class TestCenterUpdate:
    def _single_center_state(self, q, lam_scale=0.0):
        # C=1, M=H, S=[1]: the similarity and coupling gradients cancel, so
        # the remaining force is exactly Lam
        H = np.ones((q, 1))
        return AlmState(H=H, M=H.copy(), K=np.zeros((1, 1)),
                        Lam=lam_scale * np.ones((q, 1)), Alpha=np.zeros((1, 1)), d=1)

    def test_zero_gradient_is_fixed_point(self):
        state = self._single_center_state(8)
        before = state.H.copy()
        update_center(state, [[1.0]], AlmHyperParams(), 0)
        assert np.array_equal(state.H, before)

    def test_gradient_twice_eta_flips_every_bit(self):
        hp = AlmHyperParams(eta=0.5, inner=1)
        state = self._single_center_state(8, lam_scale=2 * hp.eta)
        update_center(state, [[1.0]], hp, 0)
        assert (state.H[:, 0] == -1.0).all()

    def test_tie_keeps_previous_bit(self):
        hp = AlmHyperParams(eta=0.5, inner=1)
        state = self._single_center_state(8, lam_scale=hp.eta)
        update_center(state, [[1.0]], hp, 0)
        assert (state.H[:, 0] == 1.0).all()

    def test_inner_steps_recompute_gradient(self):
        # step 1 flips all bits; steps 2-3 see the flipped state, where the
        # rho and similarity pulls now oppose Lam and the bits hold at -1
        hp3 = AlmHyperParams(eta=0.5, inner=3)
        s3 = self._single_center_state(8, lam_scale=2 * hp3.eta)
        update_center(s3, [[1.0]], hp3, 0)
        assert (s3.H[:, 0] == -1.0).all()


class TestMultipliers:
    def test_lambda_arithmetic(self):
        H = np.array([[1.0], [1.0]])
        M = np.array([[0.0], [2.0]])  # h - m = (1, -1)
        state = AlmState(H=H, M=M, K=np.zeros((1, 1)),
                         Lam=np.array([[0.1], [0.1]]), Alpha=np.zeros((1, 1)), d=1)
        lam, _ = update_multipliers(state, AlmHyperParams(rho=0.2), 0)
        assert_allclose(lam, [0.3, -0.1], atol=1e-12)

    def test_lambda_unchanged_when_proxy_matches(self):
        rng = np.random.default_rng(9)
        q = 6
        H = (rng.integers(0, 2, (q, 1)) * 2 - 1).astype(np.float64)
        state = AlmState(H=H, M=H.copy(), K=np.zeros((1, 1)),
                         Lam=np.full((q, 1), 0.1), Alpha=np.zeros((1, 1)), d=1)
        lam, _ = update_multipliers(state, AlmHyperParams(), 0)
        assert_allclose(lam, np.full(q, 0.1))

    def test_alpha_arithmetic_can_go_negative(self):
        q, d = 16, 4
        h1 = np.ones(q)
        h2 = np.ones(q)
        h2[:3] = -1  # h1^T h2 = 10
        H = np.column_stack([h1, h2])
        state = AlmState(H=H, M=H.copy(), K=np.zeros((2, 2)),
                         Lam=np.zeros((q, 2)), Alpha=np.zeros((2, 2)), d=d)
        _, alpha_row = update_multipliers(state, AlmHyperParams(beta=1e-6), 0)
        # q - 2d - 10 - 0 = -2
        assert_allclose(alpha_row, [0.0, -2e-6], atol=1e-18)
        assert state.Alpha[0, 0] == 0.0


class TestOptimize:
    def test_single_center_zero_loss(self):
        centers, trace = optimize([[1.0]], 8, 3, AlmHyperParams(cycles=4), seed=0)
        d_min, s_loss = quality_metrics(centers, [[1.0]])
        assert d_min is None
        assert s_loss == 0.0
        assert len(trace) == 4

    def test_two_center_exhaustive_optimum(self):
        q, C = 8, 2
        d = compute_min_distance(q, C)
        hp = AlmHyperParams()
        hits = 0
        for trial in range(10):
            s = float(np.random.default_rng(100 + trial).uniform(-1, 1))
            S = np.array([[1.0, s], [s, 1.0]])
            centers, _ = optimize(S, q, d, hp, seed=trial)
            if violation_count(centers, d):
                continue
            got = constrained_objective(centers, S, hp.mu)
            best = min(
                2 * (s - t / q) ** 2 + 2 * hp.mu * t
                for t in range(-q, q - 2 * d + 1, 2)
            )
            hits += abs(got - best) <= 1e-9
        assert hits >= 8

    def test_planted_instances_keep_quality(self):
        q, C = 16, 8
        d = compute_min_distance(q, C)
        hp = AlmHyperParams()
        for seed in range(6):
            rng = np.random.default_rng(200 + seed)
            _, S = planted_similarity(rng, q, C)
            init = init_centers(q, C, d, seed)
            _, s_init = quality_metrics(init, S)
            centers, trace = optimize(S, q, d, hp, seed=seed)
            d_min, s_final = quality_metrics(centers, S)
            assert s_final <= s_init + 1e-12
            assert d_min >= d
            assert len(trace) == hp.cycles

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        _, S = planted_similarity(rng, 16, 6)
        a, trace_a = optimize(S, 16, 4, seed=11)
        b, trace_b = optimize(S, 16, 4, seed=11)
        assert a == b
        assert trace_a == trace_b

    def test_rejects_bad_distance(self):
        with pytest.raises(ValidationError):
            optimize([[1.0, 0.0], [0.0, 1.0]], 8, 9, seed=0)


class TestQualityMetrics:
    def test_perfect_anticorrelation(self):
        cs = CenterSet(np.array([[1, 1], [-1, -1]], dtype=np.int8))
        d_min, s_loss = quality_metrics(cs, [[1.0, -1.0], [-1.0, 1.0]])
        assert (d_min, s_loss) == (2, 0.0)

    def test_orthogonal_pair(self):
        cs = CenterSet(np.array([[1, 1], [1, -1]], dtype=np.int8))
        d_min, s_loss = quality_metrics(cs, [[1.0, 0.0], [0.0, 1.0]])
        assert (d_min, s_loss) == (1, 0.0)

    def test_duplicate_centers(self):
        cs = CenterSet(np.array([[1, -1], [1, -1]], dtype=np.int8))
        d_min, _ = quality_metrics(cs, np.eye(2))
        assert d_min == 0

    def test_single_center_undefined_distance(self):
        cs = CenterSet(np.array([[1, -1, 1]], dtype=np.int8))
        d_min, s_loss = quality_metrics(cs, [[1.0]])
        assert d_min is None
        assert s_loss == 0.0

    @pytest.mark.parametrize("q", [1, 8, 63, 64, 65, 129])
    def test_matches_unpacked_oracle_at_word_boundaries(self, q):
        rng = np.random.default_rng(q)
        C = 9
        H = (rng.integers(0, 2, (C, q)) * 2 - 1).astype(np.int8)
        S = random_similarity(rng, C)
        H[4] = H[1]  # a duplicate pair: d_min is 0 at every q
        assert quality_metrics(CenterSet(H), S)[0] == 0
        H[4] = -H[1]  # its complement instead, at distance q
        d_min, s_loss = quality_metrics(CenterSet(H), S)
        off_diagonal = ~np.eye(C, dtype=bool)
        assert d_min == int(hamming_matrix(H, H)[off_diagonal].min())
        G = H.astype(np.float64) @ H.T.astype(np.float64)
        assert_allclose(s_loss, float(((S - G / q) ** 2).sum()), rtol=1e-12)

    def test_exhaustive_fallback_refuses_codes_it_cannot_enumerate(self):
        # beyond q = 20 the 2^q codewords are not enumerated
        with pytest.raises(ShcError, match="could not draw a candidate distinct from accepted centers"):
            _exhaustive_max_min(_pack_words(np.ones((1, 21), dtype=np.int8)), 21)


GATE_C, GATE_Q = 6, 16
GATE_D = compute_min_distance(GATE_Q, GATE_C)
GATE_HP = AlmHyperParams(cycles=2, inner=1)


def gate_call(name, S):
    """Call one stage-2 entry point on S, with every other argument built afresh and seeded."""
    rng = np.random.default_rng(7)
    centers = init_centers(GATE_Q, GATE_C, GATE_D, seed=7)
    state = random_state(rng, GATE_Q, GATE_C, GATE_D)
    if name == "descend":
        return descend(S, centers, GATE_D)
    if name == "optimize":
        return optimize(S, GATE_Q, GATE_D, GATE_HP, seed=7)
    if name == "quality_metrics":
        return quality_metrics(centers, S)
    if name == "constrained_objective":
        return constrained_objective(centers, S, 0.625)
    if name == "alm_objective":
        return alm_objective(state, S, GATE_HP)
    if name == "update_proxy":
        return update_proxy(state, S, GATE_HP)
    if name == "center_gradient":
        return center_gradient(state, S, GATE_HP, 1)
    if name == "update_center":
        return update_center(state, S, GATE_HP, 1)
    raise AssertionError(name)


def plain(result):
    """A result as nested lists and numbers, so two results compare with ==."""
    if isinstance(result, (tuple, list)):
        return [plain(r) for r in result]
    if isinstance(result, CenterSet):
        return result.matrix.tolist()
    if isinstance(result, np.ndarray):
        return result.tolist()
    return result


def broken_similarity(kind):
    S = random_similarity(np.random.default_rng(3), GATE_C)
    if kind == "empty":
        return np.zeros((0, 0))
    if kind == "asymmetric":
        S[0, 1] += 1e-6
    elif kind == "diagonal":
        S[2, 2] = 0.9
    else:
        S[0, 1] = S[1, 0] = {"nan": np.nan, "inf": np.inf, "out-of-range": 1.5}[kind]
    return S


GATE_ENTRY_POINTS = ["descend", "optimize", "quality_metrics", "constrained_objective",
                     "alm_objective", "update_proxy", "center_gradient", "update_center"]


class TestSimilarityGate:
    """Every stage-2 entry point takes S only as a SimilarityMatrix or under the similarity-file rules."""

    @pytest.mark.parametrize("kind", ["nan", "inf", "asymmetric", "out-of-range", "diagonal", "empty"])
    @pytest.mark.parametrize("name", GATE_ENTRY_POINTS)
    def test_rejects_invalid_similarity(self, name, kind):
        with pytest.raises(ValidationError):
            gate_call(name, broken_similarity(kind))

    @pytest.mark.parametrize("name", GATE_ENTRY_POINTS)
    def test_near_valid_similarity_is_snapped(self, name):
        S = random_similarity(np.random.default_rng(3), GATE_C)
        near = S + np.random.default_rng(4).uniform(-1e-12, 1e-12, S.shape)
        near[0, 1], near[1, 0] = 1.0 + 1e-12, 1.0
        assert not np.array_equal(near, SimilarityMatrix(near).values)
        assert plain(gate_call(name, near)) == plain(gate_call(name, SimilarityMatrix(near)))

    def test_optimize_validates_a_raw_array_once(self, monkeypatch):
        calls = []
        init = SimilarityMatrix.__init__

        def counted(self, values):
            calls.append(1)
            init(self, values)

        monkeypatch.setattr(SimilarityMatrix, "__init__", counted)
        S = random_similarity(np.random.default_rng(3), GATE_C)
        optimize(S, GATE_Q, GATE_D, GATE_HP, seed=7)
        assert len(calls) == 1
        sim = SimilarityMatrix(S)
        assert len(calls) == 2
        optimize(sim, GATE_Q, GATE_D, GATE_HP, seed=7)
        assert len(calls) == 2
