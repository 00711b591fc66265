"""Hash-center generation: single-bit-flip descent, or the paper's augmented-Lagrangian method.

Given a C x C class-similarity matrix S and a code length q, this module
searches for C codewords h_i in {-1,+1}^q whose normalized Gram matrix
(1/q) H^T H tracks S while every pair keeps Hamming distance >= d
(equivalently h_i^T h_j <= q - 2d).

:func:`descend` lowers the similarity loss ||S - (1/q) H^T H||_F^2 from a
given start one bit at a time and never brings a pair below d.
:func:`optimize` is the paper's method.  The constrained problem

    min  ||S - (1/q) H^T H||_F^2  +  mu * sum_{i != j} h_i^T h_j
    s.t. h_i^T h_j <= q - 2d   (i != j),   h_i in {-1,+1}^q

is handled by introducing a real-valued proxy M for H, nonnegative slacks
k_ij for the pair inequalities, and multipliers (Lambda, alpha), then
cycling closed-form updates of M and K, sign-projected gradient steps on
each column h_i, and first-order multiplier updates.

All matrices follow the column convention: H, M, Lambda are (q, C) with
column i belonging to class i; K and alpha are (C, C) with unused zero
diagonals.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .core import (
    CenterSet,
    DimensionMismatchError,
    InfeasibleError,
    ShcError,
    SimilarityMatrix,
    ValidationError,
    _hamming,
    _pack_words,
)

__all__ = [
    "AlmHyperParams",
    "AlmState",
    "INIT_GREEDY",
    "INIT_HADAMARD",
    "init_centers",
    "alm_objective",
    "update_proxy",
    "update_slack",
    "center_gradient",
    "update_center",
    "update_multipliers",
    "optimize",
    "descend",
    "quality_metrics",
    "constrained_objective",
    "violation_count",
]

log = logging.getLogger(__name__)

INIT_GREEDY = "greedy"
INIT_HADAMARD = "hadamard"

# Initial multiplier values; alpha starts at zero.
LAMBDA_INIT = 0.1

# Random candidates drawn per slot in the greedy farthest-point init.
_CANDIDATES_PER_SLOT = 200


@dataclass(frozen=True)
class AlmHyperParams:
    """Knobs of the alternating optimization.

    mu      weight of the pairwise inner-product (distance) term
    rho     quadratic penalty tying the proxy M to H
    beta    quadratic penalty on the slack equality constraints
    eta     divisor of the projected gradient step (step size 1/eta)
    cycles  outer alternating cycles
    inner   sign-projected gradient steps per column per cycle
    """

    mu: float = 0.625
    rho: float = 0.2
    beta: float = 1e-6
    eta: float = 0.5
    cycles: int = 20
    inner: int = 3

    def __post_init__(self):
        # Written as "not in range" so that NaN, which fails every comparison, is rejected too.
        if not 0 <= self.mu < np.inf:
            raise ValidationError(f"mu must be finite and >= 0, got {self.mu}")
        if not 0 < self.rho < np.inf:
            raise ValidationError(f"rho must be finite and > 0, got {self.rho}")
        if not 0 < self.beta < np.inf:
            raise ValidationError(f"beta must be finite and > 0, got {self.beta}")
        if not 0 < self.eta < np.inf:
            raise ValidationError(f"eta must be finite and > 0, got {self.eta}")
        if self.cycles < 1:
            raise ValidationError(f"cycles must be >= 1, got {self.cycles}")
        if self.inner < 1:
            raise ValidationError(f"inner must be >= 1, got {self.inner}")


@dataclass
class AlmState:
    """Full variable set of one optimization run.

    H      (q, C) current binary centers, entries +-1.0
    M      (q, C) real proxy of H
    K      (C, C) nonnegative slacks for the pair inequalities, diagonal 0
    Lam    (q, C) multipliers for H = M
    Alpha  (C, C) multipliers for the slack equalities, diagonal 0
    d      target minimum pairwise Hamming distance
    """

    H: np.ndarray
    M: np.ndarray
    K: np.ndarray
    Lam: np.ndarray
    Alpha: np.ndarray
    d: int

    def __post_init__(self):
        q, C = self.H.shape
        for name, arr, shape in (
            ("M", self.M, (q, C)),
            ("K", self.K, (C, C)),
            ("Lam", self.Lam, (q, C)),
            ("Alpha", self.Alpha, (C, C)),
        ):
            if arr.shape != shape:
                raise DimensionMismatchError(f"{name} has shape {arr.shape}, expected {shape}")
        if not np.isin(self.H, (-1.0, 1.0)).all():
            raise ValidationError("H entries must be exactly -1 or +1")
        off = ~np.eye(C, dtype=bool)
        if (self.K[off] < 0).any():
            raise ValidationError("K off-diagonal entries must be nonnegative")
        if np.diag(self.K).any() or np.diag(self.Alpha).any():
            raise ValidationError("K and Alpha diagonals must be zero")
        if not 1 <= self.d <= q:
            raise ValidationError(f"d must lie in [1, {q}], got {self.d}")

    @property
    def q(self) -> int:
        return int(self.H.shape[0])

    @property
    def C(self) -> int:
        return int(self.H.shape[1])

    @classmethod
    def initial(cls, centers: CenterSet, d: int) -> "AlmState":
        """State at the start of a run: M = H, K = 0, Lam = 0.1, Alpha = 0."""
        H = centers.matrix.T.astype(np.float64)
        q, C = H.shape
        return cls(
            H=H,
            M=H.copy(),
            K=np.zeros((C, C)),
            Lam=np.full((q, C), LAMBDA_INIT),
            Alpha=np.zeros((C, C)),
            d=d,
        )


def _sim_values(S, C: int | None = None) -> np.ndarray:
    """Similarity values as a square float array; with ``C`` given, check it is C x C."""
    arr = S.values if isinstance(S, SimilarityMatrix) else np.asarray(S, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"similarity matrix must be square, got shape {arr.shape}")
    if C is not None and arr.shape[0] != C:
        raise DimensionMismatchError(f"similarity is {arr.shape[0]}x{arr.shape[0]} but C={C}")
    return arr


def _gram_stats(rows, Sv=None) -> tuple[float | None, float, np.ndarray]:
    """Statistics of the Gram matrix G = rows rows^T of C {-1,+1} rows of length q.

    Returns the similarity loss ||S - G/q||_F^2 (None without ``Sv``), the
    off-diagonal sum of G, and the Hamming distances of the i < j pairs in
    row-major order.  G holds exact integers in float64, so every value is
    exact.
    """
    rows = np.asarray(rows, dtype=np.float64)
    return _stats_of_gram(rows @ rows.T, rows.shape[1], Sv)


def _stats_of_gram(G: np.ndarray, q: int, Sv=None) -> tuple[float | None, float, np.ndarray]:
    """:func:`_gram_stats` from a Gram matrix G of exact integers (float or int) of length-q rows."""
    s_loss = None
    if Sv is not None:
        fit = Sv - G / q
        s_loss = float((fit * fit).sum())
    iu = np.triu_indices(G.shape[0], k=1)
    return s_loss, float(G.sum() - np.trace(G)), (q - G[iu]) // 2


def _count_close_pairs(rows, d: int) -> int:
    return int(np.count_nonzero(_gram_stats(rows)[2] < d))


def _sign_keep(values: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Elementwise sign with ties (exact zeros) keeping the previous bit."""
    return np.where(values > 0, 1.0, np.where(values < 0, -1.0, previous))


def init_centers(q: int, C: int, d: int, seed: int, method: str = INIT_GREEDY) -> CenterSet:
    """Seeded construction of C distinct centers aiming for pairwise distance >= d.

    Greedy farthest-point: per slot, draw 200 uniform candidates, accept the
    first with distance >= d to everything accepted, falling back to the
    max-min candidate.  When the target spacing is not met the set is still
    returned and the violating pair count is logged.  Hadamard seeding uses
    the rows of a power-of-two Hadamard matrix and their complements
    (pairwise distance q/2 for up to 2q classes).
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

    bad = _count_close_pairs(rows, d)
    if bad:
        log.warning(
            "greedy init: %d of %d center pairs below target distance %d (q=%d, C=%d)",
            bad, C * (C - 1) // 2, d, q, C,
        )
    return CenterSet(rows)


def _exhaustive_max_min(accepted: np.ndarray, q: int) -> np.ndarray:
    """All 200 candidates collided with the accepted centers (packed words); enumerate instead.

    Only reachable for tiny q, where the codeword space is nearly full.
    """
    if q > 20:
        raise ShcError("could not draw a candidate distinct from accepted centers")
    codes = ((np.arange(2**q, dtype=np.int64)[:, None] >> np.arange(q - 1, -1, -1)) & 1)
    codes = (codes.astype(np.int8) * 2) - 1
    return codes[int(np.argmax(_hamming(_pack_words(codes), accepted, q).min(axis=1)))]


def _hadamard_centers(q: int, C: int, d: int) -> CenterSet:
    if q & (q - 1):
        raise ValidationError(f"hadamard init needs a power-of-two code length, got q={q}")
    if C > 2 * q:
        raise ValidationError(f"hadamard init supports at most 2q={2 * q} classes, got C={C}")
    rows = _sylvester_hadamard(q)
    pool = np.vstack([rows, -rows])
    centers = pool[:C]
    bad = _count_close_pairs(centers, d)
    if bad:
        log.warning(
            "hadamard init: %d center pairs below target distance %d (pairwise spacing is q/2=%d)",
            bad, d, q // 2,
        )
    return CenterSet(centers)


def _sylvester_hadamard(q: int) -> np.ndarray:
    """The q x q Sylvester Hadamard matrix (q a power of two) in int8, as scipy.linalg.hadamard builds it."""
    rows = np.ones((1, 1), dtype=np.int8)
    while rows.shape[0] < q:
        rows = np.block([[rows, rows], [rows, -rows]])
    return rows


def alm_objective(state: AlmState, S, hp: AlmHyperParams) -> float:
    """Full augmented-Lagrangian value at the given state.

    Sum of: the similarity-fit term ||S - (1/q) H^T M||_F^2, the mu-weighted
    pairwise inner products, the Lambda/rho terms tying M to H, and the
    alpha/beta terms on the residuals r_ij = q - 2d - h_i^T h_j - k_ij
    (off-diagonal pairs only).
    """
    Sv = _sim_values(S, state.C)
    q, C = state.q, state.C
    H, M = state.H, state.M
    G = H.T @ H

    fit = Sv - (H.T @ M) / q
    value = float((fit * fit).sum())
    value += hp.mu * float(G.sum() - np.trace(G))
    diff = H - M
    value += float((state.Lam * diff).sum())
    value += 0.5 * hp.rho * float((diff * diff).sum())

    R = (q - 2 * state.d) - G - state.K
    np.fill_diagonal(R, 0.0)
    A = state.Alpha.copy()
    np.fill_diagonal(A, 0.0)
    value += float((A * R).sum())
    value += 0.5 * hp.beta * float((R * R).sum())
    return value


def update_proxy(state: AlmState, S, hp: AlmHyperParams) -> np.ndarray:
    """Closed-form minimizer of the objective over M, all columns at once.

    Solves the SPD system ((2/q^2) H H^T + rho I) m_i = (2/q) H s_i +
    lambda_i + rho h_i for every column.
    """
    from scipy.linalg import cho_factor, cho_solve  # only optimize needs scipy; keeps CLI start-up light

    Sv = _sim_values(S, state.C)
    q = state.q
    H = state.H
    A = (2.0 / q**2) * (H @ H.T)
    A[np.diag_indices_from(A)] += hp.rho
    B = (2.0 / q) * (H @ Sv) + state.Lam + hp.rho * H
    try:
        factor = cho_factor(A)
    except np.linalg.LinAlgError as exc:  # unreachable for rho > 0
        raise ShcError(f"proxy system is not positive definite: {exc}") from exc
    return cho_solve(factor, B)


def update_slack(state: AlmState, hp: AlmHyperParams) -> np.ndarray:
    """Closed-form minimizer over the slacks: max(q - 2d - h_i^T h_j + alpha/beta, 0)."""
    G = state.H.T @ state.H
    K = (state.q - 2 * state.d) - G + state.Alpha / hp.beta
    np.maximum(K, 0.0, out=K)
    np.fill_diagonal(K, 0.0)
    return K


def center_gradient(state: AlmState, S, hp: AlmHyperParams, i: int) -> np.ndarray:
    """Gradient of the objective with respect to column h_i as a real vector.

    Every occurrence of h_i contributes: the similarity-fit row, both
    orderings of each mu pair, the Lambda/rho coupling, and both orderings
    of each alpha/beta residual (r_ij and r_ji).  Matches central finite
    differences of :func:`alm_objective`.
    """
    Sv = _sim_values(S, state.C)
    q, C = state.q, state.C
    H, M = state.H, state.M
    h = H[:, i]

    g = (2.0 / q**2) * (M @ (M.T @ h)) - (2.0 / q) * (M @ Sv[:, i])
    g = g + state.Lam[:, i] + hp.rho * (h - M[:, i])
    if C > 1:
        g = g + 2.0 * hp.mu * (H.sum(axis=1) - h)
        gi = H.T @ h
        base = float(q - 2 * state.d)
        r_row = base - gi - state.K[i, :]
        r_col = base - gi - state.K[:, i]
        w = state.Alpha[i, :] + state.Alpha[:, i] + hp.beta * (r_row + r_col)
        w[i] = 0.0
        g = g - H @ w
    return g


def update_center(state: AlmState, S, hp: AlmHyperParams, i: int) -> np.ndarray:
    """Run ``hp.inner`` sign-projected gradient steps on column i, in place.

    Each step moves h_i by -1/eta times the current gradient and projects
    back onto {-1,+1}^q; components that land exactly on 0 keep their
    previous sign.  Returns a copy of the updated column.
    """
    for _ in range(hp.inner):
        g = center_gradient(state, S, hp, i)
        v = state.H[:, i] - g / hp.eta
        state.H[:, i] = _sign_keep(v, state.H[:, i])
    return state.H[:, i].copy()


def update_multipliers(state: AlmState, hp: AlmHyperParams, i: int) -> tuple[np.ndarray, np.ndarray]:
    """First-order multiplier updates for column i, in place.

    lambda_i += rho (h_i - m_i); alpha_ij += beta (q - 2d - h_i^T h_j - k_ij)
    for j != i.  The alpha diagonal is untouched.  Returns copies of the new
    lambda_i and alpha row i.
    """
    state.Lam[:, i] += hp.rho * (state.H[:, i] - state.M[:, i])
    gi = state.H.T @ state.H[:, i]
    r = (state.q - 2 * state.d) - gi - state.K[i, :]
    r[i] = 0.0
    state.Alpha[i, :] += hp.beta * r
    return state.Lam[:, i].copy(), state.Alpha[i, :].copy()


def constrained_objective(centers: CenterSet, S, mu: float) -> float:
    """Original constrained objective of a center set (no ALM terms).

    ||S - (1/q) H^T H||_F^2 + mu * sum_{i != j} h_i^T h_j.
    """
    s_loss, off_diagonal, _ = _gram_stats(centers.matrix, _sim_values(S, centers.C))
    return s_loss + mu * off_diagonal


def violation_count(centers: CenterSet, d: int) -> int:
    """Number of unordered center pairs with Hamming distance below d."""
    return _count_close_pairs(centers.matrix, d)


def _gram_score(H: np.ndarray, Sv: np.ndarray, d: int, mu: float) -> tuple[int, float]:
    """Incumbent key of the (q, C) centers H: (violated pair count, constrained objective)."""
    s_loss, off_diagonal, dist = _gram_stats(H.T, Sv)
    return int(np.count_nonzero(dist < d)), s_loss + mu * off_diagonal


def optimize(
    S,
    q: int,
    d: int,
    hp: AlmHyperParams = AlmHyperParams(),
    seed: int = 0,
    init: str = INIT_GREEDY,
) -> tuple[CenterSet, list[float]]:
    """Generate semantic hash centers for similarity matrix S.

    Runs ``hp.cycles`` alternating cycles: proxy update, slack update, then
    per column the inner sign-PGD steps followed by that column's
    multiplier updates.  The raw iterates may oscillate, so the incumbent
    best H - ordered by (violated pair count, constrained objective) and
    recorded at initialization and at every cycle boundary - is what gets
    returned, together with the per-cycle trace of the
    augmented-Lagrangian value.  Deterministic for fixed (S, q, d, hp,
    seed, init).
    """
    Sv = _sim_values(S)
    C = Sv.shape[0]
    if not 1 <= d <= q:
        raise ValidationError(f"d must lie in [1, {q}], got {d}")
    state = AlmState.initial(init_centers(q, C, d, seed, method=init), d)

    best_key = _gram_score(state.H, Sv, d, hp.mu)
    best_H = state.H.copy()
    trace = []
    for _ in range(hp.cycles):
        state.M = update_proxy(state, Sv, hp)
        state.K = update_slack(state, hp)
        for i in range(C):
            update_center(state, Sv, hp, i)
            update_multipliers(state, hp, i)
        key = _gram_score(state.H, Sv, d, hp.mu)
        if key < best_key:
            best_key = key
            best_H = state.H.copy()
        trace.append(alm_objective(state, Sv, hp))

    if best_key[0]:
        log.warning(
            "optimize: returned centers violate the distance target on %d pairs (q=%d, C=%d, d=%d)",
            best_key[0], q, C, d,
        )
    return CenterSet(best_H.T.astype(np.int8)), trace


def descend(S, centers: CenterSet, d: int) -> tuple[CenterSet, list[float]]:
    """Lower the similarity loss of ``centers`` one bit at a time, never bringing a pair below d.

    Discrete cyclic coordinate descent on the bits (as in Shen et al.,
    "Supervised Discrete Hashing", CVPR 2015) on s_loss = ||S - G/q||_F^2,
    G = H H^T, with G kept as exact integers.  A sweep visits each center
    i once.  With r = S[i] - G[i]/q and r_i = 0, flipping bit k of h_i
    changes s_loss by (8/q) (h_ik (r @ H)_k + (C-1)/q).  A flip is allowed
    only if every tight pair j (G_ij > q - 2d - 2, distance <= d) has the
    same bit k, so the flip moves those pairs apart; the best allowed flip
    that lowers s_loss by more than rounding (8e-9 C/q, times max |S| when
    that exceeds 1) is applied and row and column i of G are updated.  Hence
    the count of pairs closer than d never rises, and an exact tie can not
    flip back and forth for ever.  Sweeps repeat until one flips nothing, so
    on return no allowed single flip lowers s_loss by more than that margin.
    Returns the centers and the s_loss after each sweep.  Deterministic.
    """
    Sv = _sim_values(S, centers.C)
    C, q = centers.C, centers.q
    if not 1 <= d <= q:
        raise ValidationError(f"d must lie in [1, {q}], got {d}")
    sym = 0.5 * (Sv + Sv.T)  # equals Sv when S is symmetric; otherwise gives the same s_loss changes
    H = centers.matrix.astype(np.float64)
    G = centers.matrix.astype(np.int64) @ centers.matrix.T.astype(np.int64)
    tight_above = q - 2 * d - 2
    # far above the rounding error of r @ H, so each applied flip really lowers s_loss
    lowers = -(C - 1) / q - 1e-9 * C * max(1.0, float(np.abs(sym).max()))
    trace = []
    flips = 1
    while flips:
        flips = 0
        for i in range(C):
            r = sym[i] - G[i] / q
            r[i] = 0.0
            gain = (r @ H) * H[i]
            gain[(H[G[i] > tight_above] != H[i]).any(axis=0)] = np.inf
            k = int(np.argmin(gain))
            if gain[k] < lowers:
                step = (-2.0 * H[i, k] * H[:, k]).astype(np.int64)
                step[i] = 0
                G[i] += step
                G[:, i] += step
                H[i, k] = -H[i, k]
                flips += 1
        s_loss, _, dist = _stats_of_gram(G, q, Sv)
        trace.append(s_loss)
        log.info(
            "descend: sweep %d flipped %d bits, s_loss=%.6g, d_min=%s, violations=%d",
            len(trace), flips, s_loss, int(dist.min()) if dist.size else None,
            np.count_nonzero(dist < d),
        )
    return CenterSet(H.astype(np.int8)), trace


def quality_metrics(centers: CenterSet, S) -> tuple[int | None, float]:
    """Minimum pairwise Hamming distance and similarity loss of a center set.

    The similarity loss is ||S - (1/q) H^T H||_F^2 over the full matrix.
    With a single center there are no pairs, so the distance is reported as
    None rather than a misleading 0.
    """
    s_loss, _, dist = _gram_stats(centers.matrix, _sim_values(S, centers.C))
    return (int(dist.min()) if dist.size else None), s_loss
