"""The paper's augmented-Lagrangian method (ALM) for hash centers, kept as a test reference.

``shc centers`` runs :func:`shc.optimizer.descend`; no command runs this
module.  It is the paper's stage 2 as written, which release criteria 3-6
and 10 and ``ALM_REFERENCE_SHA256`` check, and what the shipped path is
compared against.  The constrained problem

    min  ||S - (1/q) H^T H||_F^2  +  mu * sum_{i != j} h_i^T h_j
    s.t. h_i^T h_j <= q - 2d   (i != j),   h_i in {-1,+1}^q

is handled by introducing a real-valued proxy M for H, nonnegative slacks
k_ij for the pair inequalities, and multipliers (Lambda, alpha), then
cycling closed-form updates of M and K, sign-projected gradient steps on
each column h_i, and first-order multiplier updates.

All matrices follow the column convention: H, M, Lambda are (q, C) with
column i belonging to class i; K and alpha are (C, C) with unused zero
diagonals.

S goes through the package's own similarity gate, and :func:`optimize`
starts from the package's own greedy init.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from shc.core import CenterSet, DimensionMismatchError, ShcError, ValidationError
from shc.optimizer import INIT_GREEDY, _close_pairs, _gram, _s_loss, _similarity, init_centers

log = logging.getLogger(__name__)

# Initial multiplier values; alpha starts at zero.
LAMBDA_INIT = 0.1


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


def _sign_keep(values: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Elementwise sign with ties (exact zeros) keeping the previous bit."""
    return np.where(values > 0, 1.0, np.where(values < 0, -1.0, previous))


def _off_diagonal(G: np.ndarray) -> float:
    """sum_{i != j} G_ij of a Gram matrix of exact integers, exactly."""
    return float(G.sum() - np.trace(G))


def alm_objective(state: AlmState, S, hp: AlmHyperParams) -> float:
    """Full augmented-Lagrangian value at the given state.

    Sum of: the similarity-fit term ||S - (1/q) H^T M||_F^2, the mu-weighted
    pairwise inner products, the Lambda/rho terms tying M to H, and the
    alpha/beta terms on the residuals r_ij = q - 2d - h_i^T h_j - k_ij
    (off-diagonal pairs only).
    """
    Sv = _similarity(S, state.C).values
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
    Sv = _similarity(S, state.C).values
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
    Sv = _similarity(S, state.C).values
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
    rows = centers.matrix.astype(np.float64)
    s_loss = _s_loss(_similarity(S, centers.C).values, _gram(rows), centers.q)
    return s_loss + mu * _off_diagonal(rows @ rows.T)


def _gram_score(H: np.ndarray, Sv: np.ndarray, d: int, mu: float) -> tuple[int, float]:
    """Incumbent key of the (q, C) centers H: (violated pair count, constrained objective)."""
    G = _gram(H.T)
    return _close_pairs(G, len(H), d), _s_loss(Sv, G, len(H)) + mu * _off_diagonal(H.T @ H)


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
    S = _similarity(S)  # snapped once; the steps below take the SimilarityMatrix as it is
    Sv, C = S.values, S.C
    if not 1 <= d <= q:
        raise ValidationError(f"d must lie in [1, {q}], got {d}")
    state = AlmState.initial(init_centers(q, C, d, seed, method=init), d)

    best_key = _gram_score(state.H, Sv, d, hp.mu)
    best_H = state.H.copy()
    trace = []
    for _ in range(hp.cycles):
        state.M = update_proxy(state, S, hp)
        state.K = update_slack(state, hp)
        for i in range(C):
            update_center(state, S, hp, i)
            update_multipliers(state, hp, i)
        key = _gram_score(state.H, Sv, d, hp.mu)
        if key < best_key:
            best_key = key
            best_H = state.H.copy()
        trace.append(alm_objective(state, S, hp))

    if best_key[0]:
        log.warning(
            "optimize: returned centers violate the distance target on %d pairs (q=%d, C=%d, d=%d)",
            best_key[0], q, C, d,
        )
    return CenterSet(best_H.T.astype(np.int8)), trace
