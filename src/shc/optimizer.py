"""Hash-center generation: a seeded init, then a single-bit-flip descent.

Given a C x C class-similarity matrix S and a code length q, this module
searches for C codewords h_i in {-1,+1}^q whose normalized Gram matrix
(1/q) H^T H tracks S while every pair keeps Hamming distance >= d
(equivalently h_i^T h_j <= q - 2d).

:func:`init_centers` draws a greedy farthest-point set (or Hadamard rows)
spaced at least d apart where it can, and :func:`descend` lowers the
similarity loss ||S - (1/q) H^T H||_F^2 from that start one bit at a time,
never bringing a pair below d.  :func:`quality_metrics` and
:func:`violation_count` score a center set.

Every function here takes S as a SimilarityMatrix, or as an array that the
SimilarityMatrix constructor accepts and snaps (finite, symmetric with a unit
diagonal and entries in [-1, 1], each within SNAP_TOL); any other S is a
ValidationError.
"""

import logging

import numpy as np

from .core import (
    _BLOCK_BYTES,
    CenterSet,
    DimensionMismatchError,
    ShcError,
    SimilarityMatrix,
    ValidationError,
    _flip_bit,
    _hamming,
    _pack_words,
    _row_blocks,
    _unpack_words,
)
from .gv import _check_code_space

__all__ = [
    "INIT_GREEDY",
    "INIT_HADAMARD",
    "init_centers",
    "descend",
    "quality_metrics",
    "violation_count",
]

log = logging.getLogger(__name__)

INIT_GREEDY = "greedy"
INIT_HADAMARD = "hadamard"

# Random candidates drawn per slot in the greedy farthest-point init.
_CANDIDATES_PER_SLOT = 200
# Candidates ranked at a time against the accepted centers.
_RANK_BLOCK = 16


def _similarity(S, C: int) -> SimilarityMatrix:
    """S as a C x C :class:`SimilarityMatrix`, the one way into stage 2: an instance as is, else constructed."""
    sim = S if isinstance(S, SimilarityMatrix) else SimilarityMatrix(S)
    if sim.C != C:
        raise DimensionMismatchError(f"similarity is {sim.C}x{sim.C} but C={C}")
    return sim


def _check_distance(d: int, q: int) -> None:
    """Check that a distance target d lies in [1, q]."""
    if not 1 <= d <= q:
        raise ValidationError(f"d must lie in [1, {q}], got {d}")


def _gram(rows) -> np.ndarray:
    """The Gram matrix G = rows rows^T of C {-1,+1} rows of length q, from the Hamming kernel.

    G = q - 2 dist holds exact integers in the smallest signed dtype that
    holds +-q, no narrower than int16 (int16 up to q = 32767).  The kernel
    XORs one row block at a time into uint64, so G is the one C x C array.
    """
    rows = np.asarray(rows)
    C, q = rows.shape
    words = _pack_words(rows)
    G = np.empty((C, C), dtype=np.promote_types(np.int16, np.min_scalar_type(-q - 1)))
    for block in _row_blocks(C, C * 8):
        dist = _hamming(words[block], words, q)
        np.subtract(q, dist, out=G[block], dtype=G.dtype)
        G[block] -= dist  # q - dist lies in [0, q] and q - 2 dist in [-q, q], so neither step overflows
    return G


def _residual(Sv, G, q: int, out=None) -> np.ndarray:
    """S - G/q as one divide then one subtract, in ``out`` or one new array; the one place it is formed."""
    out = np.divide(G, q, out=out)
    return np.subtract(Sv, out, out=out)


def _s_loss(Sv, G, q: int) -> float:
    """The similarity loss ||S - G/q||_F^2, bit for bit numpy's sum of the whole squared residual.

    numpy sums a contiguous float64 array along a pairwise tree: n > 128
    entries split at n // 2 rounded down to a multiple of 8, and each part
    is summed alike.  Each node of that tree that fits _BLOCK_BYTES is a flat
    segment here, formed by :func:`_residual`, squared and summed by numpy,
    and the segment sums are added in the tree's order, so no C x C float64
    array is formed.
    """
    Sv, G = np.ravel(Sv), np.ravel(G)
    return _tree_s_loss(Sv, G, q, np.empty(min(Sv.size, _BLOCK_BYTES // 8)))


def _tree_s_loss(Sv, G, q: int, buf: np.ndarray) -> float:
    """:func:`_s_loss` of flat S and G along numpy's pairwise tree, in segments of buf's size."""
    n = Sv.size
    if n <= buf.size:
        r = _residual(Sv, G, q, out=buf[:n])
        return float(np.multiply(r, r, out=r).sum())
    half = n // 2 - n // 2 % 8
    return _tree_s_loss(Sv[:half], G[:half], q, buf) + _tree_s_loss(Sv[half:], G[half:], q, buf)


def _d_min(G: np.ndarray, q: int) -> int | None:
    """Least pairwise Hamming distance (q - max_{i != j} G_ij) / 2 of a Gram matrix; None for one row.

    G_ii = q is the row maximum, so a row's largest off-diagonal entry is its second largest.
    """
    if len(G) == 1:
        return None
    top = max(int(np.partition(G[block], -2, axis=1)[:, -2].max())
              for block in _row_blocks(len(G), G[0].nbytes))
    return (q - top) // 2


def _close_pairs(G: np.ndarray, q: int, d: int) -> int:
    """Unordered pairs of a Gram matrix at Hamming distance below d, that is with G_ij > q - 2d.

    For d >= 1 the diagonal G_ii = q counts too and is taken off; for d <= 0 nothing counts.
    """
    close = sum(int(np.count_nonzero(G[block] > q - 2 * d)) for block in _row_blocks(len(G), len(G)))
    return max(0, close - len(G)) // 2


def init_centers(q: int, C: int, d: int, seed: int, method: str = INIT_GREEDY) -> CenterSet:
    """Seeded construction of C distinct centers aiming for pairwise distance >= d.

    Greedy farthest-point: per slot, draw 200 uniform candidates, accept the
    first with distance >= d to everything accepted, falling back to the
    max-min candidate.  When the target spacing is not met the set is still
    returned and the violating pair count is logged; only a fallback slot
    adds pairs below d, so they are counted as the slots fill.  Hadamard
    seeding uses the rows of a power-of-two Hadamard matrix and their
    complements (pairwise distance q/2 for up to 2q classes).
    """
    _check_code_space(q, C)
    _check_distance(d, q)

    if method == INIT_HADAMARD:
        return _hadamard_centers(q, C, d)
    if method != INIT_GREEDY:
        raise ValidationError(f"unknown init method {method!r}")

    rng = np.random.default_rng(seed)
    rows = np.empty((C, q), dtype=np.int8)
    words = _pack_words(rows)  # rows[:filled], packed: a row is packed once it is placed
    filled = bad = 0
    while filled < C:
        cand = (rng.integers(0, 2, size=(_CANDIDATES_PER_SLOT, q), dtype=np.int8) * 2) - 1
        if filled == 0:
            rows[0] = cand[0]
        else:
            # The first qualifying candidate is taken, so ranking stops at the first
            # block that holds one; only a slot with none ranks all of them.
            packed = _pack_words(cand)
            ranked = []
            for start in range(0, _CANDIDATES_PER_SLOT, _RANK_BLOCK):
                min_dist = _hamming(packed[start:start + _RANK_BLOCK], words[:filled], q).min(axis=1)
                qualified = np.flatnonzero(min_dist >= d)
                if qualified.size:
                    rows[filled] = cand[start + qualified[0]]
                    break
                ranked.append(min_dist)
            else:
                min_dist = np.concatenate(ranked)
                best = int(np.argmax(min_dist))
                if min_dist[best] == 0:
                    rows[filled] = _exhaustive_max_min(words[:filled], q)
                else:
                    rows[filled] = cand[best]
                bad += int(np.count_nonzero(_hamming(_pack_words(rows[filled]), words[:filled], q) < d))
        words[filled] = _pack_words(rows[filled])
        filled += 1

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
    """The first C rows of [H; -H], each from the closed form H[i, j] = (-1)^popcount(i & j) of Sylvester's H.

    Any two rows lie q/2 apart but a row and its complement, q apart, so close pairs are counted, not found.
    """
    if q & (q - 1):
        raise ValidationError(f"hadamard init needs a power-of-two code length, got q={q}")
    if C > 2 * q:
        raise ValidationError(f"hadamard init supports at most 2q={2 * q} classes, got C={C}")
    k, i = q.bit_length() - 1, np.arange(C)[:, None]  # q = 2^k
    rows = (1 - 2 * (i >> k & 1)).astype(np.int8)  # -1 from row q on: row q + i is the complement of row i
    for b in range(k):  # (-1)^popcount(i & j) is the product of (-1)^(i_b j_b): the columns with j_b = 1 take (-1)^i_b
        rows = np.hstack([rows, rows * (1 - 2 * (i >> b & 1)).astype(np.int8)])
    bad = C * (C - 1) // 2 - max(0, C - q) if 2 * d > q else 0
    if bad:
        log.warning(
            "hadamard init: %d center pairs below target distance %d (pairwise spacing is q/2=%d)",
            bad, d, q // 2,
        )
    return CenterSet(rows)


def violation_count(centers: CenterSet, d: int) -> int:
    """Number of unordered center pairs with Hamming distance below d."""
    return _close_pairs(_gram(centers.matrix), centers.q, d)


def descend(S, centers: CenterSet, d: int) -> tuple[CenterSet, list[float]]:
    """Lower the similarity loss of ``centers`` one bit at a time, never bringing a pair below d.

    Discrete cyclic coordinate descent on the bits (as in Shen et al.,
    "Supervised Discrete Hashing", CVPR 2015) on s_loss = ||S - G/q||_F^2,
    G = H H^T, with G kept as exact integers.  A sweep visits each center
    i once.  With r = S[i] - G[i]/q (so r_i = 0), flipping bit k of h_i
    changes s_loss by (8/q) (h_ik (r @ H)_k + (C-1)/q).  A flip is allowed
    only if every tight pair j (G_ij > q - 2d - 2, distance <= d) has the
    same bit k, so the flip moves those pairs apart; the best allowed flip
    that lowers s_loss by more than rounding (8e-9 C/q) is applied and row
    and column i of G are updated.  Hence the count of pairs closer than d
    never rises, and an exact tie can not flip back and forth for ever.
    Sweeps repeat until one flips nothing, so on return no allowed single
    flip lowers s_loss by more than that margin.
    Returns the centers and the s_loss after each sweep.  Deterministic.

    A visit forms r from row i of G in O(C) and costs one product r @ H;
    the tight-pair mask, an OR of packed bit words, is built only when the
    best flip of the unmasked gains would lower s_loss, and a flip rewrites
    row and column i of G in O(C).  :func:`_residual` forms S - G/q, the
    row r per visit, and once per sweep :func:`_s_loss` forms it a segment
    at a time for its s_loss.  After a sweep that flipped fewer than C/4
    bits, a sweep first bounds every center's masked gains from P = R @ H
    (R = S - G/q), taken from :func:`_residual`'s rows a row block at a
    time, and skips the visits that bound proves flip nothing.  Beside S, a
    descent holds G, a few C x q arrays and row blocks of _BLOCK_BYTES.
    """
    Sv = _similarity(S, centers.C).values
    C, q = centers.C, centers.q
    _check_distance(d, q)
    H = centers.matrix.astype(np.float64)
    HT = centers.matrix.T.astype(np.int16, order="C")  # column k of H as a contiguous row
    G = _gram(centers.matrix)  # exact integers, so a flip's step is exact too
    tight_above = q - 2 * d - 2
    # far above the rounding error of r @ H (|S| <= 1), so each applied flip really lowers s_loss
    lowers = -(C - 1) / q - 1e-9 * C
    # R = S - G/q is not kept: _residual forms row i of it per visit, a row block at a time
    # per screen, and a segment at a time per sweep for _s_loss, always by one divide then
    # subtract, so every entry has one value, exactly symmetric as S and G are.  Its diagonal is S_ii - G_ii/q = 1 - q/q, exactly
    # 0.0, and a flip leaves G_ii alone.
    words = _pack_words(centers.matrix)
    gain, step, row = np.empty(q), np.empty(C, dtype=G.dtype), np.empty(C)
    # The screen.  A visit to i flips nothing if every gain h_ik (R[i] @ H)_k of a bit k
    # that the mask leaves open is >= lowers: the unmasked best is then either >= lowers
    # or blocked, and the masked best is >= lowers.  At the start of a screened sweep
    # P = R @ H, and floor_i is the least P_ik h_ik over the bits open at that point.  A
    # flip of bit k of i (h = h_ik) moves R_ji (j != i) by 2 h h_jk / q, so it moves every
    # P_jm by at most 2/q, except P_jk, which loses 2 h R_ji more as h_ik changes sign.
    # That part is applied to P and folded into floor, and bar rises by 2/q per flip.
    # The flip can open a bit of j's mask only if i was tight with j before it (a pair
    # that becomes tight only blocks more bits), so those floors drop to -inf.  Hence
    # floor_j >= bar proves that the visit to j flips nothing, once tol covers the
    # rounding.  P and a visit's gemv r @ H take the same rounded rows r from _residual
    # and differ only in the order of the sum: each is within about C^2 eps of the exact
    # product (C terms of |r| <= 2), so they differ by at most 2 C^2 eps.  Each of the at
    # most C flips adds at most (2C + 6) eps (the column update, the rounded R_ji and the
    # sum in bar).  That is under (4 C^2 + 6 C) eps, so 64 C^2 eps covers it all.
    tol = 64 * C * C * np.finfo(np.float64).eps
    trace = []
    flips = C  # the first sweep is not screened
    while flips:
        P = floor = None  # the last screen's, freed before the next is formed
        if flips < C / 4:
            P, floor = _screen(Sv, H, G, words, q, tight_above)
            bar = lowers + tol
            certified = 0
        flips = 0
        for i in range(C):
            if floor is not None and floor[i] >= bar:
                certified += 1
                continue
            _residual(Sv[i], G[i], q, out=row)
            np.dot(row, H, out=gain)
            gain *= H[i]
            k = int(gain.argmin())
            if not gain[k] < lowers:
                continue
            # The mask only raises entries to inf, so it matters only when it blocks the unmasked
            # best bit (argmin keeps the first minimum either way) and i is not its only tight center.
            tight = (G[i] > tight_above).nonzero()[0]
            if tight.size > 1:
                blocked = _unpack_words(np.bitwise_or.reduce(words.take(tight, axis=0) ^ words[i]), q)
                if blocked[k]:
                    gain[blocked] = np.inf
                    k = int(gain.argmin())
                    if not gain[k] < lowers:
                        continue
            h = H[i, k]
            if floor is not None:
                P[:, k] -= (2.0 * h) * row  # R[:, i] before the flip
                np.minimum(floor, P[:, k] * HT[k], out=floor)
                floor[tight] = -np.inf
                bar += 2 / q
            np.multiply(HT[k], -2 * int(h), out=step)
            step[i] = 0
            G[i] += step
            G[:, i] = G[i]
            H[i, k] = HT[k, i] = -h
            _flip_bit(words, i, k)
            flips += 1
        s_loss = _s_loss(Sv, G, q)
        trace.append(s_loss)
        if floor is not None:
            log.debug("descend: sweep %d screened, %d of %d visits certified", len(trace), certified, C)
        if log.isEnabledFor(logging.INFO):
            log.info(
                "descend: sweep %d flipped %d bits, s_loss=%.6g, d_min=%s, violations=%d",
                len(trace), flips, s_loss, _d_min(G, q), _close_pairs(G, q, d),
            )
    return CenterSet(H.astype(np.int8)), trace


def _screen(Sv, H, G, words, q: int, tight_above: int) -> tuple[np.ndarray, np.ndarray]:
    """P = R @ H (R = S - G/q) and floor_i, the least P_ik h_ik over the bits k open to center i.

    :func:`_residual` forms R a row block at a time in one buffer, as a visit forms its row,
    and one product fills that block of P.  As in a visit, bit k of i is blocked where the
    OR of words[j] ^ words[i] over tight j (j = i among them) is set.
    """
    C = len(G)
    P, floor = np.empty_like(H), np.empty(C)
    blocks = _row_blocks(C, C * 8)
    R = np.empty((blocks[0].stop, C))
    for block in blocks:
        np.matmul(_residual(Sv[block], G[block], q, out=R[:block.stop - block.start]), H, out=P[block])
    del R
    # A row of words can be much wider than a row of R (16 times at q = 1024), and at C = 600
    # a product of 3 rows cost 4 times as much per row as one of 54, so the floors take their
    # own blocks.
    for block in _row_blocks(C, words.nbytes):  # a row gathers the words of at most C tight pairs
        rows, cols = np.divmod(np.flatnonzero(G[block] > tight_above), C)
        starts = np.searchsorted(rows, np.arange(block.stop - block.start))
        blocked = _unpack_words(np.bitwise_or.reduceat(words[cols] ^ words[rows + block.start], starts), q)
        floor[block] = np.where(blocked, np.inf, P[block] * H[block]).min(axis=1)
    return P, floor


def quality_metrics(centers: CenterSet, S) -> tuple[int | None, float]:
    """Minimum pairwise Hamming distance and similarity loss of a center set.

    The similarity loss is ||S - (1/q) H^T H||_F^2 over the full matrix.
    With a single center there are no pairs, so the distance is reported as
    None rather than a misleading 0.
    """
    Sv = _similarity(S, centers.C).values
    G = _gram(centers.matrix)
    return _d_min(G, centers.q), _s_loss(Sv, G, centers.q)
