"""Independent references for the Hamming, ranking, AP and stage-1 kernels, kept for the tests.

The package runs one kernel for each of these: ``core._hamming`` on packed
words for every distance and Gram matrix, ``evaluation._hit_stats`` for
every AP, and ``similarity._similarity_of_rows`` with ``core._symmetrize``
for stage 1.  The functions here restate what those kernels compute from
first principles, on the unpacked {-1,+1} rows and in plain numpy, and
import no kernel of ``shc``: only its types and errors.
"""

import numpy as np

from shc.core import CodeDatabase, DegenerateInputError, SimilarityMatrix


def hamming_distance(a, b) -> int:
    """Number of positions where two equal-length {-1,+1} rows differ."""
    return int(np.count_nonzero(np.asarray(a) != np.asarray(b)))


def inner_product(a, b) -> int:
    """Integer inner product of two equal-length {-1,+1} rows, in int64; in [-q, q]."""
    return int(np.asarray(a, dtype=np.int64) @ np.asarray(b, dtype=np.int64))


def hamming_matrix(a, b) -> np.ndarray:
    """Distances between the {-1,+1} rows of a and b from their int64 inner products, shaped like ``a @ b.T``."""
    return (a.shape[-1] - a.astype(np.int64) @ b.astype(np.int64).T) // 2


def rank_database(query, db: CodeDatabase) -> np.ndarray:
    """Record indices by ascending Hamming distance to a {-1,+1} row, ties by ascending index: a stable argsort."""
    return np.argsort(np.count_nonzero(db.codes != np.asarray(query), axis=1), kind="stable")


def dense_ap(rel, cutoffs):
    """Relevant-counts and AP at each cutoff of ranked 0/1 rows: cumsums over every ranked position.

    Cutoffs beyond the row length N count at N; AP is 0 where no hit lies
    within the cutoff.
    """
    N = rel.shape[1]
    cum = np.cumsum(rel, axis=1)
    ap_num = np.cumsum(rel * (cum / np.arange(1, N + 1)), axis=1)
    at = np.minimum(cutoffs, N) - 1
    hits = cum[:, at]
    with np.errstate(divide="ignore", invalid="ignore"):
        ap = np.where(hits > 0, ap_num[:, at] / hits, 0.0)
    return hits, ap


def average_precision(query_label: int, ranked_labels, k: int) -> float:
    """AP@K of one ranked label list against a query label.

    (1/R_K) * sum_{i<=K} P(i) * rel(i), where R_K is the number of relevant
    items within the top K; 0.0 when R_K is 0.
    """
    rel = np.asarray(ranked_labels)[:k] == query_label
    return float(dense_ap(rel[None, :], np.array([k]))[1][0, 0])


def normalize_row(row) -> np.ndarray:
    """Center a row at its mean and scale its largest deviation to magnitude 1."""
    arr = np.asarray(row, dtype=np.float64)
    centered = arr - arr.mean()
    scale = np.abs(centered).max()
    if scale == 0.0:
        raise DegenerateInputError("cannot normalize a constant row")
    return centered / scale


def symmetrize_and_unit_diag(rows) -> SimilarityMatrix:
    """Average a square matrix with its transpose, clip to [-1, 1] and set a unit diagonal.

    The result must be exactly symmetric (signed zeros too), with a unit
    diagonal and entries in [-1, 1], and the constructor must keep it bit
    for bit.
    """
    arr = np.asarray(rows, dtype=np.float64)
    sym = np.clip((arr + arr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(sym, 1.0)
    assert np.array_equal(sym, sym.T) and np.array_equal(np.signbit(sym), np.signbit(sym.T))
    assert (np.diag(sym) == 1.0).all() and np.abs(sym).max() <= 1.0
    matrix = SimilarityMatrix(sym)
    assert matrix.values.tobytes() == sym.tobytes()
    return matrix
