"""Hamming-ranking retrieval evaluation over labeled code databases.

Queries are ranked against the database by ascending Hamming distance with
ties broken by ascending record index.  Relevance is exact label equality.
AP@K divides by the number of relevant items retrieved within the top K,
with AP = 0 when none are; queries whose label has no relevant records at
all count with recall 1.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import BinaryCode, CodeDatabase, DimensionMismatchError, ValidationError, _hamming

__all__ = [
    "DEFAULT_PR_GRID",
    "EvalReport",
    "rank_database",
    "average_precision",
    "evaluate",
    "worker_count",
]

# Cutoff grid for the precision/recall/PR curves: dense at the head,
# coarsening out to 500.
DEFAULT_PR_GRID = tuple(
    list(range(1, 6))
    + list(range(10, 51, 5))
    + list(range(60, 101, 10))
    + list(range(150, 501, 50))
)

# Working-memory budget of one query chunk.  Ranking a chunk holds about 40
# bytes per (query x database record) pair, so eval memory is bounded by the
# budget times the worker count, not by queries x records.
EVAL_CHUNK_BYTES = 64 << 20


@dataclass(frozen=True)
class EvalReport:
    """Aggregated retrieval quality over a query set.

    map_at maps each requested cutoff to MAP@K; the curves hold
    (cutoff, value) pairs over the PR grid and pr_curve the corresponding
    (recall, precision) points.
    """

    map_at: dict[int, float]
    precision_curve: list[tuple[int, float]]
    recall_curve: list[tuple[int, float]]
    pr_curve: list[tuple[float, float]]
    query_count: int


def worker_count() -> int:
    """Worker cap for parallel evaluation: SHC_THREADS, else machine parallelism."""
    env = os.environ.get("SHC_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        value = int(env)
    except ValueError:
        raise ValidationError(f"SHC_THREADS must be a positive integer, got {env!r}") from None
    if value < 1:
        raise ValidationError(f"SHC_THREADS must be a positive integer, got {env!r}")
    return value


def rank_database(query: BinaryCode, db: CodeDatabase) -> np.ndarray:
    """Record indices by ascending Hamming distance, ties by ascending index."""
    if query.q != db.q:
        raise DimensionMismatchError(f"query length {query.q} vs database length {db.q}")
    return np.argsort(_hamming(db.codes, query.bits), kind="stable")


def average_precision(query_label: int, ranked_labels, k: int) -> float:
    """AP@K of one ranked label list against a query label.

    (1/R_K) * sum_{i<=K} P(i) * rel(i), where R_K is the number of relevant
    items within the top K; 0.0 when R_K is 0.
    """
    if k < 1:
        raise ValidationError(f"K must be >= 1, got {k}")
    rel = np.asarray(ranked_labels)[:k] == query_label
    hits = int(rel.sum())
    if hits == 0:
        return 0.0
    precision = np.cumsum(rel) / np.arange(1, rel.size + 1)
    return float((precision * rel).sum() / hits)


def _chunk_stats(q_codes, q_labels, db_codes, db_labels, cutoffs):
    """Per-query relevant-counts and AP at each cutoff, for a chunk of queries."""
    N = len(db_labels)
    order = np.argsort(_hamming(q_codes, db_codes), axis=1, kind="stable")
    rel = db_labels[order] == q_labels[:, None]
    cum = np.cumsum(rel, axis=1)
    ap_num = np.cumsum(rel * (cum / np.arange(1, N + 1)), axis=1)
    at = np.minimum(cutoffs, N) - 1
    hits = cum[:, at]
    with np.errstate(divide="ignore", invalid="ignore"):
        ap = np.where(hits > 0, ap_num[:, at] / hits, 0.0)
    return hits, ap


def evaluate(
    queries: CodeDatabase,
    db: CodeDatabase,
    top_ks,
    pr_grid=None,
    workers: int = 1,
) -> EvalReport:
    """Score a query set against a database at the requested cutoffs.

    MAP is reported at each cutoff in ``top_ks``; the precision/recall/PR
    curves are computed over ``pr_grid`` (default :data:`DEFAULT_PR_GRID`).
    Cutoffs beyond the database size N are evaluated at N.  Queries are
    ranked in row chunks of at most :data:`EVAL_CHUNK_BYTES` working memory,
    spread over ``workers`` threads; results are reduced in a fixed index
    order, so the outputs do not depend on the worker count or chunk size.
    """
    top_ks = [int(k) for k in top_ks]
    if not top_ks:
        raise ValidationError("at least one topK cutoff is required")
    if any(k < 1 for k in top_ks):
        raise ValidationError(f"topK cutoffs must be >= 1, got {top_ks}")
    if len(db) == 0:
        raise ValidationError("cannot evaluate against an empty database")
    if queries.q != db.q:
        raise DimensionMismatchError(f"query length {queries.q} vs database length {db.q}")
    if len(queries) == 0:
        raise ValidationError("cannot evaluate an empty query set")
    grid = list(DEFAULT_PR_GRID) if pr_grid is None else [int(k) for k in pr_grid]
    if not grid or any(k < 1 for k in grid):
        raise ValidationError(f"PR grid cutoffs must be >= 1, got {grid}")

    cutoffs = sorted(set(top_ks) | set(grid))
    col = {k: i for i, k in enumerate(cutoffs)}
    cut_arr = np.asarray(cutoffs)

    n_q = len(queries)
    rows = max(1, EVAL_CHUNK_BYTES // (40 * len(db)))
    chunks = [slice(i, i + rows) for i in range(0, n_q, rows)]
    db_codes = db.codes.astype(np.int64)  # widened once, not once per chunk
    with ThreadPoolExecutor(max_workers=max(1, int(workers))) as pool:
        parts = list(pool.map(
            lambda s: _chunk_stats(queries.codes[s], queries.labels[s], db_codes, db.labels, cut_arr),
            chunks,
        ))
    # Column-major like the stats of any multi-row chunk, so the means below
    # sum each column in the same order however the queries were chunked.
    hits, ap = (np.asfortranarray(np.vstack(stats)) for stats in zip(*parts))

    # Relevant records per query label, from the labels present (never sized by a label value).
    db_label, db_count = np.unique(db.labels, return_counts=True)
    at = np.minimum(np.searchsorted(db_label, queries.labels), len(db_label) - 1)
    totals = np.where(db_label[at] == queries.labels, db_count[at], 0).astype(np.float64)

    k_eff = np.minimum(cut_arr, len(db))
    precision_by_k = (hits / k_eff).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        recall = np.where(totals[:, None] > 0, hits / totals[:, None], 1.0)
    recall_by_k = recall.mean(axis=0)
    map_by_k = ap.mean(axis=0)

    return EvalReport(
        map_at={k: float(map_by_k[col[k]]) for k in top_ks},
        precision_curve=[(k, float(precision_by_k[col[k]])) for k in grid],
        recall_curve=[(k, float(recall_by_k[col[k]])) for k in grid],
        pr_curve=[(float(recall_by_k[col[k]]), float(precision_by_k[col[k]])) for k in grid],
        query_count=n_q,
    )
