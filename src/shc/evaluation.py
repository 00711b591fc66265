"""Hamming-ranking retrieval evaluation over labeled code databases.

Queries are ranked against the database by ascending Hamming distance with
ties broken by ascending record index.  Relevance is exact label equality.
AP@K divides by the number of relevant items retrieved within the top K,
with AP = 0 when none are; queries whose label has no relevant records at
all count with recall 1.
"""

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    BinaryCode,
    CodeDatabase,
    DimensionMismatchError,
    ValidationError,
    _hamming,
    _pack_words,
)

__all__ = [
    "DEFAULT_PR_GRID",
    "EvalReport",
    "rank_database",
    "average_precision",
    "evaluate",
    "worker_count",
]

log = logging.getLogger(__name__)

# Cutoff grid for the precision/recall/PR curves: dense at the head,
# coarsening out to 500.
DEFAULT_PR_GRID = tuple(
    list(range(1, 6))
    + list(range(10, 51, 5))
    + list(range(60, 101, 10))
    + list(range(150, 501, 50))
)

# Working-memory budget of one query chunk, and the most a chunk holds per
# (query x database record) pair, measured with tracemalloc: 25.2 bytes when
# every record is relevant (three int64/float64 arrays per hit in
# _hit_stats, the padded float64 AP sums, the bool relevance), 9-11 bytes
# when 1% are (uint64 XOR words, uint8/uint16 distances, int64 sort order,
# bool relevance).  Eval memory is bounded by the budget times the worker
# count, not by queries x records.
EVAL_CHUNK_BYTES = 64 << 20
EVAL_BYTES_PER_PAIR = 26


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
    return np.argsort(_hamming(_pack_words(db.codes), _pack_words(query.bits), db.q), kind="stable")


def average_precision(query_label: int, ranked_labels, k: int) -> float:
    """AP@K of one ranked label list against a query label.

    (1/R_K) * sum_{i<=K} P(i) * rel(i), where R_K is the number of relevant
    items within the top K; 0.0 when R_K is 0.
    """
    if k < 1:
        raise ValidationError(f"K must be >= 1, got {k}")
    rel = np.asarray(ranked_labels)[None, :k] == query_label
    return float(_hit_stats(rel, np.array([k]))[1][0, 0])


def _hit_stats(rel, cutoffs):
    """Relevant-counts and AP at each cutoff of ranked (rows, N) relevance.

    Works on the positions of the hits alone.  The r-th hit of a row, at
    0-based rank p, adds r/(p+1) to its row's AP numerator; the terms are
    summed in rank order by a cumsum that restarts at each row, so every
    value equals the dense ``cumsum(rel * cumsum(rel) / arange(1, N+1))``
    bit for bit (a non-hit adds +0.0, which changes nothing).
    """
    rows, N = rel.shape
    at = np.minimum(cutoffs, N) - 1
    flat = np.flatnonzero(rel)  # row * N + rank of every hit, in row-major order
    base = np.arange(rows) * N
    first = np.searchsorted(flat, base)  # index in flat of each row's first hit
    hits = np.searchsorted(flat, base[:, None] + at, side="right") - first[:, None]
    count = np.diff(first, append=flat.size)
    width = 1 + int(count.max())  # column 0 of num holds the empty sum
    # In-place steps keep at most three hit-sized int64/float64 arrays alive.
    flat -= np.repeat(base - 1, count)  # p + 1
    nth = np.arange(1, flat.size + 1)
    nth -= np.repeat(first, count)  # r
    terms = nth / flat
    del flat
    nth += np.repeat(np.arange(rows) * width, count)  # flat index of (row, r) in num
    num = np.zeros((rows, width))
    num.reshape(-1)[nth] = terms
    np.cumsum(num, axis=1, out=num)
    ap = np.divide(num[np.arange(rows)[:, None], hits], hits, out=np.zeros(hits.shape), where=hits > 0)
    return hits, ap


def _chunk_stats(q_words, q_labels, db_words, db_labels, q, cutoffs):
    """Per-query relevant-counts and AP at each cutoff, for a chunk of packed queries."""
    order = np.argsort(_hamming(q_words, db_words, q), axis=1, kind="stable")
    rel = np.empty(order.shape, dtype=bool)
    for i, label in enumerate(q_labels):  # a row at a time: faster than one fancy-indexed gather
        np.take(db_labels == label, order[i], out=rel[i])
    del order
    return _hit_stats(rel, cutoffs)


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

    cutoffs = sorted(set(top_ks) | set(grid) | {len(db)})  # hits at N: each query's relevant count
    col = {k: i for i, k in enumerate(cutoffs)}
    cut_arr = np.asarray(cutoffs)

    n_q = len(queries)
    rows = max(1, EVAL_CHUNK_BYTES // (EVAL_BYTES_PER_PAIR * len(db)))
    chunks = [slice(i, i + rows) for i in range(0, n_q, rows)]
    workers = max(1, int(workers))
    log.info(
        "evaluate: %d queries in %d chunks of up to %d rows (%d B per query x record pair, "
        "%d B per chunk, %d records), %d workers",
        n_q, len(chunks), min(rows, n_q), EVAL_BYTES_PER_PAIR, EVAL_CHUNK_BYTES, len(db), workers,
    )
    db_words = _pack_words(db.codes)  # packed once, not once per chunk
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(
            lambda s: _chunk_stats(
                _pack_words(queries.codes[s]), queries.labels[s], db_words, db.labels, db.q, cut_arr
            ),
            chunks,
        ))
    # Column-major like the stats of any multi-row chunk, so the means below
    # sum each column in the same order however the queries were chunked.
    hits, ap = (np.asfortranarray(np.vstack(stats)) for stats in zip(*parts))

    totals = hits[:, col[len(db)]]

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
