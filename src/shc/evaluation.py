"""Hamming-ranking retrieval evaluation over labeled code databases.

Queries are ranked against the database by ascending Hamming distance with
ties broken by ascending record index.  Relevance is exact label equality.
AP@K divides by the number of relevant items retrieved within the top K,
with AP = 0 when none are; queries whose label has no relevant records at
all count with recall 1.

Every hit of a query lies within its window, the records no farther than
its farthest relevant record, so on long rows (:data:`WINDOW_MIN_RECORDS`
records or more) each query has only its window ranked, one row at a time;
every statistic is that of the full ranking.
"""

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    CodeDatabase,
    DimensionMismatchError,
    ValidationError,
    _hamming,
    _pack_words,
    _row_blocks,
)

__all__ = [
    "DEFAULT_PR_GRID",
    "EvalReport",
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
# (query x database record) pair.  Measured with tracemalloc: 18.2 bytes
# when every record is relevant (the int64 hit positions, the padded
# float64 AP sums and their bool fill mask beside the bool relevance), 9.0
# bytes when 1% are and the chunk is ranked whole (uint64 XOR words beside
# the uint8/uint16 distances; the uint32/uint64 sort keys come after them),
# and 0.4-0.6 bytes when its windows are ranked one row at a time (the hit
# positions plus O(N) row buffers).  Eval memory is bounded by the budget
# times the worker count, not by queries x records.
EVAL_CHUNK_BYTES = 64 << 20
EVAL_BYTES_PER_PAIR = 26

# Rows shorter than this are ranked whole: below it, per-row call overhead
# and, with several workers, the interpreter lock cost more than ranking
# only each query's window saves.
WINDOW_MIN_RECORDS = 32768


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
    """Worker cap for parallel evaluation: machine parallelism, or SHC_THREADS if that is fewer.

    Each worker holds a chunk of EVAL_CHUNK_BYTES, so workers beyond the CPUs add memory, not speed.
    """
    cpus = os.cpu_count() or 1
    env = os.environ.get("SHC_THREADS", str(cpus))
    try:
        value = int(env)
    except ValueError:
        raise ValidationError(f"SHC_THREADS must be a positive integer, got {env!r}") from None
    if value < 1:
        raise ValidationError(f"SHC_THREADS must be a positive integer, got {env!r}")
    return min(value, cpus)


def _hit_stats(flat, rows, N, cutoffs):
    """Relevant-counts and AP at each cutoff of ``rows`` ranked rows of N records.

    ``flat`` holds the position ``row * N + rank`` of every hit, in
    row-major order.  The r-th hit of a row, at 0-based rank p, adds
    r/(p+1) to its row's AP numerator; the terms are summed in rank order by
    a cumsum along the row, so every value equals the dense
    ``cumsum(rel * cumsum(rel) / arange(1, N+1))`` bit for bit (a non-hit
    adds +0.0, which changes nothing).
    """
    at = np.minimum(cutoffs, N) - 1
    base = np.arange(rows) * N
    first = np.searchsorted(flat, base)  # index in flat of each row's first hit
    hits = np.searchsorted(flat, base[:, None] + at, side="right") - first[:, None]
    count = np.diff(first, append=flat.size)
    num = np.zeros((rows, 1 + int(count.max())))  # column 0 holds the empty sum
    terms = num[:, 1:]  # column r - 1: the r-th hit of the row
    filled = np.arange(1, num.shape[1]) <= count[:, None]
    terms[filled] = flat  # row-major, as flat
    np.subtract(terms, (base - 1)[:, None], out=terms, where=filled)  # p + 1
    np.divide(np.arange(1, num.shape[1]), terms, out=terms, where=filled)  # r / (p + 1)
    np.cumsum(num, axis=1, out=num)
    ap = np.divide(num[np.arange(rows)[:, None], hits], hits, out=np.zeros(hits.shape), where=hits > 0)
    return hits, ap


def _ranked_relevance(dist, relevant, q):
    """Each row's relevance in its (distance, index) ranking, as the 0/1 sort keys of its records.

    A record's key packs its distance, its index and its relevance bit, high
    to low.  A row's keys are distinct, so any sort puts them in the order of
    a stable argsort of the distances, and each sorted key keeps its
    record's relevance in its low bit: no int64 order, no gather.
    """
    N = dist.shape[-1]
    shift = N.bit_length() + 1  # index << 1 stays below 2**shift
    key = np.left_shift(dist, shift, dtype=np.uint32 if int(q).bit_length() + shift <= 32 else np.uint64)
    key |= np.arange(0, 2 * N, 2, dtype=key.dtype)
    key |= relevant
    key.sort(axis=-1)
    key &= 1
    return key


def _chunk_stats(q_words, q_labels, db_words, db_labels, by_label, q, cutoffs):
    """Relevant-counts and AP at each cutoff, and the pairs ranked, for a chunk of packed queries.

    Rows under :data:`WINDOW_MIN_RECORDS` records are ranked whole, as one
    sort.  Longer rows are ranked one query at a time, and only over its
    window, the records no farther than its farthest relevant record: every
    hit lies within it, and in the (distance, index) order the window fills
    exactly the first ranks, so ranking it alone gives every hit's rank in
    the full ranking.  A window of more than a third of the records is
    ranked by one full sort of its row; a query whose label has no records
    is not ranked.  ``by_label`` is the stable argsort of ``db_labels``.
    """
    rows, N = len(q_labels), len(db_labels)
    if N < WINDOW_MIN_RECORDS:
        rel = _ranked_relevance(_hamming(q_words, db_words, q), db_labels == q_labels[:, None], q).astype(bool)
        return (*_hit_stats(np.flatnonzero(rel), rows, N, cutoffs), rows * N)
    grouped = db_labels[by_label]
    parts = [np.empty(0, dtype=np.intp)]
    ranked = 0
    for i in range(rows):
        label = int(q_labels[i])
        relevant = by_label[np.searchsorted(grouped, label):np.searchsorted(grouped, label, "right")]
        if not relevant.size:
            continue  # no hits
        dist = _hamming(q_words[i], db_words, q)
        near = np.flatnonzero(dist <= dist[relevant].max())
        if 3 * near.size > N:
            order = np.argsort(dist, kind="stable")[:near.size]
            ranked += N
        else:
            order = near[np.argsort(dist[near], kind="stable")]
            ranked += near.size
        parts.append(np.flatnonzero(db_labels[order] == label) + i * N)
    flat = np.concatenate(parts)
    del parts  # so no second copy of the hit positions lies beside the AP sums
    return (*_hit_stats(flat, rows, N, cutoffs), ranked)


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
    chunks = _row_blocks(n_q, EVAL_BYTES_PER_PAIR * len(db), EVAL_CHUNK_BYTES)
    workers = max(1, int(workers))
    log.info(
        "evaluate: %d queries in %d chunks of up to %d rows (%d B per query x record pair, "
        "%d B per chunk, %d records), %d workers",
        n_q, len(chunks), chunks[0].stop, EVAL_BYTES_PER_PAIR, EVAL_CHUNK_BYTES, len(db), workers,
    )
    db_words = np.asfortranarray(_pack_words(db.codes))  # packed once, each word contiguous
    by_label = np.argsort(db.labels, kind="stable")  # each label's records, found by bisection
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(
            lambda s: _chunk_stats(
                _pack_words(queries.codes[s]), queries.labels[s], db_words, db.labels, by_label, db.q, cut_arr
            ),
            chunks,
        ))
    hits, ap, ranked = zip(*parts)
    log.info("evaluate: ranked %d of %d query x record pairs", sum(ranked), n_q * len(db))
    # Column-major like the stats of any multi-row chunk, so the means below
    # sum each column in the same order however the queries were chunked.
    hits, ap = (np.asfortranarray(np.vstack(stats)) for stats in (hits, ap))

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
