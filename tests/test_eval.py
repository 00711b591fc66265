import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shc import evaluation
from shc.core import BinaryCode, CodeDatabase, DimensionMismatchError, ValidationError
from shc.evaluation import (
    DEFAULT_PR_GRID,
    average_precision,
    evaluate,
    rank_database,
    worker_count,
)


def random_db(rng, n, q, classes):
    return CodeDatabase(
        rng.integers(0, classes, n), (rng.integers(0, 2, (n, q)) * 2 - 1).astype(np.int8)
    )


def naive_metrics(queries, db, ks):
    """Pure-python quadratic reference: per-query AP/precision/recall at each K."""
    n = len(db)
    out = {"ap": [], "precision": [], "recall": []}
    for qi in range(len(queries)):
        qlabel, qcode = queries.record(qi)
        scored = sorted(
            range(n),
            key=lambda j: (sum(db.codes[j][k] != qcode.bits[k] for k in range(db.q)), j),
        )
        labels = [int(db.labels[j]) for j in scored]
        total_rel = sum(1 for v in db.labels if int(v) == qlabel)
        row_ap, row_p, row_r = [], [], []
        for K in ks:
            ke = min(K, n)
            rel = [1 if labels[i] == qlabel else 0 for i in range(ke)]
            hits = sum(rel)
            if hits:
                ap = sum(
                    sum(rel[: i + 1]) / (i + 1) for i in range(ke) if rel[i]
                ) / hits
            else:
                ap = 0.0
            row_ap.append(ap)
            row_p.append(hits / ke)
            row_r.append(hits / total_rel if total_rel else 1.0)
        out["ap"].append(row_ap)
        out["precision"].append(row_p)
        out["recall"].append(row_r)
    return {k: np.array(v) for k, v in out.items()}


class TestRankDatabase:
    def test_exact_match_first(self):
        rng = np.random.default_rng(0)
        db = random_db(rng, 6, 8, 3)
        query = BinaryCode(db.codes[3])
        assert rank_database(query, db)[0] == 3

    def test_tie_breaks_by_index(self):
        codes = np.array([[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, 1]], dtype=np.int8)
        db = CodeDatabase([0, 1, 2], codes)
        order = rank_database(BinaryCode([1, 1, 1, 1]), db)
        assert order.tolist() == [0, 1, 2]  # records 1 and 2 tie at distance 1

    def test_matches_naive_sort(self):
        rng = np.random.default_rng(1)
        db = random_db(rng, 100, 16, 5)
        for _ in range(10):
            query = BinaryCode(rng.integers(0, 2, 16) * 2 - 1)
            got = rank_database(query, db)
            want = sorted(
                range(100),
                key=lambda j: (int(np.count_nonzero(db.codes[j] != query.bits)), j),
            )
            assert got.tolist() == want

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionMismatchError):
            rank_database(BinaryCode([1, -1]), random_db(rng, 4, 8, 2))


class TestAveragePrecision:
    def test_hand_computed(self):
        assert_allclose(average_precision(1, [1, 0, 1, 0], 4), (1.0 + 2.0 / 3.0) / 2.0)

    def test_all_relevant(self):
        assert average_precision(7, [7, 7, 7], 3) == 1.0

    def test_none_relevant(self):
        assert average_precision(7, [1, 2, 3], 3) == 0.0

    def test_k_validation(self):
        with pytest.raises(ValidationError):
            average_precision(1, [1], 0)


class TestEvaluate:
    def test_exact_copies_give_perfect_map1(self):
        rng = np.random.default_rng(3)
        queries = random_db(rng, 10, 16, 10)
        # db = one exact copy of each query, labels distinct per query
        db = CodeDatabase(np.arange(10), queries.codes)
        qs = CodeDatabase(np.arange(10), queries.codes)
        report = evaluate(qs, db, [1], pr_grid=[1])
        assert report.map_at[1] == 1.0

    def test_single_query_worked_example(self):
        # ranked relevance (1, 0, 1, 0), 2 relevant in db
        db = CodeDatabase(
            [5, 0, 5, 0],
            np.array(
                [[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, -1], [1, -1, -1, -1]],
                dtype=np.int8,
            ),
        )
        queries = CodeDatabase([5], np.array([[1, 1, 1, 1]], dtype=np.int8))
        report = evaluate(queries, db, [4], pr_grid=[2, 4])
        assert_allclose(report.map_at[4], (1.0 + 2.0 / 3.0) / 2.0)
        assert_allclose(report.precision_curve[0][1], 0.5)
        assert_allclose(report.recall_curve[0][1], 0.5)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        db = random_db(rng, 120, 16, 6)
        queries = random_db(rng, 15, 16, 6)
        ks = [1, 3, 7, 50, 120, 500]
        report = evaluate(queries, db, ks, pr_grid=ks)
        want = naive_metrics(queries, db, ks)
        for idx, k in enumerate(ks):
            assert_allclose(report.map_at[k], want["ap"][:, idx].mean(), atol=1e-12)
            assert_allclose(report.precision_curve[idx][1], want["precision"][:, idx].mean(), atol=1e-12)
            assert_allclose(report.recall_curve[idx][1], want["recall"][:, idx].mean(), atol=1e-12)
            assert report.pr_curve[idx] == (report.recall_curve[idx][1], report.precision_curve[idx][1])

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(5)
        db = random_db(rng, 80, 8, 4)
        queries = random_db(rng, 12, 8, 4)
        report = evaluate(queries, db, [1], pr_grid=list(range(1, 81, 7)))
        values = [v for _, v in report.recall_curve]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_zero_relevant_label_counts_with_recall_one(self):
        db = CodeDatabase([0, 0], np.array([[1, 1], [1, -1]], dtype=np.int8))
        queries = CodeDatabase([3], np.array([[1, 1]], dtype=np.int8))
        report = evaluate(queries, db, [2], pr_grid=[1, 2])
        assert report.map_at[2] == 0.0
        assert report.recall_curve[0][1] == 1.0
        assert report.query_count == 1

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(6)
        db = random_db(rng, 60, 8, 3)
        queries = random_db(rng, 9, 8, 3)
        report = evaluate(queries, db, [1, 10, 60])
        for value in report.map_at.values():
            assert 0.0 <= value <= 1.0
        for _, v in report.precision_curve + report.recall_curve:
            assert 0.0 <= v <= 1.0

    def test_permutation_invariant_with_distinct_distances(self):
        # single query; db codes at pairwise-distinct distances from it
        q = 16
        base = np.ones(q, dtype=np.int8)
        codes = []
        for dist in range(1, 9):
            row = base.copy()
            row[:dist] = -1
            codes.append(row)
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        db = CodeDatabase(labels, np.array(codes))
        queries = CodeDatabase([0], base[None, :])
        report = evaluate(queries, db, [4], pr_grid=[4])
        perm = np.random.default_rng(7).permutation(8)
        db_perm = CodeDatabase(labels[perm], np.array(codes)[perm])
        report_perm = evaluate(queries, db_perm, [4], pr_grid=[4])
        assert report.map_at == report_perm.map_at
        assert report.precision_curve == report_perm.precision_curve

    def test_worker_count_does_not_change_results(self):
        rng = np.random.default_rng(8)
        db = random_db(rng, 50, 8, 4)
        queries = random_db(rng, 11, 8, 4)
        a = evaluate(queries, db, [1, 5], pr_grid=[1, 5, 10], workers=1)
        b = evaluate(queries, db, [1, 5], pr_grid=[1, 5, 10], workers=4)
        assert a == b

    def test_chunk_budget_bounds_memory_not_results(self, monkeypatch):
        rng = np.random.default_rng(11)
        db = random_db(rng, 5000, 16, 20)
        queries = random_db(rng, 200, 16, 20)
        monkeypatch.setattr(evaluation, "EVAL_CHUNK_BYTES", 1 << 40)
        whole = evaluate(queries, db, [10, 5000], workers=1)
        monkeypatch.setattr(evaluation, "EVAL_CHUNK_BYTES", 1)  # one query row per chunk
        tracemalloc.start()
        try:
            rows = evaluate(queries, db, [10, 5000], workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == whole
        assert evaluate(queries, db, [10, 5000], workers=3) == whole
        # ranking all queries at once needs about 33 bytes per query x record pair
        assert peak < len(queries) * len(db) * 33 / 10
        assert peak > len(db) * 8  # it did see one query's int64 sort order

    def test_large_label_values_allocate_nothing_of_their_size(self):
        # labels {0, 2^32-1} must rank and count like {0, 1}, not size an array by 2^32
        rng = np.random.default_rng(12)
        db = random_db(rng, 60, 16, 2)
        queries = random_db(rng, 7, 16, 3)  # label 2 has no relevant records
        big = np.array([0, 2**32 - 1, 2**32 - 2])
        want = evaluate(queries, db, [5, 60], workers=1)
        tracemalloc.start()
        try:
            got = evaluate(CodeDatabase(big[queries.labels], queries.codes),
                           CodeDatabase(big[db.labels], db.codes), [5, 60], workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1 << 20

    def test_default_grid_used_when_unspecified(self):
        rng = np.random.default_rng(9)
        db = random_db(rng, 30, 8, 3)
        queries = random_db(rng, 5, 8, 3)
        report = evaluate(queries, db, [10])
        assert [k for k, _ in report.precision_curve] == list(DEFAULT_PR_GRID)

    def test_input_validation(self):
        rng = np.random.default_rng(10)
        db = random_db(rng, 10, 8, 2)
        queries = random_db(rng, 2, 8, 2)
        with pytest.raises(ValidationError):
            evaluate(queries, db, [])
        with pytest.raises(ValidationError):
            evaluate(queries, db, [0])
        with pytest.raises(ValidationError):
            evaluate(queries, CodeDatabase(np.zeros(0, dtype=np.int64),
                                           np.zeros((0, 8), dtype=np.int8)), [1])
        with pytest.raises(DimensionMismatchError):
            evaluate(random_db(rng, 2, 4, 2), db, [1])


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SHC_THREADS", "3")
        assert worker_count() == 3

    def test_default_is_machine_parallelism(self, monkeypatch):
        monkeypatch.delenv("SHC_THREADS", raising=False)
        assert worker_count() >= 1

    @pytest.mark.parametrize("value", ["0", "-2", "abc"])
    def test_rejects_bad_values(self, monkeypatch, value):
        monkeypatch.setenv("SHC_THREADS", value)
        with pytest.raises(ValidationError):
            worker_count()
