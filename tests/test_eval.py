import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from shc import evaluation
from shc.core import CodeDatabase, DimensionMismatchError, ValidationError, _pack_words
from shc.evaluation import DEFAULT_PR_GRID, evaluate, worker_count

from oracles import average_precision, dense_ap, hamming_matrix, rank_database


def random_db(rng, n, q, classes):
    return CodeDatabase(
        rng.integers(0, classes, n), (rng.integers(0, 2, (n, q)) * 2 - 1).astype(np.int8)
    )


def naive_metrics(queries, db, ks):
    """Pure-python quadratic reference: per-query AP/precision/recall at each K."""
    n = len(db)
    out = {"ap": [], "precision": [], "recall": []}
    for qi in range(len(queries)):
        qlabel, qcode = int(queries.labels[qi]), queries.codes[qi]
        scored = sorted(
            range(n),
            key=lambda j: (sum(db.codes[j][k] != qcode[k] for k in range(db.q)), j),
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


def dense_chunk_stats(q_codes, q_labels, db_codes, db_labels, cutoffs):
    """Reference chunk statistics: int64 matmul distances, full sort order, dense AP."""
    order = np.argsort(hamming_matrix(q_codes, db_codes), axis=1, kind="stable")
    return dense_ap(db_labels[order] == q_labels[:, None], cutoffs)


def package_order(query, db):
    """The package's ranking of db for one query: each record is the lone hit of one row of a chunk.

    A row whose one hit lies at 0-based rank p has AP 1/(p+1) at cutoff N,
    so the ranks come back from the AP column.
    """
    N = len(db)
    own = np.arange(N)  # record j is the only record of label j
    _, ap, _ = evaluation._chunk_stats(
        np.repeat(_pack_words(query[None, :]), N, axis=0), own, _pack_words(db.codes), own, own, db.q,
        np.array([N]),
    )
    return np.argsort(np.rint(1.0 / ap[:, 0]))


def ap_at(rel, k):
    """The package's AP@K of one ranked 0/1 row."""
    rel = np.asarray(rel, dtype=bool)
    return float(evaluation._hit_stats(np.flatnonzero(rel), 1, rel.size, np.array([k]))[1][0, 0])


class TestRankDatabase:
    def test_exact_match_first(self):
        rng = np.random.default_rng(0)
        db = random_db(rng, 6, 8, 3)
        query = db.codes[3]
        assert package_order(query, db)[0] == rank_database(query, db)[0] == 3

    def test_tie_breaks_by_index(self):
        codes = np.array([[1, 1, 1, 1], [1, 1, 1, -1], [1, 1, -1, 1]], dtype=np.int8)
        db = CodeDatabase([0, 1, 2], codes)
        query = np.array([1, 1, 1, 1], dtype=np.int8)
        assert package_order(query, db).tolist() == rank_database(query, db).tolist() == [0, 1, 2]  # 1 and 2 tie

    def test_matches_naive_sort(self):
        rng = np.random.default_rng(1)
        db = random_db(rng, 100, 16, 5)
        for _ in range(10):
            query = (rng.integers(0, 2, 16) * 2 - 1).astype(np.int8)
            want = sorted(
                range(100),
                key=lambda j: (int(np.count_nonzero(db.codes[j] != query)), j),
            )
            assert package_order(query, db).tolist() == rank_database(query, db).tolist() == want

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionMismatchError):
            evaluate(CodeDatabase([0], np.array([[1, -1]], dtype=np.int8)), random_db(rng, 4, 8, 2), [1])


class TestAveragePrecision:
    def test_hand_computed(self):
        assert_allclose(ap_at([1, 0, 1, 0], 4), (1.0 + 2.0 / 3.0) / 2.0)
        assert_allclose(average_precision(1, [1, 0, 1, 0], 4), (1.0 + 2.0 / 3.0) / 2.0)

    def test_all_relevant(self):
        assert ap_at([1, 1, 1], 3) == average_precision(7, [7, 7, 7], 3) == 1.0

    def test_none_relevant(self):
        assert ap_at([0, 0, 0], 3) == average_precision(7, [1, 2, 3], 3) == 0.0

    def test_k_validation(self):
        rng = np.random.default_rng(11)
        db = random_db(rng, 4, 8, 2)
        with pytest.raises(ValidationError):
            evaluate(db, db, [0])


class TestChunkStats:
    @pytest.mark.parametrize(
        "seed, n_q, N, q, classes, cutoffs",
        [
            (0, 7, 300, 16, 5, [1, 2, 5, 10, 100, 300]),
            (1, 12, 1000, 64, 40, [1, 50, 999, 1000]),
            (2, 5, 120, 300, 3, [1, 7, 120]),
            (3, 9, 40, 9, 2, [3, 40, 41, 500, 10**6]),  # cutoffs above N
            (4, 6, 1, 8, 2, [1, 2, 5]),  # N = 1
            (5, 4, 500, 32, 1, [1, 250, 500]),  # every record relevant to most queries
        ],
    )
    def test_bit_identical_to_dense_cumsums(self, seed, n_q, N, q, classes, cutoffs):
        rng = np.random.default_rng(seed)
        db = random_db(rng, N, q, classes)
        queries = random_db(rng, n_q, q, classes)
        q_labels = np.r_[classes, queries.labels[1:]]  # query 0's label is absent from the database
        cut = np.asarray(cutoffs)
        hits, ap, _ = evaluation._chunk_stats(
            _pack_words(queries.codes), q_labels, _pack_words(db.codes), db.labels,
            np.argsort(db.labels, kind="stable"), q, cut,
        )
        want_hits, want_ap = dense_chunk_stats(queries.codes, q_labels, db.codes, db.labels, cut)
        assert hits.tolist() == want_hits.tolist()
        assert ap.dtype == want_ap.dtype and ap.tobytes() == want_ap.tobytes()
        assert not hits[0].any()

    @pytest.mark.parametrize("q, N, key_type", [(32, 5000, np.uint32), (65535, 40000, np.uint64)])
    def test_sort_keys_give_the_stable_argsort_relevance(self, q, N, key_type):
        rng = np.random.default_rng(q)
        dist = rng.choice(np.array([0, 1, q // 2, q], dtype=np.min_scalar_type(q)), (3, N))  # ties everywhere
        relevant = rng.random((3, N)) < 0.1
        keys = evaluation._ranked_relevance(dist, relevant, q)
        order = np.argsort(dist, axis=1, kind="stable")
        assert keys.dtype == key_type
        assert keys.tolist() == np.take_along_axis(relevant, order, axis=1).tolist()

    @pytest.mark.parametrize(
        "rel",
        [
            [[0, 0, 0, 0, 0], [1, 0, 1, 1, 0], [0, 1, 0, 0, 1]],  # a row with no hits first
            [[1, 1, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0]],  # ... last
            [[0, 0, 0, 0, 0]],  # ... alone
            [[1, 0, 0], [0, 0, 0], [1, 1, 1]],  # ... between, and a row of hits only
            [[1], [0], [1]],  # N = 1
            [[0]],
            np.random.default_rng(14).random((40, 300)) < np.array([0.0, 0.01, 0.3, 1.0]).repeat(10)[:, None],
        ],
    )
    def test_hit_stats_of_positions_match_dense_ap(self, rel):
        rel = np.array(rel, dtype=bool)
        rows, N = rel.shape
        cutoffs = np.array([1, 2, 3, N, N + 1, 10**6])  # cutoffs above N count at N
        hits, ap = evaluation._hit_stats(np.flatnonzero(rel), rows, N, cutoffs)
        want_hits, want_ap = dense_ap(rel, cutoffs)
        assert hits.tolist() == want_hits.tolist()
        assert ap.dtype == want_ap.dtype and ap.tobytes() == want_ap.tobytes()

    def test_average_precision_is_the_same_formula(self):
        rng = np.random.default_rng(13)
        labels = rng.integers(0, 3, (20, 400))
        cutoffs = np.array([1, 10, 37, 400, 1000])
        _, ap = evaluation._hit_stats(np.flatnonzero(labels == 1), *labels.shape, cutoffs)
        for row, row_ap in zip(labels, ap):
            assert [average_precision(1, row, k) for k in cutoffs] == row_ap.tolist()


def clustered_dbs(rng, sizes, q, classes, flip):
    """Databases of codes around one shared random center per class, each bit flipped with probability flip."""
    centers = rng.integers(0, 2, (classes, q))
    out = []
    for n in sizes:
        labels = rng.integers(0, classes, n)
        bits = centers[labels] ^ (rng.random((n, q)) < flip)
        out.append(CodeDatabase(labels, (bits * 2 - 1).astype(np.int8)))
    return out


def windowed_chunk_stats(queries, db, cutoffs, window_min=0):
    """_chunk_stats on one chunk, its windows ranked from window_min records on."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "WINDOW_MIN_RECORDS", window_min)
        return evaluation._chunk_stats(
            _pack_words(queries.codes), queries.labels, np.asfortranarray(_pack_words(db.codes)),
            db.labels, np.argsort(db.labels, kind="stable"), db.q, np.asarray(cutoffs),
        )


class TestWindowedRanking:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        q=st.sampled_from([1, 16, 64, 65, 128]),
        N=st.sampled_from([1, 2, 7, 60, 300]),
        n_q=st.integers(1, 12),
        classes=st.sampled_from([1, 3, 40]),
        flip=st.sampled_from([0.0, 0.05, 0.2, 0.5]),  # 0: exact duplicates, 0.5: no structure
        window_min=st.sampled_from([0, 1 << 40]),
    )
    def test_bit_identical_to_full_ranking(self, seed, q, N, n_q, classes, flip, window_min):
        rng = np.random.default_rng(seed)
        db, queries = clustered_dbs(rng, (N, n_q), q, classes, flip)
        # one more label among the queries, with no records in the database
        queries = CodeDatabase(np.where(rng.random(n_q) < 0.2, classes, queries.labels), queries.codes)
        cutoffs = np.array(sorted({1, 5, 100, N}))
        hits, ap, ranked = windowed_chunk_stats(queries, db, cutoffs, window_min)
        want_hits, want_ap = dense_chunk_stats(queries.codes, queries.labels, db.codes, db.labels, cutoffs)
        assert hits.tolist() == want_hits.tolist()
        assert ap.dtype == want_ap.dtype and ap.tobytes() == want_ap.tobytes()
        assert 0 <= ranked <= n_q * N
        if window_min:
            assert ranked == n_q * N

    def test_ties_at_the_farthest_hit_keep_index_order(self):
        # query 0...0 against 16 records; the hits of label 1 are records 3 (distance 0), 2 and 4
        # (distance 1), so its window is records 1, 2, 3, 4, 7, and its last hit, record 4, lies
        # between the non-hits 1 and 7 at the same distance
        d = [3, 1, 1, 0, 1, 4, 3, 1, 4, 4, 3, 4, 2, 2, 3, 4]
        codes = np.ones((16, 4), dtype=np.int8)
        for i, k in enumerate(d):
            codes[i, :k] = -1
        labels = np.zeros(16, dtype=np.int64)
        labels[[2, 3, 4]] = 1
        db = CodeDatabase(labels, codes)
        queries = CodeDatabase([1, 0, 2], np.ones((3, 4), dtype=np.int8))  # label 2 has no records
        cutoffs = np.array([1, 2, 3, 4, 5, 6, 16])
        hits, ap, ranked = windowed_chunk_stats(queries, db, cutoffs)
        want_hits, want_ap = dense_chunk_stats(queries.codes, queries.labels, db.codes, db.labels, cutoffs)
        assert hits.tolist() == want_hits.tolist()
        assert ap.tobytes() == want_ap.tobytes()
        assert hits[0].tolist() == [1, 1, 2, 3, 3, 3, 3]  # ranked 3, 1, 2, 4, 7, then farther
        # label 1: its 5-record window; label 0 (13 relevant): whole; label 2: not ranked
        assert ranked == 5 + 16 + 0

    def test_narrow_windows_hold_no_int64_order_of_a_row(self):
        rng = np.random.default_rng(21)
        db, queries = clustered_dbs(rng, (8000, 200), 64, 100, 0.15)
        pairs = len(queries) * len(db)
        peaks = {}
        for window_min in (0, 1 << 40):
            tracemalloc.start()
            try:
                ranked = windowed_chunk_stats(queries, db, [10, 8000], window_min)[2]
                peaks[window_min] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert ranked < pairs / 4 if window_min == 0 else ranked == pairs
        # windows: each row's hit positions plus O(N) row buffers (0.38 B per pair here);
        # ranked whole: uint64 XOR words beside the distances, then the sort keys (9.0 B per pair)
        assert peaks[0] < 0.75 * pairs
        assert peaks[1 << 40] > 8 * pairs

    @pytest.mark.parametrize("window_min", [0, 1 << 40])
    def test_every_record_relevant_stays_within_the_budget(self, window_min):
        rng = np.random.default_rng(23)
        db, queries = clustered_dbs(rng, (5000, 100), 16, 1, 0.5)  # one class: every record is a hit
        pairs = len(queries) * len(db)
        tracemalloc.start()
        try:
            windowed_chunk_stats(queries, db, [10, 5000], window_min)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # int64 hit positions, the padded float64 AP sums and their bool fill mask, beside
        # the bool relevance when ranked whole: 17.4 B per pair windowed, 18.2 whole
        assert peak < 20 * pairs < evaluation.EVAL_BYTES_PER_PAIR * pairs

    def test_default_ranks_long_rows_by_window(self, caplog, monkeypatch):
        rng = np.random.default_rng(22)
        N = evaluation.WINDOW_MIN_RECORDS
        db, queries = clustered_dbs(rng, (N, 3), 32, 50, 0.1)
        with caplog.at_level(logging.INFO, logger="shc.evaluation"):
            report = evaluate(queries, db, [10, N], pr_grid=[10], workers=1)
        ranked = int(caplog.records[-1].getMessage().split()[2])
        assert 0 < ranked < 3 * N / 4
        monkeypatch.setattr(evaluation, "EVAL_CHUNK_BYTES", 1)  # one query row per chunk
        assert evaluate(queries, db, [10, N], pr_grid=[10], workers=3) == report
        whole = windowed_chunk_stats(queries, db, [10, N], 1 << 40)
        hits, ap, _ = windowed_chunk_stats(queries, db, [10, N], N)
        assert hits.tolist() == whole[0].tolist() and ap.tobytes() == whole[1].tobytes()
        assert report.map_at[10] == float(ap[:, 0].mean())


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

    @pytest.mark.parametrize("q", [1, 63, 64, 65, 129])
    def test_matches_naive_oracle_at_word_boundaries(self, q):
        # q = 1 ties nearly every record; 63..65 and 129 end a packed word short of, at and past its end
        rng = np.random.default_rng(q)
        db = random_db(rng, 80, q, 4)
        queries = random_db(rng, 10, q, 4)
        queries = CodeDatabase(np.r_[4, queries.labels[1:]], queries.codes)  # label 4 has no record in db
        ks = [1, 5, 40, 80, 200]
        report = evaluate(queries, db, ks, pr_grid=ks)
        want = naive_metrics(queries, db, ks)
        for idx, k in enumerate(ks):
            assert_allclose(report.map_at[k], want["ap"][:, idx].mean(), atol=1e-12)
            assert_allclose(report.precision_curve[idx][1], want["precision"][:, idx].mean(), atol=1e-12)
            assert_allclose(report.recall_curve[idx][1], want["recall"][:, idx].mean(), atol=1e-12)

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
        # ranking all queries at once needs about 33 bytes per query x record pair;
        # one row at a time holds O(N), about 101 bytes per record here
        assert peak < len(queries) * len(db) * 33 / 40
        assert peak > len(db) * 8  # it did hold one row's uint64 XOR words

    @pytest.mark.parametrize("n_q, chunks, rows", [(2, 1, 2), (2581, 1, 2581), (2582, 2, 2581)])
    def test_logs_its_chunking(self, n_q, chunks, rows, caplog):
        # 1000 records: EVAL_CHUNK_BYTES // (EVAL_BYTES_PER_PAIR * 1000) = 2581 query rows per chunk
        assert evaluation.EVAL_CHUNK_BYTES // (evaluation.EVAL_BYTES_PER_PAIR * 1000) == 2581
        rng = np.random.default_rng(13)
        db = random_db(rng, 1000, 8, 5)
        queries = CodeDatabase(np.zeros(n_q, dtype=np.int64), np.ones((n_q, 8), dtype=np.int8))
        with caplog.at_level(logging.INFO, logger="shc.evaluation"):
            evaluate(queries, db, [10], pr_grid=[10], workers=3)
        assert [r.getMessage() for r in caplog.records] == [
            f"evaluate: {n_q} queries in {chunks} chunks of up to {rows} rows "
            f"({evaluation.EVAL_BYTES_PER_PAIR} B per query x record pair, "
            f"{evaluation.EVAL_CHUNK_BYTES} B per chunk, 1000 records), 3 workers",
            f"evaluate: ranked {n_q * 1000} of {n_q * 1000} query x record pairs",  # short rows: ranked whole
        ]

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

    def test_empty_query_set_and_zero_pr_cutoff(self):
        rng = np.random.default_rng(11)
        db = random_db(rng, 10, 8, 2)
        no_queries = CodeDatabase(np.zeros(0, dtype=np.int64), np.zeros((0, 8), dtype=np.int8))
        with pytest.raises(ValidationError) as info:
            evaluate(no_queries, db, [1])
        assert str(info.value) == "cannot evaluate an empty query set"
        with pytest.raises(ValidationError) as info:
            evaluate(random_db(rng, 2, 8, 2), db, [1], pr_grid=[5, 0])
        assert str(info.value) == "PR grid cutoffs must be >= 1, got [5, 0]"


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
