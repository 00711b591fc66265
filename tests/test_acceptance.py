"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

There are no criteria 3 and 4 (the retired ALM's gradient and proxy step)
and no criterion 8 (the retired loss kernels): the other criteria keep the
numbers README cites them by.
"""

import itertools
import json
import math
import time

import numpy as np

from shc.cli import main
from shc.core import CodeDatabase, SimilarityMatrix, _hamming, _pack_words
from shc.evaluation import _hit_stats, evaluate
from shc.gv import compute_min_distance
from shc.optimizer import _gram, descend, init_centers, quality_metrics, violation_count
from shc.similarity import write_similarity


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_gv_bound_exactness():
    known = {
        (100, 16): 4, (100, 32): 10, (100, 64): 24,
        (196, 16): 4, (196, 32): 10, (196, 64): 23,
        (555, 16): 3, (555, 32): 9, (555, 64): 21,
    }
    start = time.perf_counter()
    mismatches = {}
    for (C, q), want in known.items():
        got = compute_min_distance(q, C)
        if got != want:
            mismatches[(C, q)] = (got, want)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (GV-bound exactness)",
        not mismatches and elapsed < 1.0,
        f"9 known values, {elapsed:.3f}s" + (f", mismatches={mismatches}" if mismatches else ""),
    )


def test_criterion_2_hamming_euclid_identity():
    # the kernels the CLI runs: packed Hamming distances and the Gram matrix G = q - 2 dist
    start = time.perf_counter()
    checked = 0
    for q in (8, 16, 32, 64):
        rng = np.random.default_rng(q)
        bits = rng.integers(0, 2, (2000, q)) * 2 - 1
        a, b = bits[0::2], bits[1::2]
        dist = _hamming(_pack_words(a), _pack_words(b), q).diagonal().astype(np.int64)
        inner = (a.astype(np.int64) * b).sum(axis=1)
        gram = _gram(bits)[np.arange(0, 2000, 2), np.arange(1, 2000, 2)]
        bad = np.flatnonzero((2 * dist != q - inner) | (gram != q - 2 * dist))
        if bad.size:
            _report("criterion 2 (Hamming-Euclid identity)", False, f"q={q} pair {bad[0]}")
        checked += dist.size
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (Hamming-Euclid identity)",
        checked == 4000 and elapsed < 1.0,
        f"{checked} pairs, {elapsed:.3f}s",
    )


def test_criterion_5_tiny_instance_oracle():
    q, C = 8, 2
    d = compute_min_distance(q, C)
    rng = np.random.default_rng(55)
    shortfalls = []
    for trial in range(10):
        s = float(rng.uniform(-1, 1))
        S = np.array([[1.0, s], [s, 1.0]])
        centers, _ = descend(S, init_centers(q, C, d, trial), d)
        got = quality_metrics(centers, S)[1]  # descend minimizes s_loss alone: the paper's mu is 0
        # exhaustive search over all 2^8 second codewords, first fixed all-ones
        h1 = np.ones(q)
        best = math.inf
        for bits in itertools.product((-1.0, 1.0), repeat=q):
            h2 = np.array(bits)
            if h1 @ h2 > q - 2 * d:
                continue
            H = np.column_stack([h1, h2])
            G = H.T @ H
            fit = S - G / q
            best = min(best, float((fit * fit).sum()))
        feasible = violation_count(centers, d) == 0
        if not feasible or abs(got - best) > 1e-9:
            shortfalls.append((trial, s, got, best, feasible))
    for trial, s, got, best, feasible in shortfalls:
        print(f"[acceptance]   shortfall: trial={trial} s={s:+.4f} got={got:.9f} "
              f"optimum={best:.9f} feasible={feasible}")
    _report(
        "criterion 5 (tiny-instance exhaustive oracle)",
        len(shortfalls) <= 2,
        f"{10 - len(shortfalls)}/10 optimal (need >= 8)",
    )


def test_criterion_6_planted_center_recovery():
    q, C = 32, 16
    d = compute_min_distance(q, C)
    start = time.perf_counter()
    improved = 0
    spaced = 0
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        rows = (rng.integers(0, 2, (C, q)) * 2 - 1).astype(np.float64)
        S = rows @ rows.T / q
        np.clip(S, -1.0, 1.0, out=S)
        np.fill_diagonal(S, 1.0)
        init = init_centers(q, C, d, seed)
        _, s_init = quality_metrics(init, S)
        centers, _ = descend(S, init, d)
        d_min, s_final = quality_metrics(centers, S)
        improved += s_final <= s_init + 1e-12
        spaced += d_min >= d
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6 (planted-center recovery)",
        improved == 20 and spaced >= 18 and elapsed < 60.0,
        f"s_loss kept on {improved}/20 seeds, spacing on {spaced}/20 (target d={d}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_retrieval_metric_oracle():
    ap = _hit_stats(np.flatnonzero([1, 0, 1, 0]), 1, 4, np.array([4]))[1][0, 0]
    if abs(ap - (1.0 + 2.0 / 3.0) / 2.0) > 1e-12:
        _report("criterion 7 (retrieval-metric oracle)", False, f"AP example gave {ap}")

    rng = np.random.default_rng(77)
    n_db, n_q, q, classes = 500, 50, 16, 10
    db = CodeDatabase(rng.integers(0, classes, n_db),
                      (rng.integers(0, 2, (n_db, q)) * 2 - 1).astype(np.int8))
    queries = CodeDatabase(rng.integers(0, classes, n_q),
                           (rng.integers(0, 2, (n_q, q)) * 2 - 1).astype(np.int8))
    ks = [1, 10, 100, 500]
    report = evaluate(queries, db, ks, pr_grid=ks)

    # independent quadratic reference
    worst = 0.0
    ap_rows, p_rows, r_rows = [], [], []
    for qi in range(n_q):
        qlabel, qcode = int(queries.labels[qi]), queries.codes[qi]
        dist = [int(np.count_nonzero(db.codes[j] != qcode)) for j in range(n_db)]
        order = sorted(range(n_db), key=lambda j: (dist[j], j))
        labels = [int(db.labels[j]) for j in order]
        total_rel = sum(1 for v in db.labels if int(v) == qlabel)
        ap_row, p_row, r_row = [], [], []
        for K in ks:
            rel = [1 if labels[i] == qlabel else 0 for i in range(K)]
            hits = sum(rel)
            ap_val = (
                sum(sum(rel[: i + 1]) / (i + 1) for i in range(K) if rel[i]) / hits
                if hits else 0.0
            )
            ap_row.append(ap_val)
            p_row.append(hits / K)
            r_row.append(hits / total_rel if total_rel else 1.0)
        ap_rows.append(ap_row)
        p_rows.append(p_row)
        r_rows.append(r_row)
    for idx, K in enumerate(ks):
        worst = max(worst, abs(report.map_at[K] - np.mean([r[idx] for r in ap_rows])))
        worst = max(worst, abs(report.precision_curve[idx][1] - np.mean([r[idx] for r in p_rows])))
        worst = max(worst, abs(report.recall_curve[idx][1] - np.mean([r[idx] for r in r_rows])))
    _report(
        "criterion 7 (retrieval-metric oracle)",
        worst <= 1e-12,
        f"50 queries x 500 codes, worst |delta| {worst:.2e}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(99)
    rows = (rng.integers(0, 2, (8, 16)) * 2 - 1).astype(np.float64)
    S = rows @ rows.T / 16
    np.fill_diagonal(S, 1.0)
    sim_path = tmp_path / "sim.txt"
    write_similarity(SimilarityMatrix(S), sim_path)
    out1, out2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    base = ["centers", "--sim", str(sim_path), "--bits", "16", "--seed", "5"]
    code1 = main(base + ["--out", str(out1), "--report", str(rep1)])
    code2 = main(base + ["--out", str(out2), "--report", str(rep2)])
    same = out1.read_bytes() == out2.read_bytes()
    same_report = json.loads(rep1.read_text()) == json.loads(rep2.read_text())
    _report(
        "criterion 9 (CLI determinism)",
        code1 == 0 and code2 == 0 and same and same_report,
        "two seeded runs byte-identical",
    )


def test_criterion_10_synthetic_end_to_end():
    start = time.perf_counter()
    q, C, per_class, flip = 32, 16, 100, 0.05
    d = compute_min_distance(q, C)
    rng = np.random.default_rng(1010)
    rows = (rng.integers(0, 2, (C, q)) * 2 - 1).astype(np.float64)
    S = rows @ rows.T / q
    np.clip(S, -1.0, 1.0, out=S)
    np.fill_diagonal(S, 1.0)
    centers, _ = descend(S, init_centers(q, C, d, 0), d)
    d_min, _ = quality_metrics(centers, S)

    def noisy_codes(count_per_class):
        labels = np.repeat(np.arange(C), count_per_class)
        base = centers.matrix[labels].astype(np.int8)
        flips = rng.random(base.shape) < flip
        return CodeDatabase(labels, np.where(flips, -base, base))

    db = noisy_codes(per_class)
    queries = noisy_codes(per_class)
    report = evaluate(queries, db, [100], pr_grid=[100])
    elapsed = time.perf_counter() - start
    _report(
        "criterion 10 (synthetic end-to-end smoke)",
        report.map_at[100] >= 0.95 and elapsed < 30.0,
        f"MAP@100 = {report.map_at[100]:.4f} with d_min={d_min} (target {d}), {elapsed:.1f}s",
    )
