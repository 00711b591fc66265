"""Tests of ``quality/harness.py``: its parts, one seed of a small configuration run twice, and its record."""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shc import compute_min_distance, init_centers, quality_metrics
from shc.similarity import cosine_similarity_matrix

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "quality"))
import harness  # noqa: E402

SMOKE = harness.Config(C=12, q=16, supers=4, spread=1.0, noise=3.0)
# The record whose ALM arm returned its init on every run, the evidence on which the ALM was deleted.
RECORD = json.loads((ROOT / "QUALITY_2026-10-22.json").read_text(encoding="utf-8"))


def test_one_seed_reports_maps_in_range_and_repeats():
    first = harness.report(SMOKE, [100])
    assert first == harness.report(SMOKE, [100])
    (run,) = first["runs"]
    assert sorted(run["arms"]) == sorted(harness.ARMS)
    maps = [arm[key] for arm in run["arms"].values() for key in ("map_100", "map_all")]
    assert all(0.0 <= value <= 1.0 for value in maps), maps
    assert 0.0 <= run["train_accuracy"] <= 1.0


@pytest.mark.parametrize("cfg", harness.CONFIGS, ids=lambda cfg: f"C{cfg.C}-spread{cfg.spread}-noise{cfg.noise}")
def test_draw_standardizes_every_split_by_the_train_split(cfg):
    data = harness.draw(cfg, np.random.default_rng(0))
    for split, count in harness.PER_CLASS.items():
        X, labels = data[split]
        assert X.shape == (cfg.C * count, harness.D)
        assert np.array_equal(labels, np.repeat(np.arange(cfg.C), count))
        assert np.array_equal(X, harness.draw(cfg, np.random.default_rng(0))[split][0])
    assert_allclose(data["train"][0].mean(axis=0), 0.0, atol=1e-12)
    assert_allclose(data["train"][0].std(axis=0), 1.0, rtol=1e-12)


def test_softmax_logits_fit_separated_classes():
    labels = np.repeat(np.arange(5), 20)
    X = 4.0 * np.eye(harness.D)[labels] + 0.1 * np.random.default_rng(0).normal(size=(100, harness.D))
    logits = harness.softmax_logits(X, labels, 5)
    assert logits.shape == (100, 5)
    assert np.array_equal(logits.argmax(axis=1), labels)


@pytest.mark.parametrize("arm", harness.ARMS)
def test_each_arm_keeps_its_spacing_and_lowers_its_starts_loss(arm):
    # Hadamard rows lie q/2 apart; the greedy init and descend keep the GV distance d, or 1
    S = cosine_similarity_matrix(np.random.default_rng(0).normal(size=(12, 8)))
    d = compute_min_distance(16, 12)
    d_min, s_loss = quality_metrics(harness.arm_centers(S, 16, d, seed=3)[arm], S)
    assert d_min >= {"hadamard": 8, "init": d, "descend": d, "min_dist_1": 1}[arm]
    start = {"descend": init_centers(16, 12, d, 3), "min_dist_1": init_centers(16, 12, 1, 3)}.get(arm)
    assert start is None or s_loss < quality_metrics(start, S)[1]


def test_retrieval_is_perfect_on_separated_classes():
    data = harness.draw(harness.Config(C=8, q=16, supers=8, spread=0.0, noise=0.01), np.random.default_rng(0))
    assert harness.retrieval(data, init_centers(16, 8, 8, seed=0, method="hadamard")) == (1.0, 1.0)


def test_summarize_means_stds_and_paired_gains():
    maps = {"hadamard": [0.5, 0.75], "init": [0.25, 1.0], "descend": [0.5, 0.5], "min_dist_1": [0.75, 0.75]}
    runs = [{"arms": {arm: {"map_100": v[i], "map_all": v[i] / 2, "s_loss": 8.0 * i} for arm, v in maps.items()}}
            for i in range(2)]
    summary = harness.summarize(runs)
    assert summary["init"]["map_100"] == {"mean": 0.625, "std": 0.375}
    assert summary["init"]["s_loss"] == {"mean": 4.0, "std": 4.0}
    assert summary["init"]["vs_descend"]["map_all"] == {"mean_gain": 0.0625, "wins": 1}
    assert summary["hadamard"]["vs_descend"]["map_100"] == {"mean_gain": 0.125, "wins": 1}  # a tie is no win
    assert summary["min_dist_1"]["vs_descend"]["map_100"] == {"mean_gain": 0.25, "wins": 2}
    assert sorted(summary["hadamard"]) == ["map_100", "map_all", "s_loss", "vs_descend"]
    assert sorted(summary["descend"]) == ["map_100", "map_all", "s_loss", "vs_hadamard"]


@pytest.mark.parametrize("index", range(len(harness.CONFIGS)))
def test_record_holds_every_seed_and_an_alm_equal_to_its_init(index):
    recorded = RECORD["configs"][index]
    assert {key: recorded[key] for key in asdict(harness.CONFIGS[index])} == asdict(harness.CONFIGS[index])
    assert [r["seed"] for r in recorded["runs"]] == list(harness.SEEDS)
    for r in recorded["runs"]:
        assert sorted(r["arms"]) == sorted([*harness.ARMS, "alm"])
        assert r["alm_equals_init"] is True and r["arms"]["alm"] == r["arms"]["init"]
    assert harness.summarize(recorded["runs"]) == {arm: recorded["summary"][arm] for arm in harness.ARMS}
