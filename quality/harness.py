"""Retrieval quality of each stage-2 arm on seeded toy data with a known class structure.

    PYTHONPATH=src python quality/harness.py [--out QUALITY_<date>.json]

Each run draws C classes in ``supers`` superclasses of D = 32 features
(superclass means N(0, 4I), a class mean its superclass mean plus
``spread``·N(0, I), a sample its class mean plus ``noise``·N(0, I)), with 30
train, 25 database and 5 query samples per class.  Stage 1 is a softmax
regression on the standardized features (300 full-batch steps at rate
0.5), whose train logits go to ``build_similarity``.  Each arm then draws C
centers of q bits against the GV distance d; a ridge head (lambda =
1e-2 · n) fitted from the train features onto each sample's class center
codes every sample by its sign, and ``evaluate`` ranks the database for the
queries.

The arms are the Hadamard init, the greedy init, init + ``descend`` (what
``shc centers`` runs) and init + ``descend`` at ``--min-dist 1``.  Numpy
only and seeded: the report holds no timing, and two runs at one commit
write the same numbers.  Nothing here gates a change.
"""

import argparse
import datetime
import json
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from shc import CodeDatabase, build_similarity, compute_min_distance, descend, evaluate, init_centers, quality_metrics

ROOT = Path(__file__).resolve().parents[1]

D = 32
PER_CLASS = {"train": 30, "database": 25, "query": 5}
SOFTMAX_STEPS, SOFTMAX_RATE = 300, 0.5
RIDGE_PER_SAMPLE = 1e-2
SEEDS = range(100, 120)
ARMS = ("hadamard", "init", "descend", "min_dist_1")
BASELINES = ("hadamard", "descend")  # each arm's per-seed MAP is paired against these


@dataclass(frozen=True)
class Config:
    C: int
    q: int
    supers: int
    spread: float
    noise: float


CONFIGS = (
    Config(60, 32, 12, 1.0, 3.0),
    Config(60, 32, 12, 1.0, 6.0),
    Config(100, 64, 20, 0.6, 3.0),
    Config(100, 64, 20, 0.6, 6.0),
    Config(100, 64, 20, 1.5, 3.0),
    Config(100, 64, 20, 1.5, 6.0),
)


def draw(cfg: Config, rng) -> dict:
    """Each split's standardized (features, labels), drawn in the order train, database, query."""
    super_means = rng.normal(0.0, 2.0, (cfg.supers, D))
    means = super_means[np.arange(cfg.C) % cfg.supers] + cfg.spread * rng.normal(size=(cfg.C, D))
    splits = {}
    for split, count in PER_CLASS.items():
        labels = np.repeat(np.arange(cfg.C), count)
        splits[split] = (means[labels] + cfg.noise * rng.normal(size=(len(labels), D)), labels)
    train = splits["train"][0]
    center, scale = train.mean(axis=0), train.std(axis=0)
    return {split: ((X - center) / scale, labels) for split, (X, labels) in splits.items()}


def softmax_logits(X, labels, C: int) -> np.ndarray:
    """Train logits of a softmax regression fitted by full-batch gradient descent on the mean cross-entropy."""
    W, b = np.zeros((X.shape[1], C)), np.zeros(C)
    onehot = np.eye(C)[labels]
    for _ in range(SOFTMAX_STEPS):
        Z = X @ W + b
        P = np.exp(Z - Z.max(axis=1, keepdims=True))
        R = (P / P.sum(axis=1, keepdims=True) - onehot) / len(X)
        W -= SOFTMAX_RATE * (X.T @ R)
        b -= SOFTMAX_RATE * R.sum(axis=0)
    return X @ W + b


def arm_centers(S, q: int, d: int, seed: int) -> dict:
    """Every arm's centers, each seeded as the data."""
    init = init_centers(q, S.C, d, seed)
    return {
        "hadamard": init_centers(q, S.C, d, seed, method="hadamard"),
        "init": init,
        "descend": descend(S, init, d)[0],
        "min_dist_1": descend(S, init_centers(q, S.C, 1, seed), 1)[0],
    }


def retrieval(data: dict, centers) -> tuple[float, float]:
    """MAP@100 and MAP@all of database and query codes from a ridge head fitted onto the centers."""
    X, labels = data["train"]
    W = np.linalg.solve(X.T @ X + RIDGE_PER_SAMPLE * len(X) * np.eye(D), X.T @ centers.matrix[labels])

    def codes(split):
        X, labels = data[split]
        return CodeDatabase(labels, np.where(X @ W >= 0, 1, -1).astype(np.int8))

    db = codes("database")
    report = evaluate(codes("query"), db, [100, len(db)])
    return report.map_at[100], report.map_at[len(db)]


def run(cfg: Config, seed: int) -> dict:
    """One seeded run: stage 1's train accuracy and S, then every arm's MAP and s_loss."""
    data = draw(cfg, np.random.default_rng(seed))
    X, labels = data["train"]
    logits = softmax_logits(X, labels, cfg.C)
    S = build_similarity(labels, logits)
    d = compute_min_distance(cfg.q, cfg.C)
    window = (cfg.q - 2 * d) / cfg.q
    arms = {}
    for name, arm in arm_centers(S, cfg.q, d, seed).items():
        map_100, map_all = retrieval(data, arm)
        arms[name] = {"map_100": map_100, "map_all": map_all, "s_loss": quality_metrics(arm, S)[1]}
    return {
        "seed": seed,
        "train_accuracy": float(np.mean(logits.argmax(axis=1) == labels)),
        "window_share": float(np.mean(S.values[np.triu_indices(cfg.C, 1)] > window)),
        "arms": arms,
    }


def summarize(runs: list) -> dict:
    """Per arm: the mean and (population) std of each metric, and its paired MAP gain over each baseline."""
    def values(arm, metric):
        return np.array([r["arms"][arm][metric] for r in runs])

    summary = {}
    for arm in ARMS:
        row = {metric: {"mean": float(values(arm, metric).mean()), "std": float(values(arm, metric).std())}
               for metric in ("map_100", "map_all", "s_loss")}
        for base in BASELINES:
            if base != arm:
                gains = {metric: values(arm, metric) - values(base, metric) for metric in ("map_100", "map_all")}
                row[f"vs_{base}"] = {metric: {"mean_gain": float(g.mean()), "wins": int((g > 0).sum())}
                                     for metric, g in gains.items()}
        summary[arm] = row
    return summary


def report(cfg: Config, seeds) -> dict:
    """The runs of one configuration and their summary."""
    runs = [run(cfg, seed) for seed in seeds]
    return {
        **asdict(cfg),
        "d": compute_min_distance(cfg.q, cfg.C),
        "train_accuracy": float(np.mean([r["train_accuracy"] for r in runs])),
        "window_share": float(np.mean([r["window_share"] for r in runs])),
        "summary": summarize(runs),
        "runs": runs,
    }


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / f"QUALITY_{datetime.date.today()}.json")
    args = parser.parse_args(argv)
    configs = []
    for cfg in CONFIGS:
        configs.append(report(cfg, SEEDS))
        print(f"{cfg}: train accuracy {configs[-1]['train_accuracy']:.2f}; "
              "mean MAP@100 / MAP@all / s_loss, mean paired MAP gains (wins)")
        for arm, row in configs[-1]["summary"].items():
            gains = "  ".join(
                f"vs {key[3:]} " + " / ".join(f"{g['mean_gain']:+.4f} ({g['wins']})" for g in row[key].values())
                for key in row if key.startswith("vs_"))
            print(f"  {arm:10s} {row['map_100']['mean']:.4f} / {row['map_all']['mean']:.4f} / "
                  f"{row['s_loss']['mean']:.1f}  {gains}")
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "tree_clean": _git("status", "--porcelain") == "",
        "date": str(datetime.date.today()),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "seeds": list(SEEDS),
        "configs": configs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
