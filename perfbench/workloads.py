"""Seeded inputs, CLI steps and output checks of the benchmark workloads.

Every workload runs the three stages of the ``shc`` CLI (similarity
matrix, hash centers, Hamming-ranking eval); they differ in which stage
carries the weight.  The eval codes never come from the optimizer's
output: they lie around separately seeded centers, so a better optimizer
cannot move MAP and the eval reference stays a fixed oracle.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

# Share of code bits flipped around each eval center.
FLIP = 0.15


@dataclass(frozen=True)
class Size:
    source: str  # "embeddings" or "logits"
    C: int  # classes of the similarity matrix and the centers
    width: int  # embedding dimension, or logit rows per class
    q: int  # center bits
    gvbound: bool  # whether the pipeline calls `shc gvbound`
    eval_q: int
    eval_classes: int
    n_db: int
    n_queries: int
    topk: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Size
    tiny: Size


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "centers-large",
            "C=600 q=64 centers from embeddings: the optimizer and the similarity text I/O do "
            "nearly all the work; eval is small",
            full=Size("embeddings", 600, 64, 64, False, 64, 100, 2000, 200, "100,all"),
            tiny=Size("embeddings", 60, 16, 32, False, 32, 10, 300, 40, "10,all"),
        ),
        Workload(
            "eval-large",
            "eval of 1000 queries against 50k q=64 codes: evaluation and read_codes do the work and "
            "its O(nq x N) memory shows; centers are small",
            full=Size("embeddings", 100, 64, 64, False, 64, 100, 50_000, 1000, "100,1000,all"),
            tiny=Size("embeddings", 20, 16, 32, False, 32, 10, 2000, 100, "100,1000,all"),
        ),
        Workload(
            "pipeline-logits",
            "30k logit records, q=32, 4 CLI calls: per-record parsing, per-call ALM overhead, "
            "many short eval queries and process start-up weigh most",
            full=Size("logits", 100, 300, 32, True, 32, 100, 5000, 5000, "100,all"),
            tiny=Size("logits", 12, 20, 16, True, 16, 12, 200, 200, "100,all"),
        ),
    )
}


@dataclass(frozen=True)
class Step:
    kind: str  # the shc subcommand
    argv: list  # full shc argument list
    outputs: list  # files the step writes; "stdout" stands for its standard output


class Plan:
    """The generated inputs of one workload and the steps that consume them."""

    def __init__(self, size: Size, inputs: Path):
        self.size = size
        self.inputs = inputs

    @property
    def source_file(self) -> Path:
        return self.inputs / ("logits.txt" if self.size.source == "logits" else "embeddings.txt")

    def steps(self, out: Path) -> list:
        s = self.size
        sim, centers, report = out / "sim.txt", out / "centers.shc", out / "centers.json"
        eval_out = out / "eval.json"
        steps = [Step("simmatrix", ["simmatrix", f"--{s.source}", str(self.source_file), "--out", str(sim)],
                      [sim])]
        if s.gvbound:
            steps.append(Step("gvbound", ["gvbound", "--bits", str(s.q), "--classes", str(s.C)], ["stdout"]))
        steps.append(Step(
            "centers",
            ["centers", "--sim", str(sim), "--bits", str(s.q), "--out", str(centers),
             "--report", str(report)],
            [centers, report],
        ))
        steps.append(Step(
            "eval",
            ["eval", "--db", str(self.inputs / "db.shcd"), "--queries", str(self.inputs / "queries.shcd"),
             "--topk", s.topk, "--out", str(eval_out)],
            [eval_out],
        ))
        return steps

    def check(self, step: Step, out: Path, stdout: bytes) -> list:
        """Reasons why a step's outputs in ``out`` disagree with the reference."""
        try:
            return getattr(self, f"_check_{step.kind}")(out, stdout)
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            return [f"{step.kind}: unreadable output: {exc}"]

    def _check_simmatrix(self, out, stdout):
        if self.size.source == "logits":
            with open(self.source_file, encoding="utf-8") as fh:
                fh.readline()
                rows = [line.split(",") for line in fh.read().splitlines()]
            labels = np.array([r[1] for r in rows], dtype=np.int64)
            expected = ref.logit_similarity(labels, np.array([r[2:] for r in rows], dtype=np.float64))
        else:
            with open(self.source_file, encoding="utf-8") as fh:
                fh.readline()
                emb = np.array([line.split(",") for line in fh.read().splitlines()], dtype=np.float64)
            expected = ref.cosine_similarity(emb)
        got = ref.read_similarity_text(out / "sim.txt")
        if got.shape != expected.shape:
            return [f"simmatrix: shape {got.shape} != {expected.shape}"]
        err = float(np.abs(got - expected).max())
        return [] if err <= 1e-9 else [f"simmatrix: max deviation {err:.3g} from the reference"]

    def _check_gvbound(self, out, stdout):
        want = f"{ref.gv_bound(self.size.q, self.size.C)}\n".encode()
        return [] if stdout == want else [f"gvbound: printed {stdout!r}, expected {want!r}"]

    def center_quality(self, out: Path) -> dict:
        """Reference d_min, s_loss and violations of the centers written into ``out``."""
        s = self.size
        H = ref.read_centers_file(out / "centers.shc")
        if H.shape != (s.C, s.q):
            raise ValueError(f"centers: shape {H.shape} != {(s.C, s.q)}")
        d = ref.gv_bound(s.q, s.C)
        return {"d": d, **ref.center_quality(H, ref.read_similarity_text(out / "sim.txt"), d)}

    def _check_centers(self, out, stdout):
        quality = self.center_quality(out)
        with open(out / "centers.json", encoding="utf-8") as fh:
            report = json.load(fh)
        errors = ref.mismatches(quality, {k: report[k] for k in quality}, path="centers")
        if quality["violations"]:
            errors.append(f"centers: {quality['violations']} pairs closer than d={quality['d']}")
        return errors

    def _check_eval(self, out, stdout):
        db_labels, db_codes = ref.read_codes_file(self.inputs / "db.shcd")
        q_labels, q_codes = ref.read_codes_file(self.inputs / "queries.shcd")
        top_ks = {t: (len(db_labels) if t == "all" else int(t)) for t in self.size.topk.split(",")}
        expected = ref.eval_report(q_labels, q_codes, db_labels, db_codes, top_ks, ref.DEFAULT_PR_GRID)
        with open(out / "eval.json", encoding="utf-8") as fh:
            return ref.mismatches(expected, json.load(fh), path="eval")


def prepare(workload: str, inputs: Path, seed: int, size: str = "full") -> Plan:
    """Write the seeded inputs of a workload into ``inputs``; the same seed gives the same bytes."""
    s = getattr(WORKLOADS[workload], size)
    inputs.mkdir(parents=True, exist_ok=True)
    plan = Plan(s, inputs)
    rng = np.random.default_rng([seed, 1])
    if s.source == "logits":
        _write_logits(plan.source_file, rng, s.C, s.width)
    else:
        emb = rng.normal(size=(s.C, s.width))
        with open(plan.source_file, "w", encoding="utf-8") as fh:
            fh.write(f"C={s.C},D={s.width}\n")
            fh.writelines(",".join(format(v, ".17g") for v in row) + "\n" for row in emb)
    rng = np.random.default_rng([seed, 2])
    centers = rng.integers(0, 2, (s.eval_classes, s.eval_q), dtype=np.uint8)
    for name, n in (("db", s.n_db), ("queries", s.n_queries)):
        labels = rng.integers(0, s.eval_classes, n)
        bits = centers[labels] ^ (rng.random((n, s.eval_q)) < FLIP)
        ref.write_codes_file(inputs / f"{name}.shcd", labels, bits)
    return plan


def _write_logits(path: Path, rng, C: int, per_class: int) -> None:
    """Logits of a class: a shared class profile with a boosted own entry, plus noise."""
    profile = rng.normal(size=(C, C)) + 4.0 * np.eye(C)
    labels = rng.permutation(np.repeat(np.arange(C), per_class))
    logits = profile[labels] + rng.normal(size=(labels.size, C))
    row = "img%06d,%d," + ",".join(["%.5f"] * C) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"C={C}\n")
        fh.writelines(row % (i, label, *values) for i, (label, values) in enumerate(zip(labels, logits)))
