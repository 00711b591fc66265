"""Self-test of the benchmark on tiny, seconds-long sizes of each workload.

    python3 -m pytest perfbench/selftest.py

Checks that every metric of BENCHMARK.json is emitted, that a flipped
bit in a centers file and a changed number in an eval report each count
as a failed operation, and that the benchmark refuses to run without the
program's sources.  Run it from the root of a checkout.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path.cwd()


@pytest.fixture
def work():
    path = ROOT / ".bench_work" / f"selftest-{os.getpid()}-{time.monotonic_ns()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny_run(name, trace, work):
    """One tiny run: (metrics, tally, plan, first repeat, center quality)."""
    tally = run.Tally()
    runner = run.Runner(ROOT, work, time.monotonic())
    metrics, plan, first, quality = run.run_workload(name, 7, 0, trace, "tiny", work, runner, tally)
    return metrics, tally, plan, first, quality


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(name, trace, work):
    metrics, tally, _, _, quality = tiny_run(name, trace, work)
    spec = run.load_spec(ROOT)
    result = run.report(name, 7, metrics, tally, quality, spec, trace)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def check_failures(plan, first, kind):
    step = next(s for s in plan.steps(first.out) if s.kind == kind)
    tally = run.Tally()
    tally.record(f"{kind} reference check", plan.check(step, first.out, first.calls[kind][-1].stdout))
    return tally


def test_flipped_center_bit_is_a_failed_operation(work):
    _, _, plan, first, _ = tiny_run("centers-large", 0, work)
    assert not check_failures(plan, first, "centers").failures
    path = first.out / "centers.shc"
    data = bytearray(path.read_bytes())
    data[12] ^= 0x01  # one bit of the first center
    path.write_bytes(bytes(data))
    assert len(check_failures(plan, first, "centers").failures) == 1


def test_changed_eval_number_is_a_failed_operation(work):
    _, _, plan, first, _ = tiny_run("eval-large", 0, work)
    assert not check_failures(plan, first, "eval").failures
    path = first.out / "eval.json"
    report = json.loads(path.read_text())
    report["map_at"]["100"] += 1e-6
    path.write_text(json.dumps(report, indent=2) + "\n")
    assert len(check_failures(plan, first, "eval").failures) == 1


def test_refuses_to_run_without_sources(work):
    (work / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", work)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, work / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, timeout=180,
    )
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
