"""Benchmark of the ``shc`` CLI: seeded inputs, timed child processes, checked outputs.

    python3 perfbench/run.py --workload centers-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn
    python3 perfbench/run.py --write-env                      # refresh perfbench/environment.json

Run from the root of a source checkout: the CLI is ``python3 -m shc`` with
``src`` on PYTHONPATH, and nothing else of the checkout is used.  Each run
writes the workload's inputs from ``--seed``, then repeats the workload's
pipeline of CLI calls until ``--seconds`` have passed (at least twice).
Each repeat makes no-work calls (``setup_s``), then calls each step of the
pipeline until the step has taken ``STEP_SLICE_S``; ``calibrate.py`` runs
before every no-work call and every step.  Every time reported is the
median over the run, scaled by ``REFERENCE_CALIBRATION_S`` over the median
of ``calibrate.py``.
Outputs are checked once against the numpy reference in ``reference.py``
and after every call for byte identity with the first.

``--trace 1`` alternates untraced repeats with repeats whose CLI calls go
through ``traced_cli.py`` and reports the per-layer metrics of BENCHMARK.json
instead of the end-to-end ones.  The last line of standard output is the
JSON result; the lines before it name every metric with its unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import workloads

HERE = Path(__file__).resolve().parent
SETUP_ARGV = ["gvbound", "--bits", "64", "--classes", "2"]
SETUP_STDOUT = b"33\n"  # the reference bound for q=64, C=2
SETUP_PER_REPEAT = 3
# A short step is called again within a repeat until it has taken this long, so that its
# median rests on several samples spread over the run.
STEP_SLICE_S = 1.5
# About the median wall time of calibrate.py on the recording machine (environment.json).
# The host's speed drifts by up to a third over minutes; scaling by this over the run's own
# calibrate.py median cancels most of that drift and reports times at the recording speed.
REFERENCE_CALIBRATION_S = 0.35
# Two repeats at least: the byte-identity check needs a second one.
MIN_REPEATS = 2
# One eval worker: on a 2-vCPU shared host a 2-thread eval waits for the busier vCPU,
# which turned host load into a 5.0-7.3 s eval_s spread and a 1390-2022 MB peak RSS.
SHC_THREADS = "1"
# Whole-run budget: a call still running this long after the start is killed.
DEADLINE_S = 170.0


@dataclass
class Tally:
    """Operations attempted and failed; a failure keeps its reason."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, what: str, errors) -> None:
        self.attempted += 1
        if errors:
            self.failures.append(f"{what}: {'; '.join(errors)}")


@dataclass
class Call:
    wall: float
    rc: int
    maxrss_mb: float
    stdout: bytes
    trace: dict | None = None


@dataclass
class Repeat:
    traced: bool
    out: Path
    calls: dict  # step kind -> its Calls, in order
    digests: dict  # step kind -> sha256 of the outputs of its first call

    def step_s(self, kind: str) -> float:
        return median(c.wall - (c.trace["extras_s"] if c.trace else 0.0) for c in self.calls[kind])

    def pipeline_s(self) -> float:
        return sum(self.step_s(kind) for kind in self.calls)


class Runner:
    def __init__(self, root: Path, work: Path, started: float):
        self.root = root
        self.work = work
        self.deadline = started + DEADLINE_S
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"), "SHC_THREADS": SHC_THREADS}
        self.calibrations = []

    def calibrate(self, tally: Tally) -> None:
        """Time one run of calibrate.py, the yardstick of the machine's current speed."""
        n = len(self.calibrations)
        call = self.spawn([sys.executable, str(HERE / "calibrate.py")], self.work / f"calibrate{n}")
        self.calibrations.append(call)
        tally.record(f"calibration run {n + 1}", [f"exit {call.rc}"] if call.rc else [])

    def call(self, argv, log: Path, traced: bool = False, run_id: str = "") -> Call:
        """Run one CLI call as a child process."""
        if not traced:
            return self.spawn([sys.executable, "-m", "shc", *argv], log)
        spans = log.with_suffix(".spans.json")
        call = self.spawn([sys.executable, str(HERE / "traced_cli.py"), run_id, str(spans), "--", *argv], log)
        if call.rc == 0:
            with open(spans, encoding="utf-8") as fh:
                call.trace = json.load(fh)
        return call

    def spawn(self, cmd, log: Path) -> Call:
        """Run a child process and wait for it with os.wait4."""
        with open(log.with_suffix(".out"), "w+b") as out, open(log.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
        return Call(wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout)

    def repeat(self, plan, index: int, traced: bool, tally: Tally, timed: bool = False) -> Repeat:
        """One pass of the pipeline.

        A timed pass calibrates before each step and calls the step until it has taken
        STEP_SLICE_S; otherwise each step is called once.
        """
        out = self.work / f"{'traced' if traced else 'plain'}{index}"
        out.mkdir(parents=True)
        slice_s = STEP_SLICE_S if timed else 0.0
        calls, digests = {}, {}
        for step in plan.steps(out):
            if timed:
                self.calibrate(tally)
            calls[step.kind] = []
            while not calls[step.kind] or sum(c.wall for c in calls[step.kind]) < slice_s:
                n = len(calls[step.kind])
                call = self.call(step.argv, out / f"{step.kind}{n}", traced, f"{out.name}.{step.kind}{n}")
                calls[step.kind].append(call)
                tally.record(f"{out.name} {step.kind} exit status", [f"exit {call.rc}"] if call.rc else [])
                h = hashlib.sha256()
                for path in step.outputs:
                    if path == "stdout":
                        h.update(call.stdout)
                    else:
                        h.update(path.read_bytes() if path.exists() else b"missing")
                if n == 0:
                    digests[step.kind] = h.hexdigest()
                else:
                    errors = [] if h.hexdigest() == digests[step.kind] else ["bytes differ from its first call"]
                    tally.record(f"{out.name} {step.kind} call {n} output", errors)
        return Repeat(traced, out, calls, digests)


def end_to_end(name, reps, setup_calls, calibrations, quality) -> dict:
    """Median wall times over the run, scaled to the reference speed; the unscaled ones are printed."""
    samples = {"setup": setup_calls, **{kind: [c for r in reps for c in r.calls[kind]] for kind in reps[0].calls}}
    unscaled = {kind: median(c.wall for c in calls) for kind, calls in samples.items()}
    calibration_s = median(c.wall for c in calibrations)
    print(f"{name} unscaled medians:", " ".join(f"{k}_s={v:.4f}" for k, v in unscaled.items()),
          f"calibration_s={calibration_s:.4f} samples:",
          " ".join(f"{kind}={len(calls)}" for kind, calls in [*samples.items(), ("calibration", calibrations)]))
    scaled = {kind: s * REFERENCE_CALIBRATION_S / calibration_s for kind, s in unscaled.items()}
    metrics = {"setup_s": scaled.pop("setup")}
    for kind in ("simmatrix", "centers", "eval"):
        metrics[f"{kind}_s"] = scaled[kind]
    metrics["pipeline_s"] = sum(scaled.values())
    metrics["peak_rss_mb"] = max(c.maxrss_mb for r in reps for calls in r.calls.values() for c in calls)
    metrics["s_loss"] = quality["s_loss"]
    return metrics


def span_table(traces) -> dict:
    """Per span name over all traces: calls, inclusive seconds, self seconds (minus direct children)."""
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (_, name, start, end, _), children in zip(spans, child_time):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
    return table


# Text readers and writers of `similarity`, with the file each one touches.
TEXT_IO = {
    "read_logits": "source",
    "read_embeddings": "source",
    "write_similarity": "sim.txt",
    "read_similarity": "sim.txt",
}


def layer_metrics(rep: Repeat, plan, first_out: Path, quality) -> dict:
    """Per-layer numbers of one traced repeat, summed over its CLI calls."""
    traces = [call.trace for calls in rep.calls.values() for call in calls]
    table = span_table(traces)
    extras = {k: v for trace in traces for k, v in trace["extras"].items()}
    m = {
        "cli.import_s": sum(trace["import_s"] for trace in traces),
        "cli.main_self_s": table["cli.main"]["self_s"],
    }
    text_bytes = text_s = 0.0
    for fn, file in TEXT_IO.items():
        row = table[f"similarity.{fn}"]
        if row["calls"]:
            size = (plan.source_file if file == "source" else first_out / file).stat().st_size
            m[f"similarity.{fn}_s"] = row["total_s"]
            m[f"similarity.{fn}_mb_per_s"] = size / 1e6 / row["total_s"]
            text_bytes += size
            text_s += row["total_s"]
    m["similarity.text_mb_per_s"] = text_bytes / 1e6 / text_s
    for fn in ("build_similarity", "cosine_similarity_matrix"):
        if table[f"similarity.{fn}"]["calls"]:
            m[f"similarity.{fn}_s"] = table[f"similarity.{fn}"]["total_s"]
    m["similarity.masked_softmax_calls"] = table["similarity.masked_softmax"]["calls"]
    m["gv.compute_min_distance_s"] = table["gv.compute_min_distance"]["total_s"]
    for fn in ("init_centers", "center_gradient", "update_proxy", "update_slack", "update_multipliers",
               "alm_objective", "quality_metrics", "violation_count"):
        m[f"optimizer.{fn}_s"] = table[f"optimizer.{fn}"]["total_s"]
    m["optimizer.center_gradient_calls"] = table["optimizer.center_gradient"]["calls"]
    m["optimizer.update_center_self_s"] = table["optimizer.update_center"]["self_s"]
    m["optimizer.optimize_self_s"] = table["optimizer.optimize"]["self_s"]
    m["optimizer.init_s_loss"] = extras["init_s_loss"]
    m["optimizer.init_violations"] = extras["init_violations"]
    m["optimizer.s_loss_vs_init"] = quality["s_loss"] / extras["init_s_loss"]
    m["core.read_codes_s"] = table["core.read_codes"]["total_s"]
    m["core.read_codes_mb"] = sum((plan.inputs / f).stat().st_size for f in ("db.shcd", "queries.shcd")) / 1e6
    if table["core.read_centers"]["calls"]:
        m["core.read_centers_s"] = table["core.read_centers"]["total_s"]
    m["core.write_centers_s"] = table["core.write_centers"]["total_s"]
    evaluate_s = table["evaluation.evaluate"]["total_s"]
    m["evaluation.evaluate_s"] = evaluate_s
    m["evaluation.pairs"] = extras["pairs"]
    m["evaluation.pairs_per_s"] = extras["pairs"] / evaluate_s
    m["evaluation.evaluate_peak_mb"] = extras["evaluate_peak_bytes"] / 2**20
    m["evaluation.bytes_per_pair"] = extras["evaluate_peak_bytes"] / extras["pairs"]
    m["evaluation.workers"] = extras["workers"]
    seconds_at = {int(w): t for w, t in extras["evaluate_s_at"].items()}
    m["evaluation.evaluate_1t_s"] = seconds_at[1]
    m["evaluation.evaluate_threaded_s"] = seconds_at[max(seconds_at)]
    m["evaluation.thread_speedup"] = seconds_at[1] / seconds_at[max(seconds_at)]
    return m


def run_workload(name, seed, seconds, trace, size, work: Path, runner: Runner, tally: Tally):
    """Run one workload; returns (metrics, plan, first repeat, center quality)."""
    plan = workloads.prepare(name, work / "inputs", seed, size)
    setup_calls = []

    def setup_call():
        runner.calibrate(tally)
        call = runner.call(SETUP_ARGV, work / f"setup{len(setup_calls)}")
        setup_calls.append(call)
        ok = call.rc == 0 and call.stdout == SETUP_STDOUT
        errors = [] if ok else [f"exit {call.rc}, printed {call.stdout!r}"]
        tally.record(f"setup call {len(setup_calls)}", errors)

    reps = []
    iterations = 0
    start = time.perf_counter()
    # Another iteration starts only if it should end within `seconds`, judged by the mean so far.
    while len(reps) < MIN_REPEATS or (time.perf_counter() - start) * (iterations + 1) / iterations <= seconds:
        iterations += 1
        # Setup calls are spread over the run, so they see the same machine as the pipeline.
        for _ in range(0 if trace else SETUP_PER_REPEAT):
            setup_call()
        for traced in (False, True) if trace else (False,):
            rep = runner.repeat(plan, len(reps), traced, tally, timed=not trace)
            if reps:
                for kind, digest in rep.digests.items():
                    errors = [] if digest == reps[0].digests[kind] else ["bytes differ from the first repeat"]
                    tally.record(f"{rep.out.name} {kind} output", errors)
                shutil.rmtree(rep.out)
            reps.append(rep)

    first = reps[0]
    for step in plan.steps(first.out):
        errors = plan.check(step, first.out, first.calls[step.kind][-1].stdout)
        tally.record(f"{step.kind} reference check", errors)
    quality = plan.center_quality(first.out)
    if not trace:
        return end_to_end(name, reps, setup_calls, runner.calibrations, quality), plan, first, quality
    traced = [r for r in reps if r.traced]
    for rep in traced:
        equal = rep.calls["eval"][0].trace["extras"]["evaluate_equal"]
        errors = [] if equal else ["report differs between worker counts"]
        tally.record(f"{rep.out.name} eval at other worker counts", errors)
    per_rep = [layer_metrics(r, plan, first.out, quality) for r in traced]
    metrics = {k: median([m[k] for m in per_rep]) for k in per_rep[0]}
    metrics["trace.overhead"] = median([r.pipeline_s() for r in traced]) / median(
        [r.pipeline_s() for r in reps if not r.traced])
    return metrics, plan, first, quality


def environment() -> dict:
    """The machine and software the numbers were measured on."""
    import ctypes
    import platform

    import numpy
    import scipy

    def proc_field(path, key):
        with open(path, encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith(key)), None)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    threads = None
    for lib in libs:
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            threads = getter()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "ram": proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']} (numpy); scipy links its own "
        f"{scipy.show_config(mode='dicts')['Build Dependencies']['blas']['version']}",
        "blas_threads": threads,
        "SHC_THREADS": SHC_THREADS,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        # Inherited by the CLI calls: when set, every call compiles shc afresh.
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "notes": "The benchmark changes no machine setting; peak memory is ru_maxrss of its own "
        "child processes, read with os.wait4. Reported times are scaled by reference_calibration_s "
        "over the run's median wall time of perfbench/calibrate.py.",
    }


def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(name, seed, metrics, tally, quality, spec, trace) -> dict:
    """Print every metric by name and unit; return the JSON result."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics missing from the {name} run: {sorted(missing)}")
    for key in sorted(metrics):
        unit = units.get(key, "MB/s" if key.endswith("_mb_per_s") else "s")
        print(f"{name} seed={seed} {key} {metrics[key]:.6g} {unit}")
    if not trace:
        print(f"{name} seed={seed} violations {quality['violations']} pairs")
    failed = len(tally.failures)
    print(f"{name} seed={seed} ops_failed {failed / tally.attempted:.6g} fraction "
          f"({failed} of {tally.attempted} operations)")
    for reason in tally.failures:
        print(f"{name}: FAILED {reason}", file=sys.stderr)
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-env", action="store_true", help="write perfbench/environment.json and exit")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.write_env:
        with open(HERE / "environment.json", "w", encoding="utf-8") as fh:
            json.dump(environment(), fh, indent=2)
            fh.write("\n")
        return 0
    if not (root / "src" / "shc" / "cli.py").is_file():
        print(f"run.py: no shc sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec(root)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = root / ".bench_work" / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            tally = Tally()
            runner = Runner(root, work / name, time.monotonic())
            try:
                metrics, _, _, quality = run_workload(
                    name, args.seed, seconds, args.trace, "full", work / name, runner, tally)
            except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                # Only a failed operation leaves a metric without its inputs.
                for reason in tally.failures:
                    print(f"{name}: FAILED {reason}", file=sys.stderr)
                print(f"{name}: no result: {exc!r}", file=sys.stderr)
                return 1
            results[name] = report(name, args.seed, metrics, tally, quality, spec, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
