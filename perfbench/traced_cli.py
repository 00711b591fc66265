"""Run one ``shc`` CLI call in-process with timing wrappers on every layer.

    python3 perfbench/traced_cli.py RUN_ID SPANS.json -- <shc arguments>

Each public function of ``shc.cli``, ``similarity``, ``gv``, ``optimizer``,
``core`` and ``evaluation`` is replaced on its module, and on every module
that imported it by name, with a wrapper that records a span
``[run_id, name, start, end, parent]``.  Spans stay in memory and are
written to SPANS.json when the call returns, with the import time and
the results of a few untimed extra measurements:

- after ``centers``: the quality of the greedy init, from the public
  ``init_centers`` result and ``quality_metrics``/``violation_count``;
- after ``eval``: the same ``evaluate`` call under ``tracemalloc`` (peak
  bytes), then timed at 1 worker and at one worker per CPU, both after
  that warm-up, with a check that the reports equal the CLI's.

The exit status is the CLI's.  The CLI's outputs are the untraced ones:
the wrappers only observe.
"""

import functools
import inspect
import json
import os
import sys
import threading
import time

LAYERS = ("cli", "similarity", "gv", "optimizer", "core", "evaluation")
# Calls whose arguments and first result the extra measurements reuse.
CAPTURED = ("optimizer.init_centers", "similarity.read_similarity", "evaluation.evaluate")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.captured = {}
        self.originals = {}
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            spans.append([self.run_id, name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()
            if name in CAPTURED and name not in self.captured:
                self.captured[name] = (inspect.signature(fn).bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of each layer, then rebind every imported alias."""
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self.originals[f"{layer}.{attr}"] = fn
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    setattr(module, attr, wrappers[id(value)])

    def extras(self) -> dict:
        """Untimed measurements that reuse the captured calls with the original functions."""
        out = {}
        if "optimizer.init_centers" in self.captured and "similarity.read_similarity" in self.captured:
            init_args, init = self.captured["optimizer.init_centers"]
            S = self.captured["similarity.read_similarity"][1]
            out["init_s_loss"] = self.originals["optimizer.quality_metrics"](init, S)[1]
            out["init_violations"] = self.originals["optimizer.violation_count"](init, init_args["d"])
        if "evaluation.evaluate" in self.captured:
            import tracemalloc

            eval_args, report = self.captured["evaluation.evaluate"]
            evaluate = self.originals["evaluation.evaluate"]
            out["workers"] = eval_args.get("workers", 1)
            out["pairs"] = len(eval_args["queries"]) * len(eval_args["db"])
            tracemalloc.start()
            try:
                evaluate(**eval_args)
                out["evaluate_peak_bytes"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out["evaluate_s_at"] = {}
            out["evaluate_equal"] = True
            for count in sorted({1, os.cpu_count() or 1}):
                start = time.perf_counter()
                other = evaluate(**{**eval_args, "workers": count})
                out["evaluate_s_at"][str(count)] = time.perf_counter() - start
                out["evaluate_equal"] &= other == report
        return out


def main(argv) -> int:
    run_id, spans_path, sep, *shc_argv = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py RUN_ID SPANS.json -- <shc arguments>")
    start = time.perf_counter()
    import shc
    import shc.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(run_id)
    tracer.install(shc)
    rc = shc.cli.main(shc_argv)
    start = time.perf_counter()
    extras = tracer.extras() if rc == 0 else {}
    extras_s = time.perf_counter() - start
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "import_s": import_s, "extras_s": extras_s,
                   "extras": extras, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
