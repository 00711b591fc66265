"""Smoke test of ``perfbench/traced_cli.py`` on a tiny seeded pipeline.

The traced CLI wraps the package's public functions and binds some of them
by argument name (``init_centers(d=...)``, ``evaluate(workers=...)``,
``quality_metrics``, ``violation_count``).  Each call here must exit 0,
write the bytes the plain ``shc`` call writes and record its extras, so an
API change that breaks ``--trace 1`` fails in the quick suite as well.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shc
from shc.cli import main
from shc.core import CodeDatabase, write_codes

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def run_both(tmp_path, argv):
    """Run ``argv`` as plain ``python -m shc`` and under traced_cli, each writing into its own folder.

    ``{out}`` in ``argv`` names that folder.  Returns the traced call's spans file.
    """
    src = str(Path(shc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    spans_path = tmp_path / "spans.json"
    runs = {}
    for mode, prefix in (("plain", ["-m", "shc"]), ("traced", [str(TRACED_CLI), "smoke", str(spans_path), "--"])):
        out = tmp_path / mode
        out.mkdir()
        args = [arg.replace("{out}", str(out)) for arg in argv]
        proc = subprocess.run([sys.executable, *prefix, *args], capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs[mode] = (proc.stdout, proc.stderr, files)
    assert runs["plain"][2], "the call wrote no file"
    assert runs["traced"] == runs["plain"]
    return json.loads(spans_path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Seeded embeddings of 6 classes, their similarity file, and q = 16 database and query codes."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(11)
    emb = rng.normal(size=(6, 4))
    (root / "emb.txt").write_text(
        "C=6,D=4\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in emb),
        encoding="utf-8",
    )
    assert main(["simmatrix", "--embeddings", str(root / "emb.txt"), "--out", str(root / "sim.txt")]) == 0
    for name, n in (("db", 40), ("queries", 8)):
        codes = rng.choice(np.array([-1, 1], dtype=np.int8), size=(n, 16))
        write_codes(CodeDatabase(rng.integers(0, 6, n), codes), root / f"{name}.shcd")
    return root


def test_simmatrix_from_embeddings(tmp_path, inputs):
    spans = run_both(tmp_path, ["simmatrix", "--embeddings", str(inputs / "emb.txt"), "--out", "{out}/sim.txt"])
    assert any(span[1] == "similarity.cosine_similarity_matrix" for span in spans["spans"])


def test_centers_with_report(tmp_path, inputs):
    spans = run_both(tmp_path, ["centers", "--sim", str(inputs / "sim.txt"), "--bits", "16", "--seed", "1",
                                "--out", "{out}/centers.shc", "--report", "{out}/centers.json"])
    extras = spans["extras"]
    assert extras["init_s_loss"] >= 0.0
    assert extras["init_violations"] >= 0


def test_eval(tmp_path, inputs):
    spans = run_both(tmp_path, ["eval", "--db", str(inputs / "db.shcd"), "--queries", str(inputs / "queries.shcd"),
                                "--topk", "5,all", "--out", "{out}/eval.json"])
    assert spans["extras"]["evaluate_equal"] is True
