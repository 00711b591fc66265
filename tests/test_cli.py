import dataclasses
import hashlib
import json
import logging
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shc
from shc.cli import build_parser, main
from shc.core import (
    CenterSet,
    CodeDatabase,
    FormatError,
    read_centers,
    read_codes,
    write_centers,
    write_codes,
)
from shc.similarity import (
    cosine_similarity_matrix,
    read_embeddings,
    read_logits,
    read_similarity,
    write_similarity,
)
from shc.gv import compute_min_distance
from shc.optimizer import AlmHyperParams, init_centers, optimize, quality_metrics, violation_count
from shc.core import SimilarityMatrix


@pytest.fixture
def sim_file(tmp_path):
    rng = np.random.default_rng(0)
    rows = (rng.integers(0, 2, (8, 16)) * 2 - 1).astype(np.float64)
    S = rows @ rows.T / 16
    np.fill_diagonal(S, 1.0)
    path = tmp_path / "sim.txt"
    write_similarity(SimilarityMatrix(S), path)
    return path


def write_logit_file(path, C, per_class, seed=0, boost=4.0):
    rng = np.random.default_rng(seed)
    lines = [f"C={C}"]
    for i in range(C * per_class):
        label = i % C
        logits = rng.normal(0, 1, C)
        logits[label] += boost
        lines.append(",".join([f"img{i}", str(label)] + [f"{v:.12g}" for v in logits]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_usage_error(err, message):
    """An argparse usage block, then one error line holding ``message``."""
    assert err.startswith("usage: ") and err.count("error:") == 1, err
    assert message in err.rstrip("\n").split("\n")[-1], err


class TestGvBound:
    def test_prints_bound(self, capsys):
        assert main(["gvbound", "--bits", "16", "--classes", "100"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_infeasible_exits_2(self, capsys):
        assert main(["gvbound", "--bits", "1", "--classes", "3"]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["gvbound", "--bits", "16", "--classes", "100", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err


class TestSimMatrix:
    def test_from_logits(self, tmp_path, capsys):
        logit_path = tmp_path / "logits.txt"
        write_logit_file(logit_path, 4, 10)
        out = tmp_path / "sim.txt"
        assert main(["simmatrix", "--logits", str(logit_path), "--out", str(out)]) == 0
        from shc.similarity import read_similarity

        S = read_similarity(out)
        assert S.C == 4

    def test_mask_flag_changes_output(self, tmp_path):
        logit_path = tmp_path / "logits.txt"
        # weak logits so ground-truth and argmax masks genuinely differ
        rng = np.random.default_rng(5)
        lines = ["C=3"]
        for i in range(60):
            label = i % 3
            logits = rng.normal(0, 2, 3)
            lines.append(",".join([f"i{i}", str(label)] + [f"{v:.12g}" for v in logits]))
        logit_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out_gt = tmp_path / "gt.txt"
        out_am = tmp_path / "am.txt"
        assert main(["simmatrix", "--logits", str(logit_path), "--out", str(out_gt)]) == 0
        assert main(["simmatrix", "--logits", str(logit_path), "--out", str(out_am),
                     "--mask", "argmax"]) == 0
        assert out_gt.read_text() != out_am.read_text()

    def test_from_embeddings(self, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text("C=2,D=2\n1,0\n1,1\n", encoding="utf-8")
        out = tmp_path / "sim.txt"
        assert main(["simmatrix", "--embeddings", str(emb), "--out", str(out)]) == 0
        from shc.similarity import read_similarity

        S = read_similarity(out)
        assert abs(S.values[0, 1] - 0.7071067811865475) < 1e-12

    def test_bad_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n", encoding="utf-8")
        assert main(["simmatrix", "--logits", str(bad), "--out", str(tmp_path / "o")]) == 1


class TestCenters:
    def test_deterministic_runs_byte_identical(self, tmp_path, sim_file):
        out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
        args = ["centers", "--sim", str(sim_file), "--bits", "16", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_contents(self, tmp_path, sim_file):
        out = tmp_path / "c.bin"
        report_path = tmp_path / "report.json"
        assert main(["centers", "--sim", str(sim_file), "--bits", "16",
                     "--out", str(out), "--seed", "1", "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert list(report) == ["d", "d_min", "s_loss", "objective_trace", "violations", "seed"]
        assert report["seed"] == 1
        assert report["violations"] == 0 and report["d_min"] >= report["d"] >= 1
        # s_loss after each sweep: never rising, the last sweep flips nothing
        trace = report["objective_trace"]
        assert len(trace) >= 1 and trace[-1] == report["s_loss"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        init = init_centers(16, 8, report["d"], 1)
        assert report["s_loss"] < quality_metrics(init, read_similarity(sim_file))[1]
        centers = read_centers(out)
        assert centers.C == 8 and centers.q == 16

    def test_explicit_min_dist_and_hyperparams(self, tmp_path, sim_file, capsys):
        out = tmp_path / "c.bin"
        report_path = tmp_path / "r.json"
        args = ["centers", "--sim", str(sim_file), "--bits", "16", "--min-dist", "3",
                "--out", str(out), "--report", str(report_path)]
        assert main(args) == 0
        report = json.loads(report_path.read_text())
        assert report["d"] == 3
        assert report["violations"] == 0
        # the ALM hyperparameters are library-only (AlmHyperParams); no option takes them
        for flag, value in (("--mu", "0.1"), ("--rho", "0.2"), ("--beta", "1e-6"),
                            ("--eta", "0.5"), ("--cycles", "5"), ("--inner", "3")):
            capsys.readouterr()
            assert main(args + [flag, value]) == 1
            assert_usage_error(capsys.readouterr().err, f"unrecognized arguments: {flag} {value}")

    def test_verbose_logs_one_line_per_sweep(self, tmp_path, sim_file, caplog):
        report_path = tmp_path / "r.json"
        with caplog.at_level(logging.INFO, logger="shc.optimizer"):
            assert main(["-v", "centers", "--sim", str(sim_file), "--bits", "16",
                         "--out", str(tmp_path / "c.bin"), "--report", str(report_path)]) == 0
        sweeps = [r.getMessage() for r in caplog.records if r.getMessage().startswith("descend: sweep")]
        trace = json.loads(report_path.read_text())["objective_trace"]
        assert len(sweeps) == len(trace)
        assert sweeps[-1].startswith(f"descend: sweep {len(trace)} flipped 0 bits")
        for line in sweeps:
            assert "s_loss=" in line and "d_min=" in line

    @pytest.mark.parametrize("flag, value", [("--mu", "nan"), ("--rho", "nan"), ("--rho", "inf"),
                                             ("--beta", "inf")])
    def test_nonfinite_hyperparam_exits_1(self, flag, value, tmp_path, sim_file, capsys):
        report_path = tmp_path / "r.json"
        assert main(["centers", "--sim", str(sim_file), "--bits", "16", flag, value,
                     "--out", str(tmp_path / "c.bin"), "--report", str(report_path)]) == 1
        assert_usage_error(capsys.readouterr().err, f"unrecognized arguments: {flag} {value}")
        assert not report_path.exists()

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_exits_1(self, seed, tmp_path, sim_file, capsys):
        assert main(["centers", "--sim", str(sim_file), "--bits", "16", "--seed", seed,
                     "--out", str(tmp_path / "c.bin")]) == 1
        assert_usage_error(capsys.readouterr().err, "argument --seed: ")
        assert not (tmp_path / "c.bin").exists()

    def test_no_distance_mode(self, tmp_path, capsys):
        # The ablation without the distance constraint is the same descent at d = 1: the
        # centers only have to stay distinct.  --no-distance itself is gone.
        C, q, seed = 100, 64, 1
        emb = np.random.default_rng(7).normal(size=(C, 32))
        S = cosine_similarity_matrix(emb)
        sim = tmp_path / "sim.txt"
        write_similarity(S, sim)
        out, report_path = tmp_path / "c.bin", tmp_path / "r.json"
        args = ["centers", "--sim", str(sim), "--bits", str(q), "--seed", str(seed),
                "--out", str(out), "--report", str(report_path)]
        assert main(args + ["--no-distance"]) == 1
        assert_usage_error(capsys.readouterr().err, "unrecognized arguments: --no-distance")
        assert main(args + ["--min-dist", "1"]) == 0
        report = json.loads(report_path.read_text())
        centers = read_centers(out)
        assert report["d"] == 1 and report["violations"] == 0
        assert len(np.unique(centers.matrix, axis=0)) == C
        # what --no-distance returned: its seeded init, bit for bit
        init = init_centers(q, C, 1, seed)
        assert report["s_loss"] < quality_metrics(init, read_similarity(sim))[1]

    def test_hadamard_init(self, tmp_path, sim_file):
        out = tmp_path / "c.bin"
        assert main(["centers", "--sim", str(sim_file), "--bits", "16",
                     "--init", "hadamard", "--out", str(out)]) == 0

    def test_missing_sim_file_exits_1(self, tmp_path, capsys):
        assert main(["centers", "--sim", str(tmp_path / "missing.csv"), "--bits", "16",
                     "--out", str(tmp_path / "x.bin")]) == 1
        assert "missing.csv" in capsys.readouterr().err

    def test_infeasible_exits_2(self, tmp_path):
        S = SimilarityMatrix(np.eye(8))
        path = tmp_path / "sim.txt"
        write_similarity(S, path)
        assert main(["centers", "--sim", str(path), "--bits", "2",
                     "--out", str(tmp_path / "x.bin")]) == 2


class TestInspect:
    def test_planted_fixture(self, tmp_path, capsys):
        # centers whose Gram matrix exactly reproduces the similarity file
        rng = np.random.default_rng(3)
        rows = (rng.integers(0, 2, (4, 16)) * 2 - 1).astype(np.int8)
        centers = CenterSet(rows)
        S = rows.astype(float) @ rows.T.astype(float) / 16
        np.fill_diagonal(S, 1.0)
        centers_path = tmp_path / "c.bin"
        sim_path = tmp_path / "s.txt"
        write_centers(centers, centers_path)
        write_similarity(SimilarityMatrix(S), sim_path)
        d_expected, _ = quality_metrics(centers, S)

        assert main(["inspect", "--centers", str(centers_path), "--sim", str(sim_path)]) == 0
        out = capsys.readouterr().out
        assert f"d_min: {d_expected}" in out
        assert "s_loss: 0" in out

        assert main(["inspect", "--centers", str(centers_path), "--sim", str(sim_path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"d_min": d_expected, "s_loss": 0.0}

    def test_duplicate_centers(self, tmp_path, capsys):
        rows = np.array([[1, -1, 1, 1], [1, -1, 1, 1]], dtype=np.int8)
        centers_path = tmp_path / "c.bin"
        sim_path = tmp_path / "s.txt"
        write_centers(CenterSet(rows), centers_path)
        write_similarity(SimilarityMatrix(np.eye(2)), sim_path)
        assert main(["inspect", "--centers", str(centers_path), "--sim", str(sim_path),
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["d_min"] == 0

    def test_class_count_mismatch_exits_1(self, tmp_path, capsys):
        write_centers(CenterSet(np.ones((2, 4), dtype=np.int8)), tmp_path / "c.bin")
        write_similarity(SimilarityMatrix(np.eye(3)), tmp_path / "s.txt")
        assert main(["inspect", "--centers", str(tmp_path / "c.bin"),
                     "--sim", str(tmp_path / "s.txt")]) == 1
        assert "C=2" in capsys.readouterr().err


class TestEval:
    @pytest.fixture
    def code_files(self, tmp_path):
        rng = np.random.default_rng(4)
        db = CodeDatabase(rng.integers(0, 4, 40),
                          (rng.integers(0, 2, (40, 16)) * 2 - 1).astype(np.int8))
        queries = CodeDatabase(rng.integers(0, 4, 6),
                               (rng.integers(0, 2, (6, 16)) * 2 - 1).astype(np.int8))
        db_path, q_path = tmp_path / "db.bin", tmp_path / "q.bin"
        write_codes(db, db_path)
        write_codes(queries, q_path)
        return db_path, q_path

    def test_json_report(self, tmp_path, code_files):
        db_path, q_path = code_files
        out = tmp_path / "eval.json"
        assert main(["eval", "--db", str(db_path), "--queries", str(q_path),
                     "--topk", "5,all", "--pr-grid", "1,2,5,10", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"map_at", "precision_curve", "recall_curve", "pr_curve",
                                "query_count"}
        assert set(payload["map_at"]) == {"5", "all"}
        assert payload["query_count"] == 6
        assert [k for k, _ in payload["precision_curve"]] == [1, 2, 5, 10]
        recalls = [r for _, r in payload["recall_curve"]]
        assert all(0.0 <= r <= 1.0 for r in recalls)

    def test_bad_topk_exits_1(self, tmp_path, code_files, capsys):
        db_path, q_path = code_files
        assert main(["eval", "--db", str(db_path), "--queries", str(q_path),
                     "--topk", "zero", "--out", str(tmp_path / "o.json")]) == 1

    def test_dimension_mismatch_exits_1(self, tmp_path, code_files):
        db_path, _ = code_files
        other = CodeDatabase([0], np.ones((1, 8), dtype=np.int8))
        other_path = tmp_path / "other.bin"
        write_codes(other, other_path)
        assert main(["eval", "--db", str(db_path), "--queries", str(other_path),
                     "--out", str(tmp_path / "o.json")]) == 1


class TestHelp:
    EXPECTED_FLAGS = {
        "gvbound": ["--bits", "--classes"],
        "simmatrix": ["--logits", "--embeddings", "--out", "--mask"],
        "centers": ["--sim", "--bits", "--min-dist", "--out", "--seed", "--init", "--report"],
        "inspect": ["--centers", "--sim", "--json"],
        "eval": ["--db", "--queries", "--topk", "--pr-grid", "--out"],
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
    def test_help_enumerates_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        # exactly these, so a removed option (centers --no-distance, --mu, ...) fails here too
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == set(self.EXPECTED_FLAGS[command])

    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for command in self.EXPECTED_FLAGS:
            assert command in text


def run_python(args):
    """Run a child interpreter that imports the same shc as this test, installed or not."""
    src = str(Path(shc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestEntryPoint:
    def test_python_m_invocation(self):
        proc = run_python(["-m", "shc", "gvbound", "--bits", "64", "--classes", "555"])
        assert proc.returncode == 0
        assert proc.stdout.strip() == "21"

    def test_cli_import_leaves_scipy_out(self):
        proc = run_python(["-c", "import sys, shc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_default_centers_run_leaves_scipy_out(self, tmp_path, sim_file):
        # every centers path: the default, the d = 1 ablation and the Hadamard init
        for extra in ([], ["--min-dist", "1"], ["--init", "hadamard"]):
            argv = ["centers", "--sim", str(sim_file), "--bits", "16", "--out", str(tmp_path / "c"), *extra]
            code = f"import sys; from shc.cli import main; rc = main({argv!r}); print(rc, 'scipy' in sys.modules)"
            proc = run_python(["-c", code])
            assert proc.stdout.strip() == "0 False", (extra, proc.stderr)


def _u32x2(a, b):
    return struct.pack("<II", a, b)


# Files that claim more than they hold, hold more than they claim, or set
# pad bits; keyed by case name: (file kind, file bytes).
HOSTILE_FILES = {
    "centers-trailing-bytes": ("centers", b"SHC1" + _u32x2(1, 8) + b"\xff" + b"\x00"),
    "codes-trailing-bytes": ("codes", b"SHCD" + _u32x2(1, 8) + bytes(4) + b"\xff" + b"\x00"),
    "centers-huge-header": ("centers", b"SHC1" + _u32x2(2**32 - 1, 2**32 - 1) + b"\xff"),
    "codes-huge-header": ("codes", b"SHCD" + _u32x2(2**32 - 1, 2**32 - 1) + bytes(5)),
    "centers-pad-bits": ("centers", b"SHC1" + _u32x2(1, 3) + bytes([0b10100001])),
    "codes-pad-bits": ("codes", b"SHCD" + _u32x2(1, 3) + bytes(4) + bytes([0b10100001])),
    "similarity-huge-header": ("similarity", b"100000000\n1,0\n0,1\n"),
    "embeddings-huge-header": ("embeddings", b"C=100000000,D=100000000\n1,0\n0,1\n"),
    "similarity-trailing-rows": ("similarity", b"2\n1,0.5\n0.5,1\n9,9,9\n"),
    "embeddings-trailing-rows": ("embeddings", b"C=2,D=2\n1,0\n0,1\n1,1\n"),
    "logits-not-utf8": ("logits", b"C=2\nimg0,0,1.0,\xff\n"),
    "similarity-not-utf8": ("similarity", b"\xfe\n"),
}

HOSTILE_READERS = {
    "centers": read_centers,
    "codes": read_codes,
    "similarity": read_similarity,
    "embeddings": read_embeddings,
    "logits": read_logits,
}


def hostile_argv(kind, path, tmp_path):
    out = str(tmp_path / "out")
    # one class, like the centers files above, so only the centers file can fail
    sim = tmp_path / "sim1.txt"
    write_similarity(SimilarityMatrix(np.ones((1, 1))), sim)
    return {
        "centers": ["inspect", "--centers", path, "--sim", str(sim)],
        "codes": ["eval", "--db", path, "--queries", path, "--out", out],
        "similarity": ["centers", "--sim", path, "--bits", "16", "--out", out],
        "embeddings": ["simmatrix", "--embeddings", path, "--out", out],
        "logits": ["simmatrix", "--logits", path, "--out", out],
    }[kind]


class TestHostileInput:
    @pytest.mark.parametrize("case", sorted(HOSTILE_FILES))
    def test_reader_raises_format_error(self, case, tmp_path):
        kind, data = HOSTILE_FILES[case]
        path = tmp_path / "hostile"
        path.write_bytes(data)
        with pytest.raises(FormatError):
            HOSTILE_READERS[kind](path)

    @pytest.mark.parametrize("case", sorted(HOSTILE_FILES))
    def test_cli_one_line_exit_1(self, case, tmp_path, capsys):
        kind, data = HOSTILE_FILES[case]
        path = tmp_path / "hostile"
        path.write_bytes(data)
        assert main(hostile_argv(kind, str(path), tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("shc: error:") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 8.00 EiB for an array", "Unable to allocate 8.00 EiB for an array"),
        ("", "out of memory"),
    ])
    def test_out_of_memory_one_line_exit_1(self, message, line, tmp_path, sim_file, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("shc.cli.descend", exhausted)
        argv = ["centers", "--sim", str(sim_file), "--bits", "16", "--out", str(tmp_path / "c")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"shc: error: {line}\n"


# sha256 of every file run_golden_pipeline writes (recorded with numpy 2.4
# on x86-64).  Changes meant to keep the CLI's outputs must keep these bytes.
GOLDEN_SHA256 = {
    "centers_d1.json": "3837b29a81a5844d5c314ceb237f3cb03d928e9063209dea11e89fb6f9e27d8d",
    "centers_d1.shc": "60086bb46933decf0d2c59fc849214c35a5ebcffe3f464374a2dc32ff4c9d5a1",
    "centers_emb.json": "4714358bcad900cbcb8c686c00b50018fd21df2539c62bfd11f4709fbdefc9ed",
    "centers_emb.shc": "45a5f770322843fa7d2dcb0f1ec1b6337a09a9b992cbc4c46a8d194d053d4043",
    "centers_log.json": "2fc49a844dd477b428da689fcca11e464852a1c778ab267a95634c57f2c72c8d",
    "centers_log.shc": "c86f314d1467ec57dfbbf2799ab56451ac0200d7cb9a6efce4bd82b6e48f9e47",
    "db.shcd": "4013f70cb802dcaf048867b603e4f9bf7e3639c61276474ca81ceeb080a405d7",
    "emb.txt": "b34fbc4b49bb03456f1d77ba642afd06fbea86a9940a21cac1082170e78bb2c0",
    "eval.json": "e0e8f955fcc8a4b778784b9ee61ebe0510897dfe8a2cafe982074f38f6b47107",
    "logits.txt": "e8fa38f2197911689fbc70687caaa4b54e6d821213843ba6162cad19796fb70b",
    "logits_weak.txt": "ec61d92571c92966148f3f55af526b3a6c7c611ca29927af5a692ece0e1eff2d",
    "queries.shcd": "472d83fb0233bf701b8c2f49d9a6f8b5ccf381e58b24dcf2b6a67ebe0370167e",
    "sim_emb.txt": "923035c02f2c85bdee69782b59066d232077ce4f5be583bb0dc05305a48b8fa2",
    "sim_log.txt": "40b887519d919c639447fea136c2f88fc56e80107daaca5ba5ffd06dbdf3e5e6",
    "sim_weak_argmax.txt": "284d1bf7458f860dcd7dddd99499f1db7c4365ff26c9bba0a115c240d7d5b375",
}

# sha256 of the files `shc centers --seed 3 --bits 16` wrote when it ran the
# paper's ALM (optimize with the default hyperparameters) on the two golden
# similarity files (recorded with numpy 2.4 on x86-64).  optimize must keep
# these bytes.
ALM_REFERENCE_SHA256 = {
    "centers_emb.json": "360e27eca713fa4cd4cea7ea414645a1109e8b00fc476c5b0d1c7209d7f980f9",
    "centers_emb.shc": "4cb7f220f6ca3758ff7e918503dcefddb0f0613e9d63b2435e11a17888260808",
    "centers_log.json": "a16344b0c23282293992d0b5a7f42568aed3b60173dbc93c09e5c591c38653fd",
    "centers_log.shc": "4b557ac569250f782ceb12dfbca622eb873e93ebcbc7b36dd8b3f0e9098bdbe3",
}


def run_golden_pipeline(tmp_path):
    """simmatrix (embeddings, logits, argmax-masked logits) -> centers --report -> eval, on seeded inputs.

    A third centers call runs the ablation without the distance constraint, --min-dist 1.
    """
    rng = np.random.default_rng(2025)
    emb = rng.normal(size=(10, 6))
    (tmp_path / "emb.txt").write_text(
        "C=10,D=6\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in emb),
        encoding="utf-8",
    )
    write_logit_file(tmp_path / "logits.txt", 5, 4, seed=2025)
    # Unboosted logits, so the argmax often differs from the label and the masks disagree.
    write_logit_file(tmp_path / "logits_weak.txt", 5, 8, seed=2026, boost=0.0)
    assert main(["simmatrix", "--logits", str(tmp_path / "logits_weak.txt"), "--mask", "argmax",
                 "--out", str(tmp_path / "sim_weak_argmax.txt")]) == 0
    for name, flag, source in (("emb", "--embeddings", "emb.txt"), ("log", "--logits", "logits.txt")):
        sim = str(tmp_path / f"sim_{name}.txt")
        assert main(["simmatrix", flag, str(tmp_path / source), "--out", sim]) == 0
        assert main(["centers", "--sim", sim, "--bits", "16", "--seed", "3",
                     "--out", str(tmp_path / f"centers_{name}.shc"),
                     "--report", str(tmp_path / f"centers_{name}.json")]) == 0
    assert main(["centers", "--sim", str(tmp_path / "sim_log.txt"), "--bits", "16", "--seed", "3",
                 "--min-dist", "1", "--out", str(tmp_path / "centers_d1.shc"),
                 "--report", str(tmp_path / "centers_d1.json")]) == 0
    H = read_centers(tmp_path / "centers_emb.shc").matrix
    for name, n in (("db", 60), ("queries", 12)):
        labels = rng.integers(0, len(H), n)
        flips = np.where(rng.random((n, H.shape[1])) < 0.15, -1, 1)
        write_codes(CodeDatabase(labels, H[labels] * flips), tmp_path / f"{name}.shcd")
    assert main(["eval", "--db", str(tmp_path / "db.shcd"), "--queries",
                 str(tmp_path / "queries.shcd"), "--topk", "5,all", "--out",
                 str(tmp_path / "eval.json")]) == 0


def digests(tmp_path):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(tmp_path.iterdir())}


class TestGoldenBytes:
    def test_pipeline_outputs_match_recorded_digests(self, tmp_path):
        run_golden_pipeline(tmp_path)
        assert digests(tmp_path) == GOLDEN_SHA256

    def test_alm_outputs_match_recorded_digests(self, tmp_path):
        run_golden_pipeline(tmp_path)
        ref = tmp_path / "ref"
        ref.mkdir()
        hp = AlmHyperParams()
        for name in ("emb", "log"):
            S = read_similarity(tmp_path / f"sim_{name}.txt")
            d = compute_min_distance(16, S.C)
            centers, trace = optimize(S, 16, d, hp, seed=3)
            write_centers(centers, ref / f"centers_{name}.shc")
            d_min, s_loss = quality_metrics(centers, S)
            write_report(ref / f"centers_{name}.json", {
                "d": d, "d_min": d_min, "s_loss": s_loss, "objective_trace": trace,
                "violations": violation_count(centers, d), "seed": 3,
                "hyperparameters": dataclasses.asdict(hp),
            })
        assert digests(ref) == ALM_REFERENCE_SHA256


def write_report(path, report):
    """Write a report as `shc centers --report` does."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
