import hashlib
import json
import os
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
from shc.similarity import read_embeddings, read_logits, read_similarity, write_similarity
from shc.optimizer import quality_metrics
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
        assert set(report) == {
            "d", "d_min", "s_loss", "objective_trace", "violations", "seed", "hyperparameters",
        }
        assert report["seed"] == 1
        assert report["d"] >= 1
        assert len(report["objective_trace"]) == report["hyperparameters"]["cycles"]
        centers = read_centers(out)
        assert centers.C == 8 and centers.q == 16

    def test_explicit_min_dist_and_hyperparams(self, tmp_path, sim_file):
        out = tmp_path / "c.bin"
        report_path = tmp_path / "r.json"
        assert main(["centers", "--sim", str(sim_file), "--bits", "16",
                     "--min-dist", "3", "--mu", "0.1", "--cycles", "5",
                     "--out", str(out), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["d"] == 3
        assert report["hyperparameters"]["mu"] == 0.1
        assert len(report["objective_trace"]) == 5

    @pytest.mark.parametrize("flag, value", [("--mu", "nan"), ("--rho", "nan"), ("--rho", "inf"),
                                             ("--beta", "inf")])
    def test_nonfinite_hyperparam_exits_1(self, flag, value, tmp_path, sim_file, capsys):
        report_path = tmp_path / "r.json"
        assert main(["centers", "--sim", str(sim_file), "--bits", "16", flag, value,
                     "--out", str(tmp_path / "c.bin"), "--report", str(report_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("shc: error:") and err.count("\n") == 1, err
        assert not report_path.exists()

    def test_no_distance_mode(self, tmp_path, sim_file):
        out = tmp_path / "c.bin"
        report_path = tmp_path / "r.json"
        assert main(["centers", "--sim", str(sim_file), "--bits", "16",
                     "--no-distance", "--out", str(out), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["d"] is None
        assert report["violations"] is None
        assert read_centers(out).C == 8

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
        "centers": ["--sim", "--bits", "--min-dist", "--out", "--seed", "--mu", "--rho",
                    "--beta", "--eta", "--cycles", "--inner", "--no-distance", "--init",
                    "--report"],
        "inspect": ["--centers", "--sim", "--json"],
        "eval": ["--db", "--queries", "--topk", "--pr-grid", "--out"],
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
    def test_help_enumerates_flags(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        text = capsys.readouterr().out
        for flag in self.EXPECTED_FLAGS[command]:
            assert flag in text, f"{command} --help missing {flag}"

    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for command in self.EXPECTED_FLAGS:
            assert command in text


class TestEntryPoint:
    def test_python_m_invocation(self):
        # the child imports the same shc as this test, installed or not
        src = str(Path(shc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "shc", "gvbound", "--bits", "64", "--classes", "555"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "21"


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

        monkeypatch.setattr("shc.cli.optimize", exhausted)
        argv = ["centers", "--sim", str(sim_file), "--bits", "16", "--out", str(tmp_path / "c")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"shc: error: {line}\n"


# sha256 of every file run_golden_pipeline writes (recorded with numpy 2.4
# on x86-64).  Changes meant to keep the CLI's outputs must keep these bytes.
GOLDEN_SHA256 = {
    "centers_emb.json": "360e27eca713fa4cd4cea7ea414645a1109e8b00fc476c5b0d1c7209d7f980f9",
    "centers_emb.shc": "4cb7f220f6ca3758ff7e918503dcefddb0f0613e9d63b2435e11a17888260808",
    "centers_log.json": "a16344b0c23282293992d0b5a7f42568aed3b60173dbc93c09e5c591c38653fd",
    "centers_log.shc": "4b557ac569250f782ceb12dfbca622eb873e93ebcbc7b36dd8b3f0e9098bdbe3",
    "db.shcd": "e88ee155f5aba9688d33d8ee62d3d83693288feb2a15333c77bda64c8cc8e6fa",
    "emb.txt": "b34fbc4b49bb03456f1d77ba642afd06fbea86a9940a21cac1082170e78bb2c0",
    "eval.json": "037090327f167dd21ac27535569227000007258dfcd0f6316a4603cc67bbbff9",
    "logits.txt": "e8fa38f2197911689fbc70687caaa4b54e6d821213843ba6162cad19796fb70b",
    "logits_weak.txt": "ec61d92571c92966148f3f55af526b3a6c7c611ca29927af5a692ece0e1eff2d",
    "queries.shcd": "5d65500b7e9b77e9d654ed0e2bc40478c0e8e822bed2988c73fffbd2c7c18f28",
    "sim_emb.txt": "923035c02f2c85bdee69782b59066d232077ce4f5be583bb0dc05305a48b8fa2",
    "sim_log.txt": "40b887519d919c639447fea136c2f88fc56e80107daaca5ba5ffd06dbdf3e5e6",
    "sim_weak_argmax.txt": "284d1bf7458f860dcd7dddd99499f1db7c4365ff26c9bba0a115c240d7d5b375",
}


def run_golden_pipeline(tmp_path):
    """simmatrix (embeddings, logits, argmax-masked logits) -> centers --report -> eval, on seeded inputs."""
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
    H = read_centers(tmp_path / "centers_emb.shc").matrix
    for name, n in (("db", 60), ("queries", 12)):
        labels = rng.integers(0, len(H), n)
        flips = np.where(rng.random((n, H.shape[1])) < 0.15, -1, 1)
        write_codes(CodeDatabase(labels, H[labels] * flips), tmp_path / f"{name}.shcd")
    assert main(["eval", "--db", str(tmp_path / "db.shcd"), "--queries",
                 str(tmp_path / "queries.shcd"), "--topk", "5,all", "--out",
                 str(tmp_path / "eval.json")]) == 0


class TestGoldenBytes:
    def test_pipeline_outputs_match_recorded_digests(self, tmp_path):
        run_golden_pipeline(tmp_path)
        got = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())
        }
        assert got == GOLDEN_SHA256
