"""The logits stage read in record chunks: same S, same diagnostics, bounded memory."""

import io
import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shc import similarity
from shc.cli import main
from shc.core import ShcError, SimilarityMatrix
from shc.similarity import (
    MASK_ARGMAX,
    MASK_GROUND_TRUTH,
    build_similarity,
    cosine_similarity_matrix,
    read_logits,
    stream_similarity,
    write_similarity,
)

MASKS = (MASK_GROUND_TRUTH, MASK_ARGMAX)


def chunk_budget(rows: int, C: int) -> int:
    """A LOGIT_CHUNK_BYTES that gives ``rows`` records per chunk at C classes."""
    return rows * similarity.LOGIT_BYTES_PER_VALUE * C


def outcome(build):
    """S's bytes, or the type and text of the error that building it raised."""
    try:
        return build().values.tobytes()
    except ShcError as exc:
        return type(exc), str(exc)


def logit_text(labels, logits) -> str:
    C = logits.shape[1]
    rows = (f"r{i},{label}," + ",".join(f"{v:.17g}" for v in row) for i, (label, row) in
            enumerate(zip(labels, logits)))
    return f"C={C}\n" + "\n".join(rows) + "\n"


class TestSameMatrix:
    @settings(max_examples=40, deadline=None)
    @given(
        C=st.integers(2, 6),
        extra=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
        rows=st.sampled_from([1, 2, 3, 7, 1 << 30]),  # 1 row per chunk, a few rows, one chunk
        mask=st.sampled_from(MASKS),
    )
    def test_streamed_equals_whole_file_bit_for_bit(self, C, extra, seed, rows, mask):
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.arange(C), rng.integers(0, C, extra)])
        rng.shuffle(labels)
        logits = rng.normal(0.0, 3.0, (labels.size, C))
        text = logit_text(labels, logits)
        with mock.patch.object(similarity, "LOGIT_CHUNK_BYTES", chunk_budget(rows, C)):
            streamed = outcome(lambda: stream_similarity(io.StringIO(text), mask=mask))
        assert streamed == outcome(lambda: build_similarity(*read_logits(io.StringIO(text)), mask=mask))

    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("rows", [1, 5, 1 << 30])
    def test_cli_writes_the_same_bytes(self, rows, mask, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        labels = rng.permutation(np.repeat(np.arange(5), 9))
        path = tmp_path / "logits.txt"
        path.write_text(logit_text(labels, rng.normal(0.0, 2.0, (labels.size, 5))), encoding="utf-8")
        write_similarity(build_similarity(*read_logits(path), mask=mask), tmp_path / "whole.txt")
        monkeypatch.setattr(similarity, "LOGIT_CHUNK_BYTES", chunk_budget(rows, 5))
        assert main(["simmatrix", "--logits", str(path), "--mask", mask, "--out", str(tmp_path / "s.txt")]) == 0
        assert (tmp_path / "s.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()


# Fault files for the stream: C = 3, 40 records with labels i % 3, read 4
# records per chunk, so record 25 sits in the seventh chunk.
FAULT_C = 3
FAULT_ROWS_PER_CHUNK = 4


def fault_records(n=40, C=FAULT_C):
    return [f"r{i},{i % C}," + ",".join(f"{((5 * i + 3 * k) % 11) / 4 - 1:g}" for k in range(C))
            for i in range(n)]


def set_field(column, value):
    return lambda row: ",".join(value if i == column else f for i, f in enumerate(row.split(",")))


def fault_file(*faults, header=f"C={FAULT_C}", records=None, drop_label=None) -> bytes:
    rows = fault_records() if records is None else records
    for index, fault in faults:
        rows[index] = fault(rows[index])
    if drop_label is not None:
        rows = [row for row in rows if row.split(",")[1] != str(drop_label)]
    return (header + "\n" + "\n".join(rows) + "\n").encode()


ONE_CLASS = [f"r{i},0,{i / 8:g}" for i in range(40)]

# name -> (file bytes, the diagnostic the whole-file pipeline printed for it,
# recorded before the stage was streamed; the same for both masks).
FAULT_FILES = {
    "bad-float": (
        fault_file((25, set_field(3, "abc"))),
        "logit file: could not convert string 'abc' to float64 at row 25, column 4.",
    ),
    "bad-float-naming-a-row": (
        fault_file((25, set_field(3, "at row 3"))),
        "logit file: could not convert string 'at row 3' to float64 at row 25, column 4.",
    ),
    "bad-label": (
        fault_file((25, set_field(1, "0.5"))),
        "logit file: could not convert string '0.5' to int64 at row 25, column 2.",
    ),
    "empty-field": (
        fault_file((25, set_field(2, ""))),
        "logit file: could not convert string '' to float64 at row 25, column 3.",
    ),
    "short-row": (
        fault_file((25, lambda row: row.rsplit(",", 1)[0])),
        "logit file: the dtype passed requires 5 columns but 4 were found at row 26",
    ),
    "long-row": (
        fault_file((25, lambda row: row + ",1")),
        "logit file: the dtype passed requires 5 columns but 6 were found at row 26",
    ),
    "blank-lines-then-bad-float": (
        fault_file((9, lambda row: row + "\n\n  \n"), (25, set_field(4, "x"))),
        "logit file: could not convert string 'x' to float64 at row 25, column 5.",
    ),
    # past the text decoder's first 8 KiB block, so it is met inside a later chunk
    "not-utf8": (
        fault_file((1400, set_field(3, "@")), records=fault_records(1500)).replace(b"@", b"\xff"),
        "logit file: 'utf-8' codec can't decode byte 0xff in position 3472: invalid start byte",
    ),
    "label-high": (fault_file((25, set_field(1, "3"))), "logit file: labels must lie in [0, 3), got 0..3"),
    "label-negative": (fault_file((25, set_field(1, "-1"))), "logit file: labels must lie in [0, 3), got -1..2"),
    "missing-class": (fault_file(drop_label=1), "no records for classes: [1]"),
    "nan": (fault_file((25, set_field(2, "nan"))), "logits must be finite"),
    "inf": (fault_file((25, set_field(4, "-inf"))), "logits must be finite"),
    "overflow-to-inf": (fault_file((25, set_field(3, "1e400"))), "logits must be finite"),
    "one-class": (fault_file(header="C=1", records=list(ONE_CLASS)), "masked softmax needs at least 2 classes"),
    # two or three faults in different chunks: the whole-file pipeline's winner
    "range-then-parse": (
        fault_file((2, set_field(1, "7")), (25, set_field(3, "abc"))),
        "logit file: could not convert string 'abc' to float64 at row 25, column 4.",
    ),
    "parse-then-range": (
        fault_file((2, set_field(3, "abc")), (25, set_field(1, "7"))),
        "logit file: could not convert string 'abc' to float64 at row 2, column 4.",
    ),
    "nan-then-range": (
        fault_file((2, set_field(2, "nan")), (17, set_field(1, "-4")), (33, set_field(1, "9"))),
        "logit file: labels must lie in [0, 3), got -4..9",
    ),
    "nan-then-missing-class": (
        fault_file((2, set_field(2, "nan")), drop_label=0),
        "no records for classes: [0]",
    ),
    "nan-then-short-row": (
        fault_file((2, set_field(2, "inf")), (37, lambda row: row.rsplit(",", 1)[0])),
        "logit file: the dtype passed requires 5 columns but 4 were found at row 38",
    ),
    "missing-class-then-range": (
        fault_file((30, set_field(1, "5")), drop_label=2),
        "logit file: labels must lie in [0, 3), got 0..5",
    ),
    "one-class-then-nan": (
        fault_file((30, set_field(2, "nan")), header="C=1", records=list(ONE_CLASS)),
        "logits must be finite",
    ),
    "one-class-then-parse": (
        fault_file((30, set_field(2, "z")), header="C=1", records=list(ONE_CLASS)),
        "logit file: could not convert string 'z' to float64 at row 30, column 3.",
    ),
    "one-class-then-range": (
        fault_file((30, set_field(1, "1")), header="C=1", records=list(ONE_CLASS)),
        "logit file: labels must lie in [0, 1), got 0..1",
    ),
}


class TestFaultsPastTheFirstChunk:
    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("case", sorted(FAULT_FILES))
    def test_whole_file_diagnostic_and_exit_1(self, case, mask, tmp_path, monkeypatch, capsys):
        data, message = FAULT_FILES[case]
        path = tmp_path / "logits.txt"
        path.write_bytes(data)
        C = int(data.split(b"\n", 1)[0][2:])
        monkeypatch.setattr(similarity, "LOGIT_CHUNK_BYTES", chunk_budget(FAULT_ROWS_PER_CHUNK, C))
        argv = ["simmatrix", "--logits", str(path), "--mask", mask, "--out", str(tmp_path / "s.txt")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"shc: error: {message}\n"
        assert not (tmp_path / "s.txt").exists()

    @pytest.mark.parametrize("rows", [1, 2, 3, 1 << 30])
    @pytest.mark.parametrize("case", sorted(FAULT_FILES))
    def test_any_chunking_gives_the_same_diagnostic(self, case, rows, tmp_path, monkeypatch, capsys):
        data, message = FAULT_FILES[case]
        path = tmp_path / "logits.txt"
        path.write_bytes(data)
        monkeypatch.setattr(similarity, "LOGIT_CHUNK_BYTES", chunk_budget(rows, FAULT_C))
        assert main(["simmatrix", "--logits", str(path), "--out", str(tmp_path / "s.txt")]) == 1
        assert capsys.readouterr().err == f"shc: error: {message}\n"


class TestBoundedMemory:
    def test_peak_does_not_grow_with_the_record_count(self, tmp_path, monkeypatch):
        C = 20
        monkeypatch.setattr(similarity, "LOGIT_CHUNK_BYTES", 64 << 10)
        rng = np.random.default_rng(9)
        peaks = {}
        for n in (2000, 8000):
            labels = rng.permutation(np.arange(n) % C)
            path = tmp_path / f"logits{n}.txt"
            path.write_text(logit_text(labels, rng.normal(0.0, 2.0, (n, C))), encoding="utf-8")
            stream_similarity(path)  # warm numpy's text reader
            tracemalloc.start()
            try:
                stream_similarity(path)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert abs(peaks[8000] - peaks[2000]) < similarity.LOGIT_CHUNK_BYTES
        # the whole file as float64 alone would be 1.28 MB at 8000 records
        assert peaks[8000] < 8000 * C * 8 / 2


class TestStreamPlanLog:
    @pytest.mark.parametrize("rows, chunks, shown", [(5, 5, 5), (23, 1, 23), (1 << 30, 1, 23)])
    def test_verbose_logs_one_stream_line_not_into_the_output(self, rows, chunks, shown, tmp_path, monkeypatch,
                                                               caplog):
        rng = np.random.default_rng(5)
        path = tmp_path / "logits.txt"
        path.write_text(logit_text(np.arange(23) % 4, rng.normal(0.0, 1.0, (23, 4))), encoding="utf-8")
        monkeypatch.setattr(similarity, "LOGIT_CHUNK_BYTES", chunk_budget(rows, 4))
        assert main(["simmatrix", "--logits", str(path), "--out", str(tmp_path / "quiet.txt")]) == 0
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="shc.similarity"):
            assert main(["-v", "simmatrix", "--logits", str(path), "--out", str(tmp_path / "verbose.txt")]) == 0
        assert (tmp_path / "verbose.txt").read_bytes() == (tmp_path / "quiet.txt").read_bytes()
        assert [r.getMessage() for r in caplog.records if r.name == "shc.similarity"] == [
            f"stream_similarity: 23 records in {chunks} chunks of up to {shown} rows "
            f"({similarity.LOGIT_BYTES_PER_VALUE} B per logit, {chunk_budget(rows, 4)} B per chunk, 4 classes)"
        ]


class TestWriteSimilarity:
    @pytest.mark.parametrize("C", [1, 2, 600])
    def test_bytes_of_savetxt(self, C):
        rng = np.random.default_rng(C)
        S = cosine_similarity_matrix(rng.normal(size=(C, 8)))
        got, want = io.StringIO(), io.StringIO()
        write_similarity(S, got)
        want.write(f"{C}\n")
        np.savetxt(want, S.values, fmt="%.17g", delimiter=",")
        assert got.getvalue() == want.getvalue()

    def test_signed_zeros_keep_their_sign(self):
        # exactly symmetric by value, but 0.0 mirrors -0.0
        values = np.array([[1.0, 0.0, -0.0], [-0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
        got = io.StringIO()
        write_similarity(SimilarityMatrix(values), got)
        assert got.getvalue() == "3\n1,0,-0\n-0,1,0.5\n0,0.5,1\n"
