"""The logits stage read in record chunks: same S, same diagnostics, bounded memory."""

import io
import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shc import core, similarity
from shc.cli import main
from shc.core import ShcError, SimilarityMatrix
from shc.similarity import (
    MASK_ARGMAX,
    MASK_GROUND_TRUTH,
    build_similarity,
    cosine_similarity_matrix,
    stream_similarity,
    write_similarity,
)

MASKS = (MASK_GROUND_TRUTH, MASK_ARGMAX)


def chunk_budget(rows: int, C: int) -> int:
    """A LOGIT_CHUNK_BYTES that gives ``rows`` records per chunk at C classes."""
    return rows * similarity.LOGIT_BYTES_PER_VALUE * (C + 1)


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
        rows=st.sampled_from([1, 2, 3, 7]),  # 1 row per chunk, a few rows
        mask=st.sampled_from(MASKS),
    )
    def test_chunked_equals_one_chunk_bit_for_bit(self, C, extra, seed, rows, mask):
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.arange(C), rng.integers(0, C, extra)])
        rng.shuffle(labels)
        logits = rng.normal(0.0, 3.0, (labels.size, C))
        text = logit_text(labels, logits)
        with mock.patch.object(similarity, "LOGIT_CHUNK_BYTES", chunk_budget(rows, C)):
            streamed = outcome(lambda: stream_similarity(io.StringIO(text), mask=mask))
        with mock.patch.object(similarity, "LOGIT_CHUNK_BYTES", chunk_budget(1 << 30, C)):
            assert streamed == outcome(lambda: stream_similarity(io.StringIO(text), mask=mask))
        # %.17g text holds the logits exactly, so the in-memory entry point agrees too
        assert streamed == outcome(lambda: build_similarity(labels, logits, mask=mask))

    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("rows", [1, 5])
    def test_cli_writes_the_same_bytes(self, rows, mask, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        labels = rng.permutation(np.repeat(np.arange(5), 9))
        path = tmp_path / "logits.txt"
        path.write_text(logit_text(labels, rng.normal(0.0, 2.0, (labels.size, 5))), encoding="utf-8")
        for name, budget in (("one-chunk.txt", 1 << 30), ("s.txt", rows)):
            monkeypatch.setattr(similarity, "LOGIT_CHUNK_BYTES", chunk_budget(budget, 5))
            assert main(["simmatrix", "--logits", str(path), "--mask", mask, "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "s.txt").read_bytes() == (tmp_path / "one-chunk.txt").read_bytes()


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

    @pytest.mark.parametrize("mask", MASKS)
    @pytest.mark.parametrize("C", [2, 3, 100])
    def test_one_chunk_stays_within_its_budget(self, C, mask, tmp_path, monkeypatch):
        # a record's id, label and argmax do not shrink with C, so at small C it holds
        # well over LOGIT_BYTES_PER_VALUE per logit
        n = similarity.LOGIT_CHUNK_BYTES // (similarity.LOGIT_BYTES_PER_VALUE * C) + 1  # two chunks or more
        path = tmp_path / "logits.txt"
        rng = np.random.default_rng(C)
        path.write_text(logit_text(np.arange(n) % C, rng.normal(0.0, 3.0, (n, C))), encoding="utf-8")
        sizes, add = [], similarity._ClassSums.add
        with monkeypatch.context() as patch:
            patch.setattr(similarity._ClassSums, "add", lambda sums, labels, logits: (
                sizes.append(len(labels)), add(sums, labels, logits)))
            stream_similarity(path, mask=mask)  # also warms numpy's text reader
        assert len(sizes) >= 2
        # the first chunk as stream_similarity reads (with its id and label fields) and adds it,
        # beside sums made beforehand
        with open(path, encoding="utf-8") as fh:
            (header_C,) = similarity._read_header(fh, "logit", ("C",))
            sums = similarity._ClassSums(mask)
            sums.add(np.zeros(0, dtype=np.int64), np.zeros((0, C)))
            head = [("id", "U1"), ("label", "<i8")]
            tracemalloc.start()
            try:
                chunk = next(similarity._read_table(fh, "logit file", 2 + header_C, head=head, chunk_rows=sizes[0]))
                sums.add(chunk["label"], chunk["values"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(chunk) == sizes[0]
        assert peak <= similarity.LOGIT_CHUNK_BYTES


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


def savetxt_text(S: SimilarityMatrix) -> str:
    """The similarity file as ``np.savetxt`` writes it: the bytes ``write_similarity`` must write."""
    out = io.StringIO()
    out.write(f"{S.C}\n")
    np.savetxt(out, S.values, fmt="%.17g", delimiter=",")
    return out.getvalue()


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, shown by the first line that differs: pytest's diff of a whole file takes minutes."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines)
    for line, (g, w) in enumerate(zip(got_lines, want_lines)):
        assert (line, g) == (line, w)


def mirrored(upper: np.ndarray) -> SimilarityMatrix:
    """S with ``upper``'s strict upper triangle, mirrored bit for bit (signed zeros too), and a unit diagonal."""
    values = upper.copy()
    lower = np.tril_indices(len(values), -1)
    values[lower] = values.T[lower]
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(values)


def cosine_S(C: int) -> SimilarityMatrix:
    return cosine_similarity_matrix(np.random.default_rng(C).normal(size=(C, 8)))


def exponent_S() -> SimilarityMatrix:
    """Entries from 1e-320 to 1: most below 1e-4, which %.17g writes in exponent notation."""
    rng = np.random.default_rng(21)
    upper = rng.choice([-1.0, 1.0], (40, 40)) * rng.uniform(0.1, 1.0, (40, 40))
    return mirrored(upper * 10.0 ** -rng.integers(0, 321, (40, 40)))


def unit_S(C: int = 30) -> SimilarityMatrix:
    """Exact +-0 and +-1 off the diagonal, among ordinary entries."""
    rng = np.random.default_rng(22)
    return mirrored(rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 0.1, 1e-5], (C, C)))


def logit_S() -> SimilarityMatrix:
    """S built from the logits of 20 records per class at C = 100."""
    rng = np.random.default_rng(23)
    labels = np.arange(2000) % 100
    logits = rng.normal(size=(2000, 100)) + rng.normal(size=(100, 100))[labels]
    logits[np.arange(2000), labels] += 4.0
    return build_similarity(labels, logits)


class TestWriteSimilarity:
    @pytest.mark.parametrize("build", [
        lambda: cosine_S(1), lambda: cosine_S(2), lambda: cosine_S(600), exponent_S, unit_S, logit_S,
    ], ids=["1", "2", "600", "exponent", "units", "logits-C100"])
    def test_bytes_of_savetxt(self, build):
        S = build()
        got = io.StringIO()
        write_similarity(S, got)
        assert_same_text(got.getvalue(), savetxt_text(S))

    @pytest.mark.parametrize("rows", [1, 3, 4, 10, 11])
    def test_bytes_do_not_depend_on_the_row_blocks(self, monkeypatch, rows):
        # C = 10 in blocks of 1, 3 and 4 rows (the last block short), 10 and 11
        monkeypatch.setattr(core, "_BLOCK_BYTES", rows * similarity._CELL * 10)
        S = unit_S(10)
        got = io.StringIO()
        write_similarity(S, got)
        assert_same_text(got.getvalue(), savetxt_text(S))

    def test_kernel_formats_as_python(self):
        """The vectorized %.17g against ``b"%.17g" % v`` on 10**6 seeded doubles of [-1, 1] and its edges."""
        rng = np.random.default_rng(24)
        n = 250_000
        every_decade = rng.uniform(0.1, 1.0, n) * 10.0 ** -rng.integers(0, 323, n)  # subnormals too
        fixed_decades = rng.uniform(0.1, 1.0, n) * 10.0 ** -rng.integers(0, 4, n)  # %.17g writes 0.000d... to 0.d...
        powers = np.array([float(f"1e{k}") for k in range(-323, 1)])
        # each power of ten and two doubles either side: some round to 17 digits that carry into a new decade
        near_powers = [np.nextafter(np.nextafter(powers, 0), 0), np.nextafter(powers, 0), powers,
                       np.nextafter(powers, 2), np.nextafter(np.nextafter(powers, 2), 2)]
        # odd n / 2**(18 + z) in [1e-(z + 1), 1e-z) has 18 significant digits, the last a 5: a tie at 17
        ties = [np.arange(1, 2**(18 + z), 2 * 7**z) / 2**(18 + z) for z in range(4)]
        edges = [0.0, 1.0, 5e-324, 0.99999999999999989, np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1)]
        x = np.concatenate([every_decade, fixed_decades, *near_powers, *ties, edges])
        x = np.concatenate([x, -x])
        assert x.size >= 10**6
        for chunk in np.array_split(x, 20):
            cells = similarity._format_cells(chunk)
            got = cells[cells != 0].tobytes().split(b",")[:-1]
            want = [b"%.17g" % v for v in chunk.tolist()]
            assert [(v, g, w) for v, g, w in zip(chunk.tolist(), got, want) if g != w][:5] == []
            assert len(got) == len(want)

    def test_memory_is_the_packed_triangle_and_a_few_blocks(self):
        # one cell per upper-triangle entry, no C x C array of texts
        class Discard:
            def write(self, text):
                pass

        C = 600
        S = cosine_S(C)
        tracemalloc.start()
        try:
            write_similarity(S, Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= C * (C + 1) // 2 * similarity._CELL + 10 * core._BLOCK_BYTES

    def test_mirrored_signed_zeros_are_written_as_savetxt_writes_them(self):
        # 0.0 mirrored by -0.0 becomes +0.0 both ways; -0.0 mirrored by -0.0 stays -0.0
        values = np.array([[1.0, 0.0, -0.0], [-0.0, 1.0, 0.5], [-0.0, 0.5, 1.0]])
        S = SimilarityMatrix(values)
        assert np.signbit(S.values).tolist() == [[False, False, True], [False, False, False], [True, False, False]]
        got, want = io.StringIO(), io.StringIO()
        write_similarity(S, got)
        want.write("3\n")
        np.savetxt(want, S.values, fmt="%.17g", delimiter=",")
        assert got.getvalue() == want.getvalue() == "3\n1,0,-0\n0,1,0.5\n-0,0.5,1\n"
