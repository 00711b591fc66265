import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shc.core import (
    CenterSet,
    CodeDatabase,
    DimensionMismatchError,
    FormatError,
    SimilarityMatrix,
    ValidationError,
    pack_code_rows,
    read_centers,
    read_codes,
    unpack_code_rows,
    write_centers,
    write_codes,
)
from shc.core import _flip_bit, _hamming, _pack_words, _unpack_words
from shc.evaluation import evaluate
from shc.optimizer import _gram, descend, init_centers, quality_metrics, violation_count
from shc.similarity import cosine_similarity_matrix

from oracles import hamming_distance as oracle_distance
from oracles import hamming_matrix, inner_product


def code(*bits):
    return np.array(bits, dtype=np.int8)


def random_code(rng, q):
    return (rng.integers(0, 2, q) * 2 - 1).astype(np.int8)


class TestCenterSetEntries:
    def test_rejects_non_pm1(self):
        with pytest.raises(ValidationError):
            CenterSet([[1, 0, -1]])
        with pytest.raises(ValidationError):
            CenterSet([[0.5, 1.0]])

    @pytest.mark.parametrize("values", [[], [1, -1], [[[1, -1]]]])
    def test_rejects_empty_and_wrong_rank(self, values):
        with pytest.raises(ValidationError):
            CenterSet(values)

    def test_accepts_float_pm1(self):
        cs = CenterSet(np.array([[1.0, -1.0]]))
        assert cs.matrix.dtype == np.int8
        assert cs == CenterSet([code(1, -1)])

    def test_rows_are_read_only(self):
        cs = CenterSet([code(1, -1, 1)])
        with pytest.raises(ValueError):
            cs.matrix[0, 0] = -1
        with pytest.raises(ValueError):
            cs.matrix[0][0] = -1

    def test_has_no_item_access(self):
        # a center is a row of ``matrix``; the set neither indexes nor iterates
        assert not hasattr(CenterSet, "__getitem__")
        assert not hasattr(CenterSet, "__iter__")
        with pytest.raises(TypeError):
            iter(CenterSet([code(1, -1)]))


def hamming_distance(a, b):
    """The package's distance between two codes: the packed kernel on one row each."""
    return int(_hamming(_pack_words(a), _pack_words(b), a.size))


class TestHammingAndInner:
    def test_identity_case(self):
        a = code(1, 1, 1, 1)
        assert hamming_distance(a, a) == 0

    def test_direct_count(self):
        a, b = code(1, 1, 1, 1), code(1, -1, 1, -1)
        assert hamming_distance(a, b) == oracle_distance(a, b) == 2

    def test_full_complement(self):
        a, b = code(1, -1), code(-1, 1)
        assert hamming_distance(a, b) == 2
        assert (a.size - inner_product(a, b)) // 2 == 2

    def test_inner_product_examples(self):
        # the Gram kernel's entries are the inner products of its rows
        for a, b, want in [((1, -1, 1), (1, -1, 1), 3), ((1, 1), (-1, -1), -2), ((1, 1, 1, 1), (1, -1, 1, -1), 0)]:
            assert inner_product(code(*a), code(*b)) == _gram([a, b])[0, 1] == want

    @pytest.mark.parametrize("q", [8, 16, 32, 64])
    def test_hamming_euclid_identity(self, q):
        rng = np.random.default_rng(q)
        for _ in range(200):
            a, b = random_code(rng, q), random_code(rng, q)
            assert hamming_distance(a, b) == (q - inner_product(a, b)) // 2
            assert (q - inner_product(a, b)) % 2 == 0

    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        q = 12
        for _ in range(300):
            a, b, c = (random_code(rng, q) for _ in range(3))
            ab, ba = hamming_distance(a, b), hamming_distance(b, a)
            assert ab >= 0
            assert ab == ba
            assert (ab == 0) == np.array_equal(a, b)
            assert hamming_distance(a, c) <= ab + hamming_distance(b, c)

    @given(st.integers(1, 100), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_identity_property(self, q, rnd):
        bits_a = [rnd.choice((-1, 1)) for _ in range(q)]
        bits_b = [rnd.choice((-1, 1)) for _ in range(q)]
        a, b = code(*bits_a), code(*bits_b)
        assert 2 * hamming_distance(a, b) == q - inner_product(a, b)


class TestPackedHammingKernel:
    @pytest.mark.parametrize("q", [1, 7, 8, 9, 63, 64, 65, 255, 256, 300])
    def test_matches_matmul_oracle(self, q):
        rng = np.random.default_rng(q)
        a = (rng.integers(0, 2, (6, q)) * 2 - 1).astype(np.int8)
        b = (rng.integers(0, 2, (9, q)) * 2 - 1).astype(np.int8)
        b[0] = -a[0]  # complementary rows lie at distance exactly q: wraps a uint8 sum above 255
        b[1] = a[1]
        pa, pb = _pack_words(a), _pack_words(b)
        cases = [(a, b, pa, pb), (a[2], b, pa[2], pb), (a, b[3], pa, pb[3]), (a[0], b[0], pa[0], pb[0])]
        for x, y, px, py in cases:
            got, want = _hamming(px, py, q), hamming_matrix(x, y)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
        assert _hamming(pa, pb, q)[0, 0] == q
        assert _hamming(pa, pb, q)[1, 1] == 0

    @pytest.mark.parametrize(
        "q, dtype", [(64, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)]
    )
    def test_smallest_dtype_that_holds_q(self, q, dtype):
        a = np.ones((1, q), dtype=np.int8)
        dist = _hamming(_pack_words(a), _pack_words(-a), q)
        assert dist.dtype == dtype
        assert dist.tolist() == [[q]]

    @pytest.mark.parametrize("q", [1, 9, 64, 65, 130])
    def test_words_are_the_disk_packing_zero_padded(self, q):
        rows = (np.random.default_rng(q).integers(0, 2, (3, q)) * 2 - 1).astype(np.int8)
        words = _pack_words(rows)
        assert words.dtype == np.uint64 and words.shape == (3, (q + 63) // 64)
        raw = words.view(np.uint8)
        assert np.array_equal(raw[:, : (q + 7) // 8], pack_code_rows(rows))
        assert not raw[:, (q + 7) // 8 :].any()

    @pytest.mark.parametrize("q", [1, 9, 64, 65, 130])
    def test_unpack_and_flip_address_the_packed_bits(self, q):
        rows = (np.random.default_rng(q).integers(0, 2, (3, q)) * 2 - 1).astype(np.int8)
        words = _pack_words(rows)
        assert np.array_equal(_unpack_words(words, q), rows > 0)
        assert np.array_equal(_unpack_words(words[1], q), rows[1] > 0)
        for k in sorted({0, q // 2, q - 1}):
            _flip_bit(words, 2, k)
            rows[2, k] = -rows[2, k]
            assert np.array_equal(words, _pack_words(rows))

    @pytest.mark.parametrize("q", [1, 7, 63, 64, 65, 128, 300])
    def test_words_match_always_padded_packing(self, q):
        # The packing as first written: np.pad on every call, even when the row bytes fill whole words.
        def padded(rows):
            packed = pack_code_rows(rows)
            return np.pad(packed, [(0, 0)] * (packed.ndim - 1) + [(0, -packed.shape[-1] % 8)]).view(np.uint64)

        rows = (np.random.default_rng(q).integers(0, 2, (5, q)) * 2 - 1).astype(np.int8)
        for x in (rows, rows[2], rows[:0]):
            got, want = _pack_words(x), padded(x)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


class TestPacking:
    def test_packing_rule(self):
        # q=3 code (+1,-1,+1) -> single byte 0b10100000, pad bits zero
        packed = pack_code_rows(np.array([[1, -1, 1]], dtype=np.int8))
        assert packed.tolist() == [[0b10100000]]
        assert unpack_code_rows(packed, 3).tolist() == [[1, -1, 1]]

    def test_all_ones_byte(self):
        packed = pack_code_rows(np.ones((1, 8), dtype=np.int8))
        assert packed.tolist() == [[0xFF]]

    def test_bit_position_layout(self):
        # bit j lands in byte j//8 at position 7-(j%8)
        row = -np.ones((1, 16), dtype=np.int8)
        row[0, 9] = 1
        packed = pack_code_rows(row)
        assert packed.tolist() == [[0x00, 0b01000000]]


class TestCentersIO:
    def test_golden_bytes(self):
        cs = CenterSet(np.ones((1, 8), dtype=np.int8))
        buf = io.BytesIO()
        write_centers(cs, buf)
        assert buf.getvalue() == b"SHC1" + (1).to_bytes(4, "little") + (8).to_bytes(4, "little") + b"\xff"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cs = CenterSet(rng.integers(0, 2, (5, 19)) * 2 - 1)
        path = tmp_path / "c.bin"
        write_centers(cs, path)
        assert read_centers(path) == cs

    @given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, C, q, seed):
        rng = np.random.default_rng(seed)
        cs = CenterSet(rng.integers(0, 2, (C, q)) * 2 - 1)
        buf = io.BytesIO()
        write_centers(cs, buf)
        buf.seek(0)
        assert read_centers(buf) == cs

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_centers(io.BytesIO(b"NOPE" + bytes(9)))

    def test_truncated_after_header(self):
        cs = CenterSet(np.ones((2, 16), dtype=np.int8))
        buf = io.BytesIO()
        write_centers(cs, buf)
        data = buf.getvalue()[:14]
        with pytest.raises(FormatError):
            read_centers(io.BytesIO(data))

    def test_zero_counts_rejected(self):
        for C, q in ((0, 8), (1, 0)):
            raw = b"SHC1" + C.to_bytes(4, "little") + q.to_bytes(4, "little")
            with pytest.raises(FormatError):
                read_centers(io.BytesIO(raw))


class TestCodesIO:
    def test_empty_database_round_trip(self):
        db = CodeDatabase(np.zeros(0, dtype=np.int64), np.zeros((0, 16), dtype=np.int8))
        buf = io.BytesIO()
        write_codes(db, buf)
        assert buf.getvalue() == b"SHCD" + (0).to_bytes(4, "little") + (16).to_bytes(4, "little")
        buf.seek(0)
        assert read_codes(buf) == db

    def test_two_record_round_trip(self, tmp_path):
        db = CodeDatabase([3, 0], np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8))
        path = tmp_path / "db.bin"
        write_codes(db, path)
        back = read_codes(path)
        assert back == db
        assert (int(back.labels[0]), back.codes[0].tolist()) == (3, [1, -1, 1])

    @given(st.integers(0, 20), st.integers(1, 33), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, N, q, seed):
        rng = np.random.default_rng(seed)
        db = CodeDatabase(
            rng.integers(0, 7, N), (rng.integers(0, 2, (N, q)) * 2 - 1).astype(np.int8)
        )
        buf = io.BytesIO()
        write_codes(db, buf)
        buf.seek(0)
        assert read_codes(buf) == db

    def test_label_beyond_u32_raises_before_any_byte(self, tmp_path):
        db = CodeDatabase([2**32 + 7, 5], np.ones((2, 8), dtype=np.int8))
        buf = io.BytesIO()
        with pytest.raises(ValidationError) as info:
            write_codes(db, buf)
        assert str(info.value) == "code file labels must be below 2**32, got 4294967303"
        assert buf.getvalue() == b""
        with pytest.raises(ValidationError):
            write_codes(db, tmp_path / "db.shcd")
        assert not (tmp_path / "db.shcd").exists()

    def test_largest_u32_label_round_trips(self):
        db = CodeDatabase([2**32 - 1, 0], np.ones((2, 8), dtype=np.int8))
        buf = io.BytesIO()
        write_codes(db, buf)
        buf.seek(0)
        assert read_codes(buf).labels.tolist() == [2**32 - 1, 0]

    def test_truncated_record(self):
        db = CodeDatabase([1], np.ones((1, 8), dtype=np.int8))
        buf = io.BytesIO()
        write_codes(db, buf)
        with pytest.raises(FormatError):
            read_codes(io.BytesIO(buf.getvalue()[:-1]))


# Code lengths on each side of a byte and of a 64-bit word; the round-trip
# properties above draw q <= 40 only.
BOUNDARY_QS = [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256, 257]


def msb_first_bytes(row) -> bytes:
    """One {-1,+1} row packed by the module rule: bit j to byte j//8 at position 7-(j%8), +1 as 1."""
    out = bytearray((len(row) + 7) // 8)
    for j, v in enumerate(row):
        if v > 0:
            out[j // 8] |= 1 << (7 - j % 8)
    return bytes(out)


class TestFileLayout:
    @pytest.mark.parametrize("q", BOUNDARY_QS)
    def test_centers_bytes_at_byte_and_word_boundaries(self, q):
        rng = np.random.default_rng(q)
        cs = CenterSet(rng.integers(0, 2, (5, q)) * 2 - 1)
        buf = io.BytesIO()
        write_centers(cs, buf)
        data = buf.getvalue()
        assert data[:12] == b"SHC1" + (5).to_bytes(4, "little") + q.to_bytes(4, "little")
        assert data[12:] == b"".join(msb_first_bytes(row) for row in cs.matrix)
        assert read_centers(io.BytesIO(data)) == cs

    @pytest.mark.parametrize("q", BOUNDARY_QS)
    def test_codes_bytes_at_byte_and_word_boundaries(self, q):
        rng = np.random.default_rng(q)
        labels = [0, 2**32 - 1, 7, 65536]
        db = CodeDatabase(labels, rng.integers(0, 2, (4, q)) * 2 - 1)
        buf = io.BytesIO()
        write_codes(db, buf)
        data = buf.getvalue()
        assert data[:12] == b"SHCD" + (4).to_bytes(4, "little") + q.to_bytes(4, "little")
        records = b"".join(label.to_bytes(4, "little") + msb_first_bytes(row) for label, row in zip(labels, db.codes))
        assert data[12:] == records
        assert read_codes(io.BytesIO(data)) == db

    @pytest.mark.parametrize("q", [1, 7, 9, 65, 129])
    @pytest.mark.parametrize("kind", ["centers", "codes"])
    def test_every_pad_bit_is_checked(self, kind, q):
        rows = np.ones((2, q), dtype=np.int8)
        value = CenterSet(rows) if kind == "centers" else CodeDatabase([3, 4], rows)
        buf = io.BytesIO()
        (write_centers if kind == "centers" else write_codes)(value, buf)
        data = buf.getvalue()
        reader = read_centers if kind == "centers" else read_codes
        assert reader(io.BytesIO(data)) == value
        for pad in range(-q % 8):  # the last byte of the second row holds the pad bits in its low end
            bad = bytearray(data)
            bad[-1] |= 1 << pad
            with pytest.raises(FormatError, match="nonzero pad bits"):
                reader(io.BytesIO(bytes(bad)))


class TestSimilarityMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            SimilarityMatrix([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValidationError):
            SimilarityMatrix([[0.9, 0.2], [0.2, 1.0]])
        with pytest.raises(ValidationError):
            SimilarityMatrix([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ValidationError):
            SimilarityMatrix([[1.0, -1.2], [-1.2, 1.0]])
        with pytest.raises(DimensionMismatchError):
            SimilarityMatrix([[1.0, 0.0]])

    def test_snaps_within_tolerance(self):
        m = SimilarityMatrix([[1.0 + 5e-10, 0.2], [0.2 + 4e-10, 1.0]])
        assert np.array_equal(m.values, m.values.T)
        assert (np.diag(m.values) == 1.0).all()
        assert m.values[0, 1] == (0.2 + (0.2 + 4e-10)) / 2

    @pytest.mark.parametrize("values, message", [
        ([[1.0, 0.2], [0.21, 1.0]], "similarity matrix asymmetry 0.01 exceeds tolerance 1e-09"),
        ([[1.0, 0.2], [0.2, 1.0 - 2e-9]], "similarity diagonal deviates from 1 by 2e-09 (> 1e-09)"),
        ([[1.0, 1.0 + 2e-9], [1.0 + 2e-9, 1.0]], "similarity entries exceed [-1, 1] by 2e-09 (> 1e-09)"),
    ])
    def test_rejects_beyond_tolerance(self, values, message):
        with pytest.raises(ValidationError) as info:
            SimilarityMatrix(values)
        assert str(info.value) == message

    def test_valid_matrix_is_kept_bit_for_bit(self):
        values = np.random.default_rng(1).uniform(-1.0, 1.0, (7, 7))
        values = np.triu(values, 1) + np.triu(values, 1).T + np.eye(7)
        m = SimilarityMatrix(values)
        assert m.values.tobytes() == values.tobytes()
        assert not np.shares_memory(m.values, values)

    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1.2), (np.float32, 2.2)])
    def test_holds_one_buffer(self, dtype, bound):
        # the asymmetry is measured in the buffer that S is then symmetrized into and kept in;
        # a float32 input adds its float64 conversion
        C = 400
        values = np.random.default_rng(0).uniform(-0.5, 0.5, (C, C))
        values = (values + values.T).astype(dtype)
        np.fill_diagonal(values, 1.0)
        tracemalloc.start()
        try:
            SimilarityMatrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * C * C * 8

    @pytest.mark.parametrize("values, message", [
        (np.zeros((0, 0)), "similarity matrix needs at least one class"),
        ([[1.0, np.nan], [np.nan, 1.0]], "similarity entries must be finite"),
    ])
    def test_constructor_rejects_empty_and_nonfinite(self, values, message):
        with pytest.raises(ValidationError) as info:
            SimilarityMatrix(values)
        assert str(info.value) == message

    def test_immutable(self):
        m = SimilarityMatrix([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError):
            m.values[0, 1] = 0.0


class TestCenterSetAndDatabase:
    def test_center_set_accessors(self):
        cs = CenterSet(np.array([[1, -1], [-1, -1]], dtype=np.int8))
        assert cs.C == len(cs) == 2 and cs.q == 2
        assert cs.matrix.tolist() == [[1, -1], [-1, -1]]

    def test_code_check_holds_two_bool_masks_at_most(self):
        # np.isin held about 12 bytes per entry here; the check needs two bool masks
        codes = (np.random.default_rng(3).integers(0, 2, (20000, 64)) * 2 - 1).astype(np.int8)
        labels = np.zeros(20000, dtype=np.int64)
        tracemalloc.start()
        try:
            CodeDatabase(labels, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * codes.size

    @pytest.mark.parametrize("values, ok", [
        (np.array([1, -1], dtype=np.int8), True), (np.array([1.0, -1.0]), True),
        (np.array([True, True]), True), (np.array([True, False]), False),
        (np.array([1, -1], dtype=object), True), (np.array([1, "a"], dtype=object), False),
        (np.array([1 + 1j, -1]), False),
        (np.array([1, 1], dtype=np.uint8), True), (np.array([1, 255], dtype=np.uint8), False),
        (np.array(["1", "-1"]), False), (np.array([np.nan, 1.0]), False), (np.array([1.0, 0.5]), False),
    ])
    @pytest.mark.parametrize("codes_of", [
        lambda rows: CenterSet(rows).matrix,
        lambda rows: CodeDatabase(np.zeros(len(rows), dtype=np.int64), rows).codes,
    ], ids=["CenterSet", "CodeDatabase"])
    def test_code_entries_must_equal_plus_or_minus_one(self, values, ok, codes_of):
        rows = values[None, :]
        if ok:
            assert codes_of(rows).tolist() == [[1 if v == 1 else -1 for v in values.tolist()]]
        else:
            with pytest.raises(ValidationError, match="exactly -1 or \\+1"):
                codes_of(rows)

    def test_database_validation(self):
        with pytest.raises(DimensionMismatchError):
            CodeDatabase([0], np.ones((2, 4), dtype=np.int8))
        with pytest.raises(ValidationError):
            CodeDatabase([-1], np.ones((1, 4), dtype=np.int8))
        with pytest.raises(ValidationError):
            CodeDatabase(np.zeros(0, dtype=np.int64), np.zeros((0, 0), dtype=np.int8))

    @pytest.mark.parametrize("label", [2**63 + 1, 2**63])
    def test_database_rejects_labels_int64_cannot_hold(self, label):
        # cast unchecked, 2**63 + 1 was stored as -9223372036854775807
        with pytest.raises(ValidationError) as info:
            CodeDatabase(np.array([label, 3], dtype=np.uint64), np.ones((2, 4), dtype=np.int8))
        assert str(info.value) == f"labels must be below 2**63, got {label}"

    def test_database_keeps_the_largest_int64_label(self):
        db = CodeDatabase(np.array([2**63 - 1, 0], dtype=np.uint64), np.ones((2, 4), dtype=np.int8))
        assert db.labels.tolist() == [2**63 - 1, 0]

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_center_set_rejects_an_empty_matrix(self, shape):
        with pytest.raises(ValidationError) as info:
            CenterSet(np.zeros(shape))
        assert str(info.value) == f"center matrix must be at least 1x1, got shape {shape}"

    def test_database_rejects_2d_labels(self):
        with pytest.raises(ValidationError) as info:
            CodeDatabase(np.zeros((2, 1), dtype=np.int64), np.ones((2, 4), dtype=np.int8))
        assert str(info.value) == "labels must be 1-dimensional"


VALUE_TYPES = {
    "CenterSet": lambda: CenterSet([[1, -1, 1], [-1, -1, 1]]),
    "SimilarityMatrix": lambda: SimilarityMatrix([[1.0, 0.5], [0.5, 1.0]]),
    "CodeDatabase": lambda: CodeDatabase([0, 1, 1], [[1, -1], [-1, -1], [1, 1]]),
}


@pytest.mark.parametrize("name, changed, text", [
    ("CenterSet", [lambda: CenterSet([[1, -1, 1], [-1, 1, 1]])], "CenterSet(C=2, q=3)"),
    ("SimilarityMatrix", [lambda: SimilarityMatrix([[1.0, -0.5], [-0.5, 1.0]])], "SimilarityMatrix(C=2)"),
    ("CodeDatabase", [
        lambda: CodeDatabase([0, 1, 2], [[1, -1], [-1, -1], [1, 1]]),
        lambda: CodeDatabase([0, 1, 1], [[1, -1], [-1, -1], [1, -1]]),
    ], "CodeDatabase(N=3, q=2)"),
], ids=["CenterSet", "SimilarityMatrix", "CodeDatabase"])
def test_value_types_compare_by_value_and_repr_their_shape(name, changed, text):
    value = VALUE_TYPES[name]()
    assert value == VALUE_TYPES[name]() and not value != VALUE_TYPES[name]()
    for make in changed:  # one entry (a bit, a similarity pair or a label) differs
        assert value != make() and not value == make()
    # another value type, or a string, is not compared: __eq__ defers and == falls back to identity
    for other in [make() for n, make in VALUE_TYPES.items() if n != name] + [text]:
        assert value.__eq__(other) is NotImplemented
        assert (value == other) is False and (other == value) is False
    assert repr(value) == text


@pytest.mark.parametrize("q", [64, 65, 128])
def test_fortran_ordered_rows_give_the_c_ordered_results(q):
    # the types hold C-ordered int8, so the packed kernel gets contiguous words whatever the input order
    rng = np.random.default_rng(q)
    codes = (rng.integers(0, 2, (300, q)) * 2 - 1).astype(np.int8)
    labels = rng.integers(0, 10, 300)
    db, f_db = CodeDatabase(labels, codes), CodeDatabase(labels, np.asfortranarray(codes))
    queries = CodeDatabase(labels[:30], codes[:30])
    f_queries = CodeDatabase(labels[:30], np.asfortranarray(codes[:30]))
    assert f_db.codes.flags.c_contiguous and f_queries.codes.flags.c_contiguous
    assert evaluate(f_queries, f_db, [10, 300]) == evaluate(queries, db, [10, 300])
    assert np.array_equal(_hamming(_pack_words(f_queries.codes), _pack_words(f_db.codes), q),
                          _hamming(_pack_words(queries.codes), _pack_words(db.codes), q))

    C, d = 40, q // 4
    S = cosine_similarity_matrix(rng.normal(size=(C, 16)))
    centers = init_centers(q, C, d, seed=0)
    f_centers = CenterSet(np.asfortranarray(centers.matrix))
    assert quality_metrics(f_centers, S) == quality_metrics(centers, S)
    assert violation_count(f_centers, d) == violation_count(centers, d)
    out, trace = descend(S, f_centers, d)
    assert (out, trace) == descend(S, centers, d)
