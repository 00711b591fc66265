import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shc.core import (
    DegenerateInputError,
    DimensionMismatchError,
    FormatError,
    MissingClassError,
    SimilarityMatrix,
    ValidationError,
    _symmetrize,
)
from shc import similarity
from shc.similarity import (
    MASK_ARGMAX,
    MASK_GROUND_TRUTH,
    build_similarity,
    cosine_similarity_matrix,
    read_embeddings,
    read_similarity,
    stream_similarity,
    write_similarity,
)

from oracles import normalize_row, symmetrize_and_unit_diag


def straight_line_pipeline(labels, logits):
    """Independent pure-python reimplementation of the logits-to-S pipeline."""
    C = len(logits[0])
    sums = [[0.0] * C for _ in range(C)]
    counts = [0] * C
    for lab, row in zip(labels, logits):
        lab = int(lab)
        vals = [float(v) for v in row]
        top = max(v for j, v in enumerate(vals) if j != lab)
        exps = [0.0 if j == lab else math.exp(v - top) for j, v in enumerate(vals)]
        z = sum(exps)
        for j in range(C):
            sums[lab][j] += exps[j] / z
        counts[lab] += 1
    rows = [[sums[i][j] / counts[i] for j in range(C)] for i in range(C)]
    normalized = []
    for r in rows:
        mean = sum(r) / C
        dev = [v - mean for v in r]
        scale = max(abs(max(dev)), abs(min(dev)))
        normalized.append([v / scale for v in dev])
    out = [[(normalized[i][j] + normalized[j][i]) / 2 for j in range(C)] for i in range(C)]
    for i in range(C):
        out[i][i] = 1.0
    return np.array(out)


def synthetic_logits(rng, C, per_class, confusion=None):
    """(labels, logits) with each record's own logit boosted, plus an optional per-class offset."""
    labels = np.arange(C * per_class) % C
    logits = rng.normal(0.0, 1.0, (labels.size, C))
    logits[np.arange(labels.size), labels] += 4.0
    if confusion is not None:
        logits += confusion[labels]
    return labels, logits


def softmax(logits, masked):
    """similarity._masked_softmax on the float64 logits and integer indices its caller hands it."""
    return similarity._masked_softmax(np.array(logits, dtype=np.float64), np.array(masked, dtype=np.int64))


def class_means(labels, logits, mask=MASK_GROUND_TRUTH):
    """The mean masked-softmax row of each class, as build_similarity forms them before it normalizes."""
    sums = similarity._ClassSums(mask)
    sums.add(np.asarray(labels), np.asarray(logits, dtype=np.float64))
    return sums.mean_rows()


class TestMaskedSoftmax:
    def test_symmetric_logits(self):
        assert_allclose(softmax([[0.0, 0.0, 0.0]], [0]), [[0.0, 0.5, 0.5]])

    def test_direct_softmax(self):
        out = softmax([[2.0, 1.0, 0.0]], [0])
        assert_allclose(out, [[0.0, 0.7310585786300049, 0.2689414213699951]], atol=1e-12)

    def test_single_unmasked_entry(self):
        assert_allclose(softmax([[5.0, -1000.0]], [0]), [[0.0, 1.0]])

    def test_kept_logits_beyond_float64_range(self):
        # 1e308 - (-1e308) overflows to -inf in the shift, whose exp is exactly the limit 0
        assert softmax([[1e308, -1e308, 0.0]], [2]).tolist() == [[1.0, 0.0, 0.0]]

    def test_masked_entry_exactly_zero_and_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            N, C = int(rng.integers(1, 20)), int(rng.integers(2, 12))
            logits = rng.normal(0, 50, (N, C))
            idx = rng.integers(0, C, N)
            out = softmax(logits, idx)
            assert (out[np.arange(N), idx] == 0.0).all()
            assert (out >= 0).all()
            assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9

    def test_rows_are_independent(self):
        # a row's output does not depend on the other rows in the batch
        rng = np.random.default_rng(12)
        logits = rng.normal(0, 5, (30, 7))
        idx = rng.integers(0, 7, 30)
        out = softmax(logits, idx)
        for i in range(30):
            assert np.array_equal(out[i], softmax(logits[i:i + 1], idx[i:i + 1])[0])

    def test_empty_batch(self):
        assert softmax(np.zeros((0, 3)), []).shape == (0, 3)


class TestClassRows:
    def test_mean_of_identical_vectors(self):
        rows = class_means([0, 0, 1, 2], np.zeros((4, 3)))
        assert_allclose(rows[0], [0.0, 0.5, 0.5])

    def test_two_point_mean(self):
        # class-0 records put all unmasked mass on class 1 resp. class 2
        logits = [[0.0, 1000.0, -1000.0], [0.0, -1000.0, 1000.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        rows = class_means([0, 0, 1, 2], logits)
        assert_allclose(rows[0], [0.0, 0.5, 0.5], atol=1e-300)

    def test_singleton_mean(self):
        rows = class_means([0, 1], [[1.0, 2.0], [3.0, -1.0]])
        assert_allclose(rows[0], softmax([[1.0, 2.0]], [0])[0])
        assert_allclose(rows[1], softmax([[3.0, -1.0]], [1])[0])

    def test_sums_in_record_order(self):
        # bit-identical to accumulating one record at a time, in file order
        rng = np.random.default_rng(13)
        labels, logits = synthetic_logits(rng, 4, 9, rng.normal(0, 2, (4, 4)))
        order = rng.permutation(labels.size)
        labels, logits = labels[order], logits[order]
        sums = np.zeros((4, 4))
        for lab, row in zip(labels, logits):
            sums[lab] += softmax(row[None], [lab])[0]
        assert np.array_equal(class_means(labels, logits), sums / 9)

    def test_missing_class_lists_ids(self):
        with pytest.raises(MissingClassError) as exc:
            build_similarity([0], [[0.0, 0.0, 0.0]])
        assert exc.value.missing == [1, 2]
        # no records at all: an empty label list reaches the softmax as an empty batch
        with pytest.raises(MissingClassError) as exc:
            build_similarity([], np.zeros((0, 3)))
        assert exc.value.missing == [0, 1, 2]

    def test_argmax_masking_differs_for_misclassified(self):
        # label 0 but argmax is class 1: ground-truth masking zeroes entry 0,
        # argmax masking zeroes entry 1
        labels = [0, 1, 2]
        logits = [[1.0, 5.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        gt = class_means(labels, logits)
        am = class_means(labels, logits, mask=MASK_ARGMAX)
        assert gt[0, 0] == 0.0
        assert am[0, 1] == 0.0
        assert am[0, 0] > 0.0

    def test_wrong_logit_length(self):
        with pytest.raises(DimensionMismatchError):
            build_similarity([0, 1], [[1.0, 2.0, 3.0]])
        with pytest.raises(DimensionMismatchError):
            build_similarity([0], [1.0, 2.0, 3.0])

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            build_similarity([0, 3], np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            build_similarity([0, -1], np.zeros((2, 3)))

    def test_label_range_is_reported_as_passed(self):
        # a uint64 label of 2**63 or more must not wrap to a negative label no caller passed
        labels = np.array([0, 2**63 + 1, 1], dtype=np.uint64)
        with pytest.raises(ValidationError, match=f"labels must lie in \\[0, 3\\), got 0..{2**63 + 1}$"):
            build_similarity(labels, np.zeros((3, 3)))

    def test_unknown_mask(self):
        with pytest.raises(ValidationError):
            build_similarity([0, 1], np.zeros((2, 2)), mask="both")

    @pytest.mark.parametrize("labels", [[0.0, 1.7, 2.2], [0.0, 1.0, 2.0], ["0", "1", "2"], [False, True, True]])
    def test_labels_must_be_integers(self, labels):
        # CodeDatabase's rule: 1.7 is not truncated to class 1, nor "1" parsed
        logits = np.random.default_rng(14).normal(size=(3, 3))
        with pytest.raises(ValidationError, match="labels must be integers"):
            build_similarity(labels, logits)

    def test_any_integer_dtype_gives_the_same_s(self):
        logits = np.random.default_rng(15).normal(size=(4, 3))
        want = build_similarity([0, 1, 2, 1], logits).values
        for dtype in (np.uint8, np.int16, np.uint64):
            assert np.array_equal(build_similarity(np.array([0, 1, 2, 1], dtype=dtype), logits).values, want)

    @pytest.mark.parametrize("labels, logits, error, message", [
        ([0, 0], [[1.0], [2.0]], DegenerateInputError, "masked softmax needs at least 2 classes"),
        ([0, 1], [[1.0, 2.0], [np.nan, 0.0]], ValidationError, "logits must be finite"),
    ], ids=["one-class", "nonfinite"])
    def test_faults_the_softmax_does_not_check(self, labels, logits, error, message):
        # the array door reports them as the file door does, from the class sums
        for mask in (MASK_GROUND_TRUTH, MASK_ARGMAX):
            with pytest.raises(error) as exc:
                build_similarity(labels, logits, mask=mask)
            assert str(exc.value) == message


class TestNormalizeRow:
    def test_hand_arithmetic(self):
        assert_allclose(normalize_row([0.1, 0.3, 0.6]), [-0.875, -0.125, 1.0], atol=1e-12)
        # rows normalize to (-0.875, -0.125, 1), (-1, 0, 1) and (1, -1, 0), then meet their mirrors
        got = similarity._similarity_of_rows(np.array([[0.1, 0.3, 0.6], [2.0, 2.5, 3.0], [1.0, 0.0, 0.5]]))
        assert_allclose(got.values, [[1.0, -0.5625, 1.0], [-0.5625, 1.0, 0.0], [1.0, 0.0, 1.0]], atol=1e-12)

    def test_arithmetic_progression(self):
        assert_allclose(normalize_row([2.0, 2.5, 3.0]), [-1.0, 0.0, 1.0], atol=1e-12)
        rows = np.array([[2.0, 2.5, 3.0], [0.0, 1.0, 2.0], [4.0, 3.0, 2.0]])
        similarity._similarity_of_rows(rows)  # normalizes the rows in place
        assert_allclose(rows, [[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [1.0, 0.0, -1.0]], atol=1e-12)

    def test_constant_row_degenerate(self):
        with pytest.raises(DegenerateInputError):
            normalize_row([0.0, 0.0, 0.0])
        for rows in ([[0.0, 0.0, 0.0], [0.1, 0.5, 0.2], [0.3, 0.2, 0.9]], [[3.0, 3.0], [0.0, 1.0]]):
            with pytest.raises(DegenerateInputError, match="cannot normalize a constant row"):
                similarity._similarity_of_rows(np.array(rows))

    def test_max_abs_is_one(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            C = int(rng.integers(2, 30))
            rows = rng.normal(0, 3, (C, C))
            want = np.stack([normalize_row(r) for r in rows])
            similarity._similarity_of_rows(rows)  # normalizes the rows in place
            assert rows.tobytes() == want.tobytes()
            assert np.abs(np.abs(rows).max(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(rows).max() <= 1.0


class TestSymmetrize:
    def test_hand_arithmetic(self):
        sym = _symmetrize(np.array([[0.9, 0.2], [0.4, 0.8]]))
        assert_allclose(sym, [[1.0, 0.3], [0.3, 1.0]])
        assert sym.tobytes() == symmetrize_and_unit_diag([[0.9, 0.2], [0.4, 0.8]]).values.tobytes()

    def test_symmetric_input_unchanged_off_diagonal(self):
        sym = _symmetrize(np.array([[0.5, -0.25], [-0.25, 0.7]]))
        assert sym[0, 1] == -0.25
        assert (np.diag(sym) == 1.0).all()

    def test_1x1_diagonal_rule(self):
        assert _symmetrize(np.array([[0.2]])).tolist() == [[1.0]]

    def test_non_square(self):
        with pytest.raises(DimensionMismatchError):
            SimilarityMatrix([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])


def near_valid(rng, C):
    """A symmetric S with a unit diagonal moved within SNAP_TOL, with 0.0 mirrored by -0.0 and -0.0 by -0.0."""
    S = rng.uniform(-1.0, 1.0, (C, C))
    S = (S + S.T) / 2
    S[1, -1] = S[-1, 1] = 1.0
    np.fill_diagonal(S, 1.0)
    S += rng.uniform(-5e-10, 5e-10, (C, C))
    S[0, 1], S[1, 0] = 0.0, -0.0
    S[0, -1] = S[-1, 0] = -0.0
    return S


def logit_file(labels, logits) -> str:
    rows = (f"r{i},{label}," + ",".join(f"{v:.17g}" for v in row) for i, (label, row) in
            enumerate(zip(labels, logits)))
    return f"C={logits.shape[1]}\n" + "\n".join(rows) + "\n"


def sim_file(S) -> str:
    rows = (",".join(f"{v:.17g}" for v in row) for row in S)
    return f"{len(S)}\n" + "\n".join(rows) + "\n"


def orthogonal_embeddings(rng, C):
    """Embeddings with exact zero (and -0.0) cosines between some classes."""
    emb = rng.normal(size=(C, 6))
    emb[:3] = [[-1.0, 0, 0, 0, 0, 0], [0, -1.0, 0, 0, 0, 0], [0, 0, 0, 0, 0, -2.0]]
    return emb


PRODUCERS = {
    "constructor": lambda rng, C: SimilarityMatrix(near_valid(rng, C)),
    "build_similarity": lambda rng, C: build_similarity(*synthetic_logits(rng, C, 3)),
    "stream_similarity": lambda rng, C: similarity.stream_similarity(
        io.StringIO(logit_file(*synthetic_logits(rng, C, 3)))),
    "cosine_similarity_matrix": lambda rng, C: cosine_similarity_matrix(orthogonal_embeddings(rng, C)),
    "read_similarity": lambda rng, C: read_similarity(io.StringIO(sim_file(near_valid(rng, C)))),
}


class TestEveryProducer:
    """Every way to make an S gives one bitwise symmetric, with a unit diagonal, in [-1, 1]."""

    @pytest.mark.parametrize("C", [3, 4, 17])
    @pytest.mark.parametrize("name", sorted(PRODUCERS))
    def test_invariants_hold_bit_for_bit(self, name, C):
        values = PRODUCERS[name](np.random.default_rng(C), C).values
        assert values.tobytes() == values.T.tobytes(order="C")
        assert np.array_equal(np.signbit(values), np.signbit(values.T))
        assert (np.diag(values) == 1.0).all()
        assert np.abs(values).max() <= 1.0
        assert not values.flags.writeable

    @pytest.mark.parametrize("name", sorted(PRODUCERS))
    def test_goes_through_the_constructor_once(self, name, monkeypatch):
        calls = []
        init = SimilarityMatrix.__init__

        def counted(self, values):
            calls.append(1)
            init(self, values)

        monkeypatch.setattr(SimilarityMatrix, "__init__", counted)
        PRODUCERS[name](np.random.default_rng(5), 5)
        assert len(calls) == 1


class TestBuildSimilarity:
    @pytest.mark.parametrize("C", [2, 3, 17, 100])
    def test_rows_normalized_at_once_match_row_by_row(self, C):
        rng = np.random.default_rng(C)
        rows = rng.normal(rng.normal(0, 5), rng.uniform(0.01, 3), (C, C))
        rows[0] = rows[0].round(1)  # ties for the row max / min
        want = symmetrize_and_unit_diag(np.stack([normalize_row(r) for r in rows]))
        got = similarity._similarity_of_rows(rows.copy())
        assert got.values.tobytes() == want.values.tobytes()

    def test_constant_class_mean_row_is_degenerate(self):
        # under the argmax mask, class 0's three records average to (1/3, 1/3, 1/3)
        logits = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0], [0.0, 0.0, 5.0],
                           [0.0, 5.0, 1.0], [1.0, 0.0, 5.0]])
        labels = np.array([0, 0, 0, 1, 2])
        assert np.allclose(class_means(labels, logits, mask=MASK_ARGMAX)[0], 1 / 3)
        with pytest.raises(DegenerateInputError, match="cannot normalize a constant row"):
            build_similarity(labels, logits, mask=MASK_ARGMAX)
        with pytest.raises(DegenerateInputError, match="cannot normalize a constant row"):
            similarity._similarity_of_rows(np.array([[0.2, 0.8], [0.5, 0.5]]))

    def test_class_means_are_normalized_in_place(self):
        # S and its constructor's copy: two C x C arrays beside the means, not a row list and its stack too
        C = 400
        rows = np.random.default_rng(5).random((C, C))
        tracemalloc.start()
        try:
            similarity._similarity_of_rows(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * rows.nbytes

    def test_two_class_shape(self):
        rng = np.random.default_rng(0)
        S = build_similarity(*synthetic_logits(rng, 2, 10))
        x = S.values[0, 1]
        assert -1.0 <= x <= 1.0
        assert S.values[1, 0] == x
        assert (np.diag(S.values) == 1.0).all()

    def test_forced_confusion_structure(self):
        # class-0 logits always peak on class 2 (after the label mask)
        rng = np.random.default_rng(1)
        labels = np.arange(30) % 3
        logits = rng.normal(0, 0.1, (30, 3))
        logits[np.arange(30), labels] += 5.0
        logits[labels == 0, 2] += 3.0
        S = build_similarity(labels, logits)
        row0 = S.values[0].copy()
        row0[0] = -np.inf
        assert int(np.argmax(row0)) == 2

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(7)
        confusion = rng.normal(0, 1.5, (3, 3))
        labels, logits = synthetic_logits(rng, 3, 15, confusion)
        got = build_similarity(labels, logits).values
        want = straight_line_pipeline(labels, logits)
        assert_allclose(got, want, atol=1e-12)

    def test_invariants_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            C = int(rng.integers(2, 7))
            S = build_similarity(*synthetic_logits(rng, C, 6))
            assert np.array_equal(S.values, S.values.T)
            assert (np.diag(S.values) == 1.0).all()
            assert np.abs(S.values).max() <= 1.0

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        C = 5
        labels, logits = synthetic_logits(rng, C, 8, rng.normal(0, 1, (C, C)))
        perm = rng.permutation(C)
        S = build_similarity(labels, logits).values
        S_perm = build_similarity(perm[labels], logits[:, np.argsort(perm)]).values
        assert_allclose(S_perm[np.ix_(perm, perm)], S, atol=1e-12)


class TestCosine:
    def test_identical_vectors(self):
        m = cosine_similarity_matrix([[1.0, 2.0], [1.0, 2.0]])
        assert_allclose(m.values[0, 1], 1.0, atol=1e-12)

    def test_orthogonal(self):
        m = cosine_similarity_matrix([[1.0, 0.0], [0.0, 2.0]])
        assert m.values[0, 1] == 0.0

    def test_direct_cosine(self):
        m = cosine_similarity_matrix([[1.0, 0.0], [1.0, 1.0]])
        assert_allclose(m.values[0, 1], 0.7071067811865475, atol=1e-12)

    @pytest.mark.parametrize("embeddings, message", [
        (np.ones(3), "embeddings must be 2-dimensional, got shape (3,)"),
        (np.ones((0, 3)), "embeddings must be at least 1x1, got shape (0, 3)"),
        ([[1.0, 0.0], [0.0, np.inf]], "embeddings must be finite"),
    ])
    def test_input_checks(self, embeddings, message):
        with pytest.raises(ValidationError) as info:
            cosine_similarity_matrix(embeddings)
        assert str(info.value) == message

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_similarity_matrix([[1.0, 0.0], [0.0, 0.0]])

    def test_huge_rows_do_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = cosine_similarity_matrix([[1e308, 1e308], [1e308, 1e308]])
        assert_allclose(m.values[0, 1], 1.0, atol=1e-12)

    @pytest.mark.parametrize("exponent", [-1000, -900, 900, 1020])
    def test_power_of_two_scaling_is_exact(self, exponent):
        # rows scaled by 2^k, near underflow or overflow, give the same bytes
        rng = np.random.default_rng(10)
        emb = rng.normal(size=(6, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = cosine_similarity_matrix(np.ldexp(emb, exponent))
        assert np.array_equal(scaled.values, cosine_similarity_matrix(emb).values)


class TestFiles:
    @pytest.mark.parametrize("mask", [MASK_GROUND_TRUTH, MASK_ARGMAX])
    def test_logits_round_trip(self, mask):
        # blank lines are skipped; the id column is free text and ignored
        text = "C=3\nimg0,0,1.5,-2,0.25\n\nimg 1 (b),1,0,3.25,-1e-3\n \t\nx,2,4,5,0.5\nimg3,0,-1,2.5,3\n"
        labels = [0, 1, 2, 0]
        logits = [[1.5, -2.0, 0.25], [0.0, 3.25, -1e-3], [4.0, 5.0, 0.5], [-1.0, 2.5, 3.0]]
        S = stream_similarity(io.StringIO(text), mask=mask)
        assert S.values.tobytes() == build_similarity(labels, logits, mask=mask).values.tobytes()

    def test_logits_errors(self):
        for text in (
            "",
            "N=3\n",
            "C=2\n",
            "C=2\nimg0,0,1.5\n",
            "C=2\nimg0,5,1.0,2.0\n",
            "C=2\nimg0,-1,1.0,2.0\n",
            "C=2\nimg0,0.5,1.0,2.0\n",
            "C=2\nimg0,0,abc,2.0\n",
        ):
            with pytest.raises(FormatError):
                stream_similarity(io.StringIO(text))

    def test_blank_lines_skipped(self):
        S = read_similarity(io.StringIO("2\n\n1,0.5\n \t\n0.5,1\n\n"))
        assert S.values.tolist() == [[1.0, 0.5], [0.5, 1.0]]
        emb = read_embeddings(io.StringIO("C=2,D=2\n\n1,0\n\n0,1\n  \n"))
        assert emb.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_numpy_number_syntax(self):
        # Python's float and int accept "_" digit separators and non-ASCII
        # digits; numpy's text reader, which parses every table, does not.
        for reader, text in (
            (read_similarity, "1\n1_0\n"),
            (read_embeddings, "C=1,D=2\n1_0,1\n"),
            (read_embeddings, "C=1,D=2\n\u0663,1\n"),
            (stream_similarity, "C=2\nimg0,1_0,1.0,2.0\n"),
            (stream_similarity, "C=2\nimg0,0,1_0,2.0\n"),
        ):
            with pytest.raises(FormatError):
                reader(io.StringIO(text))

    def test_nonfinite_logits_rejected_once_parsed(self):
        for value in ("nan", "-inf"):
            with pytest.raises(ValidationError):
                stream_similarity(io.StringIO(f"C=2\nimg0,0,1.0,2.0\nimg1,1,{value},2.0\n"))

    def test_similarity_round_trip(self):
        rng = np.random.default_rng(2)
        S = build_similarity(*synthetic_logits(rng, 4, 5))
        buf = io.StringIO()
        write_similarity(S, buf)
        buf.seek(0)
        back = read_similarity(buf)
        assert np.array_equal(back.values, S.values)

    def test_similarity_validates_symmetry(self):
        text = "2\n1,0.2\n0.3,1\n"
        with pytest.raises(ValidationError):
            read_similarity(io.StringIO(text))

    def test_similarity_truncation(self):
        with pytest.raises(FormatError):
            read_similarity(io.StringIO("2\n1,0.2\n"))

    def test_embeddings(self):
        emb = read_embeddings(io.StringIO("C=2,D=3\n1,0,0\n0.5,0.5,0\n"))
        assert emb.shape == (2, 3)
        assert emb[1, 0] == 0.5
        with pytest.raises(FormatError):
            read_embeddings(io.StringIO("C=2,D=3\n1,0,0\n"))
        with pytest.raises(FormatError):
            read_embeddings(io.StringIO("C=2\n1\n2\n"))
