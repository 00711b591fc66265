import io
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shc.core import (
    DegenerateInputError,
    DimensionMismatchError,
    FormatError,
    MissingClassError,
    ValidationError,
)
from shc.similarity import (
    MASK_ARGMAX,
    build_similarity,
    class_similarity_rows,
    cosine_similarity_matrix,
    masked_softmax,
    normalize_row,
    read_embeddings,
    read_logits,
    read_similarity,
    symmetrize_and_unit_diag,
    write_similarity,
)


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


class TestMaskedSoftmax:
    def test_symmetric_logits(self):
        assert_allclose(masked_softmax([[0.0, 0.0, 0.0]], [0]), [[0.0, 0.5, 0.5]])

    def test_direct_softmax(self):
        out = masked_softmax([[2.0, 1.0, 0.0]], [0])
        assert_allclose(out, [[0.0, 0.7310585786300049, 0.2689414213699951]], atol=1e-12)

    def test_single_unmasked_entry(self):
        assert_allclose(masked_softmax([[5.0, -1000.0]], [0]), [[0.0, 1.0]])

    def test_masked_entry_exactly_zero_and_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            N, C = int(rng.integers(1, 20)), int(rng.integers(2, 12))
            logits = rng.normal(0, 50, (N, C))
            idx = rng.integers(0, C, N)
            out = masked_softmax(logits, idx)
            assert (out[np.arange(N), idx] == 0.0).all()
            assert (out >= 0).all()
            assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9

    def test_rows_are_independent(self):
        # a row's output does not depend on the other rows in the batch
        rng = np.random.default_rng(12)
        logits = rng.normal(0, 5, (30, 7))
        idx = rng.integers(0, 7, 30)
        out = masked_softmax(logits, idx)
        for i in range(30):
            assert np.array_equal(out[i], masked_softmax(logits[i:i + 1], idx[i:i + 1])[0])

    def test_degenerate_single_class(self):
        with pytest.raises(DegenerateInputError):
            masked_softmax([[1.0]], [0])

    def test_bad_index_and_nonfinite(self):
        with pytest.raises(ValidationError):
            masked_softmax([[1.0, 2.0]], [2])
        with pytest.raises(ValidationError):
            masked_softmax([[1.0, 2.0]], [-1])
        with pytest.raises(ValidationError):
            masked_softmax([[1.0, np.inf]], [0])
        with pytest.raises(ValidationError):
            masked_softmax([1.0, 2.0], [0])

    def test_index_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            masked_softmax([[1.0, 2.0], [3.0, 4.0]], [0])


class TestClassRows:
    def test_mean_of_identical_vectors(self):
        rows = class_similarity_rows([0, 0, 1, 2], np.zeros((4, 3)))
        assert_allclose(rows[0], [0.0, 0.5, 0.5])

    def test_two_point_mean(self):
        # class-0 records put all unmasked mass on class 1 resp. class 2
        logits = [[0.0, 1000.0, -1000.0], [0.0, -1000.0, 1000.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        rows = class_similarity_rows([0, 0, 1, 2], logits)
        assert_allclose(rows[0], [0.0, 0.5, 0.5], atol=1e-300)

    def test_singleton_mean(self):
        rows = class_similarity_rows([0, 1], [[1.0, 2.0], [3.0, -1.0]])
        assert_allclose(rows[0], masked_softmax([[1.0, 2.0]], [0])[0])
        assert_allclose(rows[1], masked_softmax([[3.0, -1.0]], [1])[0])

    def test_sums_in_record_order(self):
        # bit-identical to accumulating one record at a time, in file order
        rng = np.random.default_rng(13)
        labels, logits = synthetic_logits(rng, 4, 9, rng.normal(0, 2, (4, 4)))
        order = rng.permutation(labels.size)
        labels, logits = labels[order], logits[order]
        sums = np.zeros((4, 4))
        for lab, row in zip(labels, logits):
            sums[lab] += masked_softmax(row[None], [lab])[0]
        assert np.array_equal(class_similarity_rows(labels, logits), sums / 9)

    def test_missing_class_lists_ids(self):
        with pytest.raises(MissingClassError) as exc:
            class_similarity_rows([0], [[0.0, 0.0, 0.0]])
        assert exc.value.missing == [1, 2]

    def test_argmax_masking_differs_for_misclassified(self):
        # label 0 but argmax is class 1: ground-truth masking zeroes entry 0,
        # argmax masking zeroes entry 1
        labels = [0, 1, 2]
        logits = [[1.0, 5.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        gt = class_similarity_rows(labels, logits)
        am = class_similarity_rows(labels, logits, mask=MASK_ARGMAX)
        assert gt[0, 0] == 0.0
        assert am[0, 1] == 0.0
        assert am[0, 0] > 0.0

    def test_wrong_logit_length(self):
        with pytest.raises(DimensionMismatchError):
            class_similarity_rows([0, 1], [[1.0, 2.0, 3.0]])
        with pytest.raises(DimensionMismatchError):
            class_similarity_rows([0], [1.0, 2.0, 3.0])

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            class_similarity_rows([0, 3], np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            class_similarity_rows([0, -1], np.zeros((2, 3)))

    def test_unknown_mask(self):
        with pytest.raises(ValidationError):
            class_similarity_rows([0, 1], np.zeros((2, 2)), mask="both")


class TestNormalizeRow:
    def test_hand_arithmetic(self):
        assert_allclose(normalize_row([0.1, 0.3, 0.6]), [-0.875, -0.125, 1.0], atol=1e-12)

    def test_arithmetic_progression(self):
        assert_allclose(normalize_row([2.0, 2.5, 3.0]), [-1.0, 0.0, 1.0], atol=1e-12)

    def test_constant_row_degenerate(self):
        with pytest.raises(DegenerateInputError):
            normalize_row([0.0, 0.0, 0.0])
        with pytest.raises(DegenerateInputError):
            normalize_row([3.0, 3.0])

    def test_max_abs_is_one(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            row = rng.normal(0, 3, int(rng.integers(2, 30)))
            out = normalize_row(row)
            assert abs(np.abs(out).max() - 1.0) <= 1e-12
            assert np.abs(out).max() <= 1.0


class TestSymmetrize:
    def test_hand_arithmetic(self):
        m = symmetrize_and_unit_diag([[0.9, 0.2], [0.4, 0.8]])
        assert_allclose(m.values, [[1.0, 0.3], [0.3, 1.0]])

    def test_symmetric_input_unchanged_off_diagonal(self):
        m = symmetrize_and_unit_diag([[0.5, -0.25], [-0.25, 0.7]])
        assert m.values[0, 1] == -0.25
        assert (np.diag(m.values) == 1.0).all()

    def test_1x1_diagonal_rule(self):
        assert symmetrize_and_unit_diag([[0.2]]).values.tolist() == [[1.0]]

    def test_non_square(self):
        with pytest.raises(DimensionMismatchError):
            symmetrize_and_unit_diag([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3]])


class TestBuildSimilarity:
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
    def test_logits_round_trip(self):
        # blank lines are skipped; the id column is free text and ignored
        text = "C=2\nimg0,0,1.5,-2\n\nimg 1 (b),1,0,3.25\n"
        labels, logits = read_logits(io.StringIO(text))
        assert labels.tolist() == [0, 1]
        assert logits.shape == (2, 2)
        assert_allclose(logits[0], [1.5, -2.0])
        assert_allclose(logits[1], [0.0, 3.25])

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
                read_logits(io.StringIO(text))

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
            (read_logits, "C=2\nimg0,1_0,1.0,2.0\n"),
            (read_logits, "C=2\nimg0,0,1_0,2.0\n"),
        ):
            with pytest.raises(FormatError):
                reader(io.StringIO(text))

    def test_nonfinite_logits_rejected_once_parsed(self):
        for value in ("nan", "-inf"):
            labels, logits = read_logits(io.StringIO(f"C=2\nimg0,0,1.0,2.0\nimg1,1,{value},2.0\n"))
            with pytest.raises(ValidationError):
                build_similarity(labels, logits)

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
