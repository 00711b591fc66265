import logging

import numpy as np
import pytest
from numpy.testing import assert_allclose

from shc import optimizer
from shc.core import (
    CenterSet,
    InfeasibleError,
    ShcError,
    SimilarityMatrix,
    ValidationError,
    _hamming,
    _pack_words,
)
from shc.gv import compute_min_distance
from shc.optimizer import (
    INIT_GREEDY,
    INIT_HADAMARD,
    _CANDIDATES_PER_SLOT,
    _exhaustive_max_min,
    descend,
    init_centers,
    quality_metrics,
    violation_count,
)

from oracles import hamming_matrix


def random_similarity(rng, C):
    A = rng.uniform(-1, 1, (C, C))
    S = (A + A.T) / 2
    np.fill_diagonal(S, 1.0)
    return S


class TestInitCenters:
    def test_easily_satisfiable(self):
        for seed in range(5):
            cs = init_centers(8, 2, 4, seed)
            d_min, _ = quality_metrics(cs, np.eye(2))
            assert d_min >= 4

    def test_full_space_reports_best_found(self):
        # q=2, C=4 must return all four codewords; min distance 1 < 2
        cs = init_centers(2, 4, 2, seed=0)
        got = {tuple(row) for row in cs.matrix.tolist()}
        assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        d_min, _ = quality_metrics(cs, np.eye(4))
        assert d_min == 1

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            init_centers(1, 3, 1, seed=0)

    def test_deterministic_and_distinct(self):
        a = init_centers(16, 24, 5, seed=9)
        b = init_centers(16, 24, 5, seed=9)
        assert a == b
        assert len({tuple(r) for r in a.matrix.tolist()}) == 24

    def test_hadamard_spacing(self):
        cs = init_centers(16, 32, 8, seed=0, method=INIT_HADAMARD)
        d_min, _ = quality_metrics(cs, np.eye(32))
        assert d_min == 8
        assert cs.C == 32 and cs.q == 16

    @pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64])
    def test_hadamard_spacing_at_every_class_count(self, q):
        # any two of the first C rows of [H; -H] lie q/2 apart, save a row and its complement (q)
        for C in range(2, 2 * q + 1):
            cs = init_centers(q, C, q // 2, seed=0, method=INIT_HADAMARD)
            assert quality_metrics(cs, np.eye(C))[0] == q // 2, C

    def test_hadamard_restrictions(self):
        with pytest.raises(ValidationError):
            init_centers(12, 4, 2, seed=0, method=INIT_HADAMARD)
        with pytest.raises(ValidationError):
            init_centers(8, 17, 2, seed=0, method=INIT_HADAMARD)

    @pytest.mark.parametrize("q, C, d, message", [
        (0, 2, 1, "code length must be positive, got 0"),
        (8, 0, 1, "class count must be positive, got 0"),
        (8, 2, 0, "d must lie in [1, 8], got 0"),
        (8, 2, 9, "d must lie in [1, 8], got 9"),
    ])
    def test_size_checks(self, q, C, d, message):
        with pytest.raises(ValidationError) as info:
            init_centers(q, C, d, seed=0)
        assert str(info.value) == message

    # (q, C) outside the code space, and the error both entry points raise for it; init_centers
    # is asked for d = q + 1, so the rule is seen to come before the distance check
    @pytest.mark.parametrize("q, C, error, message", [
        (0, 2, ValidationError, "code length must be positive, got 0"),
        (-3, 0, ValidationError, "code length must be positive, got -3"),
        (8, 0, ValidationError, "class count must be positive, got 0"),
        (8, -1, ValidationError, "class count must be positive, got -1"),
        (1, 3, InfeasibleError, "3 classes do not fit in {-1,+1}^1 (2 codewords)"),
        (8, 257, InfeasibleError, "257 classes do not fit in {-1,+1}^8 (256 codewords)"),
    ])
    @pytest.mark.parametrize("entry", ["compute_min_distance", "init_centers"])
    def test_one_code_space_rule(self, entry, q, C, error, message):
        with pytest.raises(ShcError) as info:
            if entry == "compute_min_distance":
                compute_min_distance(q, C)
            else:
                init_centers(q, C, q + 1, seed=0)
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize("d", [-1, 0, 9, 100])
    @pytest.mark.parametrize("entry", ["init_centers", "descend"])
    def test_one_distance_rule(self, entry, d):
        with pytest.raises(ValidationError) as info:
            if entry == "init_centers":
                init_centers(8, 4, d, seed=0)
            else:
                descend(np.eye(4), init_centers(8, 4, 2, seed=0), d)
        assert str(info.value) == f"d must lie in [1, 8], got {d}"

    def test_hadamard_warns_once_when_d_exceeds_half_q(self, caplog):
        with caplog.at_level(logging.WARNING, logger="shc.optimizer"):
            init_centers(16, 4, 9, seed=0, method=INIT_HADAMARD)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.WARNING, "hadamard init: 6 center pairs below target distance 9 (pairwise spacing is q/2=8)")
        ]

    def test_bad_method(self):
        with pytest.raises(ValidationError):
            init_centers(8, 2, 2, seed=0, method="mds")

    @pytest.mark.parametrize("q", [2**k for k in range(9)])
    def test_sylvester_hadamard_rows(self, q):
        # the reference's defining properties: orthogonal rows, H H^T = qI, an all-ones first
        # row and the recursion H_2q = [[H, H], [H, -H]]
        rows = sylvester_hadamard(q)
        assert rows.dtype == np.int8
        assert np.array_equal(rows.astype(np.int64) @ rows.T, q * np.eye(q, dtype=np.int64))
        assert (rows[0] == 1).all()
        assert np.array_equal(sylvester_hadamard(2 * q), np.block([[rows, rows], [rows, -rows]]))


log = logging.getLogger("shc.optimizer")


def sylvester_hadamard(q: int) -> np.ndarray:
    """The q x q Sylvester Hadamard matrix (q a power of two) in int8, by H_2q = [[H, H], [H, -H]]."""
    rows = np.ones((1, 1), dtype=np.int8)
    while rows.shape[0] < q:
        rows = np.block([[rows, rows], [rows, -rows]])
    return rows


def reference_init_centers(q: int, C: int, d: int, seed: int, method: str = INIT_GREEDY) -> CenterSet:
    """init_centers as it was before the candidates were ranked in blocks: all of a slot's at once.

    The greedy body is verbatim but for the closing count of close pairs, taken over all
    pairs of the finished set.  The Hadamard init is the one from before its rows came
    from their closed form: the first C rows of the pool [H; -H] of the whole Sylvester
    matrix, its close pairs counted over all pairs.  The fast :func:`init_centers` must
    return the same centers and log the same warning.
    """
    if q < 1:
        raise ValidationError(f"code length must be positive, got {q}")
    if C < 1:
        raise ValidationError(f"class count must be positive, got {C}")
    if not 1 <= d <= q:
        raise ValidationError(f"d must lie in [1, {q}], got {d}")
    if C > 2**q:
        raise InfeasibleError(f"{C} classes do not fit in {{-1,+1}}^{q} ({2**q} codewords)")

    if method == INIT_HADAMARD:
        if q & (q - 1):
            raise ValidationError(f"hadamard init needs a power-of-two code length, got q={q}")
        if C > 2 * q:
            raise ValidationError(f"hadamard init supports at most 2q={2 * q} classes, got C={C}")
        rows = sylvester_hadamard(q)
        centers = np.vstack([rows, -rows])[:C]
        bad = int(np.count_nonzero(np.triu(hamming_matrix(centers, centers) < d, k=1)))
        if bad:
            log.warning(
                "hadamard init: %d center pairs below target distance %d (pairwise spacing is q/2=%d)",
                bad, d, q // 2,
            )
        return CenterSet(centers)
    if method != INIT_GREEDY:
        raise ValidationError(f"unknown init method {method!r}")

    rng = np.random.default_rng(seed)
    rows = np.empty((C, q), dtype=np.int8)
    words = np.empty((C, (q + 63) // 64), dtype=np.uint64)  # rows[:filled], packed
    filled = 0
    while filled < C:
        cand = (rng.integers(0, 2, size=(_CANDIDATES_PER_SLOT, q), dtype=np.int8) * 2) - 1
        if filled == 0:
            rows[0] = cand[0]
        else:
            min_dist = _hamming(_pack_words(cand), words[:filled], q).min(axis=1)
            qualified = np.nonzero(min_dist >= d)[0]
            if qualified.size:
                rows[filled] = cand[qualified[0]]
            else:
                best = int(np.argmax(min_dist))
                if min_dist[best] == 0:
                    rows[filled] = _exhaustive_max_min(words[:filled], q)
                else:
                    rows[filled] = cand[best]
        words[filled] = _pack_words(rows[filled])
        filled += 1

    bad = int(np.count_nonzero(np.triu(_hamming(words, words, q) < d, k=1)))
    if bad:
        log.warning(
            "greedy init: %d of %d center pairs below target distance %d (q=%d, C=%d)",
            bad, C * (C - 1) // 2, d, q, C,
        )
    return CenterSet(rows)


def warnings_of(caplog, init, *args):
    """The centers ``init(*args)`` returns and the WARNING lines it logs."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="shc.optimizer"):
        centers = init(*args)
    return centers.matrix, [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


class TestInitMatchesReference:
    # Every slot of (64, 600, 21) takes a candidate from the first block of 16; (16, 200, 6)
    # and (8, 200, 2) also take some from a later block, and most slots there have no
    # candidate at distance >= d, so they take the argmax of all 200.  All but the first
    # case warn, and the count of close pairs each slot adds as it fills must equal the
    # reference's count over all pairs of the finished set.
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("q, C, d", [(64, 600, 21), (16, 200, 6), (8, 200, 2), (65, 40, 30)])
    def test_same_centers(self, q, C, d, seed, caplog):
        rows, messages = warnings_of(caplog, init_centers, q, C, d, seed)
        ref_rows, ref_messages = warnings_of(caplog, reference_init_centers, q, C, d, seed)
        assert np.array_equal(rows, ref_rows)
        assert messages == ref_messages
        assert len(messages) == (q != 64)

    def test_same_centers_through_the_exhaustive_branch(self, monkeypatch, caplog):
        # With 20 candidates per slot (one full block and a partial one), all of them
        # often repeat accepted centers of q = 4, and the slot enumerates the 16 codewords.
        calls = []

        def counted(accepted, q):
            calls.append(len(accepted))
            return _exhaustive_max_min(accepted, q)

        monkeypatch.setattr(optimizer, "_CANDIDATES_PER_SLOT", 20)
        monkeypatch.setitem(globals(), "_CANDIDATES_PER_SLOT", 20)
        monkeypatch.setattr(optimizer, "_exhaustive_max_min", counted)
        warned = 0
        for d in (1, 2):
            for seed in range(4):
                rows, messages = warnings_of(caplog, init_centers, 4, 16, d, seed)
                ref_rows, ref_messages = warnings_of(caplog, reference_init_centers, 4, 16, d, seed)
                assert np.array_equal(rows, ref_rows), (d, seed)
                assert messages == ref_messages, (d, seed)
                warned += len(messages)
        assert calls and warned


class TestHadamardMatchesReference:
    @pytest.mark.parametrize("q", [2**k for k in range(9)])
    def test_same_rows_at_every_class_count(self, q):
        pool = np.vstack([sylvester_hadamard(q), -sylvester_hadamard(q)])
        for C in range(1, 2 * q + 1):
            assert np.array_equal(init_centers(q, C, 1, seed=0, method=INIT_HADAMARD).matrix, pool[:C]), C

    @pytest.mark.parametrize("q", [2**k for k in range(8)])
    def test_warning_names_the_violation_count(self, q, caplog):
        # every d, at class counts around q (where complements begin) and at both ends
        for C in sorted({1, 2, q - 1, q, q + 1, q + 2, 2 * q} & set(range(1, 2 * q + 1))):
            for d in range(1, q + 1):
                rows, messages = warnings_of(caplog, init_centers, q, C, d, 0, INIT_HADAMARD)
                bad = violation_count(CenterSet(rows), d)
                assert messages == ([] if bad == 0 else [
                    f"hadamard init: {bad} center pairs below target distance {d} (pairwise spacing is q/2={q // 2})"
                ]), (C, d)
                assert warnings_of(caplog, reference_init_centers, q, C, d, 0, INIT_HADAMARD)[1] == messages


class TestQualityMetrics:
    def test_perfect_anticorrelation(self):
        cs = CenterSet(np.array([[1, 1], [-1, -1]], dtype=np.int8))
        d_min, s_loss = quality_metrics(cs, [[1.0, -1.0], [-1.0, 1.0]])
        assert (d_min, s_loss) == (2, 0.0)

    def test_orthogonal_pair(self):
        cs = CenterSet(np.array([[1, 1], [1, -1]], dtype=np.int8))
        d_min, s_loss = quality_metrics(cs, [[1.0, 0.0], [0.0, 1.0]])
        assert (d_min, s_loss) == (1, 0.0)

    def test_duplicate_centers(self):
        cs = CenterSet(np.array([[1, -1], [1, -1]], dtype=np.int8))
        d_min, _ = quality_metrics(cs, np.eye(2))
        assert d_min == 0

    def test_single_center_undefined_distance(self):
        cs = CenterSet(np.array([[1, -1, 1]], dtype=np.int8))
        d_min, s_loss = quality_metrics(cs, [[1.0]])
        assert d_min is None
        assert s_loss == 0.0

    @pytest.mark.parametrize("q", [1, 8, 63, 64, 65, 129])
    def test_matches_unpacked_oracle_at_word_boundaries(self, q):
        rng = np.random.default_rng(q)
        C = 9
        H = (rng.integers(0, 2, (C, q)) * 2 - 1).astype(np.int8)
        S = random_similarity(rng, C)
        H[4] = H[1]  # a duplicate pair: d_min is 0 at every q
        assert quality_metrics(CenterSet(H), S)[0] == 0
        H[4] = -H[1]  # its complement instead, at distance q
        d_min, s_loss = quality_metrics(CenterSet(H), S)
        off_diagonal = ~np.eye(C, dtype=bool)
        assert d_min == int(hamming_matrix(H, H)[off_diagonal].min())
        G = H.astype(np.float64) @ H.T.astype(np.float64)
        assert_allclose(s_loss, float(((S - G / q) ** 2).sum()), rtol=1e-12)

    @pytest.mark.parametrize("q", [1, 8, 63, 64, 65, 129])
    def test_invariant_under_bit_signs_and_order(self, q):
        # negating or reordering the bit positions of every center leaves G, so both metrics, as is
        rng = np.random.default_rng(q)
        H = (rng.integers(0, 2, (9, q)) * 2 - 1).astype(np.int8)
        S = random_similarity(rng, 9)
        moved = H[:, rng.permutation(q)] * rng.choice(np.array([-1, 1], dtype=np.int8), q)
        assert quality_metrics(CenterSet(moved), S) == quality_metrics(CenterSet(H), S)

    def test_exhaustive_fallback_refuses_codes_it_cannot_enumerate(self):
        # beyond q = 20 the 2^q codewords are not enumerated
        with pytest.raises(ShcError, match="could not draw a candidate distinct from accepted centers"):
            _exhaustive_max_min(_pack_words(np.ones((1, 21), dtype=np.int8)), 21)


GATE_C, GATE_Q = 6, 16
GATE_D = compute_min_distance(GATE_Q, GATE_C)
GATE_ENTRY_POINTS = ["descend", "quality_metrics"]


def gate_call(name, S):
    """Call one stage-2 entry point on S, with seeded centers."""
    centers = init_centers(GATE_Q, GATE_C, GATE_D, seed=7)
    if name == "descend":
        return descend(S, centers, GATE_D)
    if name == "quality_metrics":
        return quality_metrics(centers, S)
    raise AssertionError(name)


def plain(result):
    """A result as nested lists and numbers, so two results compare with ==."""
    if isinstance(result, (tuple, list)):
        return [plain(r) for r in result]
    if isinstance(result, CenterSet):
        return result.matrix.tolist()
    return result


def broken_similarity(kind):
    S = random_similarity(np.random.default_rng(3), GATE_C)
    if kind == "empty":
        return np.zeros((0, 0))
    if kind == "asymmetric":
        S[0, 1] += 1e-6
    elif kind == "diagonal":
        S[2, 2] = 0.9
    else:
        S[0, 1] = S[1, 0] = {"nan": np.nan, "inf": np.inf, "out-of-range": 1.5}[kind]
    return S


class TestSimilarityGate:
    """Every stage-2 entry point takes S only as a SimilarityMatrix or under the similarity-file rules."""

    @pytest.mark.parametrize("kind", ["nan", "inf", "asymmetric", "out-of-range", "diagonal", "empty"])
    @pytest.mark.parametrize("name", GATE_ENTRY_POINTS)
    def test_rejects_invalid_similarity(self, name, kind):
        with pytest.raises(ValidationError):
            gate_call(name, broken_similarity(kind))

    @pytest.mark.parametrize("name", GATE_ENTRY_POINTS)
    def test_near_valid_similarity_is_snapped(self, name):
        S = random_similarity(np.random.default_rng(3), GATE_C)
        near = S + np.random.default_rng(4).uniform(-1e-12, 1e-12, S.shape)
        near[0, 1], near[1, 0] = 1.0 + 1e-12, 1.0
        assert not np.array_equal(near, SimilarityMatrix(near).values)
        assert plain(gate_call(name, near)) == plain(gate_call(name, SimilarityMatrix(near)))

    @pytest.mark.parametrize("name", GATE_ENTRY_POINTS)
    def test_a_raw_array_is_validated_once(self, name, monkeypatch):
        calls = []
        init = SimilarityMatrix.__init__

        def counted(self, values):
            calls.append(1)
            init(self, values)

        monkeypatch.setattr(SimilarityMatrix, "__init__", counted)
        S = random_similarity(np.random.default_rng(3), GATE_C)
        gate_call(name, S)
        assert len(calls) == 1
        sim = SimilarityMatrix(S)
        assert len(calls) == 2
        gate_call(name, sim)  # a SimilarityMatrix is not validated again
        assert len(calls) == 2
