import logging
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shc.core import _BLOCK_BYTES, CenterSet, DimensionMismatchError, ValidationError, _pack_words
from shc.gv import compute_min_distance
from shc.optimizer import (
    INIT_HADAMARD,
    _close_pairs,
    _d_min,
    _gram,
    _residual,
    _s_loss,
    _screen,
    _similarity,
    descend,
    init_centers,
    quality_metrics,
    violation_count,
)
from shc.similarity import cosine_similarity_matrix

from alm_reference import _off_diagonal

SIZES = [(10, 16), (16, 32), (100, 64), (600, 64)]


def cosine_fixture(C, q, seed=0):
    """Cosine similarities of random 32-d class embeddings, the GV target and the greedy init."""
    S = cosine_similarity_matrix(np.random.default_rng(seed).normal(size=(C, 32)))
    d = compute_min_distance(q, C)
    return S, d, init_centers(q, C, d, seed)


def flipped(centers, i, k):
    rows = centers.matrix.copy()
    rows[i, k] = -rows[i, k]
    return CenterSet(rows)


def sweep_violations(records):
    return [int(r.getMessage().rsplit("violations=", 1)[1]) for r in records
            if r.getMessage().startswith("descend: sweep")]


class TestDescend:
    @pytest.mark.parametrize("C, q", SIZES)
    def test_lowers_s_loss_and_keeps_distance(self, C, q):
        S, d, init = cosine_fixture(C, q)
        init_d_min, init_loss = quality_metrics(init, S)
        assert violation_count(init, d) == 0
        out, trace = descend(S, init, d)
        d_min, loss = quality_metrics(out, S)
        assert loss < init_loss
        assert violation_count(out, d) == 0
        assert d_min >= init_d_min
        assert trace[-1] == loss
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    @pytest.mark.parametrize("C, q", SIZES[:3])
    def test_no_allowed_single_flip_lowers_s_loss(self, C, q):
        S, d, init = cosine_fixture(C, q, seed=1)
        out, _ = descend(S, init, d)
        _, loss = quality_metrics(out, S)
        for i, k in product(range(C), range(q)):
            other = flipped(out, i, k)
            if violation_count(other, d) == 0:
                # descend skips flips that gain less than 8e-9 C/q (|S| <= 1 here)
                assert quality_metrics(other, S)[1] >= loss - 8e-9 * C / q, (i, k)

    @pytest.mark.parametrize("C", [12, 40])
    @pytest.mark.parametrize("kind", ["identity", "blocks"])
    def test_structured_similarity_ends(self, kind, C):
        # Many flips are exact ties in s_loss here, and G/q is inexact for q = 48.
        q = 48
        S = np.eye(C) if kind == "identity" else np.kron(np.eye(C // 4), np.ones((4, 4)))
        d = compute_min_distance(q, C)
        init = init_centers(q, C, d, seed=0)
        out, trace = descend(S, init, d)
        _, loss = quality_metrics(out, S)
        assert trace[-1] == loss <= quality_metrics(init, S)[1]
        assert violation_count(out, d) == 0
        for i, k in product(range(C), range(q)):
            other = flipped(out, i, k)
            if violation_count(other, d) == 0:
                assert quality_metrics(other, S)[1] >= loss - 8e-9 * C / q, (i, k)

    @pytest.mark.parametrize("start", ["random", "duplicates"])
    def test_violations_never_rise(self, start, caplog):
        C, q = 16, 32
        S, d, init = cosine_fixture(C, q, seed=2)
        if start == "random":
            init = init_centers(q, C, 1, seed=2)  # spaced for d=1 only
        else:
            rows = init.matrix.copy()
            rows[1::2] = rows[::2]
            init = CenterSet(rows)
        before = violation_count(init, d)
        assert before > 0
        with caplog.at_level(logging.INFO, logger="shc.optimizer"):
            out, trace = descend(S, init, d)
        counts = [before] + sweep_violations(caplog.records)
        assert len(counts) == len(trace) + 1
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert violation_count(out, d) == counts[-1]

    def test_deterministic(self):
        S, d, init = cosine_fixture(100, 64, seed=3)
        a, trace_a = descend(S, init, d)
        b, trace_b = descend(S, init, d)
        assert a == b
        assert trace_a == trace_b

    def test_rejects_asymmetric_similarity(self):
        S, d, init = cosine_fixture(16, 32, seed=4)
        noise = np.random.default_rng(4).normal(0, 0.1, (16, 16))
        with pytest.raises(ValidationError, match="asymmetry"):
            descend(S.values + noise, init, d)
        # its symmetric part, kept in [-1, 1] with a unit diagonal, is a valid S
        sym = np.clip(S.values + 0.5 * (noise + noise.T), -1.0, 1.0)
        np.fill_diagonal(sym, 1.0)
        out, trace = descend(sym, init, d)
        assert trace[-1] == quality_metrics(out, sym)[1]

    def test_single_center_is_a_fixed_point(self):
        init = init_centers(8, 1, 3, seed=0)
        out, trace = descend([[1.0]], init, 3)
        assert out == init
        assert trace == [0.0]

    def test_rejects_bad_arguments(self):
        init = init_centers(8, 2, 2, seed=0)
        with pytest.raises(ValidationError):
            descend(np.eye(2), init, 9)
        with pytest.raises(ValidationError):
            descend(np.eye(2), init, 0)
        with pytest.raises(DimensionMismatchError):
            descend(np.eye(3), init, 2)


def exhaustive_optimum(S, q, d):
    """Smallest s_loss over all C-center sets in {-1,+1}^q with every pair at distance >= d.

    s_loss depends only on the Gram matrix, which is unchanged by flipping a bit
    in every center or permuting the bit positions; so center 0 is all ones and
    center 1 is ones followed by w minus ones.  Handles 2 <= C <= 4.
    """
    C = S.shape[0]
    codes = 1 - 2 * ((np.arange(2**q)[:, None] >> np.arange(q)) & 1)
    best = np.inf
    for w in range(q + 1):
        rows = [np.ones(q, dtype=int), np.r_[np.ones(q - w, dtype=int), -np.ones(w, dtype=int)]]
        rows += [codes[g] for g in np.meshgrid(*[np.arange(2**q)] * (C - 2), indexing="ij")]
        loss, ok = 0.0, True
        for i, j in product(range(C), repeat=2):
            G = (rows[i] * rows[j]).sum(axis=-1)
            loss = loss + (S[i, j] - G / q) ** 2
            if i < j:
                ok = ok & ((q - G) // 2 >= d)
        best = min(best, float(np.where(ok, loss, np.inf).min()))
    return best


@pytest.mark.parametrize("C", [2, 3, 4])
def test_gap_to_exhaustive_optimum(C):
    q = 8
    for seed in range(3):
        S, d, init = cosine_fixture(C, q, seed=seed)
        best = exhaustive_optimum(S.values, q, d)
        out, _ = descend(S, init, d)
        gap, init_gap = quality_metrics(out, S)[1] - best, quality_metrics(init, S)[1] - best
        print(f"q={q} C={C} seed={seed} d={d}: descent gap {gap:.6g}, init gap {init_gap:.6g}")
        assert -1e-9 <= gap <= init_gap


def reference_descend(S, centers, d):
    """The descent as first written: r, the gains and the tight-pair mask rebuilt on every visit.

    The fast :func:`descend` screens quiet sweeps and builds the mask only for
    an improving flip; it must return the same centers and trace bit for bit.
    """
    log = logging.getLogger("shc.optimizer")
    Sv = _similarity(S, centers.C).values
    C, q = centers.C, centers.q
    sym = 0.5 * (Sv + Sv.T)
    H = centers.matrix.astype(np.float64)
    G = centers.matrix.astype(np.int64) @ centers.matrix.T.astype(np.int64)
    tight_above = q - 2 * d - 2
    lowers = -(C - 1) / q - 1e-9 * C * max(1.0, float(np.abs(sym).max()))
    trace = []
    flips = 1
    while flips:
        flips = 0
        for i in range(C):
            r = sym[i] - G[i] / q
            r[i] = 0.0
            gain = (r @ H) * H[i]
            gain[(H[G[i] > tight_above] != H[i]).any(axis=0)] = np.inf
            k = int(np.argmin(gain))
            if gain[k] < lowers:
                step = (-2.0 * H[i, k] * H[:, k]).astype(np.int64)
                step[i] = 0
                G[i] += step
                G[:, i] += step
                H[i, k] = -H[i, k]
                flips += 1
        s_loss, _, dist = reference_stats_of_gram(G, q, Sv)
        trace.append(s_loss)
        log.info(
            "descend: sweep %d flipped %d bits, s_loss=%.6g, d_min=%s, violations=%d",
            len(trace), flips, s_loss, int(dist.min()) if dist.size else None,
            np.count_nonzero(dist < d),
        )
    return CenterSet(H.astype(np.int8)), trace


def reference_stats_of_gram(G, q, Sv=None):
    """The Gram statistics as first written: three C x C temporaries and a triu_indices copy."""
    s_loss = None
    if Sv is not None:
        fit = Sv - G / q
        s_loss = float((fit * fit).sum())
    iu = np.triu_indices(G.shape[0], k=1)
    return s_loss, float(G.sum() - np.trace(G)), (q - G[iu]) // 2


def oracle_cases():
    for C, q in SIZES:
        yield f"cosine-{C}x{q}", *cosine_fixture(C, q)
    for C, q in [(40, 128), (40, 48)]:
        yield f"cosine-{C}x{q}", *cosine_fixture(C, q, seed=5)
    for kind in ("identity", "blocks"):
        C, q = 40, 48
        S = np.eye(C) if kind == "identity" else np.kron(np.eye(C // 4), np.ones((4, 4)))
        d = compute_min_distance(q, C)
        yield f"{kind}-{C}x{q}", S, d, init_centers(q, C, d, seed=0)
    S, d, init = cosine_fixture(16, 32, seed=2)
    yield "random-init", S, d, init_centers(32, 16, 1, seed=2)
    rows = init.matrix.copy()
    rows[1::2] = rows[::2]
    yield "duplicated-init", S, d, CenterSet(rows)
    # Cases whose later sweeps are screened (see SCREENED_CASES).
    for kind in ("identity", "blocks"):  # many exact ties
        C, q = 200, 64
        S = np.eye(C) if kind == "identity" else np.kron(np.eye(C // 4), np.ones((4, 4)))
        d = compute_min_distance(q, C)
        yield f"{kind}-{C}x{q}", S, d, init_centers(q, C, d, seed=0)
    S, _, _ = cosine_fixture(300, 64)
    yield "cosine-300x64-d1", S, 1, init_centers(64, 300, 1, seed=0)  # no tight pairs
    yield "cosine-150x128", *cosine_fixture(150, 128)  # two 64-bit words per center
    yield "cosine-100x256", *cosine_fixture(100, 256, seed=5)  # four words per center, two floor blocks
    S, d, _ = cosine_fixture(100, 64)
    yield "hadamard-100x64", S, d, init_centers(64, 100, d, seed=0, method=INIT_HADAMARD)


ORACLE_CASES = list(oracle_cases())
SCREENED_CASES = {"cosine-600x64", "identity-200x64", "blocks-200x64", "cosine-300x64-d1",
                  "cosine-150x128", "cosine-100x256", "hadamard-100x64"}


def screened_sweeps(records):
    """{sweep: certified visits} from descend's DEBUG lines."""
    lines = [r.getMessage().split() for r in records
             if r.levelno == logging.DEBUG and r.getMessage().startswith("descend: sweep")]
    return {int(words[2]): int(words[4]) for words in lines}


@pytest.mark.parametrize("name, S, d, init", ORACLE_CASES, ids=[case[0] for case in ORACLE_CASES])
def test_descend_matches_reference(name, S, d, init, caplog):
    with caplog.at_level(logging.INFO, logger="shc.optimizer"):
        ref, ref_trace = reference_descend(S, init, d)
        ref_messages = [r.getMessage() for r in caplog.records]
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="shc.optimizer"):
        out, trace = descend(S, init, d)
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert np.array_equal(out.matrix, ref.matrix)
    assert trace == ref_trace
    assert messages == ref_messages
    assert len(messages) == len(trace)
    if name in SCREENED_CASES:
        assert screened_sweeps(caplog.records)
    assert trace[-1] == quality_metrics(out, S)[1]  # the last sweep's loss, taken from R, is s_loss
    # the same result without the per-sweep distances that only the INFO line needs
    quiet, quiet_trace = descend(S, init, d)
    assert np.array_equal(quiet.matrix, ref.matrix)
    assert quiet_trace == ref_trace


# The largest C whose C x C float64 residual fits one segment of _s_loss's budget.
ONE_SEGMENT_C = math.isqrt(_BLOCK_BYTES // 8)


# C^2 just below, just above and 11 and 16 times over the loss's segment budget, so the
# segment sums are checked against numpy's whole-array sum at several tree depths.
@pytest.mark.parametrize("C", [1, 2, 37, ONE_SEGMENT_C, ONE_SEGMENT_C + 1, 600, 4 * ONE_SEGMENT_C])
@pytest.mark.parametrize("dtype", [np.int16, np.int64, np.float64])
@pytest.mark.parametrize("with_s", [False, True])
def test_stats_of_gram_matches_reference(C, dtype, with_s):
    q = 64
    rng = np.random.default_rng(C)
    rows = rng.choice([-1, 1], size=(C, q))
    G = (rows @ rows.T).astype(dtype)
    Sv = rng.uniform(-1, 1, (C, C)) if with_s else None
    ref_loss, ref_off, ref_dist = reference_stats_of_gram(G, q, Sv)
    if with_s:
        assert _s_loss(Sv, G, q) == ref_loss
    assert _off_diagonal(G) == ref_off  # the ALM reference's mu term reads the sum from G itself
    assert _d_min(G, q) == (int(ref_dist.min()) if ref_dist.size else None)
    assert [_close_pairs(G, q, d) for d in range(1, q + 1)] == [
        np.count_nonzero(ref_dist < d) for d in range(1, q + 1)]


def test_gram_statistics_of_a_duplicated_row():
    q = 64  # C = 1 (d_min None, no close pairs) is in the grid above
    rows = np.random.default_rng(0).choice(np.array([-1, 1], dtype=np.int8), size=(30, q))
    rows[17] = rows[4]
    G = _gram(rows)
    assert _d_min(G, q) == 0
    assert _close_pairs(G, q, 1) == 1
    assert violation_count(CenterSet(rows), 0) == 0  # no pair lies below distance 0


@pytest.mark.parametrize("C, q", [(50, q) for q in (1, 7, 63, 64, 65, 255, 256, 300)] + [(2, 32768)])
def test_gram_is_the_integer_product(C, q):
    rows = np.random.default_rng(q).choice(np.array([-1, 1], dtype=np.int8), size=(C, q))
    rows[1] = -rows[0]  # G reaches -q as well as q
    G = _gram(rows)
    assert G.dtype == (np.int16 if q < 2**15 else np.int32)
    assert np.array_equal(G, rows.astype(np.int64) @ rows.T)


# one to three row blocks of R, one to five 64-bit words per center
@pytest.mark.parametrize("C, q", [(40, 181), (40, 182), (150, 300), (300, 64)])
def test_screen_rows_are_the_visits_products(C, q):
    """Each row of the screen's P is a visit's r @ H, from the same rounded r, up to the order of the sum."""
    rng = np.random.default_rng(q)
    rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(C, q))
    G, H = _gram(rows), rows.astype(np.float64)
    S = cosine_similarity_matrix(rng.normal(size=(C, 8))).values
    P, _ = _screen(S, H, G, _pack_words(rows), q, q - 2 * compute_min_distance(q, C) - 2)
    visits = np.array([np.dot(_residual(S[i], G[i], q), H) for i in range(C)])
    assert np.abs(P - visits).max() <= 2 * C * C * np.finfo(np.float64).eps


def traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCenterStageMemory:
    """Traced peaks at C = 400 (q = 64 unless named) in C x C float64 arrays; S is made before the trace."""

    C, q = 400, 64
    CC = C * C * 8

    # Beside S, which is made before the trace, descend holds the int16 G (0.25), H, the
    # screen's P and H's int16 transpose (0.36 at q = 64) and one row block of at most
    # _BLOCK_BYTES (0.20 here) with its products: 0.91 measured, so 1.0 leaves 10%.
    DESCEND_BOUND = 1.0

    def test_descend_keeps_no_residual_matrix(self):
        S, d, init = cosine_fixture(self.C, self.q)
        assert traced_peak(lambda: descend(S, init, d)) <= self.DESCEND_BOUND * self.CC

    def test_descend_at_four_words_per_row(self):
        # at q = 256 H and P are 0.64 each, and a tight pair in the screen holds four words:
        # 2.03 measured, so 2.25 leaves 10%
        S, d, init = cosine_fixture(self.C, 256)
        assert traced_peak(lambda: descend(S, init, d)) <= 2.25 * self.CC

    def test_descend_info_lines_read_g_in_row_blocks(self, caplog):
        # each sweep's INFO line reads d_min and the close pairs from G a row block at a time
        S, d, init = cosine_fixture(self.C, self.q)
        with caplog.at_level(logging.INFO, logger="shc.optimizer"):
            peak = traced_peak(lambda: descend(S, init, d))
        assert sweep_violations(caplog.records)
        assert peak <= self.DESCEND_BOUND * self.CC

    def test_screen_holds_p_and_row_blocks(self):
        # at (C, q) = (600, 1024) P is 4.9 MB; beside it the screen holds one row block of
        # R (one _BLOCK_BYTES) and its int16 -> float64 cast buffer, then the floors' row
        # blocks: P plus 1.27 _BLOCK_BYTES measured, so two leave room
        C, q = 600, 1024
        rng = np.random.default_rng(0)
        rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(C, q))
        G, H, words = _gram(rows), rows.astype(np.float64), _pack_words(rows)
        S = cosine_similarity_matrix(rng.normal(size=(C, 32))).values
        tight_above = q - 2 * compute_min_distance(q, C) - 2
        peak = traced_peak(lambda: _screen(S, H, G, words, q, tight_above))
        assert peak <= H.nbytes + 2 * _BLOCK_BYTES

    def test_quality_metrics_and_violation_count(self):
        S, d, init = cosine_fixture(self.C, self.q)
        # G (0.25) and one row block of the Hamming kernel's uint64 XOR (0.20) with its
        # popcounts: 0.58 measured
        peak = traced_peak(lambda: (quality_metrics(init, S), violation_count(init, d)))
        assert peak <= 0.65 * self.CC

    def test_hadamard_init_counts_close_pairs_in_row_blocks(self):
        _, d, _ = cosine_fixture(self.C, self.q)
        # C = 400 takes q = 256 (at most 2q classes): G, a row block of the XOR over four
        # words with its uint16 distances, and the q x q rows with their complements:
        # 0.82 measured
        peak = traced_peak(lambda: init_centers(256, self.C, d, seed=0, method=INIT_HADAMARD))
        assert peak <= 0.9 * self.CC

    def test_greedy_init_forms_no_all_pairs_gram(self):
        _, d, _ = cosine_fixture(self.C, self.q)
        # close pairs are counted as the slots fill, so no C x C array is formed
        assert traced_peak(lambda: init_centers(self.q, self.C, d, seed=0)) <= 0.3 * self.CC

    def test_quality_metrics_reads_its_statistics_from_g(self):
        S, _, init = cosine_fixture(self.C, self.q)
        # the int16 G beside S; the Gram, distance and loss passes work in blocks
        assert traced_peak(lambda: quality_metrics(init, S)) <= 0.65 * self.CC


def test_gram_statistics_work_in_row_blocks():
    # at C = 1000 one C x C pass would hold 1 MB (bool) to 8 MB (float64 or uint64)
    C, q = 1000, 64
    rows = np.random.default_rng(0).choice(np.array([-1, 1], dtype=np.int8), size=(C, q))
    Sv = np.random.default_rng(1).uniform(-1, 1, (C, C))
    G = _gram(rows)
    # the float64 segment and its int16 -> float64 cast buffer; a partition copy or a bool
    # row block of G; or beside G, a uint64 XOR row block with its popcounts and packed rows
    assert traced_peak(lambda: _s_loss(Sv, G, q)) <= 1.3 * _BLOCK_BYTES
    assert traced_peak(lambda: _d_min(G, q)) <= 1.1 * _BLOCK_BYTES
    assert traced_peak(lambda: _close_pairs(G, q, 20)) <= 1.1 * _BLOCK_BYTES
    assert traced_peak(lambda: _gram(rows)) <= G.nbytes + 1.8 * _BLOCK_BYTES


def test_screen_runs_after_quiet_sweeps_and_skips_visits(caplog):
    """A sweep is screened exactly when the one before it flipped fewer than C/4 bits,
    and on the 600-class cosine case the screen certifies (skips) visits."""
    S, d, init = cosine_fixture(600, 64)
    with caplog.at_level(logging.DEBUG, logger="shc.optimizer"):
        _, trace = descend(S, init, d)
    flipped = [int(r.getMessage().split("flipped ")[1].split()[0]) for r in caplog.records
               if r.levelno == logging.INFO]
    certified = screened_sweeps(caplog.records)
    assert len(flipped) == len(trace)
    assert set(certified) == {n + 1 for n in range(1, len(trace)) if flipped[n - 1] < 600 / 4}
    assert all(0 <= c <= 600 for c in certified.values())
    assert sum(certified.values()) > 0


# one word (one byte, then a whole word), two, three and four words per row
@pytest.mark.parametrize("q", [8, 64, 65, 130, 256])
def test_screen_blocks_what_a_visit_blocks(q):
    """Bit k of i is blocked iff some tight j (G_ij > q - 2d - 2) has h_jk != h_ik; the
    screen's floor is the least P_ik h_ik over the bits that rule leaves open."""
    C = 300  # several of the screen's row blocks (three at one word a row)
    rng = np.random.default_rng(q)
    rows = rng.choice(np.array([-1, 1], dtype=np.int8), size=(C, q))
    # d at the 2C-th least distance of an ordered pair, so a row has about two tight neighbours
    d = max(1, int(np.sort((q - _gram(rows)[~np.eye(C, dtype=bool)]) // 2)[2 * C]))
    for j in (1, 2, 3):  # rows 1-3 lie within d of row 0: several tight neighbours
        rows[j] = rows[0]
        rows[j, rng.choice(q, size=min(j, d), replace=False)] *= -1
    G, H = _gram(rows), rows.astype(np.float64)
    tight_above = q - 2 * d - 2
    S = cosine_similarity_matrix(rng.normal(size=(C, 8))).values
    P, floor = _screen(S, H, G, _pack_words(rows), q, tight_above)
    tight = G > tight_above
    assert np.count_nonzero(tight[0]) >= 4
    blocked = np.array([(rows[tight[i]] != rows[i]).any(axis=0) for i in range(C)])
    assert blocked.any() and not blocked.all()
    assert np.array_equal(floor, np.where(blocked, np.inf, P * H).min(axis=1))


@settings(max_examples=80, deadline=None)
@given(
    C=st.integers(1, 24),
    q=st.sampled_from([8, 16, 33, 64, 65]),
    d_frac=st.floats(0.0, 1.0),
    kind=st.sampled_from(["cosine", "identity"]),
    seed=st.integers(0, 2**16),
)
def test_descend_matches_reference_on_random_cases(C, q, d_frac, kind, seed):
    d = 1 + int(d_frac * (q - 1))
    if kind == "identity":
        S = np.eye(C)
    else:
        S = cosine_similarity_matrix(np.random.default_rng(seed).normal(size=(C, 4)))
    init = init_centers(q, C, d, seed)
    ref, ref_trace = reference_descend(S, init, d)
    out, trace = descend(S, init, d)
    assert np.array_equal(out.matrix, ref.matrix)
    assert trace == ref_trace
