import itertools
import logging
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import catax.contingency
import catax.tca
from catax import (
    COLS,
    ROWS,
    ContingencyTable,
    build_model,
    embedded_l1_distance,
    taxicab_distance,
    tca_decompose,
    tca_total_dispersion,
    tsvd_step_exhaustive,
    tsvd_step_iterative,
)
from catax.contingency import _row_blocks
from conftest import random_counts, random_models, table_from_counts
from oracles import (
    block_sum,
    brute_argmax,
    brute_delta1,
    compensated_sum,
    criss_cross,
    dispersion_loop,
    exact_residual,
    integer_screen,
    screen_window,
    shifted_signs,
    svd_start_signs,
    taxicab_col_loop,
    taxicab_row_loop,
)

DIAG_MODEL = build_model(
    ContingencyTable(("r1", "r2"), ("x", "y"), np.array([[2.0, 0.0], [0.0, 2.0]]))
)

# 6x6 table whose certified principal values are NOT monotone (delta_2 > delta_1):
# deflation is an oblique projection, so the deflated residual's maximum can
# exceed its predecessor's even at exhaustively verified global optima.
NONMONOTONE_COUNTS = np.array(
    [
        [3, 0, 10, 2, 0, 5],
        [0, 8, 7, 6, 8, 10],
        [2, 3, 5, 6, 0, 10],
        [5, 4, 6, 1, 4, 2],
        [0, 4, 1, 1, 1, 5],
        [8, 10, 8, 9, 5, 6],
    ],
    dtype=float,
)


def check_tca_invariants(model, dec, atol=1e-10):
    for axis, weights in ((ROWS, model.r), (COLS, model.c)):
        scores = dec.scores(axis)
        for a in range(dec.k):
            assert abs(np.sum(scores[:, a] * weights)) < atol  # centering
            assert abs(np.sum(np.abs(scores[:, a]) * weights) - dec.deltas[a]) < atol
            for b in range(a):  # conjugacy
                assert abs(np.sum(scores[:, a] * np.sign(scores[:, b]) * weights)) < atol


def check_step_fixed_point(R, step, atol=1e-10):
    Ru = R @ step.u
    Rtv = R.T @ step.v
    assert np.all(step.v * Ru >= -atol)
    assert np.all(step.u * Rtv >= -atol)
    assert step.delta == pytest.approx(np.abs(Ru).sum(), abs=atol)
    assert step.delta == pytest.approx(np.abs(Rtv).sum(), abs=atol)
    assert set(np.unique(step.u)) <= {-1.0, 1.0}
    assert set(np.unique(step.v)) <= {-1.0, 1.0}


def test_exhaustive_diag():
    step = tsvd_step_exhaustive(np.array([[0.25, -0.25], [-0.25, 0.25]]))
    assert step.certified
    assert step.delta == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(step.u, [1.0, -1.0])
    np.testing.assert_array_equal(step.v, [1.0, -1.0])


def test_exhaustive_rank_one():
    a = np.array([0.3, -0.2, 0.5])
    b = np.array([0.25, -0.5, 0.25, 0.1])
    step = tsvd_step_exhaustive(np.outer(a, b))
    assert step.delta == pytest.approx(np.abs(a).sum() * np.abs(b).sum(), abs=1e-12)
    np.testing.assert_array_equal(step.u, np.sign(b))


def test_exhaustive_zero_residual():
    step = tsvd_step_exhaustive(np.zeros((4, 5)))
    assert step.delta == 0.0 and step.certified


def test_exhaustive_exhausted_residual_takes_first_class():
    # sum|M| = 1.6e-12 clears the floor below which the screen is skipped,
    # but the best class scores 8e-13: the exact pass finds every class
    # below the floor and returns the first, all +1
    H = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)
    step = tsvd_step_exhaustive(1e-13 * H)
    np.testing.assert_array_equal(step.u, np.ones(4))
    assert step.delta < 1e-12


def test_exhaustive_threshold():
    with pytest.raises(ValueError, match="exhaustive limit"):
        tsvd_step_exhaustive(np.zeros((21, 21)))
    # fine when either axis is small enough
    tsvd_step_exhaustive(np.random.default_rng(0).normal(size=(40, 4)))


def test_exhaustive_matches_bruteforce(models30):
    for model in models30:
        step = tsvd_step_exhaustive(model.D)
        assert step.delta == pytest.approx(brute_delta1(model.D), abs=1e-12)
        check_step_fixed_point(model.D, step)


def test_exhaustive_on_deflated_residuals(models30):
    for model in models30[:8]:
        R = model.D.copy()
        for _ in range(3):
            step = tsvd_step_exhaustive(R)
            if step.delta < 1e-12:
                break
            assert step.delta == pytest.approx(brute_delta1(R), abs=1e-12)
            check_step_fixed_point(R, step)
            R = R - np.outer(R @ step.u, step.v @ R) / step.delta


@pytest.mark.parametrize("m", range(1, 21))
def test_sign_tables_match_shifted_codes(m):
    # every code up to 3 * 2^12 of them, else the first and last 2^12 codes
    # and 2^12 drawn between
    codes = np.arange(1 << (m - 1))
    if codes.size > 3 << 12:
        draws = np.random.default_rng(m).integers(0, codes.size, 1 << 12)
        codes = np.unique(np.concatenate((codes[: 1 << 12], codes[-(1 << 12) :], draws)))
    np.testing.assert_array_equal(catax.tca._signs(codes, m), shifted_signs(codes, m))


def brute_step_u(R):
    """The exhaustive step's ``u`` by brute force on the smaller axis."""
    I, J = R.shape
    if J <= I:
        return brute_argmax(R)
    v = brute_argmax(R.T)
    return np.where(R.T @ v >= 0, 1.0, -1.0)  # sign(0) = +1


def tie_heavy_matrices(rng, count):
    """Small-integer matrices, many of whose sign classes tie, and their
    thirds, whose ties the first pass and the re-score round differently."""
    matrices = []
    for _ in range(count):
        I, J = rng.integers(2, 11, size=2)
        M = rng.integers(-2, 3, size=(I, J)).astype(float)
        if M.any():
            matrices.extend((M, M / 3))
    return matrices


@pytest.fixture(scope="module")
def exact_vector_cases(models30):
    """Residuals with their brute-force ``u``: corpus, deflated, shapes, ties."""
    cases = []
    for model in models30:
        R = model.D.copy()
        for _ in range(3):
            step = tsvd_step_exhaustive(R)
            if step.delta < 1e-12:
                break
            cases.append(R)
            R = R - np.outer(R @ step.u, step.v @ R) / step.delta
    rng = np.random.default_rng(2024)
    for m in range(1, 16):  # the smaller side; m = 14, 15 split at the defaults
        M = rng.normal(size=(m + 3, m))
        cases.extend((M, M.T))
    # Taller than one chunk of 64 points, the last chunk partial, each with
    # one heavy row whose chunk sets the step.
    for n, m, heavy in ((65, 10, 64), (130, 10, 3), (130, 6, 129)):
        M = rng.normal(size=(n, m))
        M[heavy] *= 100.0
        cases.extend((M, M.T))
    cases.extend(tie_heavy_matrices(rng, 20))
    return [(R, brute_step_u(R)) for R in cases]


def at_once(workers, check):
    """Run ``check`` on ``workers`` threads at once, switching threads about
    every microsecond, and raise the first failure: callers must share no
    state with each other."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(check) for _ in range(workers)]:
                future.result()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "low_bits, block_elements, max_m, workers",
    [
        (None, None, 15, None),
        (2, 120, 10, None),
        (0, 1, 10, None),
        (3, 40, 10, None),
        (2, 120, 10, 1),
        (2, 120, 10, 2),
        (2, 120, 10, 3),
    ],
    ids=[
        "defaults",
        "small-blocks",
        "no-low-half",
        "low-half-capped-by-block",
        "small-blocks-1-worker",
        "small-blocks-2-workers",
        "small-blocks-3-workers",
    ],
)
def test_exhaustive_exact_vector(
    exact_vector_cases, monkeypatch, low_bits, block_elements, max_m, workers
):
    # The certified u is the lexicographically first maximizer, whatever the
    # meet-in-the-middle split and block size: wide and tall tables, 1 to 15
    # signs, deflated residuals and exact ties.  At 120 elements a screen
    # spans many blocks, and a claim past the first scores a prefix of its
    # high codes' low codes.  The tall cases stream two or three chunks of
    # points, the last one partial.  The screen keeps its running best and
    # buffers on the calling thread, so with a worker count that many caller
    # threads screen every case at once, each getting the same u.
    if low_bits is not None:
        monkeypatch.setattr(catax.tca, "_LOW_BITS", low_bits)
        monkeypatch.setattr(catax.tca, "_BLOCK_ELEMENTS", block_elements)

    def check():
        for R, expected in exact_vector_cases:
            if min(R.shape) <= max_m:
                np.testing.assert_array_equal(tsvd_step_exhaustive(R).u, expected)

    if workers is None:
        check()
    else:
        at_once(workers, check)


@pytest.mark.parametrize("cap", [1, 4])
@pytest.mark.parametrize("rtol", [None, 1.0], ids=["default-rtol", "every-class"])
def test_exhaustive_shortlist_cap(monkeypatch, cap, rtol):
    # Past the cap the shortlist keeps its first classes plus the first
    # pass's argmax.  Small-integer scores are exact in both passes, so the
    # certified u is still the lexicographically first maximizer; with the
    # window over every class, the argmax is rarely among the first few.
    monkeypatch.setattr(catax.tca, "_SHORTLIST_CAP", cap)
    if rtol is not None:
        monkeypatch.setattr(catax.tca, "_SHORTLIST_RTOL", rtol)
    rng = np.random.default_rng(11)
    for _ in range(60):
        M = rng.integers(-2, 3, size=rng.integers(2, 11, size=2)).astype(float)
        if M.any():
            np.testing.assert_array_equal(tsvd_step_exhaustive(M).u, brute_step_u(M))


def enum_model(seed):
    """A 50 x 20 Poisson(5) model, shaped like the exhaustive benchmark table."""
    counts = np.random.default_rng(seed).poisson(5.0, size=(50, 20)).astype(float)
    return build_model(table_from_counts(counts))


# The certified u of the first three axes of enum_model(1) to (3), as the
# enumeration code of ``u * u[0]`` (see `shifted_signs`).
ENUM_MODEL_CODES = {
    1: [362377, 353400, 141099],
    2: [49907, 280024, 32560],
    3: [201246, 348335, 113090],
}


@pytest.mark.parametrize("seed", sorted(ENUM_MODEL_CODES))
def test_enum_model_certified_vectors(seed):
    # The screen's block, chunk and bound choices may change how fast the
    # certified vectors are found, never which.  (The decomposition flips
    # each axis to its orientation, so the code is of u * u[0].)
    dec = tca_decompose(enum_model(seed), k=3)
    for (u, _), code in zip(dec.sign_vectors, ENUM_MODEL_CODES[seed]):
        np.testing.assert_array_equal(u * u[0], shifted_signs(np.array([code]), 20)[0])


def tied_model(seed):
    """A near-independent 40 x 18 model, built as the tied40x18 benchmark
    table is: a rank-one table of ~1e9-sized cells plus Poisson(1) noise."""
    rng = np.random.default_rng(seed)
    a = rng.integers(5, 40, size=40).astype(float)
    b = rng.integers(5, 40, size=18).astype(float)
    counts = np.outer(a, b) * 1e6 + rng.poisson(1.0, size=(40, 18))
    return build_model(table_from_counts(counts))


# The certified u of the first three axes of tied_model(1) to (3), as the
# enumeration code of ``u * u[0]``.
TIED_MODEL_CODES = {
    1: [30757, 43291, 52660],
    2: [75065, 68062, 30146],
    3: [29092, 66543, 78357],
}


@pytest.mark.parametrize("seed", sorted(TIED_MODEL_CODES))
def test_tied_model_certified_vectors(seed):
    # The benchmark's recorded digests do not cover these near-independent
    # tables, whose residuals are about 1e-9 in size, so this pins their
    # certified vectors: whatever the screen keeps or skips, they must not
    # move.
    dec = tca_decompose(tied_model(seed), k=3)
    for (u, _), code in zip(dec.sign_vectors, TIED_MODEL_CODES[seed]):
        np.testing.assert_array_equal(u * u[0], shifted_signs(np.array([code]), 18)[0])


def test_enumeration_past_the_limit_is_brute_force_argmax():
    # The enumeration keeps no array with one slot per class, and nothing in
    # it stops at EXHAUSTIVE_LIMIT: at m = 22 the u of a 24 x 22 residual
    # must be the argmax of all 2^21 classes, scored a block of codes at a
    # time.  Its best class leads the next by far more than any rounding, so
    # the argmax is the lexicographically first maximizer.
    counts = np.random.default_rng(31).poisson(5.0, size=(24, 22)).astype(float)
    M = build_model(table_from_counts(counts)).D
    m = M.shape[1]
    top = []  # (score, code) of each block's two best classes
    for c0 in range(0, 1 << (m - 1), 1 << 15):
        codes = np.arange(c0, c0 + (1 << 15))
        scores = np.abs(M @ shifted_signs(codes, m).T).sum(axis=0)
        two = np.argpartition(scores, -2)[-2:]
        top.extend(zip(scores[two], codes[two]))
    (second, _), (best, code) = sorted(top)[-2:]
    assert best - second > 1e-6 * np.abs(M).sum()
    u = catax.tca._enumerate_max(M)
    np.testing.assert_array_equal(u, shifted_signs(np.array([code]), m)[0])


def test_exhaustive_step_starts_no_thread(monkeypatch, models30):
    # The screen runs on the calling thread, one block or many: a 50 x 20
    # table spans several blocks at the default size.
    def no_thread(self):
        pytest.fail("an exhaustive step started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    tsvd_step_exhaustive(np.random.default_rng(6).normal(size=(6, 8)))
    tsvd_step_exhaustive(enum_model(0).D)
    for model in models30:
        tca_decompose(model)


def test_exhaustive_scale_invariant(models30):
    # Power-of-two scaling is exact, so the tie window, being relative to
    # sum|R|, must shortlist the same classes: same u, delta scaled exactly.
    # At 2^40 an absolute window would be narrower than the rounding of the
    # tied classes' scores and drop some of them.
    residuals = []
    for model in models30[:10]:
        step = tsvd_step_exhaustive(model.D)
        residuals.append(model.D)
        residuals.append(model.D - np.outer(model.D @ step.u, step.v @ model.D) / step.delta)
    residuals.extend(tie_heavy_matrices(np.random.default_rng(7), 20))
    for R in residuals:
        base = tsvd_step_exhaustive(R)
        for scale in (2.0**-30, 2.0**10, 2.0**40):
            step = tsvd_step_exhaustive(R * scale)
            np.testing.assert_array_equal(step.u, base.u)
            assert step.delta == base.delta * scale


@pytest.mark.parametrize("exponent", [-600, 600])
def test_exhaustive_extreme_power_of_two_scales(models30, monkeypatch, exponent):
    # At 2^600 a float32 copy of the residual would overflow and at 2^-600
    # underflow to zero; the screen's power-of-two normalization and step
    # must keep u and delta exact there too.  The exhausted-residual floor is
    # scaled with the data, so that only the scale changes.
    residuals = [model.D for model in models30[:10]]
    residuals.extend(tie_heavy_matrices(np.random.default_rng(17), 10))
    bases = [tsvd_step_exhaustive(R) for R in residuals]
    floor = np.ldexp(catax.tca._DELTA_FLOOR, exponent)
    monkeypatch.setattr(catax.tca, "_DELTA_FLOOR", floor)
    for R, base in zip(residuals, bases):
        step = tsvd_step_exhaustive(np.ldexp(R, exponent))
        np.testing.assert_array_equal(step.u, base.u)
        assert step.delta == np.ldexp(base.delta, exponent)


def test_exhaustive_sub_float32_near_ties():
    # Small-integer tie-heavy matrices with 2^-40 added to one entry: the
    # integer screen cannot see the change and ties the classes exactly, the
    # float64 re-score breaks the tie, and u must be the brute-force first
    # maximizer.  Some perturbations must move it, or the test shows nothing.
    rng = np.random.default_rng(40)
    moved = 0
    for M in tie_heavy_matrices(rng, 200)[::2]:  # the integers, not the thirds
        near = M.copy()
        near[rng.integers(M.shape[0]), rng.integers(M.shape[1])] += 2.0**-40
        expected = brute_step_u(near)
        moved += not np.array_equal(expected, brute_step_u(M))
        np.testing.assert_array_equal(tsvd_step_exhaustive(near).u, expected)
    assert moved >= 10


def summation_order_residual(n=1500, d=2.0**-15):
    """A 2n x 2 matrix whose two classes a float32 screen's sums over the
    points would part by ``d / 2`` of ``sum|M|``, far beyond a window that
    ignores ``n``; the integer screen's sums are exact, but its rounding of
    each point to the step grows with ``n`` too.

    Under x = (1, 1) the first n rows score 1 and the last n score ``d``;
    under (1, -1) the other way round.  Summed in row order in float32, the
    first class adds each ``d`` to a partial sum whose half ulp exceeds it and
    loses all of them; the second sums them first and keeps them.  A 2^-30
    nudge, invisible to float32, makes the first class the exact maximizer.
    """
    a, b = (1 + d) / 2, (1 - d) / 2
    M = np.vstack((np.tile([a, b], (n, 1)), np.tile([a, -b], (n, 1))))
    M[0, 1] += 2.0**-30
    return M


def test_exhaustive_tall_residuals():
    # The screen's rounding grows with the number of points, and so must its
    # window: on residuals of about 3000 x 12 (Poisson tables, one deflation
    # of each, thirds of small integers, and a matrix built so float32 sums
    # of the two best classes would part by 128 * 2^-23 * sum|M|) u must
    # still be the brute-force first maximizer.
    rng = np.random.default_rng(3000)
    residuals = [summation_order_residual()]
    for seed in range(3):
        D = poisson_model((3000, 12), seed).D
        step = tsvd_step_exhaustive(D)
        residuals.extend((D, D - np.outer(D @ step.u, step.v @ D) / step.delta))
    for _ in range(2):
        residuals.append(rng.integers(-2, 3, size=(3000, 12)) / 3)
    residuals.append(residuals[-1].T)  # the wide orientation enumerates R.T
    for R in residuals:
        np.testing.assert_array_equal(tsvd_step_exhaustive(R).u, brute_step_u(R))


def test_exhaustive_screen_overflow_light_columns():
    # Three heavy columns and 17 light ones, all along one row vector at
    # 1e-7 of the heavy entries: the integer screen ties all 2^17 settings
    # of the light signs, more classes than the cap.  They must be told
    # apart in float64, not cut to the first in code order, because the
    # maximizer sets every light sign alike and so may come last.
    for seed in range(2):
        rng = np.random.default_rng(seed)
        M = np.empty((50, 20))
        M[:, :3] = rng.standard_normal((50, 3))
        M[:, 3:] = 1e-7 * np.outer(rng.standard_normal(50), rng.uniform(0.5, 1.5, 17))
        np.testing.assert_array_equal(tsvd_step_exhaustive(M).u, brute_step_u(M))


@pytest.mark.parametrize("total", [32716, 32766])
def test_exhaustive_integer_screen_at_its_overflow_bound(total):
    # A sign-separable 50 x 12 matrix, M[i, j] = K[i, j] s_i t_j with K > 0,
    # whose best class x = t scores exactly sum|M|.  Each row's end entries
    # are an odd integer plus a half and its others even integers, so under
    # x = t both halves of every row, P and Q, sit at an odd integer plus a
    # half, wherever the split falls, and each rounds away from zero.  At
    # sum|M| = 32716 = 32766 - 50 the step is 1 and the best class's integer
    # score is 32766, the most a chunk of 50 points may sum to; at half the
    # step it would pass 2^15 - 1.  At sum|M| = 32766 the step must be 2:
    # at 1, the 50 points' rounding would pass it too.
    rng = np.random.default_rng(total)
    n, m = 50, 12
    K = 2.0 * rng.integers(1, 30, size=(n, m))
    K[:, [0, -1]] = 2 * rng.integers(0, 30, size=(n, 2)) + 1.5
    K[0, 1] += total - K.sum()
    s = rng.choice([-1.0, 1.0], n)
    t = rng.choice([-1.0, 1.0], m)
    t[0] = 1.0
    M = K * np.outer(s, t)
    assert np.abs(M).sum() == total
    for high in range(m - 1):  # P = M[:, :high + 1] t[:high + 1]
        P, Q = M[:, : high + 1] @ t[: high + 1], M[:, high + 1 :] @ t[high + 1 :]
        assert np.abs(np.rint(P) + np.rint(Q)).sum() == total + n
    for R in (M, M.T, M / 3):  # M / 3: entries off the grid of steps
        np.testing.assert_array_equal(tsvd_step_exhaustive(R).u, brute_step_u(R))
    np.testing.assert_array_equal(tsvd_step_exhaustive(M).u, t)


def test_exhaustive_residuals_over_many_point_chunks():
    # 20000 x 4 and 5000 x 12 residuals sum their points in hundreds of
    # int16 chunks, added in int32; the window grows with the points.
    residuals = []
    for shape, seed in (((20000, 4), 0), ((5000, 12), 1), ((5000, 12), 2)):
        counts = np.random.default_rng(seed).poisson(5.0, size=shape).astype(float)
        D = build_model(table_from_counts(counts)).D
        step = tsvd_step_exhaustive(D)
        residuals.extend((D, D - np.outer(D @ step.u, step.v @ D) / step.delta))
    residuals.append(np.random.default_rng(5000).integers(-2, 3, size=(5000, 12)) / 3)
    residuals.append(residuals[-1].T)
    for R in residuals:
        np.testing.assert_array_equal(tsvd_step_exhaustive(R).u, brute_step_u(R))


def test_exhaustive_mass_in_one_row():
    # One row holds most of sum|M|, so one chunk's share sets the step and
    # the points of every other chunk round to a few steps or none.
    for seed, (n, m) in enumerate(((3000, 10), (600, 14), (40, 12))):
        D = poisson_model((n, m), seed).D.copy()
        D[seed % n] *= 1e4
        step = tsvd_step_exhaustive(D)
        for R in (D, D - np.outer(D @ step.u, step.v @ D) / step.delta):
            np.testing.assert_array_equal(tsvd_step_exhaustive(R).u, brute_step_u(R))


@pytest.mark.parametrize("step", [tsvd_step_exhaustive, tsvd_step_iterative])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_rejects_non_finite_residual(step, bad):
    # Refused before any work, with no warning on the way.
    R = np.random.default_rng(9).normal(size=(6, 5))
    R[2, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="residual must be finite"):
            step(R)


def screened(monkeypatch):
    """Split the screen's classes into two low bits and blocks of at most 40
    elements, and return a thread-local record whose ``candidates`` list
    gets the candidate codes that each exhaustive step on that thread hands
    its exact pass."""
    monkeypatch.setattr(catax.tca, "_LOW_BITS", 2)
    monkeypatch.setattr(catax.tca, "_BLOCK_ELEMENTS", 40)
    record = threading.local()
    exact_pass = catax.tca._exact_pass

    def spy(M, codes, total):
        record.candidates.append(codes.copy())
        return exact_pass(M, codes, total)

    monkeypatch.setattr(catax.tca, "_exact_pass", spy)
    return record


def check_screened_step(R, record, workers=1):
    """The step's u against brute force, and the classes it hands the exact
    pass against the integer screen's window, the oracle's brute force, on
    each of ``workers`` threads screening ``R`` at once."""
    M = R if R.shape[1] <= R.shape[0] else R.T
    (n, m), rtol = M.shape, catax.tca._SHORTLIST_RTOL
    assert 40 // n >= 4  # so the screen splits off min(m - 1, 2) low bits
    scores, _, _, S = integer_screen(M, min(m - 1, 2))
    window = np.flatnonzero(scores >= scores.max() - screen_window(n, m, S, rtol))
    expected = brute_step_u(R)

    def check():
        record.candidates = []
        np.testing.assert_array_equal(tsvd_step_exhaustive(R).u, expected)
        np.testing.assert_array_equal(record.candidates[0], window)

    at_once(workers, check)


# A 9 x 6 table whose lexicographically first maximizer lies in the high code
# with the lowest bound, sum_i |P_ia| = 5120 steps, when the screen splits it
# into 8 high codes of two low bits (bounds 5120 to 9728 steps): the last
# high code the screen reaches.
LOWEST_BOUND_MAXIMIZER = np.array(
    [
        [2, 3, 2, 0, 3, 3],
        [1, 0, -3, 1, 2, 2],
        [-3, 1, 2, 2, 1, 2],
        [-1, -2, -2, 0, 3, 3],
        [0, -3, 3, 2, -1, -2],
        [-2, 2, 0, -1, 3, 0],
        [0, 3, 2, 1, 1, 2],
        [3, 0, -2, 2, 2, 1],
        [-3, -3, -3, -2, 0, 2],
    ],
    dtype=float,
)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rtol", [None, 1.0], ids=["default-rtol", "every-class"])
def test_exhaustive_prune_reaches_lowest_bound(monkeypatch, workers, rtol):
    # The screen takes the high codes by descending bound and skips the low
    # codes whose bound falls short of the window; the maximizer's high code
    # comes last and must still be scored against its low code.  At 40
    # elements a block holds one high code.  With _SHORTLIST_RTOL = 1 every
    # class is a candidate and none can be pruned.  Each of ``workers``
    # threads screening the same residual at once hands on the same classes.
    M = LOWEST_BOUND_MAXIMIZER
    _, bounds, _, _ = integer_screen(M, 2)
    bounds = bounds[::4]  # one per high code
    first = np.flatnonzero((shifted_signs(np.arange(32), 6) == brute_argmax(M)).all(axis=1))[0]
    assert bounds[first >> 2] < np.delete(bounds, first >> 2).min()
    record = screened(monkeypatch)
    if rtol is not None:
        monkeypatch.setattr(catax.tca, "_SHORTLIST_RTOL", rtol)
    for R in (M, M.T, M / 3):
        check_screened_step(R, record, workers)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("window", ["edge", "every-class"])
def test_exhaustive_prune_keeps_window_edge(monkeypatch, workers, window):
    # Tie-heavy matrices and their thirds, whose tied classes the screen
    # rounds apart.  With the window widened to end exactly on the score of
    # a class 2n steps or more below the best, that class and every one
    # above it must reach the exact pass, and no other; with
    # _SHORTLIST_RTOL = 1 every class does, and none can be pruned, on each
    # of ``workers`` threads screening the same matrix at once.
    record = screened(monkeypatch)
    edges = 0
    for R in tie_heavy_matrices(np.random.default_rng(29), 40):
        M = R if R.shape[1] <= R.shape[0] else R.T
        (n, m), rtol = M.shape, 1.0
        if window == "edge":
            scores, _, _, S = integer_screen(M, min(m - 1, 2))
            below = scores[scores < scores.max() - 2 * n]
            if below.size == 0:
                continue
            width = scores.max() - below.max()
            rtol = (width - 2 * n - 0.5) / S - (n + 2 * m) * 2.0**-51
            assert screen_window(n, m, S, rtol) == width
            edges += 1
        monkeypatch.setattr(catax.tca, "_SHORTLIST_RTOL", rtol)
        check_screened_step(R, record, workers)
    assert window != "edge" or edges >= 20


def test_exhaustive_prune_engages(monkeypatch):
    # On 50 x 20 Poisson tables the bound leaves the first axis's screen
    # well under 60% of the 2^19 classes to score.
    screen_block = catax.tca._screen_block
    scored = []

    def spy(P, Q, chunk, buf, sums, out):
        scored.append(out.size)
        screen_block(P, Q, chunk, buf, sums, out)

    monkeypatch.setattr(catax.tca, "_screen_block", spy)
    for seed in range(3):
        scored.clear()
        tsvd_step_exhaustive(enum_model(seed).D)
        assert sum(scored) < 0.6 * (1 << 19)


def test_iterative_diag():
    step = tsvd_step_iterative(np.array([[0.25, -0.25], [-0.25, 0.25]]), restarts=2, seed=0)
    assert step.delta == pytest.approx(1.0, abs=1e-12)
    assert not step.certified


def test_iterative_never_exceeds_exhaustive(models30):
    hits = 0
    for model in models30:
        exact = tsvd_step_exhaustive(model.D).delta
        heuristic = tsvd_step_iterative(model.D, restarts=10, seed=1).delta
        assert heuristic <= exact + 1e-12
        hits += abs(heuristic - exact) <= 1e-10
        check_step_fixed_point(model.D, tsvd_step_iterative(model.D, restarts=10, seed=1))
    assert hits >= 27  # the heuristic should rarely miss on tiny tables


def test_iterative_zero_residual():
    assert tsvd_step_iterative(np.zeros((3, 4)), restarts=1, seed=0).delta == 0.0


def test_iterative_restarts_validated():
    with pytest.raises(ValueError):
        tsvd_step_iterative(np.ones((3, 3)), restarts=0)


def test_iterative_deterministic():
    R = random_models(1, seed=42)[0].D
    a = tsvd_step_iterative(R, restarts=5, seed=7)
    b = tsvd_step_iterative(R, restarts=5, seed=7)
    np.testing.assert_array_equal(a.u, b.u)
    assert a.delta == b.delta


def poisson_model(shape, seed):
    counts = np.random.default_rng(seed).poisson(2.0, size=shape).astype(float)
    return build_model(table_from_counts(counts))


def deflations(R, steps):
    """The residuals of the first ``steps`` iterative axes, ``R`` first.

    Deflation follows tca_decompose and stops, as it does, before an
    exhausted residual, whose step it discards.
    """
    residuals = []
    for _ in range(steps):
        step = tsvd_step_iterative(R, restarts=20, seed=0)
        if step.delta < 1e-12:
            break
        residuals.append(R)
        R = R - np.outer(R @ step.u, step.v @ R) / step.delta
    return residuals


@pytest.mark.parametrize("shape", [(60, 300), (300, 60)])
def test_start_signs_match_svd(shape):
    compared = 0
    for R in deflations(poisson_model(shape, seed=5).D, 4):
        q = min(10, *R.shape)
        s = np.linalg.svd(R, compute_uv=False)
        starts = catax.tca._start_signs(R, catax.tca._gram(R), q)
        assert len(starts) == q
        for i, (ours, ref) in enumerate(zip(starts, svd_start_signs(R, q))):
            # a vector is defined up to a flip only when its singular value
            # clears the rank floor and is apart from its neighbours
            gap = min(s[i - 1] - s[i] if i else np.inf, s[i] - s[i + 1])
            if s[i] > 1e-12 * s[0] and gap > 1e-6 * s[0]:
                assert np.array_equal(ours, ref) or np.array_equal(ours, -ref)
                compared += 1
    assert compared >= 35


def deflated_grams(R, steps):
    """``(R_t, G_t)`` over the first ``steps`` iterative axes: the residuals
    of `deflations` and the start Gram that tca_decompose keeps for each,
    formed once from ``R`` and then deflated by the rank-two update."""
    G = catax.tca._gram(R)
    pairs = []
    for _ in range(steps):
        step = tsvd_step_iterative(R, restarts=20, seed=0)
        if step.delta < 1e-12:
            break
        pairs.append((R, G.copy()))
        a, b = R @ step.u, step.v @ R
        catax.tca._deflate_gram(G, R, a, b, step.delta)
        R = R - np.outer(a, b) / step.delta
    return pairs


# Bound on the updated Gram's distance from a product formed afresh, in units
# of steps * 2^-53 * trace(G_0): each update rounds every entry a few times on
# terms up to the trace it was formed with, and the fresh product adds its
# own rounding.  The largest ratio seen over 100 seeded Poisson residuals of
# five shapes (60 x 300 to 30 x 2000), 8 steps each, was 1.2.
GRAM_UPDATE_C = 8


@pytest.mark.parametrize("shape", [(60, 300), (300, 60)])
def test_deflated_gram_matches_formed(shape):
    pairs = deflated_grams(poisson_model(shape, seed=5).D, 5)
    assert len(pairs) == 5  # four deflations
    trace0 = np.trace(pairs[0][1])
    for steps, (R, G) in enumerate(pairs):
        assert G.shape == (min(shape),) * 2
        np.testing.assert_array_equal(G, G.T)  # exactly symmetric
        bound = GRAM_UPDATE_C * steps * 2.0**-53 * trace0
        assert np.abs(G - catax.tca._gram(R)).max() <= bound


@pytest.mark.parametrize("shape", [(60, 300), (300, 60)])
def test_start_signs_from_deflated_gram_match_svd(shape):
    compared = 0
    for R, G in deflated_grams(poisson_model(shape, seed=5).D, 5)[1:]:
        q = min(10, *R.shape)
        s = np.linalg.svd(R, compute_uv=False)
        starts = catax.tca._start_signs(R, G, q)
        assert len(starts) == q
        for i, (ours, ref) in enumerate(zip(starts, svd_start_signs(R, q))):
            # the gap rule of test_start_signs_match_svd
            gap = min(s[i - 1] - s[i] if i else np.inf, s[i] - s[i + 1])
            if s[i] > 1e-12 * s[0] and gap > 1e-6 * s[0]:
                assert np.array_equal(ours, ref) or np.array_equal(ours, -ref)
                compared += 1
    assert compared >= 35


def gram_formations(monkeypatch):
    """The trace of each start Gram that `_gram` forms, in order."""
    traces, gram = [], catax.tca._gram
    monkeypatch.setattr(catax.tca, "_gram", lambda R: traces.append(np.sum(R * R)) or gram(R))
    return traces


def test_one_gram_per_decomposition(monkeypatch):
    counts = np.random.default_rng(6).poisson(0.3, size=(200, 3000)).astype(float)
    counts[:, 0] += 1  # no empty row
    counts[0] += 1  # no empty column
    model = build_model(table_from_counts(counts))
    traces = gram_formations(monkeypatch)
    tca_decompose(model, k=4, strategy="iterative")
    assert len(traces) == 1


def test_gram_formed_again_below_trace_ratio(monkeypatch):
    # One strong block: the first axis removes most of the trace, the next
    # ones little of what is left.
    counts = np.random.default_rng(6).poisson(0.3, size=(200, 3000)).astype(float)
    counts[:100, :1500] += 2.0
    model = build_model(table_from_counts(counts))
    traces = gram_formations(monkeypatch)
    tca_decompose(model, k=4, strategy="iterative")
    assert len(traces) == 2
    assert traces[1] < catax.tca._REFORM_TRACE * traces[0]


def test_deflated_gram_decomposition_same_as_formed_every_axis(monkeypatch):
    counts = np.random.default_rng(7).poisson(1.0, size=(80, 600)).astype(float)
    model = build_model(table_from_counts(counts))
    traces = gram_formations(monkeypatch)
    dec = tca_decompose(model, k=12, strategy="iterative")
    formed = len(traces)
    assert formed < 12  # the update ran
    monkeypatch.setattr(catax.tca, "_REFORM_TRACE", np.inf)  # form on every axis
    ref = tca_decompose(model, k=12, strategy="iterative")
    assert len(traces) - formed == dec.k == ref.k == 12
    for got, want in ((dec.deltas, ref.deltas), (dec.row_scores, ref.row_scores),
                      (dec.col_scores, ref.col_scores)):
        assert got.tobytes() == want.tobytes()
    for got, want in zip(dec.sign_vectors, ref.sign_vectors):
        for x, y in zip(got, want):
            np.testing.assert_array_equal(x, y)


def test_iterative_step_same_as_svd_started(models30, monkeypatch):
    residuals = [poisson_model((12, 40), seed=8).D, poisson_model((40, 12), seed=9).D]
    for model in models30:
        residuals.extend(deflations(model.D, min(model.shape)))
    for R in residuals:
        step = tsvd_step_iterative(R, restarts=20, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(catax.tca, "_start_signs", lambda R, G, q: svd_start_signs(R, q))
            ref = tsvd_step_iterative(R, restarts=20, seed=3)
        np.testing.assert_array_equal(step.u, ref.u)
        np.testing.assert_array_equal(step.v, ref.v)
        assert step.delta == ref.delta


@pytest.mark.parametrize("shape", [(30, 200), (200, 30)])
def test_iterative_step_one_small_eigh(shape, linalg_calls):
    # one eigh of the smaller Gram matrix per step, never a full SVD
    R = poisson_model(shape, seed=2).D
    tsvd_step_iterative(R)
    assert linalg_calls == [("eigh", (30, 30))]


def test_iterative_v_is_sign_of_product_after_flip(monkeypatch):
    # At the maximizer u = (1, 1), (R @ u)[2] is exactly 0.  Criss-cross from
    # (-1, -1) stays at the mirrored fixed point, which is then flipped, and
    # v must still read sign(0) = +1 there.
    R = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    monkeypatch.setattr(catax.tca, "_start_signs", lambda R, G, q: [np.array([-1.0, -1.0])])
    step = tsvd_step_iterative(R, restarts=1, seed=0)
    assert step.delta == 4.0
    np.testing.assert_array_equal(step.u, [1.0, 1.0])
    assert np.array_equal(step.v, catax.tca._sign(R @ step.u))


# From its 32 starts, criss-cross on this residual meets exact zeros in R @ u
# on 24 paths; 25 paths rise before they stop, 18 reach a fixed point and 14
# stop on a plateau.
TIE_RESIDUAL = np.array(
    [[0, -2, -2, -2, -2], [1, 0, 1, -1, 1], [1, -1, 0, 2, 2], [2, -1, 1, 2, 1]], dtype=float
)


def integer_residuals():
    """Residuals whose products with sign vectors are exact in any order."""
    residuals = [TIE_RESIDUAL]
    residuals.extend(exact_residual(counts).astype(float) for counts in random_counts(10))
    residuals.extend(tie_heavy_matrices(np.random.default_rng(11), 10)[::2])  # not thirds
    return residuals


def sign_starts(J, count, seed):
    """Every sign vector of length ``J`` if there are at most ``count``,
    else ``count`` seeded random ones; one per column."""
    if 2**J <= count:
        return np.array(list(itertools.product((-1.0, 1.0), repeat=J))).T
    return np.random.default_rng(seed).integers(0, 2, size=(J, count)) * 2.0 - 1.0


def batched_fixed_points(R, U0):
    U = U0.copy()
    tol = catax.tca._SHORTLIST_RTOL * np.abs(R).sum()
    obj = catax.tca._criss_cross(R, U, tol)
    return U, obj


def assert_matches_oracle(R, U0, exact):
    U, obj = batched_fixed_points(R, U0)
    for i in range(U0.shape[1]):
        u, v, delta = criss_cross(R, U0[:, i])
        np.testing.assert_array_equal(U[:, i], u)
        Ru = R @ U[:, i]  # the step's re-score expression
        np.testing.assert_array_equal(catax.tca._sign(Ru), v)
        assert float(np.abs(Ru).sum()) == delta
        if exact:
            assert obj[i] == delta
        else:
            assert obj[i] == pytest.approx(delta, rel=1e-12)
    return U


def test_batched_criss_cross_matches_oracle_on_integer_residuals():
    # Small integers make every product exact, so the batched ascent must take
    # each start through the same sign ties and plateaus as the one-start
    # loop, and a start's fixed point must not depend on the rest of its batch.
    for R in integer_residuals():
        U0 = sign_starts(R.shape[1], 64, seed=R.size)
        U = assert_matches_oracle(R, U0, exact=True)
        for i in range(U0.shape[1]):
            alone, _ = batched_fixed_points(R, U0[:, [i]])
            np.testing.assert_array_equal(alone[:, 0], U[:, i])
        reversed_batch, _ = batched_fixed_points(R, U0[:, ::-1])
        np.testing.assert_array_equal(reversed_batch, U[:, ::-1])


@pytest.mark.parametrize("shape", [(60, 300), (300, 60)])
def test_batched_criss_cross_matches_oracle_on_gaussian_residuals(shape):
    R = np.random.default_rng(sum(shape)).normal(size=shape)
    U0 = np.hstack((catax.tca._start_signs(R, catax.tca._gram(R), 10).T, sign_starts(shape[1], 20, seed=1)))
    assert_matches_oracle(R, U0, exact=False)


def shortlist_residuals():
    rng = np.random.default_rng(4)
    residuals = [rng.normal(size=(60, 300)), rng.normal(size=(300, 60))]
    residuals.append(poisson_model((25, 120), seed=5).D)
    residuals.extend(integer_residuals())
    # thirds of larger tie-heavy matrices: tied fixed points whose batched
    # objectives and re-scored values round differently
    for _ in range(120):
        residuals.append(rng.integers(-1, 2, size=rng.integers(21, 60, size=2)) / 3)
    return residuals


def test_iterative_shortlist_keeps_best(monkeypatch):
    # Re-scoring every fixed point, not only those the batched objectives put
    # within the window, must pick the same u, v and delta.
    residuals = shortlist_residuals()
    steps = [tsvd_step_iterative(R, restarts=20, seed=3) for R in residuals]
    monkeypatch.setattr(catax.tca, "_SHORTLIST_RTOL", 1.0)
    for R, step in zip(residuals, steps):
        every = tsvd_step_iterative(R, restarts=20, seed=3)
        np.testing.assert_array_equal(every.u, step.u)
        np.testing.assert_array_equal(every.v, step.v)
        assert every.delta == step.delta


def test_iterative_shortlist_cap(monkeypatch):
    # Past the cap the finalists are the first distinct fixed point in
    # lexicographic order plus the batched argmax.  Every product is exact on
    # these residuals, so with every fixed point in the window and a cap of
    # one the step must not change.
    residuals = integer_residuals()
    steps = [tsvd_step_iterative(R, restarts=20, seed=3) for R in residuals]
    monkeypatch.setattr(catax.tca, "_SHORTLIST_CAP", 1)
    monkeypatch.setattr(catax.tca, "_SHORTLIST_RTOL", 1.0)
    for R, step in zip(residuals, steps):
        capped = tsvd_step_iterative(R, restarts=20, seed=3)
        np.testing.assert_array_equal(capped.u, step.u)
        np.testing.assert_array_equal(capped.v, step.v)
        assert capped.delta == step.delta


def test_iterative_first_maximizer_over_fixed_points(monkeypatch):
    # The step is the lexicographically first maximizer of ||R u||_1 over the
    # distinct fixed points criss-cross reaches, so reversing the order of
    # the starts changes nothing.  Every product is exact on these residuals.
    batched, start_signs = catax.tca._criss_cross, catax.tca._start_signs
    reached = []

    def recording(R, U, tol):
        obj = batched(R, U, tol)
        reached.append(U.T.copy())
        return obj

    monkeypatch.setattr(catax.tca, "_criss_cross", recording)
    for R in integer_residuals():
        step = tsvd_step_iterative(R, restarts=20, seed=5)
        scores = {tuple(u): float(np.abs(R @ u).sum()) for u in reached[-1]}
        best = max(scores.values())
        expected = min(u for u, score in scores.items() if score == best)
        np.testing.assert_array_equal(step.u, expected)
        np.testing.assert_array_equal(step.v, catax.tca._sign(R @ step.u))
        assert step.delta == best
        with monkeypatch.context() as patch:
            patch.setattr(catax.tca, "_start_signs", lambda *a: start_signs(*a)[::-1])
            reordered = tsvd_step_iterative(R, restarts=20, seed=5)
        np.testing.assert_array_equal(reordered.u, step.u)
        np.testing.assert_array_equal(reordered.v, step.v)
        assert reordered.delta == step.delta


def test_iterative_scale_invariant():
    # Power-of-two scaling is exact, and the decrease check and the shortlist
    # window are relative to sum|R|: same u and v, delta scaled exactly.
    for R in shortlist_residuals():
        base = tsvd_step_iterative(R)
        for k in (-40, 10):
            step = tsvd_step_iterative(R * 2.0**k)
            np.testing.assert_array_equal(step.u, base.u)
            np.testing.assert_array_equal(step.v, base.v)
            assert step.delta == base.delta * 2.0**k


def test_decompose_diag():
    dec = tca_decompose(DIAG_MODEL)
    assert dec.k == 1 and dec.rank == 1
    assert dec.deltas[0] == pytest.approx(1.0, abs=1e-12)
    u, v = dec.sign_vectors[0]
    assert abs(u @ [1.0, -1.0]) == 2.0  # (1,-1) up to global sign
    np.testing.assert_allclose(np.abs(dec.row_scores[:, 0]), 1.0, atol=1e-12)


def test_decompose_invariants_random(models30):
    for model in models30:
        dec = tca_decompose(model)
        assert dec.k == dec.rank  # full extraction reaches the rank exactly
        assert np.all(dec.deltas > 0)
        check_tca_invariants(model, dec)


@pytest.mark.parametrize("strategy", ["auto", "exhaustive"])
def test_decompose_runs_each_axis_through_the_exhaustive_step(monkeypatch, models30, strategy):
    # by its module-level name, so a wrapper of the public step sees each axis
    calls, step = [], catax.tca.tsvd_step_exhaustive
    monkeypatch.setattr(
        catax.tca, "tsvd_step_exhaustive", lambda R: calls.append(R.shape) or step(R)
    )
    cases = [(model, "full") for model in models30[:10]] + [(poisson_model((50, 20), 1), 3)]
    for model, k in cases:
        calls.clear()
        dec = tca_decompose(model, k=k, strategy=strategy)
        assert dec.k > 0 and calls == [model.shape] * dec.k


def test_full_rank_l1_reconstruction(models30):
    for model in models30:
        dec = tca_decompose(model)
        for axis in (ROWS, COLS):
            n = len(model.labels(axis))
            for index in range(n):
                raw = taxicab_distance(model, axis, index)
                total = np.abs(dec.scores(axis)[index]).sum()
                assert raw <= total + 1e-10


def test_deflation_exhausts_residual(models30):
    for model in models30[:8]:
        dec = tca_decompose(model)
        R = model.D.copy()
        for a in range(dec.k):
            u, v = dec.sign_vectors[a]
            R = R - np.outer(R @ u, v @ R) / dec.deltas[a]
        np.testing.assert_allclose(R, 0.0, atol=1e-12)


def test_nonmonotone_deltas_regression():
    labels = tuple("abcdef")
    model = build_model(ContingencyTable(labels, tuple("uvwxyz"), NONMONOTONE_COUNTS))
    dec = tca_decompose(model, strategy="exhaustive")
    assert dec.deltas[1] > dec.deltas[0] + 1e-3  # certified, genuinely increasing
    check_tca_invariants(model, dec)
    # both values are true global maxima of their residuals
    assert dec.deltas[0] == pytest.approx(brute_delta1(model.D), abs=1e-12)


def truncation_notices(caplog) -> list:
    return [r.getMessage() for r in caplog.records if r.name == "catax.tca"]


def test_truncation_warns(monkeypatch, caplog):
    model = random_models(1, seed=13)[0]
    monkeypatch.setattr(catax.tca, "_DELTA_FLOOR", 0.5)
    with caplog.at_level(logging.WARNING, logger="catax.tca"):
        dec = tca_decompose(model)
    [notice] = truncation_notices(caplog)
    assert re.search("residual exhausted", notice)
    assert dec.k < dec.rank


def test_truncation_keeps_rank_and_first_axis(models30, monkeypatch, caplog):
    model = models30[1]
    full = tca_decompose(model)
    assert full.deltas[1] < full.deltas[0]
    monkeypatch.setattr(catax.tca, "_DELTA_FLOOR", (full.deltas[0] + full.deltas[1]) / 2)
    with caplog.at_level(logging.WARNING, logger="catax.tca"):
        dec = tca_decompose(model)
    [notice] = truncation_notices(caplog)
    assert re.search("residual exhausted after 1 axes", notice)
    assert dec.k == 1 and dec.rank == full.rank
    assert dec.row_scores.shape == (model.shape[0], 1)
    assert dec.col_scores.shape == (model.shape[1], 1)
    assert dec.deltas[0] == full.deltas[0]
    np.testing.assert_array_equal(dec.row_scores[:, 0], full.row_scores[:, 0])
    np.testing.assert_array_equal(dec.col_scores[:, 0], full.col_scores[:, 0])
    for got, want in zip(dec.sign_vectors[0], full.sign_vectors[0]):
        np.testing.assert_array_equal(got, want)


def test_decompose_errors():
    with pytest.raises(ValueError, match="exceeds numerical rank"):
        tca_decompose(DIAG_MODEL, k=2)
    with pytest.raises(ValueError, match="strategy"):
        tca_decompose(DIAG_MODEL, strategy="magic")


def test_decompose_independence_empty():
    counts = np.outer([4.0, 6.0], [3.0, 5.0, 2.0])
    model = build_model(ContingencyTable(("a", "b"), ("x", "y", "z"), counts))
    dec = tca_decompose(model)
    assert dec.k == 0 and dec.sign_vectors == ()


def test_decompose_deterministic_iterative():
    model = random_models(1, seed=21)[0]
    a = tca_decompose(model, strategy="iterative", restarts=5, seed=3)
    b = tca_decompose(model, strategy="iterative", restarts=5, seed=3)
    np.testing.assert_array_equal(a.deltas, b.deltas)
    np.testing.assert_array_equal(a.row_scores, b.row_scores)


def test_iterative_strategy_close_to_exhaustive():
    for model in random_models(5, seed=17):
        exact = tca_decompose(model, strategy="exhaustive")
        heuristic = tca_decompose(model, strategy="iterative", restarts=20, seed=0)
        # first principal value never exceeds the certified optimum
        assert heuristic.deltas[0] <= exact.deltas[0] + 1e-12


def test_taxicab_distance_matches_loop(models30):
    for model in models30[:10]:
        I, J = model.shape
        for i in range(I):
            assert taxicab_distance(model, ROWS, i) == pytest.approx(
                taxicab_row_loop(model, i), abs=1e-12
            )
        for j in range(J):
            assert taxicab_distance(model, COLS, j) == pytest.approx(
                taxicab_col_loop(model, j), abs=1e-12
            )


def test_taxicab_diag_and_independence():
    assert taxicab_distance(DIAG_MODEL, ROWS, 0) == pytest.approx(1.0, abs=1e-12)
    counts = np.outer([4.0, 6.0], [3.0, 5.0, 2.0])
    model = build_model(ContingencyTable(("a", "b"), ("x", "y", "z"), counts))
    assert taxicab_distance(model, ROWS, 0) == pytest.approx(0.0, abs=1e-15)


def test_total_dispersion(models30):
    for model in models30[:10]:
        T = tca_total_dispersion(model)
        assert T == pytest.approx(dispersion_loop(model), abs=1e-12)
        I, J = model.shape
        row_avg = sum(model.r[i] * taxicab_distance(model, ROWS, i) for i in range(I))
        col_avg = sum(model.c[j] * taxicab_distance(model, COLS, j) for j in range(J))
        assert abs(T - row_avg) < 1e-10
        assert abs(T - col_avg) < 1e-10


def test_total_dispersion_is_the_iterative_first_axis_sum(models30, monkeypatch):
    # Summed over row blocks as the iterative step sums |R|: bit for bit the
    # whole-table sum on one block (every model of models30), and on any
    # table the sum behind the step's finalist window on its first axis.
    windows = []

    def spy(R, U, tol, _real=catax.tca._criss_cross):
        windows.append(tol)
        return _real(R, U, tol)

    monkeypatch.setattr(catax.tca, "_criss_cross", spy)
    counts = np.random.default_rng(0).poisson(0.5, size=(40, 5000)).astype(float)
    counts[:, 0] += 1  # no empty row
    counts[0] += 1  # no empty column
    wide = build_model(table_from_counts(counts))  # two row blocks; sums differ by 1 ulp
    for model in models30[:10] + [wide]:
        T = tca_total_dispersion(model)
        D = model.D
        assert T == block_sum(float(np.abs(D[b]).sum()) for b in _row_blocks(*D.shape))
        if D.size <= 1 << 17:
            assert T == float(np.abs(D).sum())
        assert T == pytest.approx(float(np.abs(D).sum()), rel=1e-14)
        windows.clear()
        tca_decompose(model, k=1, strategy="iterative", restarts=1)
        assert windows == [catax.tca._SHORTLIST_RTOL * T]


def test_iterative_window_does_not_depend_on_the_sum_builtin(monkeypatch):
    # sum() of floats is compensated from Python 3.12 on; the step adds its
    # block totals in order through _sum_row_blocks, as tca_total_dispersion
    # does, on every version
    windows = []

    def spy(R, U, tol, _real=catax.tca._criss_cross):
        windows.append(tol)
        return _real(R, U, tol)

    monkeypatch.setattr(catax.tca, "_criss_cross", spy)
    monkeypatch.setattr(catax.contingency, "sum", compensated_sum, raising=False)
    counts = np.random.default_rng(1).poisson(0.5, size=(200, 3000)).astype(float)
    counts[:, 0] += 1  # no empty row
    counts[0] += 1  # no empty column
    model = build_model(table_from_counts(counts))
    D = model.D
    blocks = [float(np.abs(D[b]).sum()) for b in _row_blocks(*D.shape)]
    assert compensated_sum(blocks) != block_sum(blocks)  # the case that tells them apart
    tca_decompose(model, k=1, strategy="iterative", restarts=1)
    assert windows == [catax.tca._SHORTLIST_RTOL * block_sum(blocks)]
    assert tca_total_dispersion(model) == block_sum(blocks)


@pytest.mark.parametrize("restarts", [0, -5])
@pytest.mark.parametrize("kwargs", [{}, {"strategy": "exhaustive"}, {"k": 0}])
def test_restarts_checked_whatever_the_strategy(restarts, kwargs):
    # no iterative step runs on this table, yet the bad value is not ignored
    model = build_model(table_from_counts([[5, 1, 2], [1, 6, 2], [2, 2, 7]]))
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        tca_decompose(model, restarts=restarts, **kwargs)


def test_embedded_l1_monotone_and_bounded(models30):
    for model in models30[:10]:
        dec = tca_decompose(model)
        for axis in (ROWS, COLS):
            raw0 = taxicab_distance(model, axis, 0)
            values = [embedded_l1_distance(dec, axis, 0, d) for d in range(1, dec.k + 1)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
            assert values[0] <= raw0 + 1e-10  # d=1 contraction


def test_embedded_l1_errors():
    dec = tca_decompose(DIAG_MODEL)
    with pytest.raises(ValueError):
        embedded_l1_distance(dec, ROWS, 0, 2)
    from catax import ca_decompose

    with pytest.raises(ValueError, match="TCA decomposition"):
        embedded_l1_distance(ca_decompose(DIAG_MODEL), ROWS, 0, 1)


def test_sign_convention_and_frozen_arrays(models30):
    dec = tca_decompose(models30[0])
    for a in range(dec.k):
        f = dec.row_scores[:, a]
        assert f[np.argmax(np.abs(f))] > 0
    with pytest.raises(ValueError):
        dec.deltas[0] = 9.9
    u, v = dec.sign_vectors[0]
    with pytest.raises(ValueError):
        u[0] = -1.0


def test_sign_separable_residual_attains_total_dispersion():
    # When the residual's sign pattern is rank-one (sign(D) == outer(v, u)),
    # the first axis absorbs the entire dispersion: delta_1 == sum|D| exactly,
    # at any algebraic rank.  The cumulative-delta crossing then puts both
    # intrinsic-dimension bounds at 1.
    counts = [[6, 8, 8], [10, 2, 9], [0, 6, 3]]
    model = build_model(table_from_counts(counts))
    step = tsvd_step_exhaustive(model.D)
    total = tca_total_dispersion(model)
    assert step.delta == total
    exact = exact_residual(counts)  # exact zeros, unlike model.D
    mask = exact != 0
    assert np.array_equal(np.sign(exact)[mask], np.outer(step.v, step.u)[mask])
    dec = tca_decompose(model)
    assert dec.rank == 2
    assert dec.deltas.sum() > total  # deflation adds dispersion beyond sum|D|
    from catax import intrinsic_dimension_bounds

    bounds = intrinsic_dimension_bounds(dec.deltas, total)
    assert (bounds.lower, bounds.upper) == (1, 1)
    assert not bounds.capped
