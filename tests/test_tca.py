import itertools

import numpy as np
import pytest

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
from conftest import random_counts, random_models, table_from_counts
from oracles import (
    brute_argmax,
    brute_delta1,
    criss_cross,
    dispersion_loop,
    exact_residual,
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
    cases.extend(tie_heavy_matrices(rng, 20))
    return [(R, brute_step_u(R)) for R in cases]


@pytest.mark.parametrize(
    "low_bits, block_elements, max_m",
    [(None, None, 15), (2, 120, 10), (0, 1, 10), (3, 40, 10)],
    ids=["defaults", "small-blocks", "no-low-half", "low-half-capped-by-block"],
)
def test_exhaustive_exact_vector(
    exact_vector_cases, monkeypatch, low_bits, block_elements, max_m
):
    # The certified u is the lexicographically first maximizer, whatever the
    # meet-in-the-middle split and block size: wide and tall tables, 1 to 15
    # signs, deflated residuals and exact ties.
    if low_bits is not None:
        monkeypatch.setattr(catax.tca, "_LOW_BITS", low_bits)
        monkeypatch.setattr(catax.tca, "_BLOCK_ELEMENTS", block_elements)
    for R, expected in exact_vector_cases:
        if min(R.shape) <= max_m:
            np.testing.assert_array_equal(tsvd_step_exhaustive(R).u, expected)


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
        starts = catax.tca._start_signs(R, q)
        assert len(starts) == q
        for i, (ours, ref) in enumerate(zip(starts, svd_start_signs(R, q))):
            # a vector is defined up to a flip only when its singular value
            # clears the rank floor and is apart from its neighbours
            gap = min(s[i - 1] - s[i] if i else np.inf, s[i] - s[i + 1])
            if s[i] > 1e-12 * s[0] and gap > 1e-6 * s[0]:
                assert np.array_equal(ours, ref) or np.array_equal(ours, -ref)
                compared += 1
    assert compared >= 35


def test_iterative_step_same_as_svd_started(models30, monkeypatch):
    residuals = [poisson_model((12, 40), seed=8).D, poisson_model((40, 12), seed=9).D]
    for model in models30:
        residuals.extend(deflations(model.D, min(model.shape)))
    for R in residuals:
        step = tsvd_step_iterative(R, restarts=20, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(catax.tca, "_start_signs", svd_start_signs)
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
    monkeypatch.setattr(catax.tca, "_start_signs", lambda R, q: [np.array([-1.0, -1.0])])
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
    U0 = np.hstack((catax.tca._start_signs(R, 10).T, sign_starts(shape[1], 20, seed=1)))
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


def test_truncation_warns(monkeypatch):
    model = random_models(1, seed=13)[0]
    monkeypatch.setattr(catax.tca, "_DELTA_FLOOR", 0.5)
    with pytest.warns(RuntimeWarning, match="residual exhausted"):
        dec = tca_decompose(model)
    assert dec.k < dec.rank


def test_truncation_keeps_rank_and_first_axis(models30, monkeypatch):
    model = models30[1]
    full = tca_decompose(model)
    assert full.deltas[1] < full.deltas[0]
    monkeypatch.setattr(catax.tca, "_DELTA_FLOOR", (full.deltas[0] + full.deltas[1]) / 2)
    with pytest.warns(RuntimeWarning, match="residual exhausted after 1 axes"):
        dec = tca_decompose(model)
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
