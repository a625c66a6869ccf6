import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catax import (
    COLS,
    ROWS,
    ContingencyTable,
    benzecri_distance,
    build_model,
    ca_decompose,
    ca_total_inertia,
    embedded_sq_distance,
    numerical_rank,
    standardized_residual,
    tca_decompose,
)
from conftest import random_models, table_from_counts
from oracles import benzecri_col_loop, benzecri_row_loop, inertia_loop

DIAG_MODEL = build_model(
    ContingencyTable(("r1", "r2"), ("x", "y"), np.array([[2.0, 0.0], [0.0, 2.0]]))
)


def check_ca_invariants(model, dec, atol=1e-10):
    for axis, weights in ((ROWS, model.r), (COLS, model.c)):
        scores = dec.scores(axis)
        for a in range(dec.k):
            assert abs(np.sum(scores[:, a] * weights)) < atol  # centering
            assert abs(np.sum(scores[:, a] ** 2 * weights) - dec.deltas[a] ** 2) < atol
            for b in range(a):
                assert abs(np.sum(scores[:, a] * scores[:, b] * weights)) < atol


def test_diag_decomposition():
    dec = ca_decompose(DIAG_MODEL)
    assert dec.k == 1 and dec.rank == 1
    assert dec.deltas[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(dec.row_scores[:, 0]), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.abs(dec.col_scores[:, 0]), 1.0, atol=1e-12)


def test_independence_gives_empty_decomposition():
    counts = np.outer([4.0, 6.0], [3.0, 5.0, 2.0])
    model = build_model(ContingencyTable(("a", "b"), ("x", "y", "z"), counts))
    dec = ca_decompose(model)
    assert dec.k == 0 and dec.rank == 0
    assert dec.deltas.shape == (0,)
    assert dec.row_scores.shape == (2, 0)


def test_k_exceeds_rank():
    with pytest.raises(ValueError, match="exceeds numerical rank"):
        ca_decompose(DIAG_MODEL, k=2)


def test_independence_rejects_positive_k():
    counts = np.outer([4.0, 6.0], [3.0, 5.0, 2.0])
    model = build_model(ContingencyTable(("a", "b"), ("x", "y", "z"), counts))
    for decompose in (ca_decompose, tca_decompose):
        with pytest.raises(ValueError, match="exceeds numerical rank"):
            decompose(model, k=1)


def test_zero_axes_keep_rank(models30):
    # models30[2] is wide (5x8), so both orientations of the CA solution run
    for model in (models30[0], models30[2]):
        rank = numerical_rank(model)
        assert rank >= 2
        I, J = model.shape
        ca, tca = ca_decompose(model, k=0), tca_decompose(model, k=0)
        for dec in (ca, tca):
            assert dec.k == 0 and dec.rank == rank
            assert dec.row_scores.shape == (I, 0)
            assert dec.col_scores.shape == (J, 0)
        assert tca.sign_vectors == ()


def test_partial_k():
    model = random_models(1, seed=5)[0]
    dec = ca_decompose(model, k=2)
    full = ca_decompose(model)
    assert dec.k == 2
    np.testing.assert_allclose(dec.deltas, full.deltas[:2])


def test_invariants_on_random_tables(models30):
    for model in models30:
        check_ca_invariants(model, ca_decompose(model))


def test_parseval(models30):
    for model in models30:
        dec = ca_decompose(model)
        assert abs(np.sum(dec.deltas**2) - ca_total_inertia(model)) < 1e-10


def test_reconstruction_full_rank(models30):
    for model in models30:
        dec = ca_decompose(model)
        recon = (dec.row_scores / dec.deltas) @ dec.col_scores.T
        np.testing.assert_allclose(recon, model.delta_index, atol=1e-8)


def test_rank_bound(models30):
    for model in models30:
        I, J = model.shape
        assert numerical_rank(model) <= min(I - 1, J - 1)


def near_independent_counts():
    # An exact outer product of ~1e9-sized cells plus Poisson(1) noise.
    rng = np.random.default_rng(1)
    a = rng.integers(5, 40, size=40).astype(float)
    b = rng.integers(5, 40, size=18).astype(float)
    return np.outer(a, b) * 1e6 + rng.poisson(1.0, (40, 18))


def test_rank_clamped_on_near_independent_table():
    # The 18th singular value is rounding (about 1e-7 of the first) yet
    # clears the relative threshold; D is doubly centered, so the rank is 17.
    model = build_model(table_from_counts(near_independent_counts()))
    s = model.singular_values
    assert np.count_nonzero(s > 1e-12 * s[0]) == 18
    assert numerical_rank(model) == 17
    assert ca_decompose(model).k == 17


def poisson_counts(shape, seed):
    return np.random.default_rng(seed).poisson(2.0, size=shape).astype(float)


def assert_equal_up_to_sign(ours, ref, tol):
    scale = np.abs(ref).max()
    assert min(np.abs(ours - ref).max(), np.abs(ours + ref).max()) <= tol * scale


@pytest.mark.parametrize(
    "counts",
    [
        poisson_counts((80, 30), seed=3),
        poisson_counts((30, 80), seed=4),
        poisson_counts((40, 40), seed=5),
        near_independent_counts(),
    ],
    ids=["tall", "wide", "square", "near_independent"],
)
def test_factorization_matches_full_svd(counts):
    model = build_model(table_from_counts(counts))
    U, ref, Vt = np.linalg.svd(standardized_residual(model), full_matrices=False)
    s, B = model._short_svd
    assert s.shape == ref.shape and B.shape == (ref.size, ref.size)
    assert np.abs(s - ref).max() <= 1e-14 * ref[0]

    # A singular vector is defined up to a flip only where its value is apart
    # from its neighbours; its error then scales as rounding over the gap.
    dec = ca_decompose(model)
    short_ref = U if model.shape[0] < model.shape[1] else Vt.T
    row_ref = ref * U / np.sqrt(model.r)[:, None]
    col_ref = ref * Vt.T / np.sqrt(model.c)[:, None]
    gaps = np.minimum(np.append(np.inf, -np.diff(ref)), np.append(-np.diff(ref), ref[-1]))
    compared = 0
    for i in range(dec.k):
        gap = gaps[i] / ref[0]
        if gap >= 1e-6:
            assert_equal_up_to_sign(B[:, i], short_ref[:, i], 1e-14 / gap)
            assert_equal_up_to_sign(dec.row_scores[:, i], row_ref[:, i], 1e-14 / gap)
            assert_equal_up_to_sign(dec.col_scores[:, i], col_ref[:, i], 1e-14 / gap)
            compared += 1
    assert compared == dec.k


@pytest.mark.parametrize("shape", [(30, 80), (80, 30)])
def test_one_factorization_per_model(shape, linalg_calls):
    # one QR of the long orientation of S and one SVD of its square factor,
    # made by the first rank query; CA then factorizes nothing
    model = build_model(table_from_counts(poisson_counts(shape, seed=6)))
    numerical_rank(model)
    assert linalg_calls == [("qr", (80, 30)), ("svd", (30, 30))]
    ca_decompose(model)
    ca_decompose(model, k=2)
    numerical_rank(model)
    assert len(linalg_calls) == 2


def test_benzecri_matches_loop_oracle(models30):
    for model in models30[:10]:
        I, J = model.shape
        for i in range(I):
            assert benzecri_distance(model, ROWS, i) == pytest.approx(
                benzecri_row_loop(model, i), abs=1e-12
            )
        for j in range(J):
            assert benzecri_distance(model, COLS, j) == pytest.approx(
                benzecri_col_loop(model, j), abs=1e-12
            )


def test_benzecri_diag_and_independence():
    assert benzecri_distance(DIAG_MODEL, ROWS, 0) == pytest.approx(1.0, abs=1e-12)
    counts = np.outer([4.0, 6.0], [3.0, 5.0, 2.0])
    model = build_model(ContingencyTable(("a", "b"), ("x", "y", "z"), counts))
    assert benzecri_distance(model, ROWS, 1) == pytest.approx(0.0, abs=1e-15)


def test_total_inertia_equals_weighted_distances(models30):
    for model in models30[:10]:
        inertia = ca_total_inertia(model)
        assert inertia == pytest.approx(inertia_loop(model), abs=1e-12)
        I, J = model.shape
        row_avg = sum(model.r[i] * benzecri_distance(model, ROWS, i) for i in range(I))
        col_avg = sum(model.c[j] * benzecri_distance(model, COLS, j) for j in range(J))
        assert abs(inertia - row_avg) < 1e-10
        assert abs(inertia - col_avg) < 1e-10


def test_embedded_contraction_below_rank(models30):
    for model in models30:
        dec = ca_decompose(model)
        for axis in (ROWS, COLS):
            n = len(model.labels(axis))
            for index in range(n):
                raw = benzecri_distance(model, axis, index)
                for d in range(1, dec.rank):
                    assert embedded_sq_distance(dec, axis, index, d) <= raw + 1e-10


def test_embedded_full_rank_is_isometry(models30):
    for model in models30:
        dec = ca_decompose(model)
        for axis in (ROWS, COLS):
            for index in range(len(model.labels(axis))):
                raw = benzecri_distance(model, axis, index)
                assert embedded_sq_distance(dec, axis, index, dec.k) == pytest.approx(
                    raw, abs=1e-8
                )


def test_embedded_monotone_in_d():
    model = random_models(1, seed=11)[0]
    dec = ca_decompose(model)
    values = [embedded_sq_distance(dec, ROWS, 0, d) for d in range(1, dec.k + 1)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_embedded_errors():
    dec = ca_decompose(DIAG_MODEL)
    with pytest.raises(ValueError):
        embedded_sq_distance(dec, ROWS, 0, 0)
    with pytest.raises(ValueError):
        embedded_sq_distance(dec, ROWS, 0, 2)
    tca = tca_decompose(DIAG_MODEL)
    with pytest.raises(ValueError, match="CA decomposition"):
        embedded_sq_distance(tca, ROWS, 0, 1)


def test_sign_convention_largest_score_positive(models30):
    for model in models30[:10]:
        dec = ca_decompose(model)
        for a in range(dec.k):
            f = dec.row_scores[:, a]
            assert f[np.argmax(np.abs(f))] > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_invariants_hypothesis(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 11, size=(4, 5)).astype(float)
    counts[counts.sum(axis=1) == 0, 0] = 1
    counts[0, counts.sum(axis=0) == 0] = 1
    model = build_model(table_from_counts(counts))
    check_ca_invariants(model, ca_decompose(model))
