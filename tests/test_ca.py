import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catax.contingency
from catax import (
    COLS,
    ROWS,
    ContingencyTable,
    FactorDecomposition,
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


def test_negative_k_rejected():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        ca_decompose(DIAG_MODEL, k=-1)


# the fields of a valid two-axis CA decomposition of a 3 x 3 table
DECOMPOSITION_FIELDS = dict(
    method="CA",
    deltas=[0.5, 0.25],
    row_scores=np.zeros((3, 2)),
    col_scores=np.zeros((3, 2)),
    rank=2,
    row_labels=("a", "b", "c"),
    col_labels=("x", "y", "z"),
)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"method": "PCA"}, "method must be"),
        ({"deltas": [[0.5, 0.25]]}, "1-d vector"),
        ({"deltas": [0.5, 0.0]}, "positive values"),
        ({"deltas": [0.5, np.nan]}, "positive values"),
        ({"deltas": [np.inf, 0.25]}, "positive values"),
        ({"rank": 1}, "exceeds numerical rank"),
        ({"deltas": [0.25, 0.5]}, "non-increasing"),
        ({"row_scores": np.zeros((3, 1))}, "one column per axis"),
        ({"col_scores": np.zeros((3, 3))}, "one column per axis"),
        ({"row_labels": ("a", "b")}, "one row label"),
        ({"col_labels": ("x", "y", "z", "w")}, "one column label"),
        ({"sign_vectors": ()}, "exactly when method is TCA"),
        ({"method": "TCA"}, "exactly when method is TCA"),
        ({"method": "TCA", "sign_vectors": ((np.ones(3), np.ones(3)),)}, "one \\(u, v\\) pair"),
    ],
    ids=[
        "method", "2-d-deltas", "zero-delta", "nan-delta", "inf-delta", "k-above-rank",
        "ca-increasing", "row-score-columns", "col-score-columns", "row-labels",
        "col-labels", "ca-sign-vectors", "tca-without-sign-vectors", "sign-vector-pairs",
    ],
)
def test_decomposition_validation(changes, message):
    FactorDecomposition(**DECOMPOSITION_FIELDS)  # valid as it stands
    with pytest.raises(ValueError, match=message):
        FactorDecomposition(**{**DECOMPOSITION_FIELDS, **changes})


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


FACTORIZATION_CASES = pytest.mark.parametrize(
    "counts",
    [
        poisson_counts((80, 30), seed=3),
        poisson_counts((30, 80), seed=4),
        poisson_counts((40, 40), seed=5),
        near_independent_counts(),
    ],
    ids=["tall", "wide", "square", "near_independent"],
)


@FACTORIZATION_CASES
def test_factorization_matches_full_svd(counts):
    check_factorization(counts)


@pytest.fixture
def tsqr_only(monkeypatch):
    """Make the Gram matrix decline every table, so the blocked TSQR runs."""
    monkeypatch.setattr(catax.contingency, "_gram_svd", lambda model: None)


@FACTORIZATION_CASES
def test_blocked_factorization_matches_full_svd(counts, monkeypatch, tsqr_only):
    # blocks of max(16, m) lines: three QR steps on tall, wide and
    # near_independent, one on square, whose m = 40 exceeds the block
    monkeypatch.setattr(catax.contingency, "_QR_BLOCK_LINES", 16)
    check_factorization(counts)


@FACTORIZATION_CASES
def test_blocked_gram_matches_full_svd(counts, monkeypatch):
    # Gram blocks of 16 lines: five on tall and wide, three on square; the
    # near-independent table declines the Gram and takes the blocked TSQR
    monkeypatch.setattr(catax.contingency, "_QR_BLOCK_LINES", 16)
    check_factorization(counts)


def check_factorization(counts):
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


@pytest.mark.parametrize("shape", [(40, 40), (40, 90), (90, 40)])
def test_blocked_qr_when_short_side_exceeds_block(shape, monkeypatch, linalg_calls, tsqr_only):
    # m = 40 exceeds the 16-line block, so each block takes m lines and every
    # intermediate R stays m x m; on (40, 40) that one block is the whole table
    monkeypatch.setattr(catax.contingency, "_QR_BLOCK_LINES", 16)
    model = build_model(table_from_counts(poisson_counts(shape, seed=11)))
    ref = np.linalg.svd(standardized_residual(model), compute_uv=False)
    linalg_calls.clear()
    s = model.singular_values
    assert np.abs(s - ref).max() <= 1e-14 * ref[0]
    blocks = [(40, 40)] if shape == (40, 40) else [(40, 40), (80, 40), (50, 40)]
    assert linalg_calls == [("qr", b) for b in blocks] + [("svd", (40, 40))]


def test_blocked_qr_keeps_corpus_ranks(counts100, monkeypatch, tsqr_only):
    # at 3 lines a block is max(3, m) = m lines, so every table whose sides
    # differ takes several QR steps
    whole = [numerical_rank(build_model(table_from_counts(c))) for c in counts100]
    monkeypatch.setattr(catax.contingency, "_QR_BLOCK_LINES", 3)
    blocked = [numerical_rank(build_model(table_from_counts(c))) for c in counts100]
    assert blocked == whole


@pytest.mark.parametrize("shape", [(30, 80), (80, 30)])
def test_one_factorization_per_model(shape, linalg_calls):
    # one eigh of the Gram matrix of S, made by the first rank query; CA and
    # later rank queries then factorize nothing
    model = build_model(table_from_counts(poisson_counts(shape, seed=6)))
    numerical_rank(model)
    assert linalg_calls == [("eigh", (30, 30))]
    ca_decompose(model)
    ca_decompose(model, k=2)
    numerical_rank(model)
    assert linalg_calls == [("eigh", (30, 30))]


def tsqr_rank(counts, monkeypatch):
    """The numerical rank of ``counts`` from the blocked TSQR alone."""
    with monkeypatch.context() as patch:
        patch.setattr(catax.contingency, "_gram_svd", lambda model: None)
        return numerical_rank(build_model(table_from_counts(counts)))


def spectrum_counts(sigma, shape=(6, 8), seed=9):
    """A real table whose standardized residual has the singular values ``sigma``.

    ``P = outer(r, c) + sqrt(outer(r, c)) * U diag(sigma) V^T``, where the
    columns of ``U`` and ``V`` are orthonormal and orthogonal to ``sqrt(r)``
    and ``sqrt(c)``.
    """
    rng = np.random.default_rng(seed)
    I, J = shape
    r = rng.uniform(0.5, 1.5, I)
    c = rng.uniform(0.5, 1.5, J)
    r, c = r / r.sum(), c / c.sum()

    def basis(w, n):
        Q = np.linalg.qr(np.column_stack((np.sqrt(w), rng.standard_normal((w.size, n)))))[0]
        return Q[:, 1:]

    k = len(sigma)
    S = basis(r, k) @ np.diag(sigma) @ basis(c, k).T
    rc = np.outer(r, c)
    return rc + np.sqrt(rc) * S


@pytest.mark.parametrize(
    "counts",
    [
        np.random.default_rng(7).poisson(0.3, size=(59, 826)).astype(float),
        np.random.default_rng(7).poisson(0.3, size=(826, 59)).astype(float),
        np.random.default_rng(8).poisson(5.0, size=(50, 20)).astype(float),
        spectrum_counts([0.05, 0.03, 0.02, 0.01, 0.05 / 50]),
    ],
    ids=["sparse_wide", "sparse_tall", "enum", "sigma_at_2e-2"],
)
def test_well_conditioned_table_takes_gram(counts, monkeypatch, linalg_calls):
    model = build_model(table_from_counts(counts))
    m = min(counts.shape)
    rank = numerical_rank(model)
    assert linalg_calls == [("eigh", (m, m))]
    assert rank == m - 1 == tsqr_rank(counts, monkeypatch)


def proportional_rows_counts():
    counts = np.random.default_rng(10).integers(1, 11, size=(5, 7)).astype(float)
    counts[1] = 2 * counts[0]
    return counts


@pytest.mark.parametrize(
    "counts, rank",
    [
        (near_independent_counts(), 17),
        (proportional_rows_counts(), 3),
        (spectrum_counts([0.05, 0.03, 0.02, 0.01, 0.05e-9]), 5),
        # proved, but below 2^-6 of the largest: declined for accuracy
        (spectrum_counts([0.05, 0.03, 0.02, 0.01, 0.05e-4]), 5),
    ],
    ids=["near_independent", "proportional_rows", "sigma_near_1e-9", "sigma_near_1e-4"],
)
def test_declined_tables_take_the_tsqr(counts, rank, monkeypatch, linalg_calls):
    # the Gram's eigh, then one QR of the whole long side and the SVD of R
    n, m = max(counts.shape), min(counts.shape)
    assert numerical_rank(build_model(table_from_counts(counts))) == rank
    assert linalg_calls == [("eigh", (m, m)), ("qr", (n, m)), ("svd", (m, m))]
    assert tsqr_rank(counts, monkeypatch) == rank


def test_gram_keeps_corpus_ranks(counts100, monkeypatch):
    # every corpus table takes the Gram, so each rank is proved, not a fallback
    models = [build_model(table_from_counts(c)) for c in counts100]
    assert all(catax.contingency._gram_svd(model) is not None for model in models)
    gram = [numerical_rank(model) for model in models]
    assert gram == [tsqr_rank(c, monkeypatch) for c in counts100]


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
