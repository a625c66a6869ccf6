import importlib
import inspect
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catax
import catax.contingency
from catax import (
    COLS,
    CONTRACTION,
    ISOMETRY,
    ROWS,
    STRETCHING,
    ContingencyTable,
    DistortionReport,
    FactorDecomposition,
    benzecri_distance,
    build_model,
    ca_decompose,
    ca_total_inertia,
    classify,
    distortion_constants,
    distortion_report,
    embedded_l1_distance,
    embedded_sq_distance,
    intrinsic_dimension_bounds,
    profile,
    taxicab_distance,
    tca_decompose,
    tca_total_dispersion,
)
from catax.contingency import _row_blocks
from conftest import random_models, table_from_counts
from oracles import block_sum, lifted_zipf_counts


def test_classify_published_pairs():
    assert classify(1.0038, 1.4940) == STRETCHING
    assert classify(0.4444, 0.3456) == CONTRACTION
    assert classify(0.75, 0.75) == ISOMETRY


def test_classify_zero_raw_is_isometry():
    assert classify(0.0, 0.0) == ISOMETRY


def test_classify_tolerance_band():
    assert classify(1.0, 1.0 + 5e-10) == ISOMETRY
    assert classify(1.0, 1.0 + 5e-10, rel_tol=1e-12) == STRETCHING
    assert classify(1.0, 1.0 - 5e-10, rel_tol=1e-12) == CONTRACTION


def test_classify_rel_tol_nan_or_negative_rejected():
    # NaN compares false everywhere: every point would be a contraction or a
    # stretching, even at d = rank, where CA is an isometry
    for rel_tol in (float("nan"), -1e-9):
        with pytest.raises(ValueError, match="rel_tol"):
            classify(1.0, 1.0, rel_tol=rel_tol)
    assert classify(1.0, 1.0, rel_tol=0.0) == ISOMETRY


def test_classify_negative_rejected():
    with pytest.raises(ValueError):
        classify(-1.0, 0.5)
    with pytest.raises(ValueError):
        classify(1.0, -0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_non_finite_rejected(bad):
    # refused with no warning on the way, as a scalar or inside an array
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for raw, embedded in ((bad, 1.0), (1.0, bad), ([0.5, bad], [0.5, 0.5])):
            with pytest.raises(ValueError, match="finite"):
                classify(raw, embedded)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(1e-6, 1e6),
    st.floats(0, 1e6),
    st.floats(1e-6, 1e6),
)
def test_classify_scale_equivariant(raw, embedded, scale):
    assert classify(raw, embedded) == classify(scale * raw, scale * embedded)


def _expected_raw(model, method, axis, index):
    # one profile at a time, in the summation order of a single row
    barycenter = model.weights(COLS if axis == ROWS else ROWS)
    deviation = profile(model, axis, index) - barycenter
    if method == "CA":
        expected = float(np.sum(deviation**2 / barycenter))
        assert benzecri_distance(model, axis, index) == expected
    else:
        expected = float(np.abs(deviation).sum())
        assert taxicab_distance(model, axis, index) == expected
    return expected


def _expected_embedded(dec, axis, index, d):
    scores = dec.scores(axis)[index, :d]
    if dec.method == "CA":
        expected = float(np.sum(scores**2))
        assert embedded_sq_distance(dec, axis, index, d) == expected
    else:
        expected = float(np.abs(scores).sum())
        assert embedded_l1_distance(dec, axis, index, d) == expected
    return expected


@pytest.mark.parametrize(
    "function",
    [profile, benzecri_distance, taxicab_distance, embedded_sq_distance, embedded_l1_distance],
)
@pytest.mark.parametrize("axis, index", [(ROWS, -1), (ROWS, 3), (COLS, -1), (COLS, 4)])
def test_per_point_index_out_of_range(function, axis, index):
    model = build_model(table_from_counts([[4, 1, 0, 2], [2, 3, 1, 1], [0, 2, 4, 3]]))
    if function is embedded_sq_distance:
        args = (ca_decompose(model), axis, index, 1)
    elif function is embedded_l1_distance:
        args = (tca_decompose(model), axis, index, 1)
    else:
        args = (model, axis, index)
    with pytest.raises(IndexError, match=f"^{axis} index {index} out of range for 3x4 table$"):
        function(*args)


def _rank9_model():
    # rank >= 8 reaches the prefix lengths where a cumulative sum over axes
    # rounds differently from a fresh sum of each prefix
    counts = np.random.default_rng(8).integers(1, 11, size=(12, 10))
    return build_model(table_from_counts(counts))


@pytest.mark.parametrize("method", ["CA", "TCA"])
@pytest.mark.parametrize("axis", [ROWS, COLS])
def test_report_contents_random(method, axis, models30):
    for model in models30[:8] + [_rank9_model()]:
        dec = ca_decompose(model) if method == "CA" else tca_decompose(model)
        dims = list(range(1, dec.k + 1))
        report = distortion_report(model, dec, axis, dims)
        n = len(model.labels(axis))
        assert report.embedded.shape == (n, len(dims))
        for i in range(n):
            assert report.raw[i] == _expected_raw(model, method, axis, i)
            diffs = np.diff(report.embedded[i])
            assert np.all(diffs >= -1e-12)  # embedded non-decreasing in d
            for j, d in enumerate(dims):
                assert report.embedded[i, j] == _expected_embedded(dec, axis, i, d)
                assert report.classification[i][j] == classify(
                    report.raw[i], report.embedded[i, j]
                )
        # CA never stretches below full rank
        if method == "CA":
            for i in range(n):
                for j, d in enumerate(dims):
                    if d < dec.rank:
                        assert report.classification[i][j] != STRETCHING
    assert dec.rank >= 8  # the last model reached d >= 8


@pytest.mark.parametrize("block_elements", [1, 7, 25])
def test_raw_distances_independent_of_blocks(monkeypatch, models30, block_elements):
    # profiles are formed a block of points at a time; every point's raw
    # distance is still the sum of its own row, bit for bit
    monkeypatch.setattr(catax.contingency, "_BLOCK_ELEMENTS", block_elements)
    for model in models30[:8]:
        for method, dec in (("CA", ca_decompose(model)), ("TCA", tca_decompose(model))):
            for axis in (ROWS, COLS):
                raw = distortion_report(model, dec, axis, [1]).raw
                n = len(model.labels(axis))
                assert raw.tolist() == [_expected_raw(model, method, axis, i) for i in range(n)]


def test_totals_are_block_sums_of_the_whole_table_expressions(models30):
    # the JSON prints the total dispersion: each total is, bit for bit, the
    # sum over _row_blocks of the blocks of its whole-table expression
    wide = build_model(table_from_counts(np.random.default_rng(3).integers(0, 4, (40, 10000))))
    assert len(list(_row_blocks(*wide.shape))) > 1
    for model in models30 + [wide]:
        blocks = list(_row_blocks(*model.shape))
        D = model.D
        terms = D**2 / np.outer(model.r, model.c)
        assert ca_total_inertia(model) == block_sum(float(terms[b].sum()) for b in blocks)
        A = np.abs(D)
        assert tca_total_dispersion(model) == block_sum(float(A[b].sum()) for b in blocks)


@pytest.mark.parametrize(
    "name", [m.name for m in pkgutil.iter_modules(catax.__path__) if not m.name.startswith("_")]
)
def test_submodule_all_names_are_defined_there(name):
    # a name moved to another module must leave this module's __all__ too
    module = importlib.import_module(f"catax.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), attr
        value = getattr(module, attr)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, attr


def test_report_classification_columns(models30):
    model = models30[0]
    for dec in (ca_decompose(model), tca_decompose(model)):
        report = distortion_report(model, dec, ROWS, range(1, dec.k + 1))
        for j in range(len(report.dims)):
            column = report.classification[:, j]
            assert not column.flags.writeable
            expected = classify(report.raw, report.embedded[:, j])
            assert column.tolist() == expected.tolist()
        assert report.classification.shape == report.embedded.shape


def test_report_footer_identities(models30):
    for model in models30[:8]:
        for method in ("CA", "TCA"):
            dec = ca_decompose(model) if method == "CA" else tca_decompose(model)
            dims = list(range(1, dec.k + 1))
            power = 2 if method == "CA" else 1
            total = ca_total_inertia(model) if method == "CA" else tca_total_dispersion(model)
            for axis in (ROWS, COLS):
                report = distortion_report(model, dec, axis, dims)
                assert report.weighted_average_raw == pytest.approx(total, abs=1e-10)
                cum = np.cumsum(dec.deltas**power)
                for j, d in enumerate(dims):
                    assert report.weighted_average_embedded[j] == pytest.approx(
                        cum[d - 1], abs=1e-10
                    )


def test_report_constants_match_extremes(models30):
    model = models30[0]
    dec = tca_decompose(model)
    report = distortion_report(model, dec, ROWS, range(1, dec.k + 1))
    for j, d in enumerate(report.dims):
        mask = report.admissible[:, j]
        ratios = report.embedded[mask, j] / report.raw[mask]
        c1, c2 = report.constants[j]
        assert c1 == pytest.approx(ratios.min(), abs=1e-14)
        assert c2 == pytest.approx(ratios.max(), abs=1e-14)
        assert distortion_constants(report, d) == report.constants[j]


def test_ca_constants_in_unit_interval(models30):
    for model in models30[:8]:
        dec = ca_decompose(model)
        report = distortion_report(model, dec, ROWS, range(1, dec.k + 1))
        for j, d in enumerate(report.dims):
            c1, c2 = report.constants[j]
            assert c2 is None
            if d < dec.rank:
                assert 0 < c1 <= 1 + 1e-10


def test_tca_bracket_constants(models30):
    # at full rank the L1 embedding can only stretch, so c1 >= 1 there
    model = models30[1]
    dec = tca_decompose(model)
    report = distortion_report(model, dec, ROWS, [dec.k])
    c1, c2 = report.constants[0]
    assert c1 >= 1 - 1e-10
    assert c2 >= c1


def test_report_dims_validation(models30):
    model = models30[0]
    dec = ca_decompose(model)
    with pytest.raises(ValueError, match="dims"):
        distortion_report(model, dec, ROWS, [])
    with pytest.raises(ValueError, match="dims"):
        distortion_report(model, dec, ROWS, [0])
    with pytest.raises(ValueError, match="dims"):
        distortion_report(model, dec, ROWS, [dec.k + 1])
    with pytest.raises(ValueError, match="axis"):
        distortion_report(model, dec, "slantwise", [1])


def test_barycentric_point_excluded_from_constants():
    # row "a" sits exactly on the barycenter: raw distance 0, isometry label,
    # excluded from the constants (n = 16 keeps the profile arithmetic exact)
    counts = np.array([[2.0, 2.0], [5.0, 1.0], [1.0, 5.0]])
    model = build_model(ContingencyTable(("a", "b", "c"), ("x", "y"), counts))
    dec = ca_decompose(model)
    assert dec.rank == 1
    report = distortion_report(model, dec, ROWS, [1])
    assert report.raw[0] == 0.0
    assert report.classification[0][0] == ISOMETRY
    assert not report.admissible[0, 0]
    assert report.admissible[1, 0] and report.admissible[2, 0]
    c1, _ = report.constants[0]
    assert c1 == pytest.approx(1.0, abs=1e-10)  # d = rank: isometry for the rest


def test_constants_no_admissible_points():
    # zero scores put every point on the barycenter in the embedding, so no
    # point has a nonzero embedded distance and the constants are undefined
    model = build_model(table_from_counts([[2, 1], [1, 2]]))
    dec = FactorDecomposition(
        method="TCA",
        deltas=np.ones(1),
        row_scores=np.zeros((2, 1)),
        col_scores=np.zeros((2, 1)),
        rank=1,
        row_labels=model.row_labels,
        col_labels=model.col_labels,
        sign_vectors=((np.ones(2), np.ones(2)),),
    )
    with pytest.raises(ValueError, match="no admissible points"):
        distortion_report(model, dec, ROWS, [1])
    report = DistortionReport(
        method="TCA",
        axis=ROWS,
        labels=("a", "b"),
        dims=(1,),
        raw=np.zeros(2),
        embedded=np.zeros((2, 1)),
        classification=((ISOMETRY,), (ISOMETRY,)),
        admissible=np.zeros((2, 1), dtype=bool),
        weighted_average_raw=0.0,
        weighted_average_embedded=(0.0,),
        deltas=(1.0,),
        constants=((1.0, 1.0),),
    )
    with pytest.raises(ValueError, match="not among evaluated"):
        distortion_constants(report, 2)


# --- intrinsic dimension bounds ------------------------------------------

PUBLISHED_CASES = [
    # (cumulative deltas, total dispersion, lower, upper)
    ((0.4063, 0.7644, 1.0890), 0.7048, 1, 2),  # colors of music
    ((0.478, 0.900, 1.248), 0.705, 1, 2),  # rodents
    ((0.627, 1.085, 1.463), 1.249, 2, 3),  # alpine plants
    ((0.669, 1.106, 1.537, 1.928), 1.748976, 3, 4),  # sacred books
    ((0.05386276, 0.08952342, 0.12062140), 0.08858070, 1, 2),  # diet butters
    ((0.4083893, 0.6428507, 0.8548540), 0.5907166, 1, 2),  # world cuisines
]


def _deltas_from_cum(cum):
    return [cum[0]] + [b - a for a, b in zip(cum, cum[1:])]


@pytest.mark.parametrize("cum,total,lower,upper", PUBLISHED_CASES)
def test_bounds_published_sequences(cum, total, lower, upper):
    bounds = intrinsic_dimension_bounds(_deltas_from_cum(cum), total)
    assert bounds.lower == lower
    assert bounds.upper == upper
    assert bounds.point_estimate == upper
    assert not bounds.capped
    np.testing.assert_allclose(bounds.cumulative_deltas, cum, atol=1e-12)


def test_bounds_exact_crossing_collapses():
    bounds = intrinsic_dimension_bounds([1.0], 1.0)
    assert bounds.lower == bounds.upper == 1


def test_bounds_capped_when_never_reached():
    bounds = intrinsic_dimension_bounds([0.1, 0.1], 0.5)
    assert bounds.capped
    assert bounds.upper == 2
    assert bounds.lower == 2


@pytest.mark.parametrize(
    "deltas, total",
    [((0.6, 0.4 - 1e-9), 1.0), ((0.6, 0.4 - 1e-13), 1.0), ((1.0,), 1.0)]
    + [((0.1, 0.1), 0.5)]
    + [(_deltas_from_cum(cum), total) for cum, total, _, _ in PUBLISHED_CASES],
)
def test_bounds_power_of_two_scale_invariant(deltas, total):
    # the band is relative to T, so an exact rescaling of deltas and T moves
    # no crossing: a 1e-9 shortfall stays capped at every scale
    base = intrinsic_dimension_bounds(deltas, total)
    for scale in (2.0**-20, 2.0**20):
        bounds = intrinsic_dimension_bounds([d * scale for d in deltas], total * scale)
        assert (bounds.lower, bounds.upper) == (base.lower, base.upper)
        assert bounds.capped == base.capped


def test_bounds_errors():
    with pytest.raises(ValueError):
        intrinsic_dimension_bounds([], 1.0)
    with pytest.raises(ValueError):
        intrinsic_dimension_bounds([0.5], 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="total_dispersion must be finite"):
            intrinsic_dimension_bounds([0.5, 0.3], bad)
    for bad in (np.nan, np.inf, -np.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="deltas must be finite"):
            intrinsic_dimension_bounds([bad, 0.3], 1.0)
        with pytest.raises(ValueError, match="deltas must be finite"):
            intrinsic_dimension_bounds([0.5, bad], 1.0)


def test_bounds_random_full_rank(models30):
    for model in models30:
        dec = tca_decompose(model)
        T = tca_total_dispersion(model)
        bounds = intrinsic_dimension_bounds(dec.deltas, T)
        cum = np.asarray(bounds.cumulative_deltas)
        assert np.all(np.diff(cum) > 0)
        assert not bounds.capped  # full-rank cumulative sum always reaches T
        assert bounds.lower <= bounds.upper <= bounds.lower + 1
        assert bounds.lower >= 1
        if dec.rank >= 2:
            # a rank-one sign pattern of the residual lets the first axis
            # absorb the entire dispersion; only then can the bounds collapse
            if dec.deltas[0] >= T - 1e-12 * T:  # the function's band
                assert bounds.upper == 1
            else:
                assert bounds.upper >= 2


def test_high_dimensional_ca_contracts_and_tca_stretches():
    # The paper's headline on a sparse table of rank 59 with rank-4
    # structure: in high dimension CA distortions are contractions, while
    # TCA's are contractions or stretchings.  TCA takes criss-cross here.
    model = build_model(table_from_counts(lifted_zipf_counts(2)))
    assert min(model.shape) > catax.EXHAUSTIVE_LIMIT
    ca = ca_decompose(model, k=4)
    tca = tca_decompose(model, k=4)
    for axis in (ROWS, COLS):
        report = distortion_report(model, ca, axis, [1, 2, 3, 4])
        assert not (report.classification == STRETCHING).any()
        report = distortion_report(model, tca, axis, [4])
        assert (report.classification == STRETCHING).any()
    total = tca_total_dispersion(model)
    assert tca.deltas[0] <= total
    bounds = intrinsic_dimension_bounds(tca.deltas, total)
    assert bounds.lower <= bounds.upper
