"""Distances, per-point embedding distortion and TCA intrinsic-dimension bounds.

Embedding the profiles in the first ``d`` factor axes maps each point's raw
distance from the barycenter (squared chi-square for CA, taxicab for TCA) to
an embedded distance (``sum f**2`` resp. ``sum |f|``).  Comparing the two
classifies every point as a contraction, isometry or stretching; the extreme
ratios over admissible points are the distortion constants ``c1`` (and ``c2``
for TCA).  CA below full rank only contracts; TCA can do either.

Every distance of the package lives here: one table, ``_GEOMETRY``, holds
each method's raw-distance kernel and embedded-distance map; one blocked
loop forms the raw distances of any set of points; the per-point functions
(`profile`, `benzecri_distance`, `taxicab_distance`, `embedded_sq_distance`,
`embedded_l1_distance`) and the totals (`ca_total_inertia`,
`tca_total_dispersion`) are built on them.

For TCA the cumulative principal values are compared against the total
dispersion ``T = sum |D_ij|``: the smallest ``d`` whose cumulative sum
reaches ``T`` is an upper bound for the intrinsic dimension, the largest
``d`` still below ``T`` a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .contingency import (
    ROWS, CorrespondenceModel, _check_axis, _freeze, _residual, _row_blocks, _sum_row_blocks,
)
from .decomposition import CA, TCA, FactorDecomposition

__all__ = [
    "profile",
    "benzecri_distance",
    "taxicab_distance",
    "embedded_sq_distance",
    "embedded_l1_distance",
    "ca_total_inertia",
    "tca_total_dispersion",
    "CONTRACTION",
    "ISOMETRY",
    "STRETCHING",
    "classify",
    "DistortionReport",
    "distortion_report",
    "distortion_constants",
    "IntrinsicDimensionBounds",
    "intrinsic_dimension_bounds",
    "DEFAULT_REL_TOL",
]

CONTRACTION = "Contraction"
ISOMETRY = "Isometry"
STRETCHING = "Stretching"

DEFAULT_REL_TOL = 1e-9


def _chi_square(deviations: np.ndarray, barycenter: np.ndarray) -> np.ndarray:
    """Row-wise ``sum(deviations**2 / barycenter)``; ``deviations`` is overwritten."""
    deviations **= 2
    deviations /= barycenter
    return deviations.sum(axis=1)


def _l1(deviations: np.ndarray, barycenter: np.ndarray) -> np.ndarray:
    """Row-wise L1 norms of ``deviations``, which are overwritten."""
    return np.abs(deviations, out=deviations).sum(axis=1)


# Each method's geometry: the raw distance of a block of profile deviations
# from the barycenter, and the map whose sum over a point's first ``d``
# scores is its embedded distance.
_GEOMETRY = {CA: (_chi_square, np.square), TCA: (_l1, np.abs)}


def _check_index(axis: str, index: int, shape: tuple[int, int]) -> int:
    """``index`` if it numbers a point of ``axis`` in a table of ``shape``, else IndexError."""
    I, J = shape
    if not 0 <= index < (I if _check_axis(axis) == ROWS else J):
        raise IndexError(f"{axis} index {index} out of range for {I}x{J} table")
    return index


def _raw_distances(
    model: CorrespondenceModel, method: str, axis: str, points: slice = slice(None)
) -> np.ndarray:
    """Raw distances of the selected profiles on ``axis`` from their barycenter.

    The squared chi-square distance for CA, the taxicab distance for TCA:
    the method's kernel in ``_GEOMETRY`` reduces, one block of `_row_blocks`
    at a time, ``deviations`` that hold one C-contiguous row,
    ``profile(model, axis, i) - barycenter``, for each point ``i`` of a block
    of the points that ``points`` selects (column blocks are transposed into
    C order), and may overwrite them.  A point's row holds the same numbers
    in any block, so a reduction along axis 1 sums it in the order of a
    single profile and the result does not depend on the blocking.
    """
    distance = _GEOMETRY[method][0]
    if _check_axis(axis) == ROWS:
        P, weights, barycenter = model.P, model.r, model.c
    else:
        P, weights, barycenter = model.P.T, model.c, model.r
    P, weights = P[points], weights[points]
    distances = np.empty(len(weights))
    for b in _row_blocks(*P.shape):
        deviations = np.divide(P[b], weights[b, None], order="C")
        deviations -= barycenter
        distances[b] = distance(deviations, barycenter)
        del deviations  # not held while the next block is formed
    return distances


def _embedded_distances(
    dec: FactorDecomposition, axis: str, d: int, points=slice(None)
) -> np.ndarray:
    """Embedded distances of the selected points in the first ``d`` axes:
    ``sum f**2`` for CA, ``sum |f|`` for TCA."""
    if not 1 <= d <= dec.k:
        raise ValueError(f"d must be in [1, {dec.k}], got {d}")
    # one row-wise sum per prefix; a cumsum over axes would round differently
    return _GEOMETRY[dec.method][1](dec.scores(axis)[points, :d]).sum(axis=1)


def profile(model: CorrespondenceModel, axis: str, index: int) -> np.ndarray:
    """Profile of one row (``P[i] / r[i]``) or column (``P[:, j] / c[j]``).

    The result is a probability vector; the weighted average of all profiles
    on an axis is the opposite marginal (the barycenter).
    """
    _check_index(axis, index, model.shape)
    if axis == ROWS:
        return model.P[index] / model.r[index]
    return model.P[:, index] / model.c[index]


def benzecri_distance(model: CorrespondenceModel, axis: str, index: int) -> float:
    """Squared chi-square distance of one profile from its barycenter.

    Rows: ``sum_j (p_ij/p_i+ - p_+j)**2 / p_+j``; columns symmetrically.
    The squared distance is returned, matching the dist^2 convention of the
    diagnostic tables.
    """
    index = _check_index(axis, index, model.shape)
    return float(_raw_distances(model, CA, axis, slice(index, index + 1))[0])


def taxicab_distance(model: CorrespondenceModel, axis: str, index: int) -> float:
    """L1 distance of one profile from its barycenter.

    Rows: ``sum_j |p_ij/p_i+ - p_+j|``; columns symmetrically.
    """
    index = _check_index(axis, index, model.shape)
    return float(_raw_distances(model, TCA, axis, slice(index, index + 1))[0])


def embedded_sq_distance(dec: FactorDecomposition, axis: str, index: int, d: int) -> float:
    """Squared distance in the first ``d`` axes: ``sum_{alpha<=d} f_alpha**2``.

    Non-decreasing in ``d``; never exceeds the squared chi-square distance,
    with equality at ``d == rank``.
    """
    index = _check_index(axis, index, (len(dec.row_labels), len(dec.col_labels)))
    if dec.method != CA:
        raise ValueError("embedded_sq_distance requires a CA decomposition")
    return float(_embedded_distances(dec, axis, d, [index])[0])


def embedded_l1_distance(dec: FactorDecomposition, axis: str, index: int, d: int) -> float:
    """L1 distance in the first ``d`` axes: ``sum_{alpha<=d} |f_alpha|``.

    Non-decreasing in ``d``; at ``d = 1`` it never exceeds the taxicab
    distance, while the full-rank sum never falls below it.
    """
    index = _check_index(axis, index, (len(dec.row_labels), len(dec.col_labels)))
    if dec.method != TCA:
        raise ValueError("embedded_l1_distance requires a TCA decomposition")
    return float(_embedded_distances(dec, axis, d, [index])[0])


def ca_total_inertia(model: CorrespondenceModel) -> float:
    """Total inertia ``sum D**2 / outer(r, c)``.

    Equals the r-weighted average of squared row distances, the c-weighted
    average of squared column distances, and ``sum(deltas**2)`` of the full
    decomposition.  Summed over row blocks, so no table-sized array is made.
    """

    def block_total(b: slice) -> float:
        terms = _residual(model.P[b], model.r[b], model.c)
        terms **= 2
        terms /= np.outer(model.r[b], model.c)
        return float(terms.sum())

    return _sum_row_blocks(model.shape, block_total)


def tca_total_dispersion(model: CorrespondenceModel) -> float:
    """Total dispersion ``sum |D_ij|``.

    Equals the r-weighted average of row taxicab distances and the c-weighted
    average of column taxicab distances; it is the threshold the cumulative
    principal values are compared against for intrinsic-dimension bounds.
    Summed over row blocks, as `tsvd_step_iterative` sums ``|R|`` (so it
    equals that step's first-axis ``sum|R|``), and no table-sized array is
    made.
    """

    def block_total(b: slice) -> float:
        D = _residual(model.P[b], model.r[b], model.c)
        return float(np.abs(D, out=D).sum())

    return _sum_row_blocks(model.shape, block_total)


def classify(
    raw: float | np.ndarray, embedded: float | np.ndarray, rel_tol: float = DEFAULT_REL_TOL
) -> str | np.ndarray:
    """Compare a raw distance with its embedded counterpart.

    Within ``rel_tol * raw`` of each other -> isometry; below -> contraction;
    above -> stretching.  A point sitting on the barycenter (``raw == 0``)
    is an isometry by convention (its embedded distance is 0 too); such
    points are excluded from the distortion constants.

    Arguments broadcast against each other: two scalars give one label
    (a ``str``), arrays give an ndarray of labels.

    Raises
    ------
    ValueError
        A negative, NaN or infinite distance, or a negative or NaN
        ``rel_tol`` (NaN would compare false everywhere and leave no
        isometry).
    """
    if not rel_tol >= 0:  # also NaN
        raise ValueError("rel_tol must be nonnegative")
    raw = np.asarray(raw, dtype=float)
    embedded = np.asarray(embedded, dtype=float)
    if not all(np.all((d >= 0) & (d < np.inf)) for d in (raw, embedded)):  # NaN fails both
        raise ValueError("distances must be finite and nonnegative")
    isometry = (raw == 0) | (np.abs(embedded - raw) <= rel_tol * raw)
    # one small label table indexed by code: a nested where over labels would
    # build two full string arrays
    labels = np.array([CONTRACTION, ISOMETRY, STRETCHING])[
        np.where(isometry, 1, np.where(embedded < raw, 0, 2))
    ]
    return labels.item() if labels.ndim == 0 else labels


@dataclass(frozen=True)
class DistortionReport:
    """Raw-versus-embedded comparison for every point of one axis.

    Holds exactly what the JSON report prints (`catax.report.report_to_dict`;
    the TSV block prints all but ``admissible``), each field computed once,
    by :func:`distortion_report`.

    Attributes
    ----------
    method : {"CA", "TCA"}
    axis : {"rows", "cols"}
    labels : tuple of str
    dims : tuple of int
        Embedding dimensions evaluated (sorted, e.g. ``(1, 2, 3)``).
    raw : (n,) ndarray
        Squared chi-square distance (CA) or taxicab distance (TCA).
    embedded : (n, len(dims)) ndarray
        Cumulative embedded distance per point and dimension.
    classification : (n, len(dims)) ndarray of str
        Per point, per dimension: one of ``CONTRACTION``, ``ISOMETRY`` or
        ``STRETCHING``.
    admissible : (n, len(dims)) ndarray of bool
        Points entering the constants at each dimension: nonzero raw and
        nonzero embedded distance.
    weighted_average_raw : float
        Marginal-weighted average of ``raw``: the total inertia (CA) or
        total dispersion (TCA).
    weighted_average_embedded : tuple of float
        Per dimension; equals the cumulative ``delta**2`` (CA) or ``delta``
        (TCA) sums of the decomposition.
    deltas : tuple of float
        First ``max(dims)`` principal values of the decomposition.
    constants : tuple of (c1, c2) pairs
        Per dimension; ``c2`` is None for CA (pure contraction).
    """

    method: str
    axis: str
    labels: tuple[str, ...]
    dims: tuple[int, ...]
    raw: np.ndarray
    embedded: np.ndarray
    classification: np.ndarray
    admissible: np.ndarray
    weighted_average_raw: float
    weighted_average_embedded: tuple[float, ...]
    deltas: tuple[float, ...]
    constants: tuple[tuple[float, float | None], ...]

    def __post_init__(self) -> None:
        for field in ("raw", "embedded"):
            object.__setattr__(self, field, _freeze(getattr(self, field)))
        for field, dtype in (("classification", str), ("admissible", bool)):
            frozen = np.asarray(getattr(self, field), dtype=dtype)  # as _freeze: no copy
            frozen.flags.writeable = False
            object.__setattr__(self, field, frozen)


def _constants(
    raw: np.ndarray, embedded_d: np.ndarray, admissible: np.ndarray, method: str, d: int, rank: int
) -> tuple[float, float | None]:
    if not np.any(admissible):
        raise ValueError(f"no admissible points at d={d}; constants undefined")
    ratios = embedded_d[admissible] / raw[admissible]
    c1 = float(ratios.min())
    if method == CA:
        if d < rank and not (0 < c1 and ratios.max() <= 1 + 1e-10):
            raise ArithmeticError(
                f"CA ratios outside (0, 1] at d={d} < rank {rank}: contraction violated"
            )
        return c1, None
    return c1, float(ratios.max())


def distortion_report(
    model: CorrespondenceModel,
    dec: FactorDecomposition,
    axis: str,
    dims: Sequence[int],
    rel_tol: float = DEFAULT_REL_TOL,
) -> DistortionReport:
    """Assemble the distortion table of ``axis`` for dimensions ``dims``.

    One row per point: raw distance, embedded distance and classification at
    each ``d``; footer data (marginal-weighted averages, per-``d`` constants)
    matches the raw/embedded columns.

    Raises
    ------
    ValueError
        Empty ``dims``, a dimension outside ``[1, dec.k]``, an invalid
        axis, or a dimension with no admissible points.
    ArithmeticError
        A CA report below full rank whose ratios leave ``(0, 1]``.
    """
    _check_axis(axis)
    dims = tuple(sorted(set(int(d) for d in dims)))
    if not dims:
        raise ValueError("dims must not be empty")
    if dims[0] < 1 or dims[-1] > dec.k:
        raise ValueError(f"dims must lie in [1, {dec.k}], got {dims}")

    labels = model.labels(axis)
    weights = model.weights(axis)
    raw = _raw_distances(model, dec.method, axis)
    embedded = np.column_stack([_embedded_distances(dec, axis, d) for d in dims])
    classification = classify(raw[:, None], embedded, rel_tol)
    admissible = (raw > 0)[:, None] & (embedded > 0)
    constants = tuple(
        _constants(raw, embedded[:, j], admissible[:, j], dec.method, d, dec.rank)
        for j, d in enumerate(dims)
    )
    return DistortionReport(
        method=dec.method,
        axis=axis,
        labels=labels,
        dims=dims,
        raw=raw,
        embedded=embedded,
        classification=classification,
        admissible=admissible,
        weighted_average_raw=float(weights @ raw),
        weighted_average_embedded=tuple(float(weights @ embedded[:, j]) for j in range(len(dims))),
        deltas=tuple(float(x) for x in dec.deltas[: dims[-1]]),
        constants=constants,
    )


def distortion_constants(report: DistortionReport, d: int) -> tuple[float, float | None]:
    """Extreme embedded/raw ratios at dimension ``d`` over admissible points.

    Returns ``(c1, c2)``: the minimum ratio and, for TCA, the maximum;
    ``c2`` is None for CA, whose ratios cannot exceed 1 below full rank.
    These are the report's own ``constants`` at ``d``, computed once by
    :func:`distortion_report`.

    Raises
    ------
    ValueError
        ``d`` not evaluated in the report.
    """
    if d not in report.dims:
        raise ValueError(f"d={d} not among evaluated dims {report.dims}")
    return report.constants[report.dims.index(d)]


@dataclass(frozen=True)
class IntrinsicDimensionBounds:
    """Bracketing of the TCA intrinsic dimension by cumulative delta sums.

    ``lower <= upper <= lower + 1`` except when the cumulative sums never
    reach ``total_dispersion`` within the extracted axes; then ``upper`` is
    the number of extracted axes and ``capped`` is set.  ``point_estimate``
    is the upper bound (the dimension at which the embedding stops losing
    dispersion).
    """

    lower: int
    upper: int
    total_dispersion: float
    cumulative_deltas: tuple[float, ...]
    point_estimate: int
    capped: bool = False


def intrinsic_dimension_bounds(
    deltas: Sequence[float], total_dispersion: float
) -> IntrinsicDimensionBounds:
    """Bounds for the intrinsic dimension from TCA principal values.

    ``upper`` is the smallest ``d`` with ``sum_{alpha<=d} delta >= T`` and
    ``lower`` the largest ``d`` with the cumulative sum still ``<= T``
    (``T = total_dispersion``), each read with a 1e-12-relative band so the
    exact-crossing case yields ``lower == upper``.  That case is
    ``delta_1 == T``: it holds on rank-1 tables and, at any rank, whenever
    the residual's sign pattern is rank-one (``sign(D) == outer(v, u)`` on
    its nonzero entries); the bounds are then ``(1, 1)``.

    Raises
    ------
    ValueError
        Empty ``deltas``, a delta or ``total_dispersion`` that is not
        positive (NaN included) or is infinite.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size == 0:
        raise ValueError("deltas must not be empty")
    if not np.all((deltas > 0) & (deltas < np.inf)):  # NaN fails both
        raise ValueError("deltas must be finite and positive")
    if not 0 < total_dispersion < np.inf:  # NaN fails both
        raise ValueError("total_dispersion must be finite and positive")
    cum = np.cumsum(deltas)
    tol = 1e-12 * total_dispersion
    reached = np.flatnonzero(cum >= total_dispersion - tol)
    capped = reached.size == 0
    upper = int(cum.size if capped else reached[0] + 1)
    below = np.flatnonzero(cum <= total_dispersion + tol)
    lower = int(below[-1] + 1) if below.size else 1
    lower = min(lower, upper)
    return IntrinsicDimensionBounds(
        lower=lower,
        upper=upper,
        total_dispersion=float(total_dispersion),
        cumulative_deltas=tuple(float(x) for x in cum),
        point_estimate=upper,
        capped=capped,
    )
