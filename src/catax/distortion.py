"""Per-point embedding distortion and TCA intrinsic-dimension bounds.

Embedding the profiles in the first ``d`` factor axes maps each point's raw
distance from the barycenter (squared chi-square for CA, taxicab for TCA) to
an embedded distance (``sum f**2`` resp. ``sum |f|``).  Comparing the two
classifies every point as a contraction, isometry or stretching; the extreme
ratios over admissible points are the distortion constants ``c1`` (and ``c2``
for TCA).  CA below full rank only contracts; TCA can do either.

For TCA the cumulative principal values are compared against the total
dispersion ``T = sum |D_ij|``: the smallest ``d`` whose cumulative sum
reaches ``T`` is an upper bound for the intrinsic dimension, the largest
``d`` still below ``T`` a lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ca import _benzecri_distances, _embedded_sq_distances
from .contingency import CorrespondenceModel, _check_axis, _freeze
from .decomposition import CA, TCA, FactorDecomposition
from .tca import _embedded_l1_distances, _taxicab_distances

__all__ = [
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
    """
    raw = np.asarray(raw, dtype=float)
    embedded = np.asarray(embedded, dtype=float)
    if np.any(raw < 0) or np.any(embedded < 0):
        raise ValueError("distances must be nonnegative")
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
    if dec.method == CA:
        raw_of = _benzecri_distances
        embedded_of = _embedded_sq_distances
    else:
        raw_of = _taxicab_distances
        embedded_of = _embedded_l1_distances
    raw = raw_of(model, axis)
    embedded = np.column_stack([embedded_of(dec, axis, d) for d in dims])
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
        Empty ``deltas`` or nonpositive ``total_dispersion``.
    """
    cum = np.cumsum(np.asarray(deltas, dtype=float))
    if cum.size == 0:
        raise ValueError("deltas must not be empty")
    if total_dispersion <= 0:
        raise ValueError("total_dispersion must be positive")
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
