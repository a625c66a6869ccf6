"""Classical correspondence analysis via SVD of the standardized residual.

With ``S = D / sqrt(outer(r, c))`` and ``S = U diag(sigma) V^T``, the factor
scores are ``f_alpha(i) = sigma_alpha u_alpha(i) / sqrt(r_i)`` and
``g_alpha(j) = sigma_alpha v_alpha(j) / sqrt(c_j)``; the principal values
``delta_alpha = sigma_alpha`` satisfy ``sum(delta**2) == total inertia``.
The SVD is the model's one cached R-SVD, which holds ``sigma`` and the
singular vectors of the shorter side only; the other side's scores come from
the transition formulas ``f = D (g / delta) / r`` and ``g = D^T (f / delta) / c``.
"""

from __future__ import annotations

import numpy as np

from .contingency import CorrespondenceModel, _check_index, _profile_distances, _residual, _row_blocks
from .decomposition import (
    CA,
    FactorDecomposition,
    numerical_rank,
    orient_axes,
    resolve_k,
)

__all__ = [
    "ca_decompose",
    "benzecri_distance",
    "ca_total_inertia",
    "embedded_sq_distance",
]


def ca_decompose(model: CorrespondenceModel, k: int | str | None = "full") -> FactorDecomposition:
    """Correspondence analysis of ``model`` with ``k`` axes.

    Parameters
    ----------
    k : int, "full" or None
        Number of axes; "full" (default) extracts the numerical rank of
        ``D``, so a rank-0 model gives zero axes.

    Raises
    ------
    ValueError
        If an integer ``k`` exceeds the numerical rank, so any ``k >= 1``
        on a rank-0 model.

    Notes
    -----
    Makes no factorization of its own: the principal values and the
    shorter side's singular vectors come from the model's cached R-SVD (the
    one :func:`numerical_rank` reads), and only the ``k`` long-side score
    columns are formed, by one product with ``D``, which is formed once,
    and not at all when ``k == 0``.
    """
    rank = numerical_rank(model)
    k = resolve_k(k, rank)
    s, B = model._short_svd
    s = s[:k]
    wide = model.shape[0] < model.shape[1]
    short_w, long_w = (model.r, model.c) if wide else (model.c, model.r)
    x = B[:, :k] / np.sqrt(short_w)[:, None]
    long_scores = np.empty((long_w.size, k))
    if k:  # zero axes form no residual
        D = model.D.T if wide else model.D
        np.divide(D @ x, long_w[:, None], out=long_scores)
    short_scores = s * x
    row_scores, col_scores = (short_scores, long_scores) if wide else (long_scores, short_scores)
    orient_axes(row_scores, col_scores)
    return FactorDecomposition(
        method=CA,
        deltas=s.copy(),
        row_scores=row_scores,
        col_scores=col_scores,
        rank=rank,
        row_labels=model.row_labels,
        col_labels=model.col_labels,
    )


def _chi_square(deviations: np.ndarray, barycenter: np.ndarray) -> np.ndarray:
    """Row-wise ``sum(deviations**2 / barycenter)``; ``deviations`` is overwritten."""
    deviations **= 2
    deviations /= barycenter
    return deviations.sum(axis=1)


def _benzecri_distances(
    model: CorrespondenceModel, axis: str, points: slice = slice(None)
) -> np.ndarray:
    """Squared chi-square distances of the selected profiles on ``axis``."""
    return _profile_distances(model, axis, _chi_square, points)


def benzecri_distance(model: CorrespondenceModel, axis: str, index: int) -> float:
    """Squared chi-square distance of one profile from its barycenter.

    Rows: ``sum_j (p_ij/p_i+ - p_+j)**2 / p_+j``; columns symmetrically.
    The squared distance is returned, matching the dist^2 convention of the
    diagnostic tables.
    """
    index = _check_index(axis, index, model.shape)
    return float(_benzecri_distances(model, axis, slice(index, index + 1))[0])


def ca_total_inertia(model: CorrespondenceModel) -> float:
    """Total inertia ``sum D**2 / outer(r, c)``.

    Equals the r-weighted average of squared row distances, the c-weighted
    average of squared column distances, and ``sum(deltas**2)`` of the full
    decomposition.  Summed over row blocks, so no table-sized array is made.
    """
    total = 0.0
    for b in _row_blocks(*model.shape):
        terms = _residual(model.P[b], model.r[b], model.c)
        terms **= 2
        terms /= np.outer(model.r[b], model.c)
        total += float(terms.sum())
    return total


def _embedded_sq_distances(
    dec: FactorDecomposition, axis: str, d: int, points=slice(None)
) -> np.ndarray:
    """Squared distances of the selected points in the first ``d`` axes."""
    if dec.method != CA:
        raise ValueError("embedded_sq_distance requires a CA decomposition")
    if not 1 <= d <= dec.k:
        raise ValueError(f"d must be in [1, {dec.k}], got {d}")
    # one row-wise sum per prefix; a cumsum over axes would round differently
    return (dec.scores(axis)[points, :d] ** 2).sum(axis=1)


def embedded_sq_distance(dec: FactorDecomposition, axis: str, index: int, d: int) -> float:
    """Squared distance in the first ``d`` axes: ``sum_{alpha<=d} f_alpha**2``.

    Non-decreasing in ``d``; never exceeds the squared chi-square distance,
    with equality at ``d == rank``.
    """
    index = _check_index(axis, index, (len(dec.row_labels), len(dec.col_labels)))
    return float(_embedded_sq_distances(dec, axis, d, [index])[0])
