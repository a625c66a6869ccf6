"""Factor decomposition container shared by the CA and TCA engines.

Both engines end in `assemble`, the one place that orients the axes (largest-|f|
row score positive) and attaches the model's labels and numerical rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contingency import RANK_RTOL, ROWS, CorrespondenceModel, _check_axis, _freeze

__all__ = ["FactorDecomposition", "numerical_rank"]

CA = "CA"
TCA = "TCA"


@dataclass(frozen=True)
class FactorDecomposition:
    """Principal axes of a correspondence model.

    Attributes
    ----------
    method : {"CA", "TCA"}
    deltas : (k,) ndarray
        Principal values, strictly positive, in extraction order.  For CA
        these are singular values (so ``deltas**2`` are principal inertias)
        and are non-increasing; TCA deflation does not guarantee an ordered
        sequence.
    row_scores : (I, k) ndarray
        Factor scores ``f_alpha(i)``, one column per axis.
    col_scores : (J, k) ndarray
        Factor scores ``g_alpha(j)``.
    rank : int
        Numerical rank of the model's residual ``D``, whatever ``k`` is
        (also when ``k == 0``); ``k <= rank``.
    row_labels, col_labels : tuple of str
        Carried over from the model for reports and maps.
    sign_vectors : tuple of (u, v) pairs, TCA only
        Per-axis sign vectors, ``u`` over columns and ``v`` over rows.
    """

    method: str
    deltas: np.ndarray
    row_scores: np.ndarray
    col_scores: np.ndarray
    rank: int
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    sign_vectors: tuple[tuple[np.ndarray, np.ndarray], ...] | None = None

    def __post_init__(self) -> None:
        if self.method not in (CA, TCA):
            raise ValueError(f"method must be {CA!r} or {TCA!r}, got {self.method!r}")
        deltas = np.asarray(self.deltas, dtype=float)
        if deltas.ndim != 1 or not np.all((deltas > 0) & (deltas < np.inf)):  # NaN fails both
            raise ValueError("deltas must be a 1-d vector of positive values")
        k = deltas.size
        if k > self.rank:
            raise ValueError(f"k={k} exceeds numerical rank {self.rank}")
        if self.method == CA and np.any(np.diff(deltas) > 0):
            raise ValueError("CA singular values must be non-increasing")
        if self.row_scores.shape[1] != k or self.col_scores.shape[1] != k:
            raise ValueError("score matrices must have one column per axis")
        if len(self.row_labels) != self.row_scores.shape[0]:
            raise ValueError("need one row label per row score")
        if len(self.col_labels) != self.col_scores.shape[0]:
            raise ValueError("need one column label per column score")
        if (self.sign_vectors is not None) != (self.method == TCA):
            raise ValueError("sign_vectors are present exactly when method is TCA")
        if self.sign_vectors is not None and len(self.sign_vectors) != k:
            raise ValueError("need one (u, v) pair per extracted axis")
        for field in ("deltas", "row_scores", "col_scores"):
            object.__setattr__(self, field, _freeze(getattr(self, field)))
        if self.sign_vectors is not None:
            frozen = tuple((_freeze(u), _freeze(v)) for u, v in self.sign_vectors)
            object.__setattr__(self, "sign_vectors", frozen)

    @property
    def k(self) -> int:
        """Number of extracted axes."""
        return int(self.deltas.size)

    def scores(self, axis: str) -> np.ndarray:
        """Score matrix for the requested axis (rows -> f, cols -> g)."""
        return self.row_scores if _check_axis(axis) == ROWS else self.col_scores


def numerical_rank(model: CorrespondenceModel) -> int:
    """Rank of ``D`` counted as singular values above ``1e-12 * sigma_1``.

    The count is clamped to ``min(I - 1, J - 1)``: ``D`` is doubly centered,
    so no larger rank is possible, yet a rounding-level singular value of a
    near-independent table can clear the relative threshold.  The singular
    values of the standardized residual are canonical correlations, so they
    live in ``[0, 1]``; a leading value below the absolute floor ``1e-12`` is
    rounding noise from an independence table and counts as rank 0.  The
    values come from ``model.singular_values``, the model's one
    factorization, computed on the first call and kept, so later calls and
    :func:`ca_decompose` cost no factorization.

    That factorization first takes one ``eigh`` of the ``min(I, J)``-square
    Gram matrix of the standardized residual, with its known null direction
    projected out.  It keeps those values only where a bound on every
    rounding proves that all non-trivial values lie above the threshold and
    the trivial one at or below it, so the rank is ``min(I, J) - 1`` by
    proof, and where the smallest non-trivial value is at least ``2^-6`` of
    the largest.  Elsewhere, on near-independent tables and tables with a
    value near the threshold, where the Gram matrix's squared condition
    number would blur every value below about ``1e-8 * sigma_1``, the values
    come from an R-SVD: a blocked QR of the long orientation of the
    standardized residual, then the SVD of its square triangular factor.
    QR then SVD is backward stable, so the relative threshold resolves
    values down to about ``1e-15 * sigma_1``.  See
    ``CorrespondenceModel._short_svd``.
    """
    s = model.singular_values
    if s.size == 0 or s[0] <= RANK_RTOL:
        return 0
    I, J = model.shape
    return min(int(np.count_nonzero(s > RANK_RTOL * s[0])), I - 1, J - 1)


def resolve_k(k: int | str | None, rank: int) -> int:
    """Turn a requested axis count (int, "full" or None) into an integer."""
    if k is None or k == "full":
        return rank
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > rank:
        raise ValueError(f"k={k} exceeds numerical rank {rank}")
    return k


def assemble(
    method: str,
    model: CorrespondenceModel,
    rank: int,
    deltas: np.ndarray,
    row_scores: np.ndarray,
    col_scores: np.ndarray,
    sign_vectors: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> FactorDecomposition:
    """The decomposition of ``model`` with these axes, each oriented.

    Each axis is first flipped in place so its largest-|f| row score is
    positive: factorization signs are otherwise arbitrary, and a fixed
    convention makes outputs reproducible and lets CA and TCA axes be
    compared point by point.  Sign vectors, when given, are flipped jointly
    so score/sign consistency is preserved.
    """
    for alpha in range(row_scores.shape[1]):
        f = row_scores[:, alpha]
        if f[np.argmax(np.abs(f))] < 0:
            row_scores[:, alpha] = -f
            col_scores[:, alpha] = -col_scores[:, alpha]
            if sign_vectors is not None:
                u, v = sign_vectors[alpha]
                sign_vectors[alpha] = (-u, -v)
    return FactorDecomposition(
        method=method,
        deltas=deltas,
        row_scores=row_scores,
        col_scores=col_scores,
        rank=rank,
        row_labels=model.row_labels,
        col_labels=model.col_labels,
        sign_vectors=None if sign_vectors is None else tuple(sign_vectors),
    )
