"""Classical correspondence analysis via SVD of the standardized residual.

With ``S = D / sqrt(outer(r, c))`` and ``S = U diag(sigma) V^T``, the factor
scores are ``f_alpha(i) = sigma_alpha u_alpha(i) / sqrt(r_i)`` and
``g_alpha(j) = sigma_alpha v_alpha(j) / sqrt(c_j)``; the principal values
``delta_alpha = sigma_alpha`` satisfy ``sum(delta**2) == total inertia``.
The SVD is the model's one cached factorization, which holds ``sigma`` and
the singular vectors of the shorter side only; the other side's scores come
from the transition formulas ``f = D (g / delta) / r`` and
``g = D^T (f / delta) / c``.  The factorization is one ``eigh`` of the
shorter side's Gram matrix wherever a bound on its rounding proves the rank
and the smallest non-trivial value is at least ``2^-6`` of the largest, so
its values and vectors are as accurate as an SVD's to the tests' tolerance;
near-independent and ill-conditioned tables take an R-SVD, a blocked QR of
the long orientation of ``S`` and the SVD of its triangular factor (see
``CorrespondenceModel._short_svd``).

This module holds `ca_decompose` only; the chi-square distances and the
total inertia are in `catax.distortion`.
"""

from __future__ import annotations

import numpy as np

from .contingency import CorrespondenceModel
from .decomposition import CA, FactorDecomposition, assemble, numerical_rank, resolve_k

__all__ = ["ca_decompose"]


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
    shorter side's singular vectors come from the model's cached
    factorization (the one :func:`numerical_rank` reads), and only the
    ``k`` long-side score columns are formed, by one product with ``D``,
    which is formed once, and not at all when ``k == 0``.
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
    return assemble(CA, model, rank, s.copy(), row_scores, col_scores)
