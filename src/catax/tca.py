"""Taxicab correspondence analysis: an L1 analogue of CA.

Each axis maximizes ``||R u||_1`` over sign vectors ``u in {-1,+1}^J`` for the
current residual ``R`` (``R_1 = D``), giving the principal value
``delta = ||R u||_1``, scores ``f = R u / r`` and ``g = R^T v / c`` with
``v = sign(R u)``, followed by the rank-one deflation
``R <- R - (R u)(v^T R) / delta``.  Deflation preserves centering and makes
successive axes conjugate (``sum_i f_alpha(i) sign(f_beta(i)) r_i = 0`` for
``alpha > beta``); it terminates in exactly ``rank(D)`` steps.

The maximization is combinatorial.  Below the exhaustive threshold the global
optimum is found by enumerating the 2^(m-1) sign classes of the smaller axis,
m <= ``EXHAUSTIVE_LIMIT``: a meet-in-the-middle split of each sign vector
scores every class of an I x m matrix with O(I * 2^(m-1)) additions, and the
classes within a window relative to ``sum|R|`` of the best are re-scored
exactly, ties going to the lexicographically smallest vector.  Larger
problems use criss-cross ascent (``v <- sign(R u)``, ``u <- sign(R^T v)``;
Choulakian, Psychometrika 71(2), 2006) from deterministic and seeded random
starts, all advanced together: each half-step is one matrix-matrix product
over every start still moving.  The fixed points within the same relative
window of the best are re-scored one by one, with the same tie-break.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .contingency import CorrespondenceModel, _freeze, _profile_deviations
from .decomposition import (
    TCA,
    FactorDecomposition,
    numerical_rank,
    orient_axes,
    resolve_k,
)

__all__ = [
    "TsvdStepResult",
    "tsvd_step_exhaustive",
    "tsvd_step_iterative",
    "tca_decompose",
    "taxicab_distance",
    "tca_total_dispersion",
    "embedded_l1_distance",
    "EXHAUSTIVE_LIMIT",
]

EXHAUSTIVE_LIMIT = 20

_STRATEGIES = ("auto", "exhaustive", "iterative")

# Principal values below this are treated as an exhausted residual.
_DELTA_FLOOR = 1e-12

# Both solvers score candidates in bulk first (the enumeration by meet in the
# middle, criss-cross by matrix-matrix products) and then re-score, one
# matrix-vector product each, those within this fraction of sum|M| of the
# best bulk score, so both report values from the same expression.  The
# window must exceed the bulk pass's rounding error, at most about
# (I + J) * eps * sum|M| for an I x J matrix, so the true maximizer is always
# re-scored; being relative, it holds on near-independent tables without
# making every candidate a finalist.  The same fraction of sum|R| bounds the
# rounding that criss-cross may show as a decrease of its objective.
_SHORTLIST_RTOL = 1e-9
_SHORTLIST_CAP = 1 << 16

# The low half of the meet-in-the-middle split covers 2^12 = 4096 contiguous
# classes: numpy's broadcasting add ran about 4x slower per element on rows
# shorter than half its 8192-element ufunc buffer (numpy 2.4).
_LOW_BITS = 12
# Size of the first pass's scoring block, and the bound on its low-half
# table, in float64 elements (16 MB).
_BLOCK_ELEMENTS = 1 << 21

# Deflation updates the residual in place, and the iterative step sums |R|,
# this many float64 elements (1 MB) of rows at a time, so no temporary the
# size of the residual is made.
_DEFLATE_BLOCK_ELEMENTS = 1 << 17


def _sign(x: np.ndarray) -> np.ndarray:
    """Sign with the fixed convention sign(0) = +1."""
    return np.where(x >= 0, 1.0, -1.0)


@dataclass(frozen=True)
class TsvdStepResult:
    """One taxicab SVD step: sign vectors, principal value, certification.

    ``v = sign(residual @ u)`` exactly under the sign(0) = +1 convention, and
    ``u`` agrees with ``sign(residual.T @ v)`` on every component where the
    latter product is nonzero.  ``delta = ||residual @ u||_1
    = ||residual.T @ v||_1`` at a fixed point.  ``certified`` is true iff the
    value is an exhaustively verified global maximum.
    """

    u: np.ndarray
    v: np.ndarray
    delta: float
    certified: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", _freeze(self.u))
        object.__setattr__(self, "v", _freeze(self.v))


def _signs(codes: np.ndarray, m: int) -> np.ndarray:
    """Sign vectors for enumeration codes, one row per code.

    The first component is +1; the remaining bits, most significant first,
    give the other components with 0 -> -1, so ascending codes enumerate
    vectors in lexicographic order (-1 before +1).
    """
    shifts = np.arange(m - 2, -1, -1, dtype=np.uint64)
    X = np.ones((codes.size, m))
    X[:, 1:] = 2.0 * ((codes.astype(np.uint64)[:, None] >> shifts) & 1) - 1.0
    return X


def _enumerate_max(M: np.ndarray) -> np.ndarray:
    """Global maximizer of ``||M x||_1`` over sign classes of x.

    Two passes.  The first scores every class by meet in the middle
    (Horowitz & Sahni, JACM 21(2), 1974): code ``a * 2^l + b`` splits x into a
    high half (the fixed ``x_0 = +1`` and the ``h`` most significant free
    bits, code ``a``) and a low half (the other ``l`` bits, code ``b``), so
    its score is ``sum_i |P[i, a] + Q[i, b]|`` with ``Q = M_l X_l^T`` and
    ``P = M_h X_h^T``, the latter one block of codes ``a`` at a time, summed
    in one reused buffer: ``I * 2^(m-1)`` additions in place of the dense
    ``I * m * 2^(m-1)`` multiply-adds.  The second pass re-scores the
    classes within `_SHORTLIST_RTOL` of the best, relative to ``sum|M|``,
    one by one with ``np.abs(M @ x).sum()``; ties on the re-scored value
    resolve to the lexicographically smallest vector.
    """
    npoints, m = M.shape
    low = min(m - 1, _LOW_BITS, max(0, (_BLOCK_ELEMENTS // npoints).bit_length() - 1))
    high = m - 1 - low
    Q = M[:, high + 1 :] @ _signs(np.arange(1 << low), low + 1)[:, 1:].T
    block = max(1, _BLOCK_ELEMENTS // (npoints << low))
    buf = np.empty((npoints, min(block, 1 << high), 1 << low))
    vals = np.empty(1 << (m - 1))  # code order, which is lexicographic order
    for a0 in range(0, 1 << high, block):
        a1 = min(a0 + block, 1 << high)
        P = M[:, : high + 1] @ _signs(np.arange(a0, a1), high + 1).T
        scores = buf[:, : a1 - a0]
        np.add(P[:, :, None], Q[:, None, :], out=scores)
        np.abs(scores, out=scores)
        scores.sum(axis=0, out=vals[a0 << low : a1 << low].reshape(a1 - a0, 1 << low))
    best = float(vals.max())
    if best < _DELTA_FLOOR:
        return np.ones(m)  # exhausted residual: every class ties at ~0
    candidates = np.flatnonzero(vals >= best - _SHORTLIST_RTOL * np.abs(M).sum())
    if candidates.size > _SHORTLIST_CAP:
        head = candidates[:_SHORTLIST_CAP]
        argmax = int(np.argmax(vals))
        candidates = head if argmax in head else np.append(head, argmax)
    X = _signs(candidates, m)
    rescored = [float(np.abs(M @ x).sum()) for x in X]
    return X[int(np.argmax(rescored))]  # first maximum: lexicographic tie-break


def tsvd_step_exhaustive(residual: np.ndarray) -> TsvdStepResult:
    """Certified taxicab SVD step by enumeration over the smaller axis.

    Raises
    ------
    ValueError
        If ``min(I, J)`` exceeds ``EXHAUSTIVE_LIMIT``.
    """
    R = np.asarray(residual, dtype=float)
    I, J = R.shape
    if min(I, J) > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"smaller axis {min(I, J)} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}"
        )
    if J <= I:
        u = _enumerate_max(R)
    else:
        v = _enumerate_max(R.T)
        u = _sign(R.T @ v)
    Ru = R @ u
    return TsvdStepResult(
        u=u, v=_sign(Ru), delta=float(np.abs(Ru).sum()), certified=True
    )


def _criss_cross(R: np.ndarray, U: np.ndarray, tol: float) -> np.ndarray:
    """Criss-cross ascent from every column of ``U`` at once, in place.

    Each round is two matrix-matrix products over the starts still moving:
    ``U' = sign((sign(R U)^T R)^T)``, the row-major form of ``sign(R^T V)``,
    then ``R U'``.  A start stops at a fixed point (``U' == U``) or on a
    plateau, where its objective ``||R u||_1`` does not strictly rise; a
    drop of more than ``tol`` raises.  On return each column of ``U`` is a
    fixed point with its first component +1.  Returns the objectives, taken
    from the matrix-matrix products and so rounded differently from a
    matrix-vector product: callers re-score before comparing.
    """
    RU = R @ U
    obj = np.abs(RU).sum(axis=0)
    active = np.arange(U.shape[1])
    while active.size:
        U_next = _sign((_sign(RU[:, active]).T @ R).T)
        moved = np.any(U_next != U[:, active], axis=0)
        active, U_next = active[moved], U_next[:, moved]
        RU_next = R @ U_next
        obj_next = np.abs(RU_next).sum(axis=0)
        if np.any(obj_next < obj[active] - tol):
            raise ArithmeticError("criss-cross ascent decreased the objective")
        rose = obj_next > obj[active]  # a plateau on a tie structure stops
        active = active[rose]
        U[:, active] = U_next[:, rose]
        RU[:, active] = RU_next[:, rose]
        obj[active] = obj_next[rose]
    U[:, U[0] < 0] *= -1.0
    return obj


def _start_signs(R: np.ndarray, q: int) -> np.ndarray:
    """Signs of the ``q`` leading right singular vectors of ``R``, one per row,
    each up to a flip.

    The vectors come from ``eigh`` of the Gram matrix of the smaller side, a
    ``min(I, J)``-square problem: for ``I <= J`` the leading eigenvectors
    ``u_i`` of ``R R^T`` give ``R^T u_i = sigma_i v_i``; otherwise the leading
    eigenvectors of ``R^T R`` are the ``v_i`` themselves.  A full SVD of a
    wide residual costs far more and yields the same signs wherever
    ``sigma_i`` is separated from its neighbours.  A flip is harmless:
    criss-cross from ``-u`` mirrors the path from ``u`` unless a product on
    the way has an exact zero, where the sign(0) = +1 convention breaks the
    symmetry.
    """
    I, J = R.shape
    if I <= J:
        V = R.T @ np.linalg.eigh(R @ R.T)[1][:, ::-1][:, :q]
    else:
        V = np.linalg.eigh(R.T @ R)[1][:, ::-1][:, :q]
    return _sign(V.T)


def tsvd_step_iterative(
    residual: np.ndarray,
    restarts: int = 20,
    seed: int | np.random.SeedSequence | None = 0,
) -> TsvdStepResult:
    """Heuristic taxicab SVD step: best criss-cross fixed point over restarts.

    Starting points are the signs of the first ``min(10, I, J)`` right
    singular vectors of the residual, taken from one ``eigh`` of its
    smaller-side Gram matrix (see `_start_signs`), plus ``restarts`` seeded
    random sign vectors.  Each half-step cannot decrease ``||R u||_1``, so
    every start reaches a fixed point.  All starts ascend together in one
    J x n matrix, one matrix-matrix product per half-step (`_criss_cross`;
    Dongarra et al., ACM TOMS 16(1), 1990).  The distinct fixed points whose
    batched objective lies within ``_SHORTLIST_RTOL * sum|R|`` of the best
    are then re-scored one by one as ``delta = ||R u||_1`` with
    ``v = sign(R u)``; the window exceeds the rounding difference between
    the two products, so the best re-scored value is always among them.  The
    largest ``delta`` wins, ties broken by the lexicographically smallest
    ``u``, so the order of the starts does not matter.  Never certified.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    R = np.asarray(residual, dtype=float)
    I, J = R.shape
    rows = max(1, _DEFLATE_BLOCK_ELEMENTS // J)
    total = sum(float(np.abs(R[b : b + rows]).sum()) for b in range(0, I, rows))
    starts = _start_signs(R, min(10, I, J)) if total > 0 else np.empty((0, J))
    rng = np.random.default_rng(seed)
    U = np.vstack((starts, rng.integers(0, 2, size=(restarts, J)) * 2.0 - 1.0)).T
    obj = _criss_cross(R, U, _SHORTLIST_RTOL * total)
    shortlist = U[:, obj >= obj.max() - _SHORTLIST_RTOL * total].T
    best = None
    for u in {u.tobytes(): u for u in shortlist}.values():  # distinct fixed points
        Ru = R @ u
        delta = float(np.abs(Ru).sum())
        key = (-delta, tuple(u))
        if best is None or key < best[0]:
            best = (key, u, _sign(Ru), delta)
    _, u, v, delta = best
    return TsvdStepResult(u=u, v=v, delta=delta, certified=False)


def tca_decompose(
    model: CorrespondenceModel,
    k: int | str | None = "full",
    strategy: str = "auto",
    restarts: int = 20,
    seed: int | None = 0,
) -> FactorDecomposition:
    """Taxicab correspondence analysis of ``model`` with ``k`` axes.

    Parameters
    ----------
    k : int, "full" or None
        Number of axes; "full" extracts the numerical rank of ``D``.
    strategy : {"auto", "exhaustive", "iterative"}
        "auto" enumerates exhaustively when ``min(I, J) <= EXHAUSTIVE_LIMIT``
        and falls back to criss-cross iteration above it.
    restarts, seed
        Iterative-solver controls; each deflation step draws its random
        starts from an independent child of ``seed``.

    Raises
    ------
    ValueError
        ``k`` above the numerical rank, unknown strategy, or "exhaustive"
        forced on a table above the enumeration limit.

    Warns
    -----
    RuntimeWarning
        When the residual is exhausted (``delta < 1e-12``) before ``k`` axes;
        the decomposition is truncated rather than failing, and still
        carries the model's numerical ``rank``.

    Notes
    -----
    The extracted ``deltas`` follow extraction order and are not always
    non-increasing: deflation is an oblique projection, and the deflated
    residual's maximum can exceed its predecessor's even at certified global
    optima.  So a later value above an earlier one is no sign that the
    heuristic undershot, and "iterative" keeps every step criss-cross finds,
    with no exhaustive re-solve even on an enumerable table.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    rank = numerical_rank(model)
    k = resolve_k(k, rank)

    R = model.D.copy()
    I, J = R.shape
    enumerable = min(I, J) <= EXHAUSTIVE_LIMIT
    rows = max(1, _DEFLATE_BLOCK_ELEMENTS // J)
    seed_seq = np.random.SeedSequence(seed)
    # Column-major, so each axis is written contiguously and the C-ordered
    # arrays the decomposition keeps are allocated after the loop, when
    # FactorDecomposition copies them, not under the solver's temporaries.
    deltas = np.empty(k)
    row_scores = np.empty((I, k), order="F")
    col_scores = np.empty((J, k), order="F")
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for alpha in range(k):
        if strategy == "exhaustive" or (strategy == "auto" and enumerable):
            step = tsvd_step_exhaustive(R)
        else:
            step = tsvd_step_iterative(R, restarts=restarts, seed=seed_seq.spawn(1)[0])
        if step.delta < _DELTA_FLOOR:
            warnings.warn(
                f"residual exhausted after {alpha} axes ({k} requested); truncating",
                RuntimeWarning,
                stacklevel=2,
            )
            break
        Ru = R @ step.u
        vR = step.v @ R
        deltas[alpha] = step.delta
        row_scores[:, alpha] = Ru / model.r
        col_scores[:, alpha] = vR / model.c
        pairs.append((np.asarray(step.u), np.asarray(step.v)))
        for b in range(0, I, rows):
            R[b : b + rows] -= np.outer(Ru[b : b + rows], vR) / step.delta

    n = len(pairs)  # axes extracted: k, or fewer when the residual ran out
    row_scores, col_scores = row_scores[:, :n], col_scores[:, :n]
    orient_axes(row_scores, col_scores, pairs)
    return FactorDecomposition(
        method=TCA,
        deltas=deltas[:n],
        row_scores=row_scores,
        col_scores=col_scores,
        rank=rank,
        row_labels=model.row_labels,
        col_labels=model.col_labels,
        sign_vectors=tuple(pairs),
    )


def _taxicab_distances(
    model: CorrespondenceModel, axis: str, points=slice(None)
) -> np.ndarray:
    """Taxicab distances of the selected profiles on ``axis``."""
    deviations, _ = _profile_deviations(model, axis, points)
    return np.abs(deviations, out=deviations).sum(axis=1)


def taxicab_distance(model: CorrespondenceModel, axis: str, index: int) -> float:
    """L1 distance of one profile from its barycenter.

    Rows: ``sum_j |p_ij/p_i+ - p_+j|``; columns symmetrically.
    """
    return float(_taxicab_distances(model, axis, [index])[0])


def tca_total_dispersion(model: CorrespondenceModel) -> float:
    """Total dispersion ``sum |D_ij|``.

    Equals the r-weighted average of row taxicab distances and the c-weighted
    average of column taxicab distances; it is the threshold the cumulative
    principal values are compared against for intrinsic-dimension bounds.
    """
    return float(np.abs(model.D).sum())


def _embedded_l1_distances(
    dec: FactorDecomposition, axis: str, d: int, points=slice(None)
) -> np.ndarray:
    """L1 distances of the selected points in the first ``d`` axes."""
    if dec.method != TCA:
        raise ValueError("embedded_l1_distance requires a TCA decomposition")
    if not 1 <= d <= dec.k:
        raise ValueError(f"d must be in [1, {dec.k}], got {d}")
    # one row-wise sum per prefix; a cumsum over axes would round differently
    return np.abs(dec.scores(axis)[points, :d]).sum(axis=1)


def embedded_l1_distance(dec: FactorDecomposition, axis: str, index: int, d: int) -> float:
    """L1 distance in the first ``d`` axes: ``sum_{alpha<=d} |f_alpha|``.

    Non-decreasing in ``d``; at ``d = 1`` it never exceeds the taxicab
    distance, while the full-rank sum never falls below it.
    """
    return float(_embedded_l1_distances(dec, axis, d, [index])[0])
