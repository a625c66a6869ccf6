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
m <= ``EXHAUSTIVE_LIMIT``.  An integer screen scores the classes of the n x m
matrix (n the larger side) with O(n * 2^(m-1)) additions by a
meet-in-the-middle split of each sign vector, in int16 fixed point: the two
halves' partial sums are rounded to multiples of a power-of-two step h, set
so that no int16 sum over a chunk of points can overflow, and the integer
sums are exact.  Rounding moves a class's score by at most n * h, so the
screen keeps the classes within a window of 2 n h (and float64 terms) of the
best, which provably holds every finalist.  A class scores at most the sum
of its two rounded halves' exact L1 norms, so the screen skips every class
whose bound falls below a score already seen less the window: such a class
lies outside the window too.  It scores a block of classes one chunk of
points at a time, through a buffer of ``chunk x block`` elements sized to
stay in cache whatever n is, and keeps of each block only the classes at or
above the best score so far less the window, no score per class.  It runs
on the calling thread, and its partial sums are formed by ``np.einsum``
rather than BLAS, so each score is the same on any BLAS kernel.  Larger
problems use criss-cross ascent (``v <- sign(R u)``, ``u <- sign(R^T v)``;
Choulakian, Psychometrika 71(2), 2006) from deterministic and seeded random
starts, all advanced together: each half-step is one matrix-matrix product
over every start still moving.
Both solvers then apply one finalist rule to their candidates (surviving
classes or distinct fixed points, in lexicographic order): keep those whose
float64 bulk score is within ``1e-9 * sum|R|`` of the best, re-score them one
by one as ``||R u||_1`` and take the first maximum.

This module holds the two step solvers and `tca_decompose`, which runs each
enumerated axis through `tsvd_step_exhaustive`; the taxicab distances and
the total dispersion are in `catax.distortion`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .contingency import CorrespondenceModel, _freeze, _row_blocks, _sum_row_blocks
from .decomposition import TCA, FactorDecomposition, assemble, numerical_rank, resolve_k

__all__ = [
    "TsvdStepResult",
    "tsvd_step_exhaustive",
    "tsvd_step_iterative",
    "tca_decompose",
    "EXHAUSTIVE_LIMIT",
]

EXHAUSTIVE_LIMIT = 20

_STRATEGIES = ("auto", "exhaustive", "iterative")

logger = logging.getLogger(__name__)

# Principal values below this are treated as an exhausted residual.
_DELTA_FLOOR = 1e-12

# The finalist window, a fraction of sum|M|.  It is far wider than the gap
# between a float64 bulk score and the one-by-one re-score of the same
# candidate, about (I + J) * 2^-53 * sum|M|, so every re-scored maximizer is
# a finalist; being relative, it holds on near-independent tables without
# making every candidate a finalist.  The integer screen of the enumeration
# widens its own window, 2 n steps for an n x m matrix and far wider, by
# this fraction; tests raise it to make every class a candidate.  The same
# fraction of sum|R| bounds the rounding that criss-cross may show as a
# decrease of its objective.  Past _SHORTLIST_CAP finalists only the first
# _SHORTLIST_CAP and the bulk argmax are re-scored; criss-cross reaches that
# many distinct fixed points only when restarts + 10 > 2^16.
_SHORTLIST_RTOL = 1e-9
_SHORTLIST_CAP = 1 << 16

# The low half of the meet-in-the-middle split covers 2^12 = 4096 contiguous
# classes: numpy's broadcasting add ran about 4x slower per element on rows
# shorter than half its 8192-element ufunc buffer (numpy 2.4, float32), and
# the int16 fixed-point screen of a 50 x 20 table ran fastest at 12 of 10 to
# 14 bits.
_LOW_BITS = 12
# The bound on the first pass's int16 low-half table, in elements (4 MB).
# The screen's int16 working set, one chunk of points by one block of
# classes, takes at most a quarter of it (1 MB, within a 2 MB L2 cache), and
# the high half of a claim's codes another quarter; the exact pass's float64
# scores and signs of one chunk of candidates take 8 MB.
_BLOCK_ELEMENTS = 1 << 21
# The integer screen sums at most this many points, g, in int16 before it
# adds the chunk's sum to the class's int32 score.  The step is set from the
# heaviest chunk's share of sum|M|, so on a tall table whose mass is spread
# over its points the window of 2 n steps stays near 2 g / (32766 - g) of
# sum|M|, at most twice that as the step is a power of two; 64 keeps a
# 50-point table in one chunk.
_CHUNK_POINTS = 64

# tca_decompose forms the iterative steps' start Gram again from the residual
# when the deflated update's trace falls below this fraction of the trace at
# its last formation.  The update's rounding accumulates in proportion to
# that earlier trace, a fresh product's in proportion to the current one, so
# the ratio keeps the two within a factor 1/0.9.  Measured with the iterative
# solver forced on seeded Poisson tables (80 small ones, 60 x 25 and 25 x 200,
# at full rank; four 80 x 600 at k = 40; two 300 x 1500 at k = 20) and on two
# 590 x 8265 ones at k = 30, against forming the Gram on every axis: at 0.9
# no output changed, while the large tables still took the update in 128 of
# 160 and 36 of 40 steps.  At 0.5, 27 of the 80 small tables changed from a
# deep axis (the 15th to 22nd of 24), and with no re-formation 30 did: near
# ties re-rolled (the changed value was the higher one at the first differing
# axis in about half of them), but byte changes all the same.
_REFORM_TRACE = 0.9


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


def _step_result(
    R: np.ndarray, u: np.ndarray, certified: bool
) -> tuple[TsvdStepResult, np.ndarray]:
    """The step of residual ``R`` at ``u`` (``v = sign(R u)``, ``delta =
    ||R u||_1``) and ``R u``, which the deflation reuses."""
    Ru = R @ u
    step = TsvdStepResult(u=u, v=_sign(Ru), delta=float(np.abs(Ru).sum()), certified=certified)
    return step, Ru


def _signs(codes: np.ndarray, m: int) -> np.ndarray:
    """Sign vectors for enumeration codes, one row per code.

    The first component is +1; the remaining bits, most significant first,
    give the other components with 0 -> -1, so ascending codes enumerate
    vectors in lexicographic order (-1 before +1).  ``m`` is at most 64.
    """
    # the low m bits of each code, most significant first, as 0/1 int8
    bits = np.unpackbits(codes.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
    bits = bits[:, 64 - m :].view(np.int8)
    X = (bits + bits - 1).astype(np.float64)
    X[:, 0] = 1.0
    return X


def _finalists(bulk: np.ndarray, tol: float) -> np.ndarray:
    """Ascending indices of the bulk scores within ``tol`` of the best: the
    first ``_SHORTLIST_CAP`` of them, plus the bulk argmax past the cap."""
    keep = np.flatnonzero(bulk >= bulk.max() - tol)
    if keep.size > _SHORTLIST_CAP:
        keep = np.union1d(keep[:_SHORTLIST_CAP], np.argmax(bulk))
    return keep


def _first_max(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The first row ``x`` of ``X`` maximizing ``||M x||_1``, each re-scored
    by one float64 matrix-vector product."""
    return X[int(np.argmax([float(np.abs(M @ x).sum()) for x in X]))]


def _screen_block(
    P: np.ndarray, Q: np.ndarray, chunk: int, buf: np.ndarray, part: np.ndarray, out: np.ndarray
) -> None:
    """Write the integer score ``sum_i |P[i, a] + Q[i, b]|`` of each pair of
    an int16 high-half column ``a`` and low-half column ``b`` into ``out[a,
    b]``, one chunk of at most ``chunk`` points at a time: the chunk's
    ``|P + Q|``, ``chunk x na x nb`` elements, is formed in ``buf`` and
    summed in int16 into the class-sized ``part``, which is added into
    ``out`` in int32.  Only ``buf`` is walked per point, and it is sized to
    stay in cache."""
    npoints, (na, nb) = P.shape[0], out.shape
    part = part[: na * nb].reshape(na, nb)
    for c in range(0, npoints, chunk):
        points = slice(c, c + chunk)
        scores = buf[: min(chunk, npoints - c) * na * nb].reshape(-1, na, nb)
        np.add(P[points, :, None], Q[points, None, :], out=scores)
        np.abs(scores, out=scores)
        np.add.reduce(scores, axis=0, out=part)
        if c:
            out += part
        else:
            out[...] = part


def _enumerate_max(M: np.ndarray) -> np.ndarray:
    """Global maximizer of ``||M x||_1`` over sign classes of x.

    Two passes.  The first screens the classes in int16 fixed point by meet
    in the middle (Horowitz & Sahni, JACM 21(2), 1974): code ``a * 2^l + b``
    splits x into a high half (the fixed ``x_0 = +1`` and the ``m - 1 - l``
    most significant free bits, code ``a``) and a low half (the other ``l``
    bits, code ``b``), so its score is ``sum_i |P[i, a] + Q[i, b]|`` with
    ``Q = M_l (X_l / h)^T`` and ``P = M_h (X_h / h)^T``, the latter one
    claim of codes at a time: ``I * 2^(m-1)`` additions in place of the
    dense ``I * m * 2^(m-1)`` multiply-adds.  They are ``M`` in steps of
    ``h``, a power of two set from the points' share of ``sum|M|`` so that
    no int16 sum over a chunk of ``_CHUNK_POINTS`` points can pass 2^15 - 1;
    the step rides on the sign tables, an exact scaling, so no scaled copy
    of ``M`` is made.  ``P`` and ``Q`` are formed in float64 by
    ``np.einsum``, which calls no BLAS, so they do not depend on the BLAS
    kernel, and rounded to int16; the chunk sums are added in int32.
    Integer sums are exact in any order, so the screen decides alike at
    every power-of-two scale, block size and chunk.  It runs on the calling
    thread, taking the high codes in turn and screening a block of classes
    at a time, one chunk of points at a time, through one buffer of ``chunk
    x block`` elements: the block is set from the chunk, so the buffer stays
    within a quarter of ``_BLOCK_ELEMENTS`` however many points there are.
    Of each block it keeps the codes and scores of the classes at or above
    the best score so far less the window, narrowed to the final best less
    the window at the end: it holds no score per class, only its block-sized
    working set and these survivors, whatever ``m`` and ``n`` are.

    The screen skips the classes that cannot reach its window (branch and
    bound; Land & Doig, Econometrica 28(3), 1960).  By the triangle
    inequality a class's integer score is at most ``SP[a] + SQ[b]``, the
    exact integer sums ``sum_i |P[i, a]|`` and ``sum_i |Q[i, b]|`` of the
    rounded halves.  The high codes are taken by descending ``SP``, and
    each claim is scored against the low codes, sorted by descending
    ``SQ``, whose bound from its first (highest) ``SP`` reaches the best
    score so far less the window.  A score seen is at most the maximum, so a
    skipped class lies below the window: the candidates are those a full
    screen keeps, and with them every finalist.  On 50 x 20 Poisson tables
    the screen scores 10 to 46% of the classes; where the larger side is
    many times the smaller, nearly all.

    The classes within a window of about ``2 n h`` of the best (see below)
    then go through the finalist rule: scored in float64 by matrix
    products, a chunk of codes at a time within the screen's memory budget,
    narrowed to ``_SHORTLIST_RTOL`` of the best and re-scored one by one, so
    none is dropped on its rounded value alone and ties resolve to the
    lexicographically smallest vector.  This is the mixed-precision pattern
    of Higham & Mary (Acta Numerica 31, 2022): the cheap pass only selects,
    the exact pass decides.
    """
    npoints, m = M.shape
    A = np.abs(M)
    total = A.sum()
    if total < _DELTA_FLOOR:
        return np.ones(m)  # exhausted residual, as in _exact_pass: every class is below
    # The step h = 2^e.  In steps, a point's |P + Q| is at most its row's
    # sum|M| over h, plus one for the rounding of P and Q (half a step each),
    # so a chunk of g points sums to at most its share of sum|M| over h, plus
    # g.  h is the least power of two that keeps the share of the heaviest
    # chunk within 32766 - g steps; the spare step pays for the float64
    # rounding of the row sums, P and Q, each far below 2^-30 of the share.
    # The share is first scaled by the power of two that brings the largest
    # entry of M into [0.5, 1), so that the quotient cannot underflow.
    chunk = min(npoints, _CHUNK_POINTS)
    if chunk == npoints:
        share = total
    else:
        share = np.add.reduceat(A.sum(axis=1), np.arange(0, npoints, chunk)).max()
    e = math.frexp(A.max())[1]
    del A  # not held through the screen
    frac, exp = math.frexp(math.ldexp(share, -e) / (32766 - chunk))
    e += exp - (frac == 0.5)  # at frac = 0.5 the quotient is 2^(exp - 1)
    # Window, in steps.  Rounding P and Q to whole steps moves each point's
    # |P + Q| by at most one, so a class's integer score is within n of its
    # float64-formed score.  P and Q are float64 sums of signed entries of
    # M / h, each sign exact; einsum adds them in its own order, and a sum of
    # k terms in any order is off by at most gamma_(k-1) times the sum of
    # their magnitudes (gamma_k = k u / (1 - k u), u = 2^-53; Higham,
    # Accuracy and Stability, section 4.2).  So P and Q together, over the
    # points, are off the exact score by at most gamma_m * S (S = sum|M| /
    # h), and the exact pass's bulk scores, m-term products summed over n
    # points, by at most gamma_(n+m) * S: both within (n + 2m) * 2^-52 * S.
    # A finalist scores within _SHORTLIST_RTOL * S of the best bulk score, so
    # its integer score lies within twice the sum of those bounds, plus
    # _SHORTLIST_RTOL * S, of the integer maximum: W steps, 2n of them for
    # the rounding.  A class whose bound SP + SQ falls below a score seen
    # less W lies below the maximum less W, outside the window, and is not
    # scored.  The _SHORTLIST_RTOL term stays below one step at the default;
    # tests raise it to make every class a candidate.
    S = math.ldexp(total, -e)  # sum|M| in steps
    W = 2 * npoints + math.ceil(((npoints + 2 * m) * 2.0**-51 + _SHORTLIST_RTOL) * S)
    low = min(m - 1, _LOW_BITS, max(0, (_BLOCK_ELEMENTS // npoints).bit_length() - 1))
    high = m - 1 - low
    codes = 1 << (m - 1)
    # The sign tables carry the step, X * 2^-e, so each product with M is an
    # entry of M / h rounded as np.ldexp(M, -e) rounds it, and no scaled copy
    # of M is made (2^-e is finite, as sum|M| >= _DELTA_FLOOR).  Q's table is
    # transposed to be contiguous, which einsum runs about twice as fast; P
    # keeps one row per code, the layout in which einsum gives each code the
    # same sum however many codes share the call, so SP below bounds the P
    # that the screen forms.  Q is summed in float64 and rounded a row block
    # at a time: no float64 copy of it is held.  Low code 2^l - 1 - b flips
    # every sign of code b, and negation is exact in each product, sum and
    # rounding, so only the first half of Q is summed.
    half = (1 << low) >> 1
    XT = np.ascontiguousarray(np.ldexp(_signs(np.arange(half), low + 1)[:, 1:].T, -e))
    Q = np.zeros((npoints, 1 << low), dtype=np.int16)  # one zero column at l = 0
    for b in _row_blocks(npoints, 1 << low):
        Q[b, :half] = np.rint(np.einsum("ij,jk->ik", M[b, high + 1 :], XT))
        Q[b, half:] = -Q[b, half - 1 :: -1]
    del XT  # not held through the screen

    def high_half(a: np.ndarray) -> np.ndarray:
        """P of the high codes ``a``, one column each, in whole steps."""
        Pa = np.einsum("ij,kj->ik", M[:, : high + 1], np.ldexp(_signs(a, high + 1), -e))
        return np.rint(Pa, out=Pa)

    # The codes of the high ranks by descending SP and of the low ranks by
    # descending SQ, the order in which the screen takes them.  The first
    # claim of the screen below scores every class of the top high code, so
    # a screen of one high code needs neither order: its ranks are its codes.
    hi, lo = np.arange(1 << high), np.arange(1 << low)
    if high:
        SP = np.empty(1 << high, dtype=np.int64)
        per = max(1, (_BLOCK_ELEMENTS >> 2) // npoints)  # float64 within the screen's budget
        for a0 in range(0, 1 << high, per):
            Pa = high_half(np.arange(a0, min(a0 + per, 1 << high)))
            SP[a0 : a0 + per] = np.abs(Pa, out=Pa).sum(axis=0)
            del Pa  # not held while the next codes' P is formed, nor after
        hi = np.argsort(-SP)
        SP = SP[hi]
        SQ = np.zeros(1 << low, dtype=np.int64)
        for b in _row_blocks(npoints, 1 << low):
            SQ[:half] += np.abs(Q[b, :half]).sum(axis=0)
        SQ[half:] = SQ[half - 1 :: -1]  # Q's second half negates its first
        # Q's columns are moved to that order in place, so that the screen
        # reads a prefix of them: a non-contiguous selection of Q's columns
        # slows the screen's additions several times over.  Ties may fall in
        # any order.
        lo = np.argsort(-SQ)
        for b in _row_blocks(npoints, 1 << low):
            Q[b] = np.take(Q[b], lo, axis=1)
        # ascending: SQ >= t on the first searchsorted(reach, -t, "right")
        reach = -SQ[lo]
    # A block holds ``block`` classes, whole high codes: as many as make a
    # working set of one chunk of points by ``block`` classes within a
    # quarter of _BLOCK_ELEMENTS, and at least one high code.
    block = min(codes, max(1 << low, (_BLOCK_ELEMENTS >> 2) // chunk >> low << low))
    # P holds at most ``most`` high codes: the codes of one block, or a 64th
    # of a block's classes where the later claims need more, and no more
    # than fill a quarter of _BLOCK_ELEMENTS.
    most = max(block >> low, block // 64)
    most = max(1, min(most, (_BLOCK_ELEMENTS >> 2) // npoints))
    P = np.empty((npoints, most), dtype=np.int16)
    buf = np.empty(chunk * block, dtype=np.int16)
    part = np.empty(block, dtype=np.int16)
    scores = np.empty(block, dtype=np.int32)  # one block's
    # (codes, scores) of each block's classes at or above the best score so
    # far less W: a superset of the window, as the best only rises
    survivors: list[tuple[np.ndarray, np.ndarray]] = []
    best = 0  # the best score so far, or 0: at most the maximum
    # The high ranks r0 to r1 are screened against the first nb low ranks.
    # The first claim is the top code alone, against every low code, so that
    # its best score bounds every later claim; a later one takes the low
    # ranks whose bound from its first (highest) SP reaches the best score
    # less W, and as many high codes as fill a buffer at that nb.
    r0, r1, nb = 0, 1, 1 << low
    while True:
        P[:, : r1 - r0] = high_half(hi[r0:r1])
        width = block // (r1 - r0)  # low ranks per block
        for s0 in range(0, nb, width):
            out = scores[: (r1 - r0) * min(width, nb - s0)].reshape(r1 - r0, -1)
            _screen_block(P[:, : r1 - r0], Q[:, s0 : s0 + out.shape[1]], chunk, buf, part, out)
            top = int(out.max())
            best = max(best, top)
            if top >= best - W:
                r, s = np.nonzero(out >= best - W)
                survivors.append((hi[r0 + r] << low | lo[s0 + s], out[r, s]))
        r0 = r1
        if r0 == 1 << high:
            break
        # the low ranks with SP[r0] + SQ >= best - W
        nb = int(np.searchsorted(reach, W + SP[r0] - best, side="right"))
        if nb == 0:  # and so for every later claim: SP falls, best rises
            break
        r1 = min(r0 + min(most, block // nb), 1 << high)  # nb <= 2^l <= block
    floor = best - W  # best is the maximum: every scored block updated it
    candidates = np.concatenate([c[s >= floor] for c, s in survivors])
    del Q, P, buf, part, scores, out, survivors  # not held through the exact pass
    candidates.sort()
    return _exact_pass(M, candidates, total)


def _exact_pass(M: np.ndarray, candidates: np.ndarray, total: float) -> np.ndarray:
    """The finalist rule on the screen's candidate codes, ascending: their
    float64 bulk scores ``||M x||_1``, narrowed by `_finalists` to
    ``_SHORTLIST_RTOL * total`` of the best and re-scored by `_first_max`."""
    npoints, m = M.shape
    # A chunk's float64 scores and signs together take at most the first
    # pass's 4 * _BLOCK_ELEMENTS bytes.
    step = max(1, _BLOCK_ELEMENTS // (2 * (npoints + m)))
    exact = np.empty(candidates.size)
    for c in range(0, candidates.size, step):
        scores = M @ _signs(candidates[c : c + step], m).T
        exact[c : c + step] = np.abs(scores, out=scores).sum(axis=0)
        del scores  # not held while the next chunk is formed
    if exact.max() < _DELTA_FLOOR:
        return np.ones(m)  # exhausted residual: every class ties at ~0
    keep = _finalists(exact, _SHORTLIST_RTOL * total)
    return _first_max(M, _signs(candidates[keep], m))


def _finite_residual(residual: np.ndarray) -> np.ndarray:
    """``residual`` as a float array; raises ValueError on NaN or +-inf."""
    R = np.asarray(residual, dtype=float)
    if not np.isfinite(R).all():
        raise ValueError("residual must be finite")
    return R


def tsvd_step_exhaustive(residual: np.ndarray) -> TsvdStepResult:
    """Certified taxicab SVD step by enumeration over the smaller axis.

    Raises
    ------
    ValueError
        If ``min(I, J)`` exceeds ``EXHAUSTIVE_LIMIT``, or the residual holds
        NaN or +-inf.
    """
    R = _finite_residual(residual)
    _check_enumerable(R.shape)
    if R.shape[1] <= R.shape[0]:
        u = _enumerate_max(R)
    else:
        u = _sign(R.T @ _enumerate_max(R.T))
    return _step_result(R, u, certified=True)[0]


def _enumerable(shape: tuple[int, int]) -> bool:
    """Whether the smaller side is within ``EXHAUSTIVE_LIMIT``."""
    return min(shape) <= EXHAUSTIVE_LIMIT


def _check_enumerable(shape: tuple[int, int]) -> None:
    """Raise ValueError if the smaller side exceeds ``EXHAUSTIVE_LIMIT``."""
    if not _enumerable(shape):
        raise ValueError(
            f"smaller axis {min(shape)} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}"
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


def _gram(R: np.ndarray) -> np.ndarray:
    """The Gram matrix of the smaller side of ``R``: ``R R^T`` for ``I <= J``,
    else ``R^T R``; one symmetric product (syrk), exactly symmetric."""
    I, J = R.shape
    return R @ R.T if I <= J else R.T @ R


def _deflate_gram(
    G: np.ndarray, R: np.ndarray, a: np.ndarray, b: np.ndarray, delta: float
) -> None:
    """Update ``G = _gram(R)`` in place to the Gram of ``R - a b^T / delta``.

    For ``I <= J``, ``G' = G - a h^T - h a^T`` with ``h = R b / delta -
    (b.b) / (2 delta^2) a``; for ``I > J`` the same with ``a`` and ``b``
    swapped and ``R^T a`` for ``R b``.  One matrix-vector product and O(m^2)
    work, against the O(m^2 n) of a new product.  ``G`` is updated a row
    block at a time, so no m x m temporary is made; entry ``(i, j)`` takes
    ``x_i h_j + h_i x_j``, the same sum as ``(j, i)``, so ``G`` stays exactly
    symmetric.  ``R`` must not have been deflated yet.
    """
    I, J = R.shape
    x, y, Ry = (a, b, R @ b) if I <= J else (b, a, a @ R)
    h = Ry / delta - (y @ y) / (2 * delta * delta) * x
    for blk in _row_blocks(*G.shape):
        term = np.multiply.outer(x[blk], h)
        term += np.multiply.outer(h[blk], x)
        G[blk] -= term


def _start_signs(R: np.ndarray, G: np.ndarray, q: int) -> np.ndarray:
    """Signs of the ``q`` leading right singular vectors of ``R``, one per row,
    each up to a flip.

    The vectors come from ``eigh`` of ``G``, the Gram matrix of the smaller
    side of ``R``, a ``min(I, J)``-square problem.  `tsvd_step_iterative`
    forms its own (`_gram`); `tca_decompose` forms one per decomposition and
    deflates it with the residual by a rank-two update (`_deflate_gram`),
    forming it again only when its trace falls below ``_REFORM_TRACE`` (0.9)
    of its trace at the last formation.  For ``I <= J`` the leading eigenvectors
    ``u_i`` of ``R R^T`` give ``R^T u_i = sigma_i v_i``; otherwise the leading
    eigenvectors of ``R^T R`` are the ``v_i`` themselves.  A full SVD of a
    wide residual costs far more and yields the same signs wherever
    ``sigma_i`` is separated from its neighbours.  A flip is harmless:
    criss-cross from ``-u`` mirrors the path from ``u`` unless a product on
    the way has an exact zero, where the sign(0) = +1 convention breaks the
    symmetry.
    """
    I, J = R.shape
    E = np.linalg.eigh(G)[1][:, ::-1][:, :q]
    return _sign((R.T @ E if I <= J else E).T)


def _iterative_step(
    R: np.ndarray, G: np.ndarray, restarts: int, seed: int | np.random.SeedSequence | None
) -> tuple[TsvdStepResult, np.ndarray]:
    """`tsvd_step_iterative` of ``R`` with its starts from ``G`` (see
    `_start_signs`), and ``R u``."""
    I, J = R.shape
    # as tca_total_dispersion sums it, with no temporary the size of R
    total = _sum_row_blocks(R.shape, lambda b: float(np.abs(R[b]).sum()))
    starts = _start_signs(R, G, min(10, I, J)) if total > 0 else np.empty((0, J))
    rng = np.random.default_rng(seed)
    U = np.vstack((starts, rng.integers(0, 2, size=(restarts, J)) * 2.0 - 1.0)).T
    tol = _SHORTLIST_RTOL * total
    obj = _criss_cross(R, U, tol)
    near = np.flatnonzero(obj >= obj.max() - tol)
    # Packed to bits (-1 -> 0, the first sign most significant), the fixed
    # points sort lexicographically with -1 before +1.  np.unique(axis=0)
    # makes one field per column, so unpacked rows took 40 ms per step at
    # J = 8265 (numpy 2.4, 2-vCPU VM).
    bits = np.packbits(U[:, near] > 0, axis=0).T
    points = near[np.unique(bits, axis=0, return_index=True)[1]]  # distinct, sorted
    u = _first_max(R, U[:, points[_finalists(obj[points], tol)]].T)
    return _step_result(R, u, certified=False)


def tsvd_step_iterative(
    residual: np.ndarray,
    restarts: int = 20,
    seed: int | np.random.SeedSequence | None = 0,
) -> TsvdStepResult:
    """Heuristic taxicab SVD step: best criss-cross fixed point over restarts.

    Starting points are the signs of the first ``min(10, I, J)`` right
    singular vectors of the residual, taken from one ``eigh`` of its
    smaller-side Gram matrix (see `_start_signs`), plus ``restarts`` seeded
    random sign vectors.  This step forms that Gram matrix itself; the steps
    of `tca_decompose` share one per decomposition.  Each half-step cannot
    decrease ``||R u||_1``, so every start reaches a fixed point.  All
    starts ascend together in one J x n matrix, one matrix-matrix product
    per half-step (`_criss_cross`; Dongarra et al., ACM TOMS 16(1), 1990).
    The distinct fixed points, in lexicographic order with their batched
    objectives as bulk scores, go through the finalist rule, so the order of
    the starts does not matter.
    ``delta = ||R u||_1`` and ``v = sign(R u)``.  Never certified.

    Raises
    ------
    ValueError
        If ``restarts < 1``, or the residual holds NaN or +-inf.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    R = _finite_residual(residual)
    return _iterative_step(R, _gram(R), restarts, seed)[0]


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
        "auto" enumerates exhaustively when ``min(I, J) <= EXHAUSTIVE_LIMIT``,
        each axis by `tsvd_step_exhaustive`, and falls back to criss-cross
        iteration above it.
    restarts, seed
        Iterative-solver controls; each deflation step draws its random
        starts from an independent child of ``seed``.  The iterative steps
        share one start Gram matrix per decomposition, formed at the first
        step and deflated with the residual by a rank-two update, and formed
        again when its trace falls below 0.9 of its trace at the last
        formation (see `_start_signs`); `tsvd_step_iterative` called on its
        own still forms its own Gram.

    Raises
    ------
    ValueError
        ``k`` above the numerical rank, unknown strategy, ``restarts < 1``
        (whatever the strategy), or "exhaustive" forced on a table above the
        enumeration limit (whatever ``k``).

    Notes
    -----
    When the residual is exhausted (``delta < 1e-12``) before ``k`` axes,
    the decomposition is truncated rather than failing, and still carries
    the model's numerical ``rank``.  The ``catax.tca`` logger then records
    the warning "residual exhausted after <n> axes (<k> requested);
    truncating".

    The extracted ``deltas`` follow extraction order and are not always
    non-increasing: deflation is an oblique projection, and the deflated
    residual's maximum can exceed its predecessor's even at certified global
    optima.  So a later value above an earlier one is no sign that the
    heuristic undershot, and "iterative" keeps every step criss-cross finds,
    with no exhaustive re-solve even on an enumerable table.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if restarts < 1:  # also when no iterative step runs
        raise ValueError("restarts must be >= 1")
    if strategy == "exhaustive":  # also when no step runs
        _check_enumerable(model.shape)
    rank = numerical_rank(model)
    k = resolve_k(k, rank)

    # a fresh array: the working residual, deflated in place; none for zero axes
    R = model.D if k else None
    I, J = model.shape
    exhaustive = strategy == "exhaustive" or (strategy == "auto" and _enumerable(model.shape))
    # the iterative steps' start Gram, formed at the first step, deflated
    # with R and formed again when its trace falls below _REFORM_TRACE of
    # the trace it was formed with
    G, formed = None, 0.0
    seed_seq = np.random.SeedSequence(seed)
    # Column-major, so each axis is written contiguously and the C-ordered
    # arrays the decomposition keeps are allocated after the loop, when
    # FactorDecomposition copies them, not under the solver's temporaries.
    deltas = np.empty(k)
    row_scores = np.empty((I, k), order="F")
    col_scores = np.empty((J, k), order="F")
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for alpha in range(k):
        if exhaustive:
            step = tsvd_step_exhaustive(R)
            Ru = R @ step.u
        else:
            if G is None or np.trace(G) < _REFORM_TRACE * formed:
                G = _gram(R)
                formed = np.trace(G)
            step, Ru = _iterative_step(R, G, restarts, seed_seq.spawn(1)[0])
        if step.delta < _DELTA_FLOOR:
            logger.warning("residual exhausted after %d axes (%d requested); truncating", alpha, k)
            break
        vR = step.v @ R
        deltas[alpha] = step.delta
        row_scores[:, alpha] = Ru / model.r
        col_scores[:, alpha] = vR / model.c
        pairs.append((np.asarray(step.u), np.asarray(step.v)))
        if alpha + 1 < k:  # the residual after the last axis is never read
            if G is not None:
                _deflate_gram(G, R, Ru, vR, step.delta)
            for b in _row_blocks(I, J):  # no temporary the size of R
                R[b] -= np.outer(Ru[b], vR) / step.delta

    n = len(pairs)  # axes extracted: k, or fewer when the residual ran out
    row_scores, col_scores = row_scores[:, :n], col_scores[:, :n]
    return assemble(TCA, model, rank, deltas[:n], row_scores, col_scores, pairs)
