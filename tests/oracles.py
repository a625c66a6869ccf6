"""Independent brute-force oracles: plain loops and full enumeration only."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np


def lifted_zipf_counts(seed: int) -> np.ndarray:
    """A sparse 60 x 800 Poisson table with rank-4 structure, all-zero lines dropped.

    Column weights follow Zipf's law (``1/j``, shuffled), row weights are
    lognormal, and a rank-4 log-linear lift ``exp(0.6 A B^T / 2)`` ties rows
    to columns; the mean is scaled to 3000 counts in all.
    """
    rng = np.random.default_rng(seed)
    col = 1.0 / np.arange(1, 801)
    rng.shuffle(col)
    row = rng.lognormal(0.0, 0.5, 60)
    A = rng.standard_normal((60, 4))
    B = rng.standard_normal((800, 4))
    mu = np.outer(row, col) * np.exp(0.6 * A @ B.T / 2)
    mu *= 3000 / mu.sum()
    counts = rng.poisson(mu).astype(float)
    return counts[np.ix_(counts.any(axis=1), counts.any(axis=0))]


def brute_delta1(R: np.ndarray) -> float:
    """Global max of ``||R u||_1`` by full enumeration of sign classes."""
    M = R if R.shape[1] <= R.shape[0] else R.T
    m = M.shape[1]
    best = -np.inf
    for tail in itertools.product((-1.0, 1.0), repeat=m - 1):
        u = np.array((1.0,) + tail)
        best = max(best, float(np.abs(M @ u).sum()))
    return best


def brute_argmax(M: np.ndarray) -> np.ndarray:
    """Lexicographically first maximizer of ``||M u||_1`` with ``u_0 = +1``.

    Sign vectors are visited in lexicographic order (-1 before +1) and only
    a strictly larger ``np.abs(M @ u).sum()`` replaces the incumbent.
    """
    m = M.shape[1]
    best, best_u = -np.inf, None
    for tail in itertools.product((-1.0, 1.0), repeat=m - 1):
        u = np.array((1.0,) + tail)
        value = float(np.abs(M @ u).sum())
        if value > best:
            best, best_u = value, u
    return best_u


def shifted_signs(codes: np.ndarray, m: int) -> np.ndarray:
    """Sign vectors of enumeration codes, one row per code, built by shifts.

    The first component is +1; bit ``m - 2 - k`` of a code gives component
    ``k + 1``, +1 for a set bit and -1 for a clear one.
    """
    shifts = np.arange(m - 2, -1, -1, dtype=np.uint64)
    X = np.ones((codes.size, m))
    X[:, 1:] = 2.0 * ((codes.astype(np.uint64)[:, None] >> shifts) & 1) - 1.0
    return X


def svd_start_signs(R: np.ndarray, q: int) -> list:
    """Signs (sign(0) = +1) of the first ``q`` right singular vectors of ``R``.

    The criss-cross start vectors as a full thin SVD gives them.
    """
    Vt = np.linalg.svd(R, full_matrices=False)[2]
    return [np.where(Vt[i] >= 0, 1.0, -1.0) for i in range(q)]


def criss_cross(R: np.ndarray, u: np.ndarray) -> tuple:
    """Criss-cross ascent from one start, one matrix-vector product at a time.

    Stops at a fixed point or when the objective ``||R u||_1`` does not
    strictly rise; returns ``(u, v, delta)`` with ``u_0 = +1``,
    ``v = sign(R u)`` (sign(0) = +1) and ``delta = ||R u||_1``.
    """
    obj = float(np.abs(R @ u).sum())
    while True:
        v = np.where(R @ u >= 0, 1.0, -1.0)
        u_next = np.where(R.T @ v >= 0, 1.0, -1.0)
        if np.array_equal(u_next, u):
            break
        obj_next = float(np.abs(R @ u_next).sum())
        if obj_next < obj - 1e-12:
            raise ArithmeticError("criss-cross ascent decreased the objective")
        if obj_next <= obj:
            break
        u, obj = u_next, obj_next
    if u[0] < 0:
        u = -u
    Ru = R @ u
    return u, np.where(Ru >= 0, 1.0, -1.0), float(np.abs(Ru).sum())


def exact_residual(counts: np.ndarray) -> np.ndarray:
    """Integer residual ``N * n_ij - n_i+ * n_+j``, a positive multiple of ``D``.

    Its zeros are exact, where ``P - outer(r, c)`` in floating point can
    leave rounding noise (about 7e-18 on some corpus cells).
    """
    n = np.asarray(counts).astype(np.int64)
    return n.sum() * n - np.outer(n.sum(axis=1), n.sum(axis=0))


def sign_separable(D: np.ndarray) -> bool:
    """Whether the nonzero entries of ``D`` have a rank-one sign pattern.

    True when some ``u`` in ``{-1, +1}^J`` leaves no row cancelling: in every
    row the nonzero ``D_ij * u_j`` share one sign, i.e. ``sign(D) ==
    outer(v, u)`` on the nonzero entries.  By the triangle inequality
    ``||D u||_1 <= sum |D_ij|`` for every ``u``, with equality exactly then.
    Only ``u_0 = +1`` is tried, since ``u`` and ``-u`` cancel alike.  Pass
    the ``exact_residual`` of a table's counts, whose zeros are exact.
    """
    I, J = D.shape
    for tail in itertools.product((-1.0, 1.0), repeat=J - 1):
        u = (1.0,) + tail
        separable = True
        for i in range(I):
            signs = {D[i, j] * u[j] > 0 for j in range(J) if D[i, j] != 0}
            if len(signs) > 1:
                separable = False
                break
        if separable:
            return True
    return False


def benzecri_row_loop(model, i: int) -> float:
    total = 0.0
    for j in range(model.P.shape[1]):
        total += (model.P[i, j] / model.r[i] - model.c[j]) ** 2 / model.c[j]
    return total


def benzecri_col_loop(model, j: int) -> float:
    total = 0.0
    for i in range(model.P.shape[0]):
        total += (model.P[i, j] / model.c[j] - model.r[i]) ** 2 / model.r[i]
    return total


def taxicab_row_loop(model, i: int) -> float:
    return sum(
        abs(model.P[i, j] / model.r[i] - model.c[j]) for j in range(model.P.shape[1])
    )


def taxicab_col_loop(model, j: int) -> float:
    return sum(
        abs(model.P[i, j] / model.c[j] - model.r[i]) for i in range(model.P.shape[0])
    )


def inertia_loop(model) -> float:
    I, J = model.P.shape
    total = 0.0
    for i in range(I):
        for j in range(J):
            total += (model.P[i, j] - model.r[i] * model.c[j]) ** 2 / (model.r[i] * model.c[j])
    return total


def dispersion_loop(model) -> float:
    I, J = model.P.shape
    return sum(abs(model.P[i, j] - model.r[i] * model.c[j]) for i in range(I) for j in range(J))


def block_sum(values) -> float:
    """Floats added one by one, left to right, as the library adds its block
    totals.  ``sum()`` of floats is compensated from Python 3.12 on, so it can
    differ in the last bit."""
    total = 0.0
    for x in values:
        total += x
    return total


def compensated_sum(values) -> float:
    """Neumaier's compensated sum, the algorithm of ``sum()`` of floats from
    CPython 3.12 on."""
    total = comp = 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


# csv ends a record at \r\n, \n or \r, and keeps every other character,
# \x0c and \u2028 among them, as data.
_CSV_LINE = re.compile(r"[^\r\n]*(?:\r\n|\n|\r)|[^\r\n]+\Z")


def csv_lines(text: str) -> list:
    """The lines of ``text``, each with its line break, ending where csv ends a
    record; one regular expression over the whole text."""
    return [match.group() for match in _CSV_LINE.finditer(text)]


def integer_screen(M: np.ndarray, low: int) -> tuple:
    """The exhaustive step's integer screen of ``M`` by brute force.

    Every sign class, by code as in `shifted_signs`, is split into a high
    half (the first ``m - low`` components) and a low half.  The step ``h``
    is the least power of two that keeps the heaviest chunk of
    ``g = min(n, 64)`` points within ``32766 - g`` steps of ``sum|M|``.  Each
    half of ``M x``, in steps, is rounded to a whole step, ``P`` and ``Q``,
    and the class scores ``sum_i |P_i + Q_i|``.  Returns the scores, each
    class's bound halves ``sum_i |P_i|`` and ``sum_i |Q_i|``, and ``sum|M|``
    in steps.  The halves are summed by matrix products, so the rounding
    matches the screen's where they stay off half steps, as on small
    integers and their thirds.
    """
    n, m = M.shape
    A = np.abs(M)
    g = min(n, 64)
    share = max(A[i : i + g].sum() for i in range(0, n, g))
    e = math.frexp(share / (32766 - g))[1]
    while math.ldexp(32766 - g, e - 1) >= share:
        e -= 1
    while math.ldexp(32766 - g, e) < share:
        e += 1
    Ms = np.ldexp(M, -e)
    X = shifted_signs(np.arange(1 << (m - 1)), m)
    P = np.rint(Ms[:, : m - low] @ X[:, : m - low].T)
    Q = np.rint(Ms[:, m - low :] @ X[:, m - low :].T)
    scores = np.abs(P + Q).sum(axis=0)
    return scores, np.abs(P).sum(axis=0), np.abs(Q).sum(axis=0), math.ldexp(A.sum(), -e)


def screen_window(n: int, m: int, S: float, rtol: float) -> int:
    """The screen's window in steps for an ``n x m`` matrix of ``S`` steps:
    ``2n`` for the rounding of the halves, plus ``(n + 2m) 2^-51`` for the
    float64 sums and ``rtol`` for the finalists, of ``S``, rounded up."""
    return 2 * n + math.ceil(((n + 2 * m) * 2.0**-51 + rtol) * S)
