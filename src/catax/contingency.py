"""Contingency-table ingestion and the shared correspondence model.

A two-way contingency table ``N`` with grand total ``n`` is turned into the
correspondence matrix ``P = N / n`` and its marginals ``r`` (rows) and ``c``
(columns).  The centered residual ``D = P - r c^T``, the standardized residual
``S = D / sqrt(r c^T)`` and the association index ``delta = P / (r c^T) - 1``
are derived from them on demand, in row blocks, so a model holds one array
the size of the table.  Every quantity downstream (both factorization
engines, the distortion diagnostics) is a function of this model.

This module holds the table, its parser and the model; the distances
between profiles and their totals are in `catax.distortion`.
"""

from __future__ import annotations

import csv
import itertools
import logging
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Iterator, NoReturn, Sequence

import numpy as np

__all__ = [
    "InvalidTableError",
    "ContingencyTable",
    "CorrespondenceModel",
    "load_table",
    "build_model",
    "sparsity",
    "standardized_residual",
    "ROWS",
    "COLS",
]

logger = logging.getLogger(__name__)

ROWS = "rows"
COLS = "cols"

_DELIMITERS = (",", ";", "\t")

# Residuals derived from ``P`` are formed this many float64 elements (1 MB)
# of rows at a time, so no temporary the size of the table is made.
_BLOCK_ELEMENTS = 1 << 17

# Lines of the long orientation of ``S`` per block of the Gram matrix and per
# step of the blocked QR in `CorrespondenceModel._short_svd`; a table whose
# long side fits in one block makes a single QR, as an unblocked R-SVD would.
_QR_BLOCK_LINES = 2048

# Singular values of ``S`` at or below this multiple of the largest count as
# zero in the numerical rank (`catax.decomposition.numerical_rank`).
RANK_RTOL = 1e-12

# The Gram matrix's values are used only when its smallest non-trivial
# singular value is at least this multiple of the largest (2^-6, squared for
# eigenvalues): its eigenvalue errors of about u * sigma_1^2 then cost the
# singular values and vectors at most 2^5 u relative to sigma_1 and to the
# gap, within the 1e-14 to which the tests pin them against a full SVD.
_GRAM_MIN_RATIO = 2.0**-12

# Line breaks of str.splitlines that csv keeps as data: it ends a record only
# at \r\n, \n or \r.  `_lines` joins a line that ends at one to the next.
_SPLITLINES_ONLY = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"

# `_plain_blocks` leaves a block with a data line holding any of these to csv:
# csv unquotes a '"' and, before Python 3.11, rejects a NUL; loadtxt strips
# \x1c-\x1f around a number, float() does not.
_DECLINED = '"\0\x1f' + _SPLITLINES_ONLY

# `_lines` splits a text into lines at least this many characters at a time,
# so it never holds a second copy of the whole text.
_PIECE = 1 << 20


class InvalidTableError(ValueError):
    """Raised when input data cannot form a valid contingency table."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def _check_axis(axis: str) -> str:
    if axis not in (ROWS, COLS):
        raise ValueError(f"axis must be {ROWS!r} or {COLS!r}, got {axis!r}")
    return axis


def _check_size(I: int, J: int) -> None:
    if I < 2 or J < 2:
        raise InvalidTableError(f"table must be at least 2x2, got {I}x{J}")


def _row_blocks(I: int, J: int) -> Iterator[slice]:
    """Slices of consecutive rows of an ``(I, J)`` array, ``_BLOCK_ELEMENTS`` per block."""
    rows = max(1, _BLOCK_ELEMENTS // J)
    return (slice(b, b + rows) for b in range(0, I, rows))


def _sum_row_blocks(shape: tuple[int, int], block_total: Callable[[slice], float]) -> float:
    """``block_total(b)`` summed over the `_row_blocks` ``b`` of ``shape``.

    The totals are added one by one, in order, not by ``sum()``, which is
    compensated for floats from Python 3.12 on.  So a sum over the blocks
    has the same bits on every version and from every caller: the first
    TCA residual's ``sum|R|`` equals the total dispersion bit for bit.
    """
    total = 0.0
    for b in _row_blocks(*shape):
        total += block_total(b)
    return total


def _residual(
    P: np.ndarray, r: np.ndarray, c: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``P - outer(r, c)``, written into ``out`` and returned.

    The one place the residual is formed.  Without ``out`` the result
    overwrites the ``outer(r, c)`` temporary, so a block costs one array of
    its size.  Cell for cell the operations of ``P - np.outer(r, c)``, so a
    block of ``D`` formed from a block of ``P`` and the matching slices of
    the marginals equals that block of the whole-table expression bit for
    bit.
    """
    rc = np.outer(r, c)
    return np.subtract(P, rc, out=rc if out is None else out)


def _standardize(P: np.ndarray, r: np.ndarray, c: np.ndarray, out: np.ndarray) -> None:
    """Write ``(P - outer(r, c)) / sqrt(outer(r, c))`` into ``out``.

    With ``rc = np.outer(r, c)`` these are, cell for cell, the operations of
    ``(P - rc) / np.sqrt(rc)``, so a block of ``S`` equals that block of the
    whole-table expression bit for bit, as `_residual` does for ``D``.
    """
    _residual(P, r, c, out)
    rc = np.outer(r, c)
    out /= np.sqrt(rc, out=rc)


@dataclass(frozen=True)
class ContingencyTable:
    """Labeled nonnegative count matrix.

    Attributes
    ----------
    row_labels, col_labels : tuple of str
        Unique labels for each axis.
    counts : (I, J) ndarray
        Nonnegative cell counts (reals accepted so pre-normalized tables
        load).  The array is read-only.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 2:
            raise InvalidTableError("counts must be a 2-d matrix")
        I, J = counts.shape
        _check_size(I, J)
        if len(self.row_labels) != I or len(self.col_labels) != J:
            raise InvalidTableError("label lengths do not match counts shape")
        for name, labels in (("row", self.row_labels), ("column", self.col_labels)):
            if not all(isinstance(label, str) for label in labels):
                raise InvalidTableError(f"{name} labels must be str")
            if len(set(labels)) != len(labels):
                raise InvalidTableError(f"duplicate {name} label")
        # two passes decide all three checks: a NaN cell makes both extremes
        # NaN, so it reads as not finite before any negative cell is seen
        lo, hi = counts.min(), counts.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise InvalidTableError("counts must be finite")
        if lo < 0:
            raise InvalidTableError("counts must be nonnegative")
        if hi == 0:  # a sum could overflow
            raise InvalidTableError("grand total must be positive")
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        object.__setattr__(self, "counts", _freeze(counts))

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    @property
    def n(self) -> float:
        """Grand total of the table; ``inf``, with no warning, past float64's
        largest value (about 1.8e308), which `build_model` still accepts."""
        with np.errstate(over="ignore"):
            return float(self.counts.sum())


@dataclass(frozen=True)
class CorrespondenceModel:
    """Correspondence matrix with its marginals.

    ``P`` is the model's one array the size of the table.  The residual
    ``D``, the association index and the standardized residual are derived
    from ``P``, ``r`` and ``c`` when asked for, in row blocks, and never
    stored, so deriving one makes one table-sized array and no larger
    temporary.

    Attributes
    ----------
    P : (I, J) ndarray
        Probability table ``counts / n``; sums to 1.
    r, c : ndarray
        Row and column marginals of ``P``, all strictly positive.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    P: np.ndarray
    r: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        for field in ("P", "r", "c"):
            object.__setattr__(self, field, _freeze(getattr(self, field)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.P.shape

    def labels(self, axis: str) -> tuple[str, ...]:
        return self.row_labels if _check_axis(axis) == ROWS else self.col_labels

    def weights(self, axis: str) -> np.ndarray:
        """Marginal weight vector of the requested axis (``r`` or ``c``)."""
        return self.r if _check_axis(axis) == ROWS else self.c

    @property
    def D(self) -> np.ndarray:
        """Residual ``P - outer(r, c)``, a fresh ``(I, J)`` array.

        Every row and column sums to 0.  Formed on each access in row blocks,
        cell for cell as that expression, so it equals it bit for bit
        without a table-sized ``outer(r, c)``.  Callers own the result and
        may overwrite it.
        """
        D = np.empty(self.shape)
        for b in _row_blocks(*self.shape):
            _residual(self.P[b], self.r[b], self.c, D[b])
        return D

    @property
    def delta_index(self) -> np.ndarray:
        """Association index ``P / outer(r, c) - 1``, an ``(I, J)`` array.

        Satisfies ``delta_index * outer(r, c) == D`` cellwise.  Formed on
        each access in row blocks, like `D`.
        """
        delta = np.empty(self.shape)
        for b in _row_blocks(*self.shape):
            np.divide(self.P[b], np.outer(self.r[b], self.c), out=delta[b])
        delta -= 1.0
        return delta

    @property
    def singular_values(self) -> np.ndarray:
        """Singular values of :func:`standardized_residual`, non-increasing.

        There are ``min(I, J)`` of them, read from the model's one cached
        factorization (see `_short_svd`), so every rank decision and the CA
        solution of this model use the same values.
        """
        return self._short_svd[0]

    @cached_property
    def _short_svd(self) -> tuple[np.ndarray, np.ndarray]:
        """Singular values and short-side singular vectors of ``S``.

        ``S`` is :func:`standardized_residual`; ``L`` is its long orientation,
        ``S`` itself when ``I >= J`` and ``S^T`` otherwise, ``n x m`` with
        ``m = min(I, J)``.  Returned as ``(s, B)``: the ``m`` singular values
        of ``L``, non-increasing, and its right singular vectors, the columns
        of ``B`` in the order of ``s`` (the right vectors of ``S`` when
        ``I >= J``, its left vectors otherwise).

        The values come from the Gram matrix ``L^T L`` (`_gram_svd`) when it
        proves that every non-trivial singular value lies above the rank
        floor ``RANK_RTOL * sigma_1`` and that the trivial one lies below
        it, and when its values are accurate to the tests' tolerance.
        Otherwise, on near-independent and ill-conditioned tables, they come
        from an R-SVD (Chan, ACM TOMS 8(1), 1982; Golub & Van Loan, Matrix
        Computations, 4th ed., section 8.6): the triangular factor of
        ``L = Q R``, then the SVD ``R = A diag(s) B^T`` of that ``m x m``
        matrix, so that ``L = (Q A) diag(s) B^T``.

        ``R`` comes from a sequential tall-skinny QR (TSQR; Demmel, Grigori,
        Hoemmen & Langou, SIAM J. Sci. Comput. 34(1), 2012), so ``S`` is
        never formed whole.  ``L`` is taken in blocks of
        ``max(_QR_BLOCK_LINES, m)`` lines, each formed from ``P`` by the
        operations of :func:`standardized_residual` in one reused
        Fortran-order buffer, under the previous ``R``; then
        ``R <- qr([R; L_b])``.  Only the last block can have fewer than ``m``
        lines, and it sits under an ``R``, so every ``R`` is ``m x m``.  A
        table whose long side fits in one block makes a single QR of ``L``.
        QR then SVD is backward stable, and so is the blocked QR, so a
        singular value near the rank floor is still resolved, where the
        Gram matrix, which squares the condition number, cannot tell it.

        Computed once per model and kept.  Only ``m x m`` is kept, never ``Q``
        or the long-side vectors, which are the size of ``P``.
        """
        gram = _gram_svd(self)
        if gram is not None:
            return gram
        n, m = max(self.shape), min(self.shape)
        block = max(_QR_BLOCK_LINES, m)
        W = np.empty((n if n <= block else m + block, m), order="F")
        R = np.empty((0, m))
        for start in range(0, n, block):
            stop = min(start + block, n)
            top = R.shape[0]
            W[:top] = R
            _long_lines(self, start, stop, W[top : top + stop - start])
            R = np.linalg.qr(W[: top + stop - start], mode="r")
        _, s, Bt = np.linalg.svd(R)
        return _freeze(s), _freeze(Bt.T)


def _long_lines(model: CorrespondenceModel, start: int, stop: int, out: np.ndarray) -> None:
    """Write lines ``start:stop`` of the long orientation of ``S`` into ``out``.

    The long orientation is ``S`` when ``I >= J`` and ``S^T`` otherwise;
    ``out`` is ``(stop - start) x min(I, J)``.  Formed from ``P`` by
    `_standardize`, so the lines equal those of :func:`standardized_residual`
    bit for bit.
    """
    if model.shape[0] < model.shape[1]:
        _standardize(model.P[:, start:stop], model.r, model.c[start:stop], out.T)
    else:
        _standardize(model.P[start:stop], model.r[start:stop], model.c, out)


def _gram_svd(model: CorrespondenceModel) -> tuple[np.ndarray, np.ndarray] | None:
    """``CorrespondenceModel._short_svd`` from the Gram matrix, or None.

    ``L`` (``n x m``, the long orientation of ``S``) has the known null
    direction ``w``, the unit vector along ``sqrt(r)`` when ``I < J`` and
    along ``sqrt(c)`` otherwise, since ``D`` is doubly centred.  The Gram
    matrix ``G = L^T L`` is summed over blocks of ``_QR_BLOCK_LINES`` lines,
    each formed by `_long_lines` in one reused buffer and added as one
    symmetric rank-k product, and the same pass sums ``t = ||L w||_2``,
    the rounding left in the null direction.  ``w`` is then projected out,
    ``G <- (I - w w^T) G (I - w w^T)``, by two rank-one updates, and one
    ``eigh`` gives the eigenvalues ``lam_0 <= ... <= lam_{m-1}``.  The
    result is ``sqrt(lam_{m-1}), ..., sqrt(lam_1), t`` with their
    eigenvectors and ``w``.

    Every rounding is bounded in ``eta = gamma_{2n + 8m + 64} trace(G)``,
    with Higham's ``gamma_k = k u / (1 - k u)`` and ``u = 2^-53``:

    - the product, ``|fl(L^T L) - L^T L| <= gamma_n |L|^T |L|`` entrywise
      for any order of summation (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., section 3.5, (3.13)), hence at most
      ``gamma_n ||L||_F^2`` in the 2-norm.  The computed trace is a sum of
      non-negative terms, at least ``(1 - gamma_{n+m}) ||L||_F^2``, so
      ``gamma_{2n} trace(G)`` bounds it;
    - the projection: ``G w``, ``w^T G w`` and the two rank-one updates
      round each entry by at most ``gamma_{m+4}`` times sums of absolute
      values whose Frobenius norm is at most ``3 ||G||_F <= 3 trace(G)``
      (``G`` is positive semidefinite), and the computed ``w`` is a unit
      vector to within ``gamma_{m+2}``, which moves the projector by twice
      that; ``gamma_{6m+32} trace(G)`` covers both;
    - ``eigh``'s backward error, ``p(m) u ||G||_2`` with LAPACK's
      unspecified modest ``p`` (LAPACK Users' Guide, 3rd ed., section
      4.7.1) taken as ``2m``, and ``||G||_2 <= trace(G)``.

    By Weyl's inequality each computed eigenvalue is then within ``eta`` of
    the exact one of ``P L^T L P``, ``P = I - w w^T``, whose eigenvalues are
    0 (along ``w``) and the ``m - 1`` eigenvalues of ``L^T L`` compressed to
    the complement of ``w``, which interlace ``sigma_1^2 >= mu_1 >=
    sigma_2^2 >= ... >= mu_{m-1} >= sigma_m^2``.  So ``sigma_{m-1}^2 >=
    lam_1 - eta``.  The result is used only when

    (a) ``lam_1 >= eta + RANK_RTOL^2 (lam_{m-1} + eta)``: every non-trivial
        singular value of ``L`` lies above the rank floor, by proof;
    (b) ``|lam_0| <= eta``: the projected direction is the smallest, as (a)
        and the bound imply, so this checks the bound itself;
    (c) ``t <= RANK_RTOL sigma_1``: the trivial value, which bounds
        ``sigma_m`` from above, lies at or below the floor, which a
        near-independent table with large cells breaks;
    (d) ``lam_1 >= _GRAM_MIN_RATIO lam_{m-1}``: the values and vectors are
        as accurate as the R-SVD's to the tests' tolerance.

    Otherwise None is returned and the caller takes the blocked TSQR.
    """
    I, J = model.shape
    n, m = max(I, J), min(I, J)
    w = np.sqrt(model.r if I < J else model.c)
    w /= np.linalg.norm(w)
    block = min(n, _QR_BLOCK_LINES)
    # X^T is C-ordered like the block of S that `_standardize` writes
    buffer = np.empty((block, m), order="F" if I < J else "C")
    G = np.zeros((m, m))
    t_sq = 0.0
    for start in range(0, n, block):
        stop = min(start + block, n)
        X = buffer[: stop - start]
        _long_lines(model, start, stop, X)
        G += X.T @ X
        Xw = X @ w
        t_sq += Xw @ Xw
    trace = np.trace(G)
    h = G @ w
    h -= (0.5 * (w @ h)) * w
    G -= np.outer(w, h)
    G -= np.outer(h, w)
    lam, vectors = np.linalg.eigh(G)
    k = (2 * n + 8 * m + 64) * 2.0**-53
    eta = k / (1 - k) * trace  # gamma_{2n+8m+64} trace(G), u = 2^-53
    top = lam[-1]
    if not (
        lam[1] >= eta + RANK_RTOL**2 * (top + eta)
        and abs(lam[0]) <= eta
        and t_sq <= RANK_RTOL**2 * top
        and lam[1] >= _GRAM_MIN_RATIO * top
    ):
        return None  # also when a value is NaN
    s = np.append(np.sqrt(lam[:0:-1]), np.sqrt(t_sq))
    return _freeze(s), _freeze(np.column_stack((vectors[:, :0:-1], w)))


def standardized_residual(model: CorrespondenceModel) -> np.ndarray:
    """``S = D / sqrt(outer(r, c))``, whose plain SVD yields the CA solution.

    Formed from ``P`` in row blocks, cell for cell as that expression, so it
    equals it bit for bit and the result is the only table-sized array made.
    The model's own factorization (`CorrespondenceModel._short_svd`) forms
    ``S`` one block at a time and never calls this.
    """
    S = np.empty(model.shape)
    for b in _row_blocks(*model.shape):
        _standardize(model.P[b], model.r[b], model.c, S[b])
    return S


def _detect_delimiter(line: str) -> str:
    """The one of ``_DELIMITERS`` that ``line`` holds most often, the first on a tie."""
    best = max(_DELIMITERS, key=line.count)
    if best not in line:
        raise InvalidTableError("could not detect a delimiter (comma, semicolon or tab)")
    return best


def _records(lines: Iterator[str], delimiter: str) -> Iterator[list[str]]:
    """The nonblank csv records of ``lines``.

    The records are read from the lines, so once a record is taken the lines
    go on after it.
    """
    return (row for row in csv.reader(lines, delimiter=delimiter) if row)


def _lines(text: str) -> Iterator[str]:
    """The lines of ``text``, each with its line break, ending where csv ends a record.

    csv ends a record at ``\\r\\n``, ``\\n`` or ``\\r``.  The text is split by
    `str.splitlines` a piece of at least ``_PIECE`` characters at a time,
    each piece ending at one of those breaks, so no line is cut and only one
    piece's copy is held.  A line that `str.splitlines` ends at a character
    csv keeps as data (``_SPLITLINES_ONLY``) is joined to the next one.
    """
    start = 0
    line = ""
    while start < len(text):
        # after a \n, so no \r\n is cut in two; else the rest has no \n
        stop = (
            text.find("\n", start + _PIECE) + 1
            or text.find("\r", start + _PIECE) + 1
            or len(text)
        )
        for part in text[start:stop].splitlines(keepends=True):
            line += part
            if part[-1] in "\r\n":
                yield line
                line = ""
        start = stop
    if line:  # the last line, without a line break
        yield line


def _reject_row(
    row: Sequence[str], width: int, label: str, col_labels: Sequence[str]
) -> NoReturn:
    """Raise the error of a bad data row: its field count, else its first bad cell."""
    if len(row) != width:
        raise InvalidTableError(f"row {row[0]!r}: expected {width} fields, got {len(row)}")
    for cell, col in zip(row[1:], col_labels):
        where = f"cell ({label!r}, {col!r})"
        try:
            value = float(cell)
        except ValueError:
            raise InvalidTableError(f"{where}: not a number: {cell!r}") from None
        if not np.isfinite(value):
            raise InvalidTableError(f"{where}: not finite")
        if value < 0:
            raise InvalidTableError(f"{where}: negative count {value}")
    # numpy's parse and float() agree, so a row that failed one fails the other
    raise InvalidTableError(f"row {label!r}: a cell could not be parsed")


def _line_breaks(text: str) -> int:
    """The line breaks of ``text`` where csv ends a record, a ``\\r\\n`` counted once."""
    return text.count("\n") + text.count("\r") - text.count("\r\n")


def _read_rows(text: str, delimiter: str | None) -> tuple[list[str], list[str], np.ndarray]:
    """Row labels, column labels and counts of ``text``, read in one walk of its lines.

    The lines come from one call of `_lines`.  A delimiter of None is
    detected from the first line (`_detect_delimiter`).  csv reads the
    header and the first data row, which fix the number of fields and are
    checked as `load_table` describes.  The data lines after them go to
    `_plain_blocks`, which reads them in blocks, in C, for as long as it
    takes them; csv reads on from the first block it does not take, to the
    end of the text, and never hands back.  Each row csv reads is converted
    as it is read, into its row of one array, and checked there, so the
    first bad row raises and errors follow row order.
    """
    # one line at a time: io.StringIO would hold a 4-byte-per-character copy
    lines = _lines(text)
    head = next(lines)  # the text is not empty
    delimiter = delimiter or _detect_delimiter(head)
    rows = _records(itertools.chain((head,), lines), delimiter)
    header = next(rows, None)
    first = next(rows, None)
    if first is None:
        raise InvalidTableError("need a header row and at least two data rows")
    if len(first) < 2:
        raise InvalidTableError(
            f"delimiter {delimiter!r} does not split data row {first[0]!r} into fields"
        )
    width = len(first)
    if len(header) not in (width, width - 1):  # with or without a corner cell
        raise InvalidTableError(
            f"header has {len(header)} fields but data rows have {width}"
        )
    col_labels = [label.strip() for label in header[len(header) - width + 1 :]]

    # Every csv row but the last ends in a line break, so there are at most
    # as many data rows as line breaks.  Rows are converted as they are read:
    # holding every row's list of strings at once left ~40 MB of dead heap
    # under the next large allocation on a 590 x 8265 table.
    row_labels: list[str] = []
    counts = np.empty((_line_breaks(text), width - 1))

    def convert(rows: Iterator[list[str]]) -> None:
        for i, row in enumerate(rows, len(row_labels)):
            row_labels.append(row[0].strip())
            try:
                counts[i] = row[1:]  # numpy parses each str exactly as float() does
            except ValueError:
                _reject_row(row, width, row_labels[i], col_labels)
            # false on NaN as well; a short row may have broadcast into counts[i]
            if len(row) != width or not 0 <= counts[i].min() <= counts[i].max() < np.inf:
                _reject_row(row, width, row_labels[i], col_labels)

    convert((first,))
    declined = _plain_blocks(lines, delimiter, row_labels, counts)
    convert(_records(itertools.chain(declined, lines), delimiter))
    # shrunk in place, so the table keeps no unused rows; no view of it exists
    counts.resize((len(row_labels), width - 1), refcheck=False)
    return row_labels, col_labels, counts


def _parse_block(cells: list[str], delimiter: str) -> np.ndarray | None:
    """The cells of a block of data lines, parsed by `numpy.loadtxt`, or None.

    They are parsed as int64, about twice as fast as float64, when none
    holds a ``-`` or a non-ASCII character: int64 would read ``-0`` as
    ``+0``, and numpy's int64 parser takes some non-ASCII characters for
    digits (numpy 2.4 even crashes on some).  An int64 parse that fails,
    overflows or warns (numpy 1.23 warns where it would read a cell such as
    ``1.5`` through a float) is dropped for a float64 one.  None is returned
    when the float64 parse fails too.
    """
    int64 = not any("-" in line or not line.isascii() for line in cells)
    for dtype in (np.int64, np.float64) if int64 else (np.float64,):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                return np.loadtxt(cells, delimiter=delimiter, comments=None, dtype=dtype, ndmin=2)
        except (ValueError, OverflowError, DeprecationWarning):
            continue
    return None


def _plain_blocks(
    lines: Iterator[str], delimiter: str, row_labels: list[str], counts: np.ndarray
) -> list[str]:
    """Read the plain data rows at the head of ``lines``, a block at a time.

    Each block of ``max(1, _BLOCK_ELEMENTS // width)`` data lines, ``width``
    being the number of counts per row, is taken from ``lines``, skipping
    blank lines, as csv does.  A line's label is the text before the first
    delimiter, stripped, and the block's cells, the rest of its lines, are
    parsed by `numpy.loadtxt` in C (`_parse_block`, as int64 or else as
    float64, chosen for each block).  A block is taken, its labels appended
    to ``row_labels`` and its counts written into the next rows of
    ``counts``, unless

    - a data line holds a quote, a NUL, ``\\x1f`` or a line break of
      `str.splitlines` that csv keeps as data (``_SPLITLINES_ONLY``:
      ``\\v``, ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028``,
      ``\\u2029``), or is longer than csv's field size limit;
    - a data line has no cell after its label;
    - loadtxt cannot parse the cells as float64: a line has not as many
      cells as ``counts`` has columns, or a cell is not a number to loadtxt
      (it rejects ``1_000`` and non-ASCII digits, which ``float()`` reads);
    - loadtxt's result has not one row per data line;
    - a count is not finite, or negative.

    loadtxt reads every other cell as ``float()`` does, and an int64 goes to
    the nearest float64 as the decimal does, so a block taken holds what
    csv and ``float()`` would read from it, bit for bit.  Returned are the
    lines read of the first block not taken, blank ones too, for csv to
    read before the lines after them, which are still in ``lines``.  At the
    end of the text they are blank lines or none, and when the delimiter is
    not one of ``_DELIMITERS`` no line is read and none are returned.
    """
    if delimiter not in _DELIMITERS:
        return []
    size = max(1, _BLOCK_ELEMENTS // counts.shape[1])
    limit = csv.field_size_limit()
    while True:
        block, labels, cells = [], [], []
        for line in lines:
            block.append(line)
            if line[0] in "\r\n":  # csv skips a blank line
                continue
            label, _, rest = line.partition(delimiter)
            # the first test is also true on "": no delimiter, or no cell after it
            if rest[:1] in "\r\n" or len(line) > limit or any(c in line for c in _DECLINED):
                return block
            labels.append(label.strip())
            cells.append(rest)
            if len(cells) == size:
                break
        parsed = _parse_block(cells, delimiter) if cells else None
        # another shape when a line has another number of cells; the
        # comparisons are false on NaN as well
        if parsed is None or parsed.shape != (len(cells), counts.shape[1]) or not (
            0 <= parsed.min() <= parsed.max() < np.inf
        ):
            return block
        counts[len(row_labels) : len(row_labels) + len(cells)] = parsed
        row_labels += labels


def load_table(
    source: str | os.PathLike | IO[str],
    drop_empty: bool = False,
    delimiter: str | None = None,
) -> ContingencyTable:
    """Parse delimiter-separated text into a :class:`ContingencyTable`.

    The first row holds column labels (an optional leading corner cell is
    ignored); the first field of every other row is the row label.  The
    delimiter is auto-detected among comma, semicolon and tab unless given.
    A leading byte-order mark (U+FEFF, as spreadsheet exports write) is
    ignored.

    The text is read by one reader (`_read_rows`) in one walk of its lines
    (`_lines`), which end at ``\\r\\n``, ``\\n`` or ``\\r``, where csv ends
    a record.  Cells are read as ``float()`` reads them (surrounding
    whitespace, ``1_000``, ``+5``, ``1e3`` and non-ASCII digits are
    accepted).  csv reads the header and the first data row.  After them,
    each block of data lines that holds no quote and no line break that
    `str.splitlines` honours and csv keeps as data, and whose cells are all
    plain decimal numbers, finite and nonnegative, is parsed in C
    (`_plain_blocks`): as int64, then converted, when none of its cells
    holds a ``-`` or a non-ASCII character, else as float64.  From the
    first block that is not, csv reads every row to the end of the text:
    each data row is converted, as it is read, into its row of one
    preallocated array and checked there, so a row with the wrong number
    of fields, or with a cell that is not a number, not finite or
    negative, is rejected before the next row is read, naming its field
    count or else its first bad cell.  Errors therefore follow row order.
    Either way a row gets the same label and counts, bit for bit, in an
    array shrunk in place to the rows read.  The size (at least 2x2) is
    checked next, then all-zero rows and columns.

    Parameters
    ----------
    source : path or text stream
    drop_empty : bool
        When true, all-zero rows/columns are removed (and reported through
        the module logger) instead of being an error.
    delimiter : str, optional
        Explicit one-character field separator, bypassing detection.

    Raises
    ------
    InvalidTableError
        Delimiter that is not one character or that does not split the
        first data row, input that is not UTF-8 text, text csv cannot read
        (a field over ``csv.field_size_limit()``), malformed row or cell, a
        table smaller than 2x2 (before or after any dropping), zero marginal
        with ``drop_empty`` unset, or duplicate label.
    """
    if delimiter is not None and len(delimiter) != 1:
        raise InvalidTableError(f"delimiter must be one character, got {delimiter!r}")
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            # newline="": csv reads line breaks itself, those in quoted fields too
            with open(source, "r", encoding="utf-8", newline="") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise InvalidTableError(f"input is not {exc.encoding} text ({exc.reason})") from None
    text = text.removeprefix("\ufeff")
    if not text or text.isspace():
        raise InvalidTableError("empty input")
    try:
        row_labels, col_labels, counts = _read_rows(text, delimiter)
    except csv.Error as exc:
        raise InvalidTableError(str(exc)) from None
    _check_size(*counts.shape)

    keep = (counts.any(axis=1), counts.any(axis=0))  # a sum could overflow
    labels = [row_labels, col_labels]
    for axis, name in enumerate(("row", "column")):
        if keep[axis].all():
            continue
        empty = [labels[axis][i] for i in np.flatnonzero(~keep[axis])]
        if not drop_empty:
            raise InvalidTableError(
                f"all-zero {name}(s) {empty}; rerun with drop_empty to remove them"
            )
        logger.warning("dropping all-zero %s(s): %s", name, ", ".join(empty))
        labels[axis] = list(itertools.compress(labels[axis], keep[axis]))
    if not (keep[0].all() and keep[1].all()):
        counts = counts[np.ix_(*keep)]
    return ContingencyTable(tuple(labels[0]), tuple(labels[1]), counts)


def build_model(table: ContingencyTable) -> CorrespondenceModel:
    """Compute ``P`` and its marginals; the residual ``D`` is derived on access.

    The counts are first scaled by the exact power of two that brings their
    maximum into ``[0.5, 1)``, so the grand total cannot overflow.  For a
    table whose scaled cells are all normal numbers the scaling is exact and
    ``P`` equals ``counts / counts.sum()`` bit for bit.

    Raises
    ------
    InvalidTableError
        If a line of the table is all zero (unreachable for tables from
        :func:`load_table`), or if a product ``r_i c_j`` of marginals
        underflows to zero, which happens when the cells span more than
        float64's range.
    """
    counts = table.counts
    P = np.ldexp(counts, -np.frexp(counts.max())[1])
    P /= P.sum()
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    if r.min() * c.min() == 0:
        if not (counts.any(axis=1).all() and counts.any(axis=0).all()):
            raise InvalidTableError("zero marginal; drop empty rows/columns first")
        raise InvalidTableError(
            "cells span more than float64's range: a product of marginals underflows to 0"
        )
    return CorrespondenceModel(table.row_labels, table.col_labels, P, r, c)


def sparsity(table: ContingencyTable) -> float:
    """Fraction of zero cells, in ``[0, 1]``."""
    return float(np.count_nonzero(table.counts == 0) / table.counts.size)
