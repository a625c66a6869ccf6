"""Contingency-table ingestion and the shared correspondence model.

A two-way contingency table ``N`` with grand total ``n`` is turned into the
correspondence matrix ``P = N / n``, its marginals ``r`` (rows) and ``c``
(columns), the centered residual ``D = P - r c^T`` and the association index
``delta = P / (r c^T) - 1``.  Every quantity downstream (both factorization
engines, the distortion diagnostics) is a function of this model.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import os
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, NoReturn, Sequence

import numpy as np

__all__ = [
    "InvalidTableError",
    "ContingencyTable",
    "CorrespondenceModel",
    "load_table",
    "build_model",
    "sparsity",
    "profile",
    "ROWS",
    "COLS",
]

logger = logging.getLogger(__name__)

ROWS = "rows"
COLS = "cols"

_DELIMITERS = (",", ";", "\t")


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
        if I < 2 or J < 2:
            raise InvalidTableError(f"table must be at least 2x2, got {I}x{J}")
        if len(self.row_labels) != I or len(self.col_labels) != J:
            raise InvalidTableError("label lengths do not match counts shape")
        for name, labels in (("row", self.row_labels), ("column", self.col_labels)):
            if len(set(labels)) != len(labels):
                raise InvalidTableError(f"duplicate {name} label")
        if not np.all(np.isfinite(counts)):
            raise InvalidTableError("counts must be finite")
        if np.any(counts < 0):
            raise InvalidTableError("counts must be nonnegative")
        if counts.sum() <= 0:
            raise InvalidTableError("grand total must be positive")
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "col_labels", tuple(self.col_labels))
        object.__setattr__(self, "counts", _freeze(counts))

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    @property
    def n(self) -> float:
        """Grand total of the table."""
        return float(self.counts.sum())


@dataclass(frozen=True)
class CorrespondenceModel:
    """Correspondence matrix with marginals, residual and association index.

    Attributes
    ----------
    P : (I, J) ndarray
        Probability table ``counts / n``; sums to 1.
    r, c : ndarray
        Row and column marginals of ``P``, all strictly positive.
    D : (I, J) ndarray
        Residual ``P - outer(r, c)``; every row and column sums to 0.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    P: np.ndarray
    r: np.ndarray
    c: np.ndarray
    D: np.ndarray

    def __post_init__(self) -> None:
        for field in ("P", "r", "c", "D"):
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
    def delta_index(self) -> np.ndarray:
        """Association index ``P / outer(r, c) - 1``, an ``(I, J)`` array.

        Satisfies ``delta_index * outer(r, c) == D`` cellwise.  No library
        code reads it, so it is computed on each access rather than stored
        as a second matrix the size of ``P``.
        """
        return self.P / np.outer(self.r, self.c) - 1.0

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
        """Singular values and short-side singular vectors of ``S``, by R-SVD.

        ``S`` is :func:`standardized_residual`; ``L`` is its long orientation,
        ``S`` itself when ``I >= J`` and ``S^T`` otherwise.  The R-SVD (Chan,
        ACM TOMS 8(1), 1982; Golub & Van Loan, Matrix Computations, 4th ed.,
        section 8.6) takes the triangular factor of ``L = Q R`` and the SVD
        ``R = A diag(s) B^T`` of that ``m x m`` matrix, ``m = min(I, J)``;
        then ``L = (Q A) diag(s) B^T``, so ``s`` and ``B`` are the singular
        values and right singular vectors of ``L``: the right vectors of
        ``S`` when ``I >= J``, its left vectors otherwise.  Returned as
        ``(s, B)``, columns of ``B`` in the order of ``s``.

        Computed once per model and kept.  Only ``m x m`` is kept, never ``Q``
        or the long-side vectors, which are the size of ``D``.  QR then SVD
        is backward stable, so a singular value near the ``1e-12`` rank
        floor is still resolved; the SVD of a Gram matrix ``L^T L`` would
        square the condition number and lose it.
        """
        S = standardized_residual(self)
        R = np.linalg.qr(S.T if S.shape[0] < S.shape[1] else S, mode="r")
        _, s, Bt = np.linalg.svd(R)
        return _freeze(s), _freeze(Bt.T)


def standardized_residual(model: CorrespondenceModel) -> np.ndarray:
    """``S = D / sqrt(outer(r, c))``, whose plain SVD yields the CA solution."""
    return model.D / np.sqrt(np.outer(model.r, model.c))


def _profile_deviations(
    model: CorrespondenceModel, axis: str, points=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Deviations of profiles from their barycenter, and the barycenter.

    Row ``k`` of the first result is ``profile(model, axis, i) - barycenter``
    for the ``k``-th point ``i`` selected by ``points`` (a slice or a list of
    indices).  The result is a fresh C-contiguous array, so callers may
    transform it in place and reduce along axis 1 in the same summation order
    as a single profile.
    """
    if _check_axis(axis) == ROWS:
        deviations = model.P[points] / model.r[points, None]
        barycenter = model.c
    else:
        deviations = np.divide(model.P.T[points], model.c[points, None], order="C")
        barycenter = model.r
    deviations -= barycenter
    return deviations, barycenter


def _detect_delimiter(sample: str) -> str:
    first = sample.splitlines()[0] if sample else ""
    counts = {d: first.count(d) for d in _DELIMITERS}
    best = max(counts, key=counts.get)
    if counts[best] == 0:
        raise InvalidTableError("could not detect a delimiter (comma, semicolon or tab)")
    return best


def _check_count(value: float, row_label: str, col_label: str) -> float:
    if not np.isfinite(value):
        raise InvalidTableError(f"cell ({row_label!r}, {col_label!r}): not finite")
    if value < 0:
        raise InvalidTableError(f"cell ({row_label!r}, {col_label!r}): negative count {value}")
    return value


def _parse_cell(text: str, row_label: str, col_label: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise InvalidTableError(
            f"cell ({row_label!r}, {col_label!r}): not a number: {text!r}"
        ) from None
    return _check_count(value, row_label, col_label)


def _reject_row(row: Sequence[str], label: str, col_labels: Sequence[str]) -> NoReturn:
    """Raise the labelled error of the first bad cell in a data row known to hold one."""
    for cell, col in zip(row[1:], col_labels):
        _parse_cell(cell, label, col)
    # numpy's parse and float() agree, so a row that failed one fails the other
    raise InvalidTableError(f"row {label!r}: a cell could not be parsed")


def _reject_counts(
    counts: np.ndarray, row_labels: Sequence[str], col_labels: Sequence[str]
) -> None:
    """Raise for the first non-finite or negative cell of ``counts``, in row order.

    The check runs on the whole array at once; only a failing row is scanned
    again cell by cell, to name its first bad cell.
    """
    ok = np.isfinite(counts)
    ok &= counts >= 0
    if not ok.all():
        i = int(np.flatnonzero(~ok.all(axis=1))[0])
        for value, col in zip(counts[i].tolist(), col_labels):
            _check_count(value, row_labels[i], col)


def load_table(
    source: str | os.PathLike | IO[str],
    drop_empty: bool = False,
    delimiter: str | None = None,
) -> ContingencyTable:
    """Parse delimiter-separated text into a :class:`ContingencyTable`.

    The first row holds column labels (an optional leading corner cell is
    ignored); the first field of every other row is the row label.  The
    delimiter is auto-detected among comma, semicolon and tab unless given.

    Cells are read as ``float()`` reads them (surrounding whitespace,
    ``1_000``, ``+5``, ``1e3`` and non-ASCII digits are accepted).  Each data
    row is converted, as it is read, into its row of one preallocated array,
    and the whole array is then checked for non-finite and negative cells at
    once; a row that fails either step is scanned again cell by cell, only
    to name its first bad cell.  Errors follow row order, so a ragged row is
    reported before a bad cell in a later row and after one in an earlier row.

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
        Delimiter that is not one character, input that is not UTF-8 text,
        malformed cell, duplicate label, zero marginal with ``drop_empty``
        unset, or a table smaller than 2x2 after any dropping.
    """
    if delimiter is not None and len(delimiter) != 1:
        raise InvalidTableError(f"delimiter must be one character, got {delimiter!r}")
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise InvalidTableError(f"input is not {exc.encoding} text ({exc.reason})") from None
    if not text.strip():
        raise InvalidTableError("empty input")
    if delimiter is None:
        delimiter = _detect_delimiter(text)

    rows = (row for row in csv.reader(io.StringIO(text), delimiter=delimiter) if row)
    header = next(rows, None)
    first = next(rows, None)
    if first is None:
        raise InvalidTableError("need a header row and at least two data rows")
    width = len(first)
    if len(header) == width:
        col_labels = [label.strip() for label in header[1:]]  # corner cell present
    elif len(header) == width - 1:
        col_labels = [label.strip() for label in header]
    else:
        raise InvalidTableError(
            f"header has {len(header)} fields but data rows have {width}"
        )

    # Every csv row but the last ends in a line break, so there are at most
    # as many data rows as line breaks.  Rows are converted as they are read:
    # holding every row's list of strings at once left ~40 MB of dead heap
    # under the next large allocation on a 590 x 8265 table.
    row_labels: list[str] = []
    counts = np.empty((text.count("\n") + text.count("\r"), width - 1))
    for i, row in enumerate(itertools.chain((first,), rows)):
        row_labels.append(row[0].strip())
        if len(row) != width:
            _reject_counts(counts[:i], row_labels, col_labels)
            raise InvalidTableError(
                f"row {row[0]!r}: expected {width} fields, got {len(row)}"
            )
        try:
            counts[i] = row[1:]  # numpy parses each str exactly as float() does
        except ValueError:
            _reject_counts(counts[:i], row_labels, col_labels)
            _reject_row(row, row_labels[i], col_labels)
    counts = counts[: len(row_labels)]
    _reject_counts(counts, row_labels, col_labels)

    if drop_empty:
        counts, row_labels, col_labels = _drop_empty(counts, row_labels, col_labels)
    else:
        _reject_empty(counts, row_labels, col_labels)
    return ContingencyTable(tuple(row_labels), tuple(col_labels), counts)


def _reject_empty(
    counts: np.ndarray, row_labels: Sequence[str], col_labels: Sequence[str]
) -> None:
    for axis, labels, name in ((1, row_labels, "row"), (0, col_labels, "column")):
        sums = counts.sum(axis=axis)
        if np.any(sums == 0):
            bad = [labels[i] for i in np.flatnonzero(sums == 0)]
            raise InvalidTableError(
                f"all-zero {name}(s) {bad}; rerun with drop_empty to remove them"
            )


def _drop_empty(
    counts: np.ndarray, row_labels: Sequence[str], col_labels: Sequence[str]
) -> tuple[np.ndarray, list[str], list[str]]:
    row_keep = counts.sum(axis=1) > 0
    col_keep = counts.sum(axis=0) > 0
    for keep, labels, name in ((row_keep, row_labels, "row"), (col_keep, col_labels, "column")):
        dropped = [labels[i] for i in np.flatnonzero(~keep)]
        if dropped:
            logger.warning("dropping all-zero %s(s): %s", name, ", ".join(dropped))
    return (
        counts[np.ix_(row_keep, col_keep)],
        [l for l, k in zip(row_labels, row_keep) if k],
        [l for l, k in zip(col_labels, col_keep) if k],
    )


def build_model(table: ContingencyTable) -> CorrespondenceModel:
    """Compute ``P``, its marginals and the residual ``D``.

    Raises
    ------
    InvalidTableError
        If any marginal is zero (unreachable for tables from
        :func:`load_table` without ``drop_empty`` abuse).
    """
    P = table.counts / table.counts.sum()
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    if np.any(r == 0) or np.any(c == 0):
        raise InvalidTableError("zero marginal; drop empty rows/columns first")
    D = P - np.outer(r, c)
    return CorrespondenceModel(table.row_labels, table.col_labels, P, r, c, D)


def sparsity(table: ContingencyTable) -> float:
    """Fraction of zero cells, in ``[0, 1]``."""
    return float(np.count_nonzero(table.counts == 0) / table.counts.size)


def profile(model: CorrespondenceModel, axis: str, index: int) -> np.ndarray:
    """Profile of one row (``P[i] / r[i]``) or column (``P[:, j] / c[j]``).

    The result is a probability vector; the weighted average of all profiles
    on an axis is the opposite marginal (the barycenter).
    """
    _check_axis(axis)
    I, J = model.shape
    size = I if axis == ROWS else J
    if not 0 <= index < size:
        raise IndexError(f"{axis} index {index} out of range for {I}x{J} table")
    if axis == ROWS:
        return model.P[index] / model.r[index]
    return model.P[:, index] / model.c[index]
