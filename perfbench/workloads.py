"""Seeded workload generators for the analyze benchmark.

Every input is generated from the workload seed at run time; nothing is
downloaded and no table is committed.  ``build(name, seed, workdir)`` writes
the workload's CSV files and returns them with the flags each analysis runs
with.  The same seed always yields byte-identical CSV files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

JSON_FLAGS = ("--method", "both", "--axis", "both", "--dims", "3", "--format", "json")


@dataclass(frozen=True)
class Table:
    """One generated input: integer counts and the CSV file written for it."""

    name: str
    counts: np.ndarray
    path: str

    @property
    def row_labels(self) -> list[str]:
        return [f"r{i}" for i in range(self.counts.shape[0])]

    @property
    def col_labels(self) -> list[str]:
        return [f"c{j}" for j in range(self.counts.shape[1])]


@dataclass(frozen=True)
class Workload:
    name: str
    tables: list[Table]
    flags: tuple[str, ...]
    # Whether each analysis also writes an SVG factor map (``--map``).
    svg: bool
    # Output format, needed by the checker to parse stdout.
    fmt: str


def _corpus_counts(rng: np.random.Generator, lo: int = 3, hi: int = 8) -> np.ndarray:
    # Same recipe as the test suite's random-table corpus: integer counts in
    # 0..10, shape 3..8 x 3..8, an empty row or column patched with one count.
    I = int(rng.integers(lo, hi + 1))
    J = int(rng.integers(lo, hi + 1))
    counts = rng.integers(0, 11, size=(I, J)).astype(float)
    for i in range(I):
        if counts[i].sum() == 0:
            counts[i, rng.integers(J)] += 1
    for j in range(J):
        if counts[:, j].sum() == 0:
            counts[rng.integers(I), j] += 1
    return counts


def _counts(name: str, rng: np.random.Generator) -> list[np.ndarray]:
    if name == "corpus":
        return [_corpus_counts(rng) for _ in range(100)]
    if name == "enum50x20":
        return [rng.poisson(5.0, size=(50, 20)).astype(float)]
    if name == "tied40x18":
        # Near-independent: an exact rank-one table of ~1e9-sized cells plus
        # Poisson(1) noise, so the residual's dispersion is ~1e-9 and every
        # sign class lies within the exhaustive solver's absolute tie window.
        a = rng.integers(5, 40, size=40).astype(float)
        b = rng.integers(5, 40, size=18).astype(float)
        return [np.outer(a, b) * 1e6 + rng.poisson(1.0, size=(40, 18))]
    if name == "sacred590x8265":
        # Shaped like the sacred-books table: 590 x 8265, about 74% zeros.
        # An all-zero row or column has probability below e^-170.
        return [rng.poisson(0.3, size=(590, 8265)).astype(float)]
    raise ValueError(f"unknown workload {name!r}")


def write_csv(path: str, counts: np.ndarray) -> None:
    """Corner cell, ``c<j>`` column labels, ``r<i>`` row labels, integer cells."""
    I, J = counts.shape
    cells = counts.astype(np.int64)
    lines = [",".join([""] + [f"c{j}" for j in range(J)])]
    for i in range(I):
        lines.append(f"r{i}," + ",".join(map(str, cells[i].tolist())))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def build(name: str, seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    tables = []
    for k, counts in enumerate(_counts(name, rng)):
        path = os.path.join(workdir, f"{name}-{k:03d}.csv")
        write_csv(path, counts)
        tables.append(Table(f"{name}-{k:03d}", counts, path))
    if name == "sacred590x8265":
        flags = ("--method", "both", "--axis", "both", "--dims", "4")
        return Workload(name, tables, flags, svg=False, fmt="tsv")
    # enum50x20 draws a map as well as corpus, so that the two workloads
    # BENCHMARK.json gates (enum50x20, sacred590x8265) reach every layer.
    return Workload(name, tables, JSON_FLAGS, svg=name in ("corpus", "enum50x20"), fmt="json")


def warmup_table(workdir: str) -> Table:
    """A fixed 4 x 3 table analysed once, untimed, before measurement starts."""
    counts = np.array([[12, 5, 2], [4, 9, 3], [1, 6, 11], [5, 4, 6]], dtype=float)
    path = os.path.join(workdir, "warmup.csv")
    write_csv(path, counts)
    return Table("warmup", counts, path)
