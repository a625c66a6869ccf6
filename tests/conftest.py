"""Shared fixtures: seeded random-table corpus and optional dataset loading."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from catax import ContingencyTable, build_model, load_table

CORPUS_SEED = 20240811

DATA_DIR = Path(os.environ.get("CATAX_DATA", Path(__file__).resolve().parent.parent / "data"))


def make_counts(rng: np.random.Generator, lo: int = 3, hi: int = 8) -> np.ndarray:
    """Random integer counts with no all-zero row or column."""
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


def table_from_counts(counts) -> ContingencyTable:
    counts = np.asarray(counts, dtype=float)
    I, J = counts.shape
    return ContingencyTable(
        tuple(f"r{i}" for i in range(I)),
        tuple(f"c{j}" for j in range(J)),
        counts,
    )


def random_counts(count: int, seed: int = CORPUS_SEED) -> list:
    rng = np.random.default_rng(seed)
    return [make_counts(rng) for _ in range(count)]


def random_models(count: int, seed: int = CORPUS_SEED) -> list:
    return [build_model(table_from_counts(counts)) for counts in random_counts(count, seed)]


@pytest.fixture(scope="session")
def models30():
    return random_models(30)


@pytest.fixture(scope="session")
def suite100():
    """The 100-table corpus the acceptance criteria run on."""
    return random_models(100)


@pytest.fixture(scope="session")
def counts100():
    """The integer counts of ``suite100``, table for table."""
    return random_counts(100)


@pytest.fixture
def linalg_calls(monkeypatch):
    """``(name, shape)`` of every ``svd``, ``qr`` and ``eigh`` call in the test."""
    calls = []
    for name in ("svd", "qr", "eigh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def dataset_table(filename: str):
    """Load an external dataset or skip the test when it is absent."""
    path = DATA_DIR / filename
    if not path.exists():
        pytest.skip(f"dataset {filename} not present in {DATA_DIR} (see README for export recipes)")
    return load_table(path)
