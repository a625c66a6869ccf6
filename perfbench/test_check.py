"""The benchmark's output checker accepts real catax output and rejects
corrupted output.  Run with ``python3 -m pytest perfbench/test_check.py``."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import catax  # noqa: E402
import checker  # noqa: E402
import workloads  # noqa: E402


def _analyse(tmp_path, counts, flags, svg=False):
    path = str(tmp_path / "t.csv")
    workloads.write_csv(path, counts)
    argv = ["--input", path, *flags]
    if svg:
        argv += ["--map", str(tmp_path / "m.svg")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = catax.main(argv)
    labels = ([f"r{i}" for i in range(counts.shape[0])], [f"c{j}" for j in range(counts.shape[1])])
    ref = checker.reference(counts, *labels)
    svg_bytes = (tmp_path / "m.svg").read_bytes() if svg else None
    return ref, code, out.getvalue(), svg_bytes


@pytest.fixture
def json_run(tmp_path):
    counts = np.random.default_rng(7).poisson(5.0, size=(9, 6)).astype(float)
    return _analyse(tmp_path, counts, workloads.JSON_FLAGS, svg=True)


@pytest.fixture
def tsv_run(tmp_path):
    counts = np.random.default_rng(8).poisson(2.0, size=(25, 30)).astype(float)
    return _analyse(tmp_path, counts, ("--method", "both", "--axis", "both", "--dims", "4"))


def _corrupt_json(stdout, edit):
    document = json.loads(stdout)
    edit(document)
    return json.dumps(document)


def test_accepts_real_output(json_run, tsv_run):
    ref, code, stdout, svg = json_run
    assert checker.check("json", ref, 3, code, stdout, svg) == []
    ref, code, stdout, _ = tsv_run
    assert checker.check("tsv", ref, 4, code, stdout) == []


def _set(path, value):
    def edit(document):
        target = document
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set(("reports", 0, "points", 2, "raw"), 0.5),
        _set(("reports", 1, "points", 0, "label"), "c9"),
        _set(("reports", 2, "deltas", 0), 1e-3),
        _set(("reports", 3, "weighted_average", "raw"), 2.0),
        _set(("reports", 0, "points", 1, "embedded"), [0.3, 0.2, 0.1]),
        _set(("reports", 3, "axis"), "rows"),
        _set(("reports", 2, "points", 0, "classification"), ["Bent", "Isometry", "Isometry"]),
    ],
    ids=["raw", "label", "delta1", "weighted-average", "decreasing", "blocks", "class"],
)
def test_rejects_corrupted_json(json_run, edit):
    ref, code, stdout, svg = json_run
    assert checker.check("json", ref, 3, code, _corrupt_json(stdout, edit), svg)


def test_rejects_failed_exit_and_truncated_output(json_run):
    ref, code, stdout, svg = json_run
    assert checker.check("json", ref, 3, 1, stdout, svg)
    assert checker.check("json", ref, 3, code, stdout[: len(stdout) // 2], svg)


def test_rejects_corrupted_map(json_run):
    ref, code, stdout, svg = json_run
    broken = svg.replace(b"<circle", b"<ellipse", 1)
    assert checker.check("json", ref, 3, code, stdout, broken)


def test_rejects_corrupted_tsv(tsv_run):
    ref, code, stdout, _ = tsv_run
    lines = stdout.split("\n")
    row = next(i for i, line in enumerate(lines) if line.startswith("r3\t"))
    cells = lines[row].split("\t")
    cells[1] = f"{float(cells[1]) + 0.01:.4f}"
    corrupted = "\n".join(lines[:row] + ["\t".join(cells)] + lines[row + 1 :])
    assert checker.check("tsv", ref, 4, code, corrupted)
    assert checker.check("tsv", ref, 4, code, stdout.replace("weightedAve", "average", 1))


def test_brute_delta1_matches_plain_enumeration():
    D = np.random.default_rng(3).normal(size=(7, 5))
    best = max(
        np.abs(D @ np.array((1.0,) + tail)).sum()
        for tail in itertools.product((-1.0, 1.0), repeat=4)
    )
    assert checker.brute_delta1(D) == pytest.approx(best, rel=1e-12)
    assert checker.brute_delta1(D.T) == pytest.approx(best, rel=1e-12)
