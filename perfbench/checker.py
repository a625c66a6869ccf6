"""Output checker for the analyze benchmark, independent of catax.

Reference values come from the benchmark's own numpy code on the generated
counts: profile distances, total inertia and dispersion, sparsity and, for
tables whose smaller side is small enough to enumerate, the brute-force
maximum ``max_u ||D u||_1`` that TCA's first principal value must equal.
``check`` parses one analysis' stdout (JSON or TSV) and SVG map and returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

# Largest smaller side for which the reference enumerates every sign class.
BRUTE_LIMIT = 20

CLASSES = {"Contraction", "Isometry", "Stretching"}
# Full-precision JSON numbers against the reference: rounding noise only.
REL_TOL = 1e-9
# TSV numbers carry 4 decimals (7 for sparsity).
TSV_ABS = 0.5e-4


EPS = float(np.finfo(float).eps)
EXPECTED_BLOCKS = [("CA", "rows"), ("CA", "cols"), ("TCA", "rows"), ("TCA", "cols")]


@dataclass(frozen=True)
class Reference:
    labels: dict[str, list[str]]
    weights: dict[str, np.ndarray]
    raw: dict[tuple[str, str], np.ndarray]
    # Rounding-error bound of each raw distance.  A profile deviation
    # ``P[i, j] / r[i] - c[j]`` carries an error of a few eps times
    # ``P[i, j] / r[i] + c[j]``, which dwarfs the deviation itself when a
    # table is near independence, so a fixed relative tolerance cannot hold.
    raw_err: dict[tuple[str, str], np.ndarray]
    total: dict[str, float]
    sparsity: float
    delta1: float | None
    # Rank of the residual, computed for tables of up to BRUTE_LIMIT on the
    # smaller side only (a full SVD of a large table would dominate set-up).
    rank: int | None


def brute_delta1(D: np.ndarray, chunk_cells: int = 1 << 20) -> float:
    """``max ||D u||_1`` over all sign vectors, enumerated on the smaller side."""
    M = D if D.shape[1] <= D.shape[0] else D.T
    m = M.shape[1]
    total = 1 << (m - 1)
    bits = np.arange(m - 2, -1, -1, dtype=np.int64)
    step = max(1, chunk_cells // M.shape[0])
    best = -np.inf
    for lo in range(0, total, step):
        codes = np.arange(lo, min(lo + step, total), dtype=np.int64)
        signs = np.ones((m, codes.size))
        signs[1:] = np.where((codes[None, :] >> bits[:, None]) & 1, 1.0, -1.0)
        best = max(best, float(np.abs(M @ signs).sum(axis=0).max()))
    return best


def residual_rank(P: np.ndarray, r: np.ndarray, c: np.ndarray) -> int:
    """Singular values of the standardized residual above 1e-9 of the
    largest, at most min(I, J) - 1 since the residual is doubly centered."""
    s = np.linalg.svd((P - np.outer(r, c)) / np.sqrt(np.outer(r, c)), compute_uv=False)
    if s[0] <= 1e-12:
        return 0
    return min(int(np.count_nonzero(s > 1e-9 * s[0])), min(P.shape) - 1)


def reference(
    counts: np.ndarray, row_labels: list[str], col_labels: list[str], chunk_rows: int = 64
) -> Reference:
    """Reference values of one table.  Distances are built a block of rows at
    a time, so that set-up memory stays well below the program's and
    ``peak_rss_mb`` reflects the analysis."""
    P = counts / counts.sum()
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    I, J = P.shape
    raw = {key: np.zeros(I if key[1] == "rows" else J) for key in EXPECTED_BLOCKS}
    err = {key: np.zeros_like(value) for key, value in raw.items()}
    small = min(I, J) <= BRUTE_LIMIT
    inertia = dispersion = 0.0
    for lo in range(0, I, chunk_rows):
        rows = slice(lo, min(lo + chunk_rows, I))
        Pk, rk = P[rows], r[rows, None]
        dev, mag = Pk / rk - c, Pk / rk + c
        raw["CA", "rows"][rows] = np.sum(dev**2 / c, axis=1)
        err["CA", "rows"][rows] = 8 * EPS * np.sum(np.abs(dev) * mag / c, axis=1)
        raw["TCA", "rows"][rows] = np.sum(np.abs(dev), axis=1)
        err["TCA", "rows"][rows] = 4 * EPS * np.sum(mag, axis=1)
        dev, mag = Pk / c - rk, Pk / c + rk
        raw["CA", "cols"] += np.sum(dev**2 / rk, axis=0)
        err["CA", "cols"] += 8 * EPS * np.sum(np.abs(dev) * mag / rk, axis=0)
        raw["TCA", "cols"] += np.sum(np.abs(dev), axis=0)
        err["TCA", "cols"] += 4 * EPS * np.sum(mag, axis=0)
        E = rk * c
        inertia += float(np.sum((Pk - E) ** 2 / E))
        dispersion += float(np.sum(np.abs(Pk - E)))
    return Reference(
        labels={"rows": list(row_labels), "cols": list(col_labels)},
        weights={"rows": r, "cols": c},
        raw=raw,
        raw_err=err,
        total={"CA": inertia, "TCA": dispersion},
        sparsity=float(np.mean(counts == 0)),
        delta1=brute_delta1(P - np.outer(r, c)) if small else None,
        rank=residual_rank(P, r, c) if small else None,
    )


def _close(value: float, ref: float, atol: float, rtol: float) -> bool:
    return abs(value - ref) <= atol + rtol * abs(ref)


def _check_block(
    problems: list[str],
    ref: Reference,
    method: str,
    axis: str,
    labels: list[str],
    dims: list[int],
    raw: np.ndarray,
    embedded: np.ndarray,
    classes: list[list[str]],
    avg_raw: float,
    avg_embedded: list[float],
    cum_deltas: list[float],
    atol: float,
) -> None:
    """Checks shared by both formats; ``atol`` is half a unit of the last
    printed digit (0 for full-precision JSON)."""
    where = f"{method}/{axis}"
    if labels != ref.labels[axis]:
        problems.append(f"{where}: labels differ from the input's")
        return
    k = len(dims)
    if k < 1 or dims != list(range(1, k + 1)):
        problems.append(f"{where}: dims {dims} are not 1..k")
        return
    ref_raw, ref_err = ref.raw[method, axis], ref.raw_err[method, axis]
    scale = float(np.max(np.abs(ref_raw)))
    if raw.shape != ref_raw.shape or np.any(
        np.abs(raw - ref_raw) > atol + REL_TOL * scale + ref_err
    ):
        problems.append(f"{where}: raw distances differ from the reference")
    if embedded.shape != (len(labels), k):
        problems.append(f"{where}: embedded matrix has shape {embedded.shape}")
        return
    # Rounding to printed digits keeps order, so rounded values get no slack.
    slack = 0.0 if atol else REL_TOL * scale
    if np.any(np.diff(embedded, axis=1) < -slack):
        problems.append(f"{where}: embedded distance decreases in d")
    if any(len(row) != k or not set(row) <= CLASSES for row in classes):
        problems.append(f"{where}: malformed classification")
    avg_err = float(ref.weights[axis] @ ref_err)
    if not _close(avg_raw, ref.total[method], atol + avg_err, REL_TOL):
        problems.append(
            f"{where}: weighted-average raw {avg_raw!r} != total {ref.total[method]!r}"
        )
    if len(avg_embedded) != k or len(cum_deltas) != k or not all(
        _close(a, b, 2 * atol, REL_TOL) for a, b in zip(avg_embedded, cum_deltas)
    ):
        problems.append(f"{where}: weighted-average embedded distances != cumulative deltas")
    if method == "TCA" and ref.delta1 is not None and cum_deltas:
        if not _close(cum_deltas[0], ref.delta1, atol, REL_TOL):
            problems.append(
                f"{where}: delta_1 {cum_deltas[0]!r} != brute-force maximum {ref.delta1!r}"
            )


def _check_json(problems: list[str], text: str, ref: Reference, max_dims: int) -> None:
    document = json.loads(text)
    if not _close(document["sparsity"], ref.sparsity, 0.0, REL_TOL):
        problems.append("sparsity differs from the reference")
    reports = document["reports"]
    blocks = [(rep["method"], rep["axis"]) for rep in reports]
    if blocks != EXPECTED_BLOCKS:
        problems.append(f"report blocks {blocks} != {EXPECTED_BLOCKS}")
        return
    for rep in reports:
        points = rep["points"]
        dims = list(rep["dims"])
        if len(dims) > max_dims:
            problems.append(f"{rep['method']}/{rep['axis']}: more than {max_dims} dims")
        power = 2 if rep["method"] == "CA" else 1
        cum = np.cumsum(np.asarray(rep["deltas"], dtype=float) ** power)
        _check_block(
            problems,
            ref,
            rep["method"],
            rep["axis"],
            labels=[p["label"] for p in points],
            dims=dims,
            raw=np.array([p["raw"] for p in points], dtype=float),
            embedded=np.array([p["embedded"] for p in points], dtype=float).reshape(
                len(points), -1
            ),
            classes=[p["classification"] for p in points],
            avg_raw=rep["weighted_average"]["raw"],
            avg_embedded=list(rep["weighted_average"]["embedded"]),
            cum_deltas=[float(cum[d - 1]) for d in dims],
            atol=0.0,
        )


def _check_tsv(problems: list[str], text: str, ref: Reference, max_dims: int) -> None:
    chunks = [chunk.strip("\n").split("\n") for chunk in text.split("\n\n") if chunk.strip()]
    head = chunks[0]
    if len(head) != 1 or not head[0].startswith("# sparsity="):
        problems.append("missing sparsity line")
        return
    if not _close(float(head[0].split("=", 1)[1]), ref.sparsity, 0.5e-7, REL_TOL):
        problems.append("sparsity differs from the reference")
    blocks = chunks[1:]
    names = []
    for lines in blocks:
        tag = dict(part.split("=", 1) for part in lines[0].lstrip("# ").split("\t"))
        names.append((tag.get("method"), tag.get("axis")))
    if names != EXPECTED_BLOCKS:
        problems.append(f"report blocks {names} != {EXPECTED_BLOCKS}")
        return
    for (method, axis), lines in zip(names, blocks):
        header = lines[1].split("\t")
        k = (len(header) - 2) // 2
        dims = [int(h[3:]) for h in header[2 : 2 + k]]
        if header != ["label", "raw"] + [f"cum{d}" for d in dims] + [f"class{d}" for d in dims]:
            problems.append(f"{method}/{axis}: unexpected header {header[:4]}...")
            continue
        if k > max_dims:
            problems.append(f"{method}/{axis}: more than {max_dims} dims")
        n = len(ref.labels[axis])
        rows = [line.split("\t") for line in lines[2 : 2 + n]]
        footer = {line.split("\t")[0]: line.split("\t") for line in lines[2 + n :]}
        cum_key = "cumDeltaSq" if method == "CA" else "cumDelta"
        expected_footer = {"weightedAve", cum_key, "c1"} | (
            {"c2", "bounds"} if method == "TCA" else set()
        )
        if len(rows) != n or any(len(row) != 2 + 2 * k for row in rows) or set(footer) != expected_footer:
            problems.append(f"{method}/{axis}: malformed table body or footer")
            continue
        _check_block(
            problems,
            ref,
            method,
            axis,
            labels=[row[0] for row in rows],
            dims=dims,
            raw=np.array([float(row[1]) for row in rows]),
            embedded=np.array([[float(x) for x in row[2 : 2 + k]] for row in rows]).reshape(n, k),
            classes=[row[2 + k :] for row in rows],
            avg_raw=float(footer["weightedAve"][1]),
            avg_embedded=[float(x) for x in footer["weightedAve"][2:]],
            cum_deltas=[float(x) for x in footer[cum_key][2:]],
            atol=TSV_ABS,
        )


def _check_svg(problems: list[str], svg: bytes, ref: Reference) -> None:
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f".//{ns}circle")
    squares = [e for e in root.findall(f".//{ns}rect") if e.get("fill") == "none"]
    texts = {e.text for e in root.findall(f".//{ns}text")}
    if len(circles) != len(ref.labels["rows"]) or len(squares) != len(ref.labels["cols"]):
        problems.append("map: one marker per row and per column expected")
    if not set(ref.labels["rows"]) | set(ref.labels["cols"]) <= texts:
        problems.append("map: point labels missing")


def check(
    fmt: str,
    ref: Reference,
    max_dims: int,
    exit_code: int,
    stdout: str,
    svg: bytes | None = None,
) -> list[str]:
    """Problems found in one analysis' exit code, stdout and (optional) map."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    problems: list[str] = []
    try:
        if fmt == "json":
            _check_json(problems, stdout, ref, max_dims)
        else:
            _check_tsv(problems, stdout, ref, max_dims)
        if svg is not None:
            _check_svg(problems, svg, ref)
    except (ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
        problems.append(f"unparseable output: {type(exc).__name__}: {exc}")
    return problems
