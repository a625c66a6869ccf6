"""Acceptance gate: the eight shipping criteria, one printed verdict each.

Criteria 1-4 and 8 run on the seeded 100-table corpus and synthetic inputs;
criteria 5-7 need the external datasets and report SKIP when those CSV files
are absent.  Every test prints exactly one ``ACCEPTANCE n: ...`` line.

Criteria 3 and 4 state the contraction theorem with its hypothesis: the
first TCA principal value stays strictly below the total dispersion
``sum|D|`` on rank >= 2 tables unless the residual is sign-separable
(``sign(D) == outer(v, u)`` on its nonzero entries), where it equals it and
the intrinsic-dimension bounds are ``(1, 1)``.  ``oracles.sign_separable``
decides which case a table is in, on the exact integer residual of its counts.
"""

import time

import numpy as np
import pytest

from catax import (
    build_model,
    ca_decompose,
    ca_total_inertia,
    benzecri_distance,
    distortion_report,
    intrinsic_dimension_bounds,
    main,
    numerical_rank,
    taxicab_distance,
    tca_decompose,
    tca_total_dispersion,
    tsvd_step_exhaustive,
    tsvd_step_iterative,
)
from conftest import DATA_DIR, dataset_table
from oracles import exact_residual, sign_separable
from test_ca import check_ca_invariants
from test_tca import check_tca_invariants


def verdict(capsys, n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} failed: {detail}"


def gate(capsys, n, filenames):
    missing = [f for f in filenames if not (DATA_DIR / f).exists()]
    if missing:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: SKIP (missing {', '.join(missing)})")
        pytest.skip(f"datasets absent: {missing}")


def test_criterion_1_oracle_equivalence(suite100, capsys):
    """Iterative TSVD attains the certified first principal value."""
    hits = 0
    exceeded = 0
    worst_time = 0.0
    for model in suite100:
        start = time.perf_counter()
        exact = tsvd_step_exhaustive(model.D)
        worst_time = max(worst_time, time.perf_counter() - start)
        approx = tsvd_step_iterative(model.D, restarts=20, seed=0)
        if abs(approx.delta - exact.delta) <= 1e-10:
            hits += 1
        if approx.delta > exact.delta + 1e-12:
            exceeded += 1
    ok = hits >= 95 and exceeded == 0 and worst_time < 1.0
    verdict(
        capsys, 1, ok,
        f"hits={hits}/100, exceeded={exceeded}, max exhaustive {worst_time * 1e3:.1f} ms",
    )


def test_criterion_2_invariant_suite(suite100, capsys):
    """CA and TCA factorization identities hold on all 100 tables."""
    start = time.perf_counter()
    failures = []
    for idx, model in enumerate(suite100):
        try:
            ca = ca_decompose(model)
            check_ca_invariants(model, ca, atol=1e-10)
            recon = (ca.row_scores / ca.deltas) @ ca.col_scores.T
            np.testing.assert_allclose(recon, model.delta_index, atol=1e-8, rtol=0)
            tca = tca_decompose(model)
            check_tca_invariants(model, tca, atol=1e-10)
        except AssertionError as exc:
            failures.append((idx, str(exc).splitlines()[0]))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    verdict(capsys, 2, ok, f"failures={len(failures)}, runtime {elapsed:.2f} s")


def test_criterion_3_contraction_theorems(suite100, counts100, capsys):
    """CA embeddings contract; TCA's first axis never exceeds the raw distance.

    The first TCA principal value obeys ``delta_1 <= T = sum|D|`` on every
    table, by the triangle inequality: ``||D u||_1 <= sum|D_ij|`` for any
    sign vector ``u``.  Equality holds exactly when no row of ``D`` cancels
    under some ``u``, i.e. when the residual is sign-separable
    (``sign(D) == outer(v, u)`` on its nonzero entries).  So on rank >= 2
    tables the contraction is strict unless the residual is sign-separable,
    and there ``delta_1 == T``.  Separability is decided by the independent
    ``oracles.sign_separable`` on the table's exact integer residual, never
    by the solver's sign vectors nor by ``model.D``, whose exact zeros can
    carry rounding noise; each comparison uses a ``1e-12 * max(1, T)``
    band, never narrower than the ``1e-12 * T`` of
    ``intrinsic_dimension_bounds``.
    """
    violations = []
    separable = []
    for idx, (model, counts) in enumerate(zip(suite100, counts100)):
        rank = numerical_rank(model)
        ca = ca_decompose(model)
        tca = tca_decompose(model)
        for axis in ("rows", "cols"):
            npoints = len(ca.scores(axis))
            raw_ca = np.array([benzecri_distance(model, axis, i) for i in range(npoints)])
            raw_tca = np.array([taxicab_distance(model, axis, i) for i in range(npoints)])
            cum_sq = np.cumsum(ca.scores(axis) ** 2, axis=1)
            if rank > 1 and np.any(cum_sq[:, : rank - 1] > raw_ca[:, None] + 1e-12):
                violations.append(f"#{idx} CA {axis}")
            if np.any(np.abs(tca.scores(axis)[:, 0]) > raw_tca + 1e-12):
                violations.append(f"#{idx} TCA {axis}")
        total = tca_total_dispersion(model)
        band = 1e-12 * max(1.0, total)
        delta1 = tca.deltas[0]
        if delta1 > total + band:
            violations.append(f"#{idx} delta1 > T")
        if sign_separable(exact_residual(counts)):
            separable.append(idx)
            if delta1 < total - band:
                violations.append(f"#{idx} sign-separable but delta1 < T")
        elif rank >= 2 and not delta1 < total - band:
            violations.append(f"#{idx} not sign-separable but delta1 == T")
    detail = f"violations={len(violations)}, sign-separable={len(separable)}"
    if violations:
        detail += f"; {', '.join(violations)}; sign-separable tables: {separable}"
    verdict(capsys, 3, not violations, detail)


def test_criterion_4_corollary_bounds(suite100, counts100, capsys):
    """Intrinsic-dimension bounds on rank >= 2 tables.

    A sign-separable residual has ``delta_1 == sum|D|`` (criterion 3), so
    the cumulative principal values cross the total dispersion exactly at
    ``d = 1`` and the bounds are ``(1, 1)``.  Every other rank >= 2 table
    has ``delta_1 < sum|D|``, hence ``lower >= 1`` and ``upper >= 2``.
    Separability is decided by ``oracles.sign_separable`` on the table's
    exact integer residual.
    """
    checked = 0
    bad = []
    separable = []
    for idx, (model, counts) in enumerate(zip(suite100, counts100)):
        dec = tca_decompose(model)
        if dec.rank < 2:
            continue
        checked += 1
        bounds = intrinsic_dimension_bounds(dec.deltas, tca_total_dispersion(model))
        if sign_separable(exact_residual(counts)):
            separable.append(idx)
            ok = (bounds.lower, bounds.upper) == (1, 1)
        else:
            ok = bounds.upper >= 2 and bounds.lower >= 1
        if not ok:
            bad.append(idx)
    detail = f"checked={checked}, bad={len(bad)}, sign-separable={len(separable)}"
    if bad:
        detail += f"; bad tables: {bad}; sign-separable tables: {separable}"
    verdict(capsys, 4, not bad and checked > 0, detail)


def test_criterion_5_colors_of_music(capsys):
    """Colors-of-music: published totals, principal values, classifications."""
    gate(capsys, 5, ["colors_of_music.csv"])
    model = build_model(dataset_table("colors_of_music.csv"))
    ca = ca_decompose(model)
    tca = tca_decompose(model)
    total = tca_total_dispersion(model)
    ok = (
        abs(ca_total_inertia(model) - 0.7462) <= 5e-4
        and np.allclose(np.cumsum(ca.deltas[:3] ** 2), (0.2880, 0.48113, 0.6196), atol=5e-4, rtol=0)
        and abs(total - 0.7048) <= 5e-4
        and np.allclose(np.cumsum(tca.deltas[:3]), (0.4063, 0.7644, 1.0890), atol=5e-4, rtol=0)
        and abs(benzecri_distance(model, "rows", 7) - 1.5363) <= 5e-4
        and abs(taxicab_distance(model, "rows", 7) - 1.0038) <= 5e-4
    )
    report = distortion_report(model, tca, "rows", dims=(1, 2, 3))
    ok = ok and all(c == "Stretching" for c in report.classification[:, 2])
    bounds = intrinsic_dimension_bounds(tca.deltas, total)
    ok = ok and bounds.point_estimate == 2
    verdict(capsys, 5, ok)


def test_criterion_6_rodent(capsys):
    """Rodent: published column distances, footers, point estimate."""
    gate(capsys, 6, ["rodent.csv"])
    model = build_model(dataset_table("rodent.csv"))
    ca = ca_decompose(model)
    tca = tca_decompose(model)
    ca_report = distortion_report(model, ca, "cols", dims=(1, 2, 3))
    tca_report = distortion_report(model, tca, "cols", dims=(1, 2, 3))
    total = tca_total_dispersion(model)
    bounds = intrinsic_dimension_bounds(tca.deltas, total)
    ok = (
        abs(ca_report.raw[0] - 34.91) <= 5e-3
        and abs(ca_report.weighted_average_raw - 1.719) <= 5e-3
        and np.allclose(ca_report.weighted_average_embedded, (0.746, 1.205, 1.493), atol=5e-3, rtol=0)
        and abs(tca_report.weighted_average_raw - 0.705) <= 5e-3
        and np.allclose(tca_report.weighted_average_embedded, (0.478, 0.900, 1.248), atol=5e-3, rtol=0)
        and bounds.point_estimate == 2
    )
    verdict(capsys, 6, ok)


def test_criterion_7_large_datasets(capsys):
    """Aravo, sacred-books, Saporta-Tambrea and food-of-the-world summaries."""
    files = [
        "aravo.csv",
        "sacred_books.csv",
        "saporta_tambrea.csv",
        "food_of_the_world.csv",
    ]
    gate(capsys, 7, files)
    ok = True

    model = build_model(dataset_table("aravo.csv"))
    dec = tca_decompose(model, k=3, restarts=20, seed=0)
    total = tca_total_dispersion(model)
    bounds = intrinsic_dimension_bounds(dec.deltas, total)
    ok = ok and np.allclose(np.cumsum(dec.deltas), (0.627, 1.085, 1.463), atol=2e-3, rtol=0)
    ok = ok and abs(total - 1.249) <= 2e-3 and (bounds.lower, bounds.upper) == (2, 3)

    model = build_model(dataset_table("sacred_books.csv"))
    start = time.perf_counter()
    dec = tca_decompose(model, k=4, restarts=20, seed=0)
    elapsed = time.perf_counter() - start
    total = tca_total_dispersion(model)
    bounds = intrinsic_dimension_bounds(dec.deltas, total)
    ok = ok and elapsed < 60.0
    ok = ok and np.allclose(dec.deltas, (0.669, 0.437, 0.431, 0.391), atol=2e-3, rtol=0)
    ok = ok and abs(total - 1.748976) <= 2e-3 and (bounds.lower, bounds.upper) == (3, 4)

    model = build_model(dataset_table("saporta_tambrea.csv"))
    dec = tca_decompose(model, k=3)
    total = tca_total_dispersion(model)
    bounds = intrinsic_dimension_bounds(dec.deltas, total)
    ok = ok and np.allclose(
        np.cumsum(dec.deltas), (0.05386276, 0.08952342, 0.12062140), atol=2e-3, rtol=0
    )
    ok = ok and abs(total - 0.08858070) <= 2e-3 and bounds.point_estimate == 2

    model = build_model(dataset_table("food_of_the_world.csv"))
    dec = tca_decompose(model, k=3, restarts=20, seed=0)
    total = tca_total_dispersion(model)
    bounds = intrinsic_dimension_bounds(dec.deltas, total)
    ok = ok and np.allclose(
        np.cumsum(dec.deltas), (0.4083893, 0.6428507, 0.8548540), atol=2e-3, rtol=0
    )
    ok = ok and abs(total - 0.5907166) <= 2e-3 and bounds.point_estimate == 2

    verdict(capsys, 7, ok)


def test_criterion_8_determinism(tmp_path, capsys):
    """Identical flags and seed produce byte-identical TSV, JSON and SVG."""
    counts = [[4, 1, 0], [2, 3, 1], [0, 2, 4], [1, 1, 2]]
    path = tmp_path / "table.csv"
    path.write_text(
        "label,c0,c1,c2\n"
        + "\n".join(f"r{i}," + ",".join(map(str, row)) for i, row in enumerate(counts))
        + "\n"
    )
    map_path = tmp_path / "map.svg"
    base = ["--input", str(path), "--axis", "both", "--seed", "3",
            "--tca-strategy", "iterative", "--map", str(map_path)]

    outputs = {}
    for fmt in ("tsv", "json"):
        runs = []
        maps = []
        for _ in range(2):
            assert main(base + ["--format", fmt]) == 0
            runs.append(capsys.readouterr().out)
            maps.append(map_path.read_bytes())
            map_path.unlink()
        outputs[fmt] = runs[0] == runs[1] and maps[0] == maps[1]
    ok = outputs["tsv"] and outputs["json"]
    verdict(capsys, 8, ok, f"tsv={'ok' if outputs['tsv'] else 'diff'}, json={'ok' if outputs['json'] else 'diff'}")
