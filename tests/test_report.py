"""Report emission: golden TSV blocks, exact JSON round-trips, format parity."""

import io
import json
import re

import numpy as np
import pytest

from catax import (
    build_model,
    ca_decompose,
    distortion_report,
    emit_report,
    intrinsic_dimension_bounds,
    load_table,
    report_to_dict,
    tca_decompose,
    tca_total_dispersion,
)
from conftest import random_models, table_from_counts

DIAG = build_model(table_from_counts([[1, 0], [0, 1]]))

GOLDEN_TCA = (
    "# method=TCA\taxis=rows\n"
    "label\traw\tcum1\tclass1\n"
    "r0\t1.0000\t1.0000\tIsometry\n"
    "r1\t1.0000\t1.0000\tIsometry\n"
    "weightedAve\t1.0000\t1.0000\n"
    "cumDelta\t\t1.0000\n"
    "c1\t\t1.0000\n"
    "c2\t\t1.0000\n"
    "bounds\tlower=1\tupper=1\tpoint_estimate=1\n"
)

GOLDEN_CA = (
    "# method=CA\taxis=rows\n"
    "label\traw\tcum1\tclass1\n"
    "r0\t1.0000\t1.0000\tIsometry\n"
    "r1\t1.0000\t1.0000\tIsometry\n"
    "weightedAve\t1.0000\t1.0000\n"
    "cumDeltaSq\t\t1.0000\n"
    "c1\t\t1.0000\n"
)


def test_golden_tsv_tca_diag():
    dec = tca_decompose(DIAG)
    report = distortion_report(DIAG, dec, "rows", dims=(1,))
    bounds = intrinsic_dimension_bounds(dec.deltas, tca_total_dispersion(DIAG))
    assert emit_report(report, bounds) == GOLDEN_TCA


def test_golden_tsv_ca_diag():
    dec = ca_decompose(DIAG)
    report = distortion_report(DIAG, dec, "rows", dims=(1,))
    assert emit_report(report) == GOLDEN_CA


def _sample_report():
    model = random_models(1, seed=4242)[0]
    dec = tca_decompose(model)
    dims = tuple(range(1, min(3, dec.k) + 1))
    report = distortion_report(model, dec, "cols", dims=dims)
    bounds = intrinsic_dimension_bounds(dec.deltas, tca_total_dispersion(model))
    return report, bounds


def test_json_round_trip_exact():
    report, bounds = _sample_report()
    parsed = json.loads(json.dumps(report_to_dict(report, bounds), indent=2))
    for i, point in enumerate(parsed["points"]):
        assert point["label"] == report.labels[i]
        assert point["raw"] == report.raw[i]
        assert point["embedded"] == list(report.embedded[i])
        assert point["classification"] == list(report.classification[i])
        assert point["admissible"] == [bool(x) for x in report.admissible[i]]
    assert parsed["weighted_average"]["raw"] == report.weighted_average_raw
    assert parsed["weighted_average"]["embedded"] == list(
        report.weighted_average_embedded
    )
    assert parsed["deltas"] == list(report.deltas)
    assert parsed["bounds"]["lower"] == bounds.lower
    assert parsed["bounds"]["upper"] == bounds.upper
    assert parsed["bounds"]["total_dispersion"] == bounds.total_dispersion
    assert parsed["bounds"]["cumulative_deltas"] == list(bounds.cumulative_deltas)
    assert parsed["bounds"]["point_estimate"] == bounds.point_estimate
    assert parsed["bounds"]["capped"] == bounds.capped
    for entry, d, (c1, c2) in zip(
        parsed["constants"], report.dims, report.constants
    ):
        assert entry == {"d": d, "c1": c1, "c2": c2}


def test_json_key_order():
    report, bounds = _sample_report()
    parsed = json.loads(json.dumps(report_to_dict(report, bounds), indent=2))
    assert list(parsed) == [
        "method",
        "axis",
        "dims",
        "points",
        "weighted_average",
        "deltas",
        "bounds",
        "constants",
    ]
    assert list(parsed["points"][0]) == [
        "label",
        "raw",
        "embedded",
        "classification",
        "admissible",
    ]


def test_json_bounds_null_when_omitted():
    model = random_models(1, seed=4243)[0]
    dec = ca_decompose(model)
    report = distortion_report(model, dec, "rows", dims=(1,))
    parsed = json.loads(json.dumps(report_to_dict(report), indent=2))
    assert parsed["bounds"] is None
    assert parsed["method"] == "CA"
    assert all(entry["c2"] is None for entry in parsed["constants"])


def test_tsv_json_agree():
    report, bounds = _sample_report()
    doc = report_to_dict(report, bounds)
    lines = emit_report(report, bounds).splitlines()
    ndims = len(report.dims)
    assert lines[0] == f"# method={doc['method']}\taxis={doc['axis']}"
    for i, point in enumerate(doc["points"]):
        cells = lines[2 + i].split("\t")
        assert cells[0] == point["label"]
        assert cells[1] == f"{point['raw']:.4f}"
        assert cells[2 : 2 + ndims] == [f"{x:.4f}" for x in point["embedded"]]
        assert cells[2 + ndims :] == point["classification"]
    footer = {line.split("\t")[0]: line.split("\t") for line in lines[2 + len(doc["points"]) :]}
    wavg = footer["weightedAve"]
    assert wavg[1] == f"{doc['weighted_average']['raw']:.4f}"
    assert wavg[2:] == [f"{x:.4f}" for x in doc["weighted_average"]["embedded"]]
    assert footer["c1"][2:] == [f"{e['c1']:.4f}" for e in doc["constants"]]
    assert footer["c2"][2:] == [f"{e['c2']:.4f}" for e in doc["constants"]]
    cum = np.cumsum(doc["deltas"])
    assert footer["cumDelta"][2:] == [f"{cum[d - 1]:.4f}" for d in doc["dims"]]
    assert footer["bounds"][1:] == [
        f"lower={doc['bounds']['lower']}",
        f"upper={doc['bounds']['upper']}",
        f"point_estimate={doc['bounds']['point_estimate']}",
    ]


def test_tsv_capped_bounds_flag():
    bounds = intrinsic_dimension_bounds([0.1, 0.1], 0.5)
    assert bounds.capped
    dec = tca_decompose(DIAG)
    report = distortion_report(DIAG, dec, "rows", dims=(1,))
    out = emit_report(report, bounds)
    assert out.rstrip("\n").splitlines()[-1].endswith("\tcapped")


@pytest.mark.parametrize("axis", ["rows", "cols"])
def test_tsv_labels_escaped(axis):
    # quoted CSV labels may hold a tab, a line break or a backslash
    text = 'A,"x\ty","y\\n"\n"r\t1",2,1\n"r\n2",1,3\n"a\rb\\",2,2\nplain,1,1\n'
    table = load_table(io.StringIO(text))
    assert table.row_labels == ("r\t1", "r\n2", "a\rb\\", "plain")
    model = build_model(table)
    report = distortion_report(model, ca_decompose(model), axis, dims=(1,))
    lines = emit_report(report).split("\n")
    header = lines[1].split("\t")
    points = [line.split("\t") for line in lines[2 : 2 + len(report.labels)]]
    assert all(len(cells) == len(header) for cells in points)
    escapes = {"\\": "\\", "t": "\t", "r": "\r", "n": "\n"}
    unescaped = [re.sub(r"\\(.)", lambda m: escapes[m[1]], cells[0]) for cells in points]
    assert tuple(unescaped) == report.labels
    escaped = {"rows": ["r\\t1", "r\\n2", "a\\rb\\\\", "plain"], "cols": ["x\\ty", "y\\\\n"]}
    assert [cells[0] for cells in points] == escaped[axis]
