"""Serialization of distortion reports: one renderer per output format.

`emit_report` renders the TSV block, which mirrors the diagnostic-table
layout — one row per point (label, raw distance, embedded distance per
dimension, classification per dimension), then footer rows for the weighted
averages, the cumulative principal values (squared for CA), the distortion
constants and, for TCA, the intrinsic-dimension bounds — with values at 4
decimals and a label's backslash, tab and line breaks escaped.
`report_to_dict` gives the same content at full precision with a stable key
order, ready for ``json.dumps``, so a parsed document reproduces every number
exactly.
"""

from __future__ import annotations

from .decomposition import CA
from .distortion import DistortionReport, IntrinsicDimensionBounds

__all__ = ["emit_report", "report_to_dict"]

# A label's backslash, tab and line breaks are written as two-character
# escapes, so each point stays one TSV line of fields.
_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\r": "\\r", "\n": "\\n"})


def report_to_dict(
    report: DistortionReport, bounds: IntrinsicDimensionBounds | None = None
) -> dict:
    """JSON-ready dict of a report (and optional bounds), stable key order."""
    keys = ("label", "raw", "embedded", "classification", "admissible")
    columns = (report.labels, report.raw.tolist(), report.embedded.tolist(),
               report.classification.tolist(), report.admissible.tolist())
    points = [dict(zip(keys, point)) for point in zip(*columns)]
    return {
        "method": report.method,
        "axis": report.axis,
        "dims": list(report.dims),
        "points": points,
        "weighted_average": {
            "raw": report.weighted_average_raw,
            "embedded": list(report.weighted_average_embedded),
        },
        "deltas": list(report.deltas),
        "bounds": None
        if bounds is None
        else {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "total_dispersion": bounds.total_dispersion,
            "cumulative_deltas": list(bounds.cumulative_deltas),
            "point_estimate": bounds.point_estimate,
            "capped": bounds.capped,
        },
        "constants": [
            {"d": d, "c1": c1, "c2": c2}
            for d, (c1, c2) in zip(report.dims, report.constants)
        ],
    }


def _cumulative_deltas(report: DistortionReport) -> list[float]:
    power = 2 if report.method == CA else 1
    cum, total = [], 0.0
    for delta in report.deltas:
        total += delta**power
        cum.append(total)
    return [cum[d - 1] for d in report.dims]


def emit_report(report: DistortionReport, bounds: IntrinsicDimensionBounds | None = None) -> str:
    """Render one report (and optional bounds) as a TSV block.

    The report's JSON is ``json.dumps(report_to_dict(report, bounds))``.
    """
    dims = report.dims
    lines = [f"# method={report.method}\taxis={report.axis}"]
    header = ["label", "raw"]
    header += [f"cum{d}" for d in dims]
    header += [f"class{d}" for d in dims]
    lines.append("\t".join(header))
    # One format per row over Python floats, which %.4f prints as
    # f"{x:.4f}" prints a numpy float64.  A row's values are listed with the
    # row: lists of whole columns left about 3 MB more heap in use after a
    # report of 8265 points.
    row = "\t".join(["%s"] + ["%.4f"] * (1 + len(dims)) + ["%s"] * len(dims))
    points = zip(report.labels, report.raw.tolist(), report.embedded, report.classification)
    for label, raw, embedded, classes in points:
        lines.append(
            row % (label.translate(_TSV_ESCAPES), raw, *embedded.tolist(), *classes.tolist())
        )
    lines.append(
        "\t".join(
            ["weightedAve", f"{report.weighted_average_raw:.4f}"]
            + [f"{x:.4f}" for x in report.weighted_average_embedded]
        )
    )
    cum_label = "cumDeltaSq" if report.method == CA else "cumDelta"
    lines.append(
        "\t".join([cum_label, ""] + [f"{x:.4f}" for x in _cumulative_deltas(report)])
    )
    lines.append(
        "\t".join(["c1", ""] + [f"{c1:.4f}" for c1, _ in report.constants])
    )
    if report.method != CA:
        lines.append(
            "\t".join(["c2", ""] + [f"{c2:.4f}" for _, c2 in report.constants])
        )
    if bounds is not None:
        cells = [
            "bounds",
            f"lower={bounds.lower}",
            f"upper={bounds.upper}",
            f"point_estimate={bounds.point_estimate}",
        ]
        if bounds.capped:
            cells.append("capped")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
