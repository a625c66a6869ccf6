"""Deterministic SVG factor maps: rows and columns on one pair of axes.

Row points are filled circles, column points open squares, each with a text
label; a crosshair marks the origin and the axis captions carry the principal
values.  Output is plain SVG 1.1 text assembled with fixed formatting, so the
same decomposition always yields byte-identical files.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .decomposition import FactorDecomposition

__all__ = ["emit_map"]

_WIDTH = 720
_HEIGHT = 720
_MARGIN = 70

# Code points outside XML 1.0's Char production (section 2.2).  No escape can
# write them, and csv keeps some of them (form feed, NUL) as label data.
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


# The escapes of XML character data, those xml.sax.saxutils.escape makes; that
# module's import pulls in urllib.request, http.client and email.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped as XML character data."""
    return text.translate(_ESCAPES)


def _label(text: str) -> str:
    """``text`` escaped as XML character data, each code point XML forbids
    replaced by U+FFFD."""
    return _escape(_NOT_XML_CHAR.sub("\ufffd", text))


def _scale(lo: float, hi: float, size: int) -> tuple[float, float]:
    span = hi - lo
    if span <= 0:
        span = 1.0
    pad = 0.08 * span
    lo, hi = lo - pad, hi + pad
    return lo, (size - 2 * _MARGIN) / (hi - lo)


def emit_map(
    dec: FactorDecomposition,
    axes: tuple[int, int] = (1, 2),
    out: str | os.PathLike | None = None,
) -> str:
    """Render the factor map for the (1-based) axis pair ``axes``.

    Writes the document to ``out`` when given and returns it either way.

    Raises
    ------
    ValueError
        An axis index outside ``[1, dec.k]``, or a repeated index.
    """
    a, b = int(axes[0]), int(axes[1])
    for axis in (a, b):
        if not 1 <= axis <= dec.k:
            raise ValueError(f"axis {axis} out of range for a {dec.k}-axis decomposition")
    if a == b:
        raise ValueError("the two map axes must differ")

    fx, fy = dec.row_scores[:, a - 1], dec.row_scores[:, b - 1]
    gx, gy = dec.col_scores[:, a - 1], dec.col_scores[:, b - 1]
    xs = np.concatenate([fx, gx, [0.0]])
    ys = np.concatenate([fy, gy, [0.0]])
    x0, sx = _scale(float(xs.min()), float(xs.max()), _WIDTH)
    y1, sy = _scale(float(ys.min()), float(ys.max()), _HEIGHT)

    def px(x: float) -> float:
        return _MARGIN + (x - x0) * sx

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y1) * sy

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        '<g font-family="sans-serif" font-size="11">',
        # origin crosshair
        f'<line x1="{_MARGIN}" y1="{py(0.0):.2f}" x2="{_WIDTH - _MARGIN}" y2="{py(0.0):.2f}" '
        'stroke="#999999" stroke-dasharray="4 3"/>',
        f'<line x1="{px(0.0):.2f}" y1="{_MARGIN}" x2="{px(0.0):.2f}" y2="{_HEIGHT - _MARGIN}" '
        'stroke="#999999" stroke-dasharray="4 3"/>',
    ]
    method = _escape(dec.method)
    parts.append(
        f'<text x="{_MARGIN}" y="{_MARGIN - 40}" font-size="14">'
        f"{method} factor map (rows: filled circles, columns: open squares)</text>"
    )
    caption_x = f"axis {a} (delta={dec.deltas[a - 1]:.4f})"
    caption_y = f"axis {b} (delta={dec.deltas[b - 1]:.4f})"
    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 20}" text-anchor="middle">'
        f"{_escape(caption_x)}</text>"
    )
    parts.append(
        f'<text x="20" y="{_HEIGHT // 2}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_HEIGHT // 2})">{_escape(caption_y)}</text>'
    )
    for i, label in enumerate(dec.row_labels):
        x, y = px(float(fx[i])), py(float(fy[i]))
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#1f4e9c"/>')
        parts.append(
            f'<text x="{x + 5:.2f}" y="{y - 5:.2f}" fill="#1f4e9c">{_label(label)}</text>'
        )
    for j, label in enumerate(dec.col_labels):
        x, y = px(float(gx[j])), py(float(gy[j]))
        parts.append(
            f'<rect x="{x - 3.5:.2f}" y="{y - 3.5:.2f}" width="7" height="7" '
            'fill="none" stroke="#b03a2e" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" fill="#b03a2e">{_label(label)}</text>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    svg = "\n".join(parts) + "\n"
    if out is not None:
        with open(out, "wb") as handle:
            handle.write(svg.encode("utf-8"))
    return svg
