"""SVG factor maps: structure, labels, determinism, axis validation."""

import subprocess
import sys
from xml.etree import ElementTree
from xml.sax.saxutils import escape

import numpy as np
import pytest

import catax.svgmap
from catax import ContingencyTable, build_model, ca_decompose, emit_map, tca_decompose
from conftest import table_from_counts

COUNTS = [[4, 1, 0], [2, 3, 1], [0, 2, 4], [1, 1, 2]]
MODEL = build_model(table_from_counts(COUNTS))


def test_structure_and_labels():
    dec = ca_decompose(MODEL)
    assert dec.k >= 2
    svg = emit_map(dec)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert svg.endswith("</svg>\n")
    assert 'xmlns="http://www.w3.org/2000/svg"' in svg
    for label in MODEL.row_labels + MODEL.col_labels:
        assert f">{label}</text>" in svg
    assert svg.count("<circle ") == len(MODEL.row_labels)
    assert svg.count('fill="none" stroke="#b03a2e"') == len(MODEL.col_labels)
    assert svg.count("stroke-dasharray") == 2
    assert "CA factor map (rows: filled circles, columns: open squares)" in svg


def test_axis_captions_carry_deltas():
    dec = tca_decompose(MODEL)
    svg = emit_map(dec, axes=(1, 2))
    assert f"axis 1 (delta={dec.deltas[0]:.4f})" in svg
    assert f"axis 2 (delta={dec.deltas[1]:.4f})" in svg
    assert "TCA factor map" in svg


def test_byte_identical_reruns():
    dec = tca_decompose(MODEL)
    assert emit_map(dec, axes=(1, 2)) == emit_map(dec, axes=(1, 2))


def test_file_write_matches_return(tmp_path):
    dec = ca_decompose(MODEL)
    target = tmp_path / "map.svg"
    svg = emit_map(dec, axes=(2, 1), out=target)
    assert target.read_bytes() == svg.encode("utf-8")


def test_axes_validation():
    dec = ca_decompose(MODEL)
    with pytest.raises(ValueError, match="out of range"):
        emit_map(dec, axes=(1, dec.k + 1))
    with pytest.raises(ValueError, match="out of range"):
        emit_map(dec, axes=(0, 1))
    with pytest.raises(ValueError, match="must differ"):
        emit_map(dec, axes=(2, 2))
    rank1 = ca_decompose(build_model(table_from_counts([[1, 0], [0, 1]])))
    assert rank1.k == 1
    with pytest.raises(ValueError, match="out of range"):
        emit_map(rank1, axes=(1, 2))


def test_labels_are_escaped():
    table = ContingencyTable(
        ("a<b", "plain", "last"),
        ("x&y", 'q"z', "other"),
        np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 2.0], [0.0, 2.0, 5.0]]),
    )
    dec = ca_decompose(build_model(table))
    svg = emit_map(dec)
    assert "a&lt;b" in svg
    assert "x&amp;y" in svg
    assert ">a<b<" not in svg
    assert ">x&y<" not in svg


def test_labels_with_characters_xml_forbids_stay_well_formed():
    # csv keeps a form feed (and NUL) as label data; escaping leaves them in
    table = ContingencyTable(
        ("r\x001", "r\x0c2", "r3"),
        ("c\x1f1", "c\ufffe2", "c\ud8003"),
        np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 2.0], [0.0, 2.0, 5.0]]),
    )
    for dec in (ca_decompose(build_model(table)), tca_decompose(build_model(table))):
        svg = emit_map(dec)
        root = ElementTree.fromstring(svg)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        for label in ("r\ufffd1", "r\ufffd2", "r3", "c\ufffd1", "c\ufffd2", "c\ufffd3"):
            assert label in texts


@pytest.mark.parametrize(
    "label",
    ["plain", "a<b", "x&y", "<&>", "&amp;", "]]>", 'q"z\'', "r\x001", "r\x0c2", "c\ufffe", "c\ud800"],
)
def test_escape_matches_saxutils(label):
    assert catax.svgmap._escape(label) == escape(label)


def test_import_pulls_in_no_network_modules():
    # xml.sax.saxutils imports urllib.request, which imports http.client and
    # email; a map needs three escapes from it
    heavy = ("urllib.request", "http.client", "email")
    code = f"import sys, catax; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
