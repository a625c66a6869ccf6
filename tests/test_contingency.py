import io
import logging

import numpy as np
import pytest

from catax import (
    COLS,
    ROWS,
    ContingencyTable,
    InvalidTableError,
    build_model,
    load_table,
    profile,
    sparsity,
)
from conftest import random_models

DIAG = ContingencyTable(("r1", "r2"), ("x", "y"), np.array([[2.0, 0.0], [0.0, 2.0]]))


def test_parse_basic_csv():
    table = load_table(io.StringIO("A,x,y\nr1,2,0\nr2,0,2"))
    assert table.n == 4
    assert table.row_labels == ("r1", "r2")
    assert table.col_labels == ("x", "y")
    np.testing.assert_array_equal(table.counts, [[2, 0], [0, 2]])


def test_parse_header_without_corner_cell():
    table = load_table(io.StringIO("x,y\nr1,2,0\nr2,0,2"))
    assert table.col_labels == ("x", "y")


def test_parse_empty_corner_cell():
    # R's write.csv exports an empty first header field
    table = load_table(io.StringIO('"",x,y\nr1,2,0\nr2,0,2'))
    assert table.col_labels == ("x", "y")


@pytest.mark.parametrize("delim", [";", "\t"])
def test_delimiters_detected(delim):
    text = f"A{delim}x{delim}y\nr1{delim}2{delim}0\nr2{delim}0{delim}2"
    assert load_table(io.StringIO(text)).n == 4


def test_delimiter_override():
    table = load_table(io.StringIO("A;x;y\nr1;2;0\nr2;0;2"), delimiter=";")
    assert table.col_labels == ("x", "y")


def test_real_valued_cells_accepted():
    table = load_table(io.StringIO("A,x,y\nr1,0.5,0.25\nr2,0.25,0.5"))
    assert table.n == pytest.approx(1.5)


@pytest.mark.parametrize(
    "text",
    [
        "A,x,y\nr1,2,0\nr2,0,2",
        "A,x,y\nr1,2,0\nr2,0,2\n",
        "A,x,y\r\nr1,2,0\r\nr2,0,2\r\n",
        "A,x,y\n\nr1,2,0\n\n\nr2,0,2\n\n",
        'A,x,y\n"r\n1",2,0\nr2,0,2',
    ],
)
def test_row_count_independent_of_line_breaks(text):
    # the counts array is sized from the line breaks, then cut to the rows read
    table = load_table(io.StringIO(text))
    np.testing.assert_array_equal(table.counts, [[2, 0], [0, 2]])
    assert table.row_labels[1] == "r2"


def test_cells_parse_as_float_does():
    cells = [[" 3 ", "1_000", "+5"], ["-0", "1e3", "0.1"], ["\u0663", "2", "7"]]
    text = "A,x,y,z\n" + "\n".join(f"r{i}," + ",".join(row) for i, row in enumerate(cells))
    counts = load_table(io.StringIO(text)).counts
    reference = np.array([[float(cell) for cell in row] for row in cells])
    assert counts[2, 0] == 3.0 and np.signbit(counts[1, 0])
    np.testing.assert_array_equal(counts.view(np.uint64), reference.view(np.uint64))


@pytest.mark.parametrize(
    "bad, message",
    [
        ("zap", "cell ('r3', 'y'): not a number: 'zap'"),
        ("-2", "cell ('r3', 'y'): negative count -2.0"),
        ("nan", "cell ('r3', 'y'): not finite"),
        ("inf", "cell ('r3', 'y'): not finite"),
    ],
)
def test_first_bad_cell_named(bad, message):
    # later cells are bad too, so only the order of the checks decides
    text = f"A,x,y,z\nr1,1,2,3\nr2,4,5,6\nr3,7,{bad},-1\nr4,1,1,nan\nr5,-3,1,1"
    with pytest.raises(InvalidTableError) as excinfo:
        load_table(io.StringIO(text))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("A,x,y\nr1,1,2\nr2,1\nr3,1,zap", "row 'r2': expected 3 fields, got 2"),
        ("A,x,y\nr1,1,2\nr2,1\nr3,1,-1", "row 'r2': expected 3 fields, got 2"),
        ("A,x,y\nr1,1,-1\nr2,1\nr3,1,2", "cell ('r1', 'y'): negative count -1.0"),
        ("A,x,y\nr1,1,inf\nr2,1,2,3\nr3,1,2", "cell ('r1', 'y'): not finite"),
        ("A,x,y\nr1,1,2\nr2,1,-1\nr3,zap,2", "cell ('r2', 'y'): negative count -1.0"),
    ],
)
def test_errors_in_row_order(text, message):
    with pytest.raises(InvalidTableError) as excinfo:
        load_table(io.StringIO(text))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "A,x,y\nr1,2,zap\nr2,0,2",  # non-numeric
        "A,x,y\nr1,2,-1\nr2,0,2",  # negative
        "A,x,y\nr1,2,nan\nr2,0,2",  # not finite
        "A,x,y\nr1,2,0\nr1,0,2",  # duplicate row label
        "A,x,x\nr1,2,0\nr2,0,2",  # duplicate column label
        "A,x,y\nr1,2,0",  # fewer than 2 rows
        "A,x\nr1,2\nr2,3",  # fewer than 2 columns
        "A,x,y\nr1,2\nr2,0,2",  # ragged row
        "A,x,y\nr1,2,0\nr2,0,0,2,4",  # ragged row (too long)
        "",  # empty input
        "justoneword",  # no delimiter
    ],
)
def test_malformed_inputs_rejected(text):
    with pytest.raises(InvalidTableError):
        load_table(io.StringIO(text))


def test_zero_row_rejected_by_default():
    with pytest.raises(InvalidTableError, match="all-zero row"):
        load_table(io.StringIO("A,x,y\nr1,0,0\nr2,1,2\nr3,2,1"))


def test_zero_column_rejected_by_default():
    with pytest.raises(InvalidTableError, match="all-zero column"):
        load_table(io.StringIO("A,x,y,z\nr1,1,2,0\nr2,2,1,0"))


def test_drop_empty_removes_and_reports(caplog):
    text = "A,x,y,z\nr1,0,0,0\nr2,1,2,0\nr3,2,1,0"
    with caplog.at_level(logging.WARNING, logger="catax.contingency"):
        table = load_table(io.StringIO(text), drop_empty=True)
    assert table.row_labels == ("r2", "r3")
    assert table.col_labels == ("x", "y")
    assert "r1" in caplog.text and "z" in caplog.text


def test_drop_empty_below_minimum_size():
    text = "A,x,y\nr1,0,0\nr2,1,2"
    with pytest.raises(InvalidTableError, match="at least 2x2"):
        load_table(io.StringIO(text), drop_empty=True)


@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_delimiter_must_be_one_character(delimiter):
    with pytest.raises(InvalidTableError, match="delimiter must be one character"):
        load_table(io.StringIO("A;x;y\nr1;2;0\nr2;0;2"), delimiter=delimiter)


def test_non_utf8_input_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"A,x,y\nr\xff,2,0\nr2,0,2\n")
    with pytest.raises(InvalidTableError, match="not utf-8 text"):
        load_table(path)


def test_load_from_path(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("A,x,y\nr1,2,0\nr2,0,2", encoding="utf-8")
    assert load_table(path).n == 4


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_table(tmp_path / "absent.csv")


def test_counts_are_read_only():
    with pytest.raises(ValueError):
        DIAG.counts[0, 0] = 5


def test_table_validation_direct():
    with pytest.raises(InvalidTableError):
        ContingencyTable(("a", "b"), ("x", "y"), np.array([[1.0, -2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidTableError):
        ContingencyTable(("a",), ("x", "y"), np.array([[1.0, 2.0]]))
    with pytest.raises(InvalidTableError):
        ContingencyTable(("a", "b"), ("x", "y"), np.zeros((2, 2)))


def test_build_model_diag():
    model = build_model(DIAG)
    np.testing.assert_allclose(model.P, [[0.5, 0.0], [0.0, 0.5]])
    np.testing.assert_allclose(model.D, [[0.25, -0.25], [-0.25, 0.25]])
    np.testing.assert_allclose(model.delta_index, [[1.0, -1.0], [-1.0, 1.0]])


def test_build_model_independence():
    rows = np.array([4.0, 6.0])
    cols = np.array([3.0, 5.0, 2.0])
    counts = np.outer(rows, cols) / 10.0
    model = build_model(ContingencyTable(("a", "b"), ("x", "y", "z"), counts))
    np.testing.assert_allclose(model.D, 0.0, atol=1e-15)
    np.testing.assert_allclose(model.delta_index, 0.0, atol=1e-14)


def test_build_model_zero_marginal_rejected():
    table = ContingencyTable(("a", "b", "c"), ("x", "y"), np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(InvalidTableError, match="zero marginal"):
        build_model(table)


def test_model_invariants_random():
    for model in random_models(20, seed=99):
        assert abs(model.P.sum() - 1.0) < 1e-12
        assert np.all(model.r > 0) and np.all(model.c > 0)
        np.testing.assert_allclose(model.D.sum(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(model.D.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(
            model.delta_index * np.outer(model.r, model.c), model.D, atol=1e-12
        )


def test_sparsity():
    assert sparsity(DIAG) == 0.5
    full = ContingencyTable(("a", "b"), ("x", "y"), np.ones((2, 2)))
    assert sparsity(full) == 0.0


def test_profile_rows_and_cols():
    model = build_model(DIAG)
    np.testing.assert_allclose(profile(model, ROWS, 0), [1.0, 0.0])
    np.testing.assert_allclose(profile(model, COLS, 1), [0.0, 1.0])


def test_profile_sums_to_one_random():
    for model in random_models(5, seed=3):
        I, J = model.shape
        for i in range(I):
            assert abs(profile(model, ROWS, i).sum() - 1.0) < 1e-12
        for j in range(J):
            assert abs(profile(model, COLS, j).sum() - 1.0) < 1e-12


def test_profile_independence_is_barycenter():
    counts = np.outer([4.0, 6.0], [3.0, 5.0, 2.0]) / 10.0
    model = build_model(ContingencyTable(("a", "b"), ("x", "y", "z"), counts))
    np.testing.assert_allclose(profile(model, ROWS, 0), model.c, atol=1e-15)
    np.testing.assert_allclose(profile(model, COLS, 2), model.r, atol=1e-15)


def test_profile_errors():
    model = build_model(DIAG)
    with pytest.raises(IndexError):
        profile(model, ROWS, 2)
    with pytest.raises(ValueError):
        profile(model, "diagonal", 0)
