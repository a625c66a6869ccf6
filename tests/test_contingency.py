import dataclasses
import io
import logging
import random
import warnings

import numpy as np
import pytest

import catax.contingency
import catax.tca
from catax import (
    COLS,
    ROWS,
    ContingencyTable,
    InvalidTableError,
    build_model,
    load_table,
    profile,
    sparsity,
    standardized_residual,
    tca_decompose,
)
from conftest import random_models, table_from_counts
from oracles import csv_lines

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


def test_grand_total_past_float64_is_inf_without_warning():
    table = ContingencyTable(("a", "b"), ("x", "y"), np.full((2, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert table.n == np.inf


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


def _decline(lines, delimiter, row_labels, counts):
    """A `_plain_blocks` that takes no block and returns its lines, so csv reads every record."""
    return list(lines)


@pytest.fixture
def row_loop_only(monkeypatch):
    monkeypatch.setattr(catax.contingency, "_plain_blocks", _decline)


@pytest.mark.parametrize("newline", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
def test_counts_buffer_one_row_per_line(row_loop_only, newline):
    # a \r\n is one line break: the reader sizes its buffer with one row
    # per line break, then shrinks it in place to the rows read, so the
    # table holds no unused rows whatever the line ending
    text = newline.join(["A,x,y", "r1,2,0", "r2,0,2", ""])
    assert catax.contingency._line_breaks(text) == 3
    table = load_table(io.StringIO(text))
    assert table.counts.flags.owndata
    assert table.counts.shape == (2, 2)


@pytest.mark.parametrize("fast", [True, False], ids=["fast-path", "row-loop"])
def test_counts_own_their_rows_after_blank_lines(monkeypatch, fast):
    # eleven line breaks for two data rows: the buffer sized from them is
    # shrunk, not sliced, so the table keeps no unused rows alive
    if not fast:
        monkeypatch.setattr(catax.contingency, "_plain_blocks", _decline)
    table = load_table(io.StringIO("A,x,y\n\nr1,1,2\n\n\n\nr2,3,4\n\n\n\n\n\n"))
    assert table.counts.flags.owndata
    assert table.counts.shape == (2, 2)


@pytest.mark.parametrize("newline", ["\r\n", "\n", "\r"], ids=["crlf", "lf", "cr"])
def test_plain_table_counts_own_their_memory(newline):
    table = load_table(io.StringIO(newline.join(["A,x,y", "r1,2,0", "r2,0,2", ""])))
    assert table.counts.flags.owndata
    assert table.counts.shape == (2, 2)


def _outcome(text, **kwargs):
    try:
        table = load_table(io.StringIO(text), **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return table.row_labels, table.col_labels, table.counts.shape, table.counts.tobytes()


def _both_paths(monkeypatch, text, **kwargs):
    """load_table's outcome with its plain-block reader and with csv alone.

    Also returns whether, in the first call, csv read a data record after
    the first one.
    """
    records, read = catax.contingency._records, []
    with monkeypatch.context() as patch:
        patch.setattr(
            catax.contingency,
            "_records",
            lambda *args: (read.append(row) or row for row in records(*args)),
        )
        fast = _outcome(text, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(catax.contingency, "_plain_blocks", _decline)
        loop = _outcome(text, **kwargs)
    return fast, loop, len(read) > 2  # the header and the first data record


def _in_second_row(text):
    """``text`` with a plain data row put before its first one."""
    header, _, rows = text.partition("\n")
    return f"{header}\nr0,1,1\n{rows}"


# Texts whose defect sits in the first data row, which csv always reads.
# Each comes again with a plain row before it, so that the plain-block reader
# meets the defect; the second field says whether csv then reads on past the
# first data row.  The first texts hold the cells of
# test_cells_parse_as_float_does.
_FIRST_ROW_DEFECTS = {
    **{
        f"cell-{cell!r}": (f"A,x,y\nr1,{cell},1\nr2,1,1\n", cell in ("1_000", "\u0663"))
        for cell in [" 3 ", "1_000", "+5", "-0", "1e3", "0.1", "\u0663", "2", "7"]
    },
    "quoted-label": ('A,x,y\n"r 1",1,2\nr2,3,4\n', True),
    "nul-in-label": ("A,x,y\nr\x001,1,2\nr2,3,4\n", True),
    "separator-around-cell": ("A,x,y\nr1,\x1c1,2\nr2,3,4\n", True),
    "nan": ("A,x,y\nr1,1,nan\nr2,3,4\n", True),
    "overflow": ("A,x,y\nr1,1,1e400\nr2,3,4\n", True),
    # csv raises on the long line itself, so it reads no record after the first
    "long-line": ("A,x,y\nr1,1," + "0" * 200_000 + "2\nr2,3,4\n", False),
    "two-to-53-plus-one": ("A,x,y\nr1,9007199254740993,1\nr2,1,1\n", False),
    "past-int64": ("A,x,y\nr1,1,99999999999999999999\nr2,1,1\n", False),
    "non-ascii-label": ("A,x,y\nGen\u00e8se,1,2\nr2,3,4\n", False),
    # numpy's int64 parser reads U+01FE as a digit
    "non-ascii-cell": ("A,x,y\nr1,1,\u01fe3\nr2,1,1\n", True),
    **{
        f"line-break-{sep!r}": (f"A,x,y\nr{sep}1,1,2\nr2,3,4\n", True)
        for sep in ["\v", "\f", "\x85", "\u2028", "\u2029"]
    },
    # loadtxt reads 1\x1d as 1, float() rejects it
    **{
        f"cell-with-{sep!r}": (f"A,x,y\nr1,1{sep},2\nr2,3,4\n", True)
        for sep in ["\x1d", "\x1e"]
    },
}

# a plain table and texts that exercise one decline rule or one error each;
# the second field says whether csv reads a data record after the first
_PATH_CASES = {
    **{name: (text, False) for name, (text, _) in _FIRST_ROW_DEFECTS.items()},
    **{
        f"{name}-second-row": (_in_second_row(text), csv_reads_on)
        for name, (text, csv_reads_on) in _FIRST_ROW_DEFECTS.items()
    },
    "plain-integers": ("A,x,y\nr1,1,2\nr2,3,4\n", False),
    "quoted-header": ('"A","x","y"\nr1,1,2\nr2,3,4\n', False),
    "byte-order-mark": ("\ufeffA,x,y\nr1,1,2\nr2,3,4", False),
    "cr-only": ("A,x,y\rr1,1,2\r\rr2,3,4\r", False),
    "whitespace-line": ("A,x,y\nr1,1,2\n  \nr2,3,4\n", True),
    "whitespace-line-one-column": ("A,x\nr1,1\nr2, \nr3,2\n", True),
    "empty-cell-one-column": ("A,x\nr1,1\nr2,\nr3,2\n", True),
    "short-second-row": ("A,x,y\nr1,1,2\nr2,3\nr3,1,1\n", True),
    "long-second-row": ("A,x,y\nr1,1,2\nr2,3,4,5\nr3,1,1\n", True),
    "header-too-wide": ("A,x,y,z\nr1,1,2\nr2,3,4\n", False),
    "pipe-delimiter": ("A|x|y\nr1|1|2\nr2|3|4\n", True),
    "negative": ("A,x,y\nr1,1,2\nr2,3,-4\n", True),
    # _outcome compares the counts' bytes, so a -0 read as +0 fails
    "minus-zero-last-row": ("A,x,y\nr1,1,2\nr2,3,-0\n", False),
    "decimal-last-row": ("A,x,y\nr1,1,2\nr2,3,1.5\n", False),
    "labels-e-n-minus-dot": ("A,x-e.n,y.n\ne-n.1,1,2\nn.e-2,3,4\n", False),
    # csv reads the header, so a line break it keeps as data is fine there
    **{
        f"header-only-{sep!r}": (f"A,x{sep}1,y\nr1,1,2\nr2,3,4\n", False)
        for sep in ["\f", "\u2028"]
    },
}


@pytest.mark.parametrize("text, csv_reads_on", _PATH_CASES.values(), ids=_PATH_CASES)
def test_both_paths_agree(monkeypatch, text, csv_reads_on):
    delimiter = "|" if "|" in text else None
    fast, loop, ran = _both_paths(monkeypatch, text, delimiter=delimiter)
    assert fast == loop
    assert ran == csv_reads_on


_ODD_CELLS = [
    " 3 ", "\t4", "1_000", "\u0663", "+5", "-0", "0.1", "1e3", "007", "1e-320",
    "-1", "nan", "inf", "1e400", "x", "", " ", "0x10", "5\x1c", '"6"', "\x002",
]


def _random_table_text(rng):
    """A small table of mostly plain integer counts with occasional defects."""
    delimiter = rng.choice([",", ";", "\t"])
    I, J = rng.randint(1, 4), rng.randint(1, 4)
    header = [f"c{j}" for j in range(J)]
    if rng.random() < 0.5:
        header.insert(0, "A")
    if rng.random() < 0.05:
        header.append("extra")
    if rng.random() < 0.1:
        header = [f'"{label}"' for label in header]
    lines = [delimiter.join(header)]
    for i in range(I):
        label = rng.choice([f"r{i}"] * 8 + [f" r{i} ", f'"r {i}"', f"r\x00{i}", "r0"])
        cells = [
            rng.choice(_ODD_CELLS) if rng.random() < 0.05 else str(rng.randint(0, 3))
            for _ in range(J)
        ]
        if rng.random() < 0.05:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["1"]
        lines.append(delimiter.join([label, *cells]))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "", "  "]))
    newline = rng.choice(["\n", "\r\n", "\r"])
    return newline.join(lines) + rng.choice(["", newline])


def test_fast_path_matches_row_loop_on_random_tables(monkeypatch):
    rng = random.Random(14)
    taken = 0
    for _ in range(3000):
        text = _random_table_text(rng)
        drop_empty = rng.random() < 0.3
        fast, loop, ran = _both_paths(monkeypatch, text, drop_empty=drop_empty)
        assert fast == loop, text
        taken += not ran
    assert taken > 1000


_CSV_DATA_CHARACTERS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029"]
_DECIMAL_CELLS = ["1.5", "-0", "1e3", "0.25", "2.", ".5", "-0.0"]


def _table_text_with_data_breaks(rng):
    """A small comma table of integer and decimal counts, with a few
    characters that str.splitlines ends a line at and csv keeps as data."""
    J = rng.randint(1, 4)
    lines = [",".join(["A", *(f"c{j}" for j in range(J))])]
    for i in range(rng.randint(2, 6)):
        cells = [
            rng.choice(_DECIMAL_CELLS) if rng.random() < 0.2 else str(rng.randint(0, 3))
            for _ in range(J)
        ]
        lines.append(",".join([f"r{i}", *cells]))
    text = rng.choice(["\n", "\r\n", "\r"]).join(lines) + rng.choice(["", "\n"])
    for _ in range(rng.choice([0, 1, 1, 2])):
        k = rng.randrange(len(text) + 1)
        text = text[:k] + rng.choice(_CSV_DATA_CHARACTERS) + text[k:]
    return text


@pytest.mark.parametrize("piece", [1, 2, 3, 5, 8])
def test_lines_in_pieces_end_where_csv_ends_them(monkeypatch, piece):
    # however a text is cut into pieces, _lines gives the lines that end at
    # \r\n, \n or \r, each with its line break, as csv ends them
    monkeypatch.setattr(catax.contingency, "_PIECE", piece)
    rng = random.Random(piece)
    texts = [_random_table_text(rng) for _ in range(300)]
    texts += [_table_text_with_data_breaks(rng) for _ in range(300)]
    texts += ["a\r\n\r\nb\rc\n\n\rd", "\r\n" * 5, "\r" * 5 + "x", "x\n\r\r\n"]
    texts += ["a\fb\n\x85\r\nc\u2028", "\v\v", "x\x1c", "\f\n\f", "\r\u2029\n", "\u2028" * 2]
    for text in texts:
        assert list(catax.contingency._lines(text)) == csv_lines(text), repr(text)


def test_fast_path_matches_row_loop_with_data_breaks_and_decimals(monkeypatch):
    # small blocks and pieces, so a text spans several of each
    rng = random.Random(24)
    taken = 0
    for _ in range(2000):
        monkeypatch.setattr(catax.contingency, "_BLOCK_ELEMENTS", rng.randint(1, 8))
        monkeypatch.setattr(catax.contingency, "_PIECE", rng.randint(1, 8))
        text = _table_text_with_data_breaks(rng)
        fast, loop, ran = _both_paths(monkeypatch, text, drop_empty=rng.random() < 0.3)
        assert fast == loop, repr(text)
        taken += not ran
    assert taken > 500


@pytest.mark.parametrize("cell", ["1.5", "-0", "1e3"])
def test_fast_path_reads_each_block_once(monkeypatch, cell):
    # csv reads r0, then come three integer blocks of two rows and a block
    # int64 cannot read: the text is walked once, and only the last block is
    # parsed as float64
    monkeypatch.setattr(catax.contingency, "_BLOCK_ELEMENTS", 6)
    text = "A,x,y,z\n" + "".join(f"r{i},{i},1,2\n" for i in range(7)) + f"r7,3,{cell},1\n"
    lines, loadtxt = catax.contingency._lines, np.loadtxt
    walks, dtypes = [], []
    with monkeypatch.context() as patch:
        patch.setattr(catax.contingency, "_lines", lambda text: walks.append(1) or lines(text))
        patch.setattr(
            np,
            "loadtxt",
            lambda *args, dtype, **kw: dtypes.append(dtype) or loadtxt(*args, dtype=dtype, **kw),
        )
        load_table(io.StringIO(text))
    assert len(walks) == 1
    # a '-' goes to float64 at once; an int64 parse that fails (or, on numpy
    # 1.23, warns) is followed by a float64 one
    last = [np.float64] if cell == "-0" else [np.int64, np.float64]
    assert dtypes == [np.int64] * 3 + last
    fast, loop, ran = _both_paths(monkeypatch, text)
    assert not ran
    assert fast == loop


def test_quoted_label_in_last_block_read_in_one_walk(monkeypatch):
    # csv reads r0, loadtxt the blocks r1-r2 and r3-r4, and csv reads on from
    # the last block, whose label r 5 is quoted, without a second walk
    monkeypatch.setattr(catax.contingency, "_BLOCK_ELEMENTS", 6)
    text = "A,x,y,z\n" + "".join(f"r{i},{i},1,2\n" for i in range(5)) + '"r 5",3,1,1\nr6,1,2,3\n'
    lines, parse_block = catax.contingency._lines, catax.contingency._parse_block
    walks, parsed = [], []
    with monkeypatch.context() as patch:
        patch.setattr(catax.contingency, "_lines", lambda text: walks.append(1) or lines(text))
        patch.setattr(
            catax.contingency,
            "_parse_block",
            lambda cells, delimiter: parsed.append(cells) or parse_block(cells, delimiter),
        )
        table = load_table(io.StringIO(text))
    assert len(walks) == 1
    assert parsed == [["1,1,2\n", "2,1,2\n"], ["3,1,2\n", "4,1,2\n"]]
    with monkeypatch.context() as patch:
        patch.setattr(catax.contingency, "_plain_blocks", _decline)
        csv_only = load_table(io.StringIO(text))
    assert table.row_labels == csv_only.row_labels == (*(f"r{i}" for i in range(5)), "r 5", "r6")
    assert table.counts.tobytes() == csv_only.counts.tobytes()


@pytest.mark.parametrize(
    "text, row_labels, col_labels",
    [
        ('A,x,y\r\n"r\n1",2,0\r\nr2,0,2\r\n', ("r\n1", "r2"), ("x", "y")),
        (
            "A,x\x0c1,y\u20282\nr\x0c1,2,0\nr\u20282,0,2\n",
            ("r\x0c1", "r\u20282"),
            ("x\x0c1", "y\u20282"),
        ),
        ("A,x,y\rr1,2,0\rr2,0,2\r", ("r1", "r2"), ("x", "y")),
        ('A,x,y\r"r\r1",2,0\rr2,0,2', ("r\r1", "r2"), ("x", "y")),
        ("A,x,y\nr1,2,0\nr2,0,2", ("r1", "r2"), ("x", "y")),
        # csv reads on from the second row, blank line and all
        ('A,x,y\nr1,2,0\n"r\n\n2",0,2\n', ("r1", "r\n\n2"), ("x", "y")),
    ],
    ids=[
        "quoted-newline",
        "formfeed-and-line-separator",
        "cr-only",
        "quoted-cr",
        "no-final-break",
        "quoted-blank-line-second-row",
    ],
)
def test_lines_end_where_csv_ends_them(text, row_labels, col_labels):
    # records end at \r\n, \n or \r outside quotes; \x0c and \u2028, which
    # str.splitlines would split on, are data
    table = load_table(io.StringIO(text))
    assert table.row_labels == row_labels
    assert table.col_labels == col_labels
    np.testing.assert_array_equal(table.counts, [[2, 0], [0, 2]])


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


_BAD_ROWS = {
    "short": "{},1",
    "long": "{},1,2,3",
    "not-a-number": "{},1,zap",
    "empty-cell": "{},1,",
    "nan": "{},1,nan",
    "inf": "{},inf,1",
    "negative": "{},1,-2",
}


@pytest.mark.parametrize("second", _BAD_ROWS)
@pytest.mark.parametrize("first", _BAD_ROWS)
def test_first_bad_row_reported(first, second):
    # row r2 is reported, with the message it gets when it is the only bad row
    def message(*rows):
        with pytest.raises(InvalidTableError) as excinfo:
            load_table(io.StringIO("\n".join(["A,x,y", "r1,1,2", *rows, "r4,2,1"])))
        return str(excinfo.value)

    alone = message(_BAD_ROWS[first].format("r2"), "r3,1,1")
    assert "'r2'" in alone
    assert message(_BAD_ROWS[first].format("r2"), _BAD_ROWS[second].format("r3")) == alone


@pytest.mark.parametrize("drop_empty", [False, True])
@pytest.mark.parametrize(
    "text, size",
    [("A,x,y\nr1,2,0", "1x2"), ("A,x\nr1,2\nr2,0", "2x1")],
    ids=["one-row", "one-column"],
)
def test_size_checked_before_all_zero_lines(caplog, text, size, drop_empty):
    with caplog.at_level(logging.WARNING, logger="catax.contingency"):
        with pytest.raises(InvalidTableError) as excinfo:
            load_table(io.StringIO(text), drop_empty=drop_empty)
    assert str(excinfo.value) == f"table must be at least 2x2, got {size}"
    assert not caplog.records


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
        "A,x,y\n",  # header only
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


def test_zero_row_reported_before_zero_column():
    with pytest.raises(InvalidTableError) as excinfo:
        load_table(io.StringIO("A,x,y,z\nr1,1,2,0\nr2,0,0,0\nr3,2,1,0"))
    assert str(excinfo.value) == (
        "all-zero row(s) ['r2']; rerun with drop_empty to remove them"
    )


def test_drop_empty_logs_rows_then_columns(caplog):
    text = "A,x,y,z\nr1,1,2,0\nr2,0,0,0\nr3,2,1,0"
    with caplog.at_level(logging.WARNING, logger="catax.contingency"):
        table = load_table(io.StringIO(text), drop_empty=True)
    assert [r.getMessage() for r in caplog.records] == [
        "dropping all-zero row(s): r2",
        "dropping all-zero column(s): z",
    ]
    assert table.row_labels == ("r1", "r3")
    assert table.col_labels == ("x", "y")
    np.testing.assert_array_equal(table.counts, [[1, 2], [2, 1]])


def test_drop_empty_without_empty_lines_changes_nothing(caplog):
    text = "A,x,y,z\nr1,1,2,0\nr2,0,3,4\nr3,2,1,0"
    with caplog.at_level(logging.WARNING, logger="catax.contingency"):
        dropped = load_table(io.StringIO(text), drop_empty=True)
    kept = load_table(io.StringIO(text))
    assert not caplog.records
    assert dropped.row_labels == kept.row_labels
    assert dropped.col_labels == kept.col_labels
    np.testing.assert_array_equal(dropped.counts, kept.counts)


@pytest.mark.parametrize("drop_empty", [False, True])
def test_delimiter_absent_from_data_rows(caplog, drop_empty):
    # every line is one field: named as a delimiter error, not as empty rows
    text = "A,x,y\nr1,2,0\nr2,0,2"
    with caplog.at_level(logging.WARNING, logger="catax.contingency"):
        with pytest.raises(InvalidTableError) as excinfo:
            load_table(io.StringIO(text), delimiter=";", drop_empty=drop_empty)
    assert str(excinfo.value) == (
        "delimiter ';' does not split data row 'r1,2,0' into fields"
    )
    assert not caplog.records


@pytest.mark.parametrize("header", ["x,y", "A,x,y"], ids=["no-corner", "corner"])
def test_byte_order_mark_ignored_in_file(tmp_path, header):
    path = tmp_path / "t.csv"
    path.write_bytes(f"\ufeff{header}\nr1,2,0\nr2,0,2\n".encode("utf-8"))
    table = load_table(path)
    assert table.col_labels == ("x", "y")
    assert table.row_labels == ("r1", "r2")


def test_byte_order_mark_ignored_in_stream():
    table = load_table(io.StringIO("\ufeffx,y\nr1,2,0\nr2,0,2"))
    assert table.col_labels == ("x", "y")


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


def test_quoted_line_breaks_kept_when_loaded_by_path(tmp_path):
    # a file gives csv its line breaks unchanged, as a stream does: a quoted
    # \r or \r\n stays in its label
    text = 'A,"x\r1","y\r\n2"\r\n"r\r1",2,0\r\n"r\r\n2",0,2\r\n"r\n3",1,1\r\n'
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    by_path, by_stream = load_table(path), load_table(io.StringIO(text))
    assert by_path.row_labels == by_stream.row_labels == ("r\r1", "r\r\n2", "r\n3")
    assert by_path.col_labels == by_stream.col_labels == ("x\r1", "y\r\n2")
    assert by_path.counts.tobytes() == by_stream.counts.tobytes()


def test_crlf_plain_table_loaded_by_path_takes_fast_path(tmp_path, monkeypatch):
    # csv reads the header and r1; loadtxt reads r2
    path = tmp_path / "t.csv"
    path.write_bytes(b"A,x,y\r\nr1,2,0\r\nr2,0,3\r\n")
    parse_block, parsed = catax.contingency._parse_block, []
    monkeypatch.setattr(
        catax.contingency,
        "_parse_block",
        lambda cells, delimiter: parsed.append(cells) or parse_block(cells, delimiter),
    )
    table = load_table(path)
    assert parsed == [["0,3\r\n"]]
    assert table.row_labels == ("r1", "r2")
    np.testing.assert_array_equal(table.counts, [[2, 0], [0, 3]])


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_table(tmp_path / "absent.csv")


def test_counts_are_read_only():
    with pytest.raises(ValueError):
        DIAG.counts[0, 0] = 5


def test_table_validation_direct():
    ones = np.ones((2, 2))
    for rows, cols, counts, message in [
        (("a", "b"), ("x", "y"), [[1.0, -2.0], [0.0, 1.0]], "nonnegative"),
        (("a",), ("x", "y"), [[1.0, 2.0]], "at least 2x2"),
        (("a", "b"), ("x", "y"), np.zeros((2, 2)), "grand total"),
        (("a", "b"), ("x", "y"), [1.0, 2.0], "2-d"),
        (("a", "b", "c"), ("x", "y"), ones, "label lengths"),
        (("a", "b"), ("x",), ones, "label lengths"),
        ((1, 2), ("x", "y"), ones, "row labels must be str"),
        (("a", "b"), ("x", None), ones, "column labels must be str"),
        ((b"a", b"b"), ("x", "y"), ones, "row labels must be str"),
    ]:
        with pytest.raises(InvalidTableError, match=message):
            ContingencyTable(rows, cols, np.array(counts))


@pytest.mark.parametrize(
    "cells, message",
    [
        ([[np.nan, -1.0], [0.0, 1.0]], "finite"),  # NaN before negative
        ([[-1.0, np.nan], [0.0, 1.0]], "finite"),
        ([[-np.inf, 1.0], [0.0, 1.0]], "finite"),
        ([[np.inf, -1.0], [0.0, 1.0]], "finite"),
        ([[1.0, -2.0], [0.0, 1.0]], "nonnegative"),
        ([[-0.0, 0.0], [0.0, -0.0]], "grand total must be positive"),
    ],
)
def test_table_validation_messages(cells, message):
    with pytest.raises(InvalidTableError, match=message):
        ContingencyTable(("a", "b"), ("x", "y"), np.array(cells))


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


def test_build_model_p_is_counts_over_total_bit_for_bit(counts100):
    for counts in counts100:
        model = build_model(table_from_counts(counts))
        np.testing.assert_array_equal(bits(model.P), bits(counts / counts.sum()))


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


def wide_model():
    """A table with more cells than one row block, so the blocked paths run."""
    counts = np.random.default_rng(7).poisson(0.5, size=(40, 5000)).astype(float)
    counts[:, 0] += 1  # no empty row
    counts[0] += 1  # no empty column
    return build_model(table_from_counts(counts))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_model_holds_one_table_sized_array():
    model = wide_model()
    fields = [f.name for f in dataclasses.fields(model)]
    assert [name for name in fields if np.shape(getattr(model, name)) == model.shape] == ["P"]


def test_derived_residuals_equal_whole_table_expressions():
    # formed in row blocks, each cell by the same operations as the one-shot
    # expression, so equal bit for bit
    for model in random_models(100) + [wide_model()]:
        rc = np.outer(model.r, model.c)
        D = model.P - rc
        np.testing.assert_array_equal(bits(model.D), bits(D))
        np.testing.assert_array_equal(bits(standardized_residual(model)), bits(D / np.sqrt(rc)))
        np.testing.assert_array_equal(bits(model.delta_index), bits(model.P / rc - 1.0))


def test_tca_starts_from_the_derived_residual(monkeypatch):
    first = []
    for name in ("tsvd_step_exhaustive", "_iterative_step"):
        real = getattr(catax.tca, name)

        def spy(residual, *args, _real=real, **kwargs):
            if not first:
                first.append(np.array(residual))
            return _real(residual, *args, **kwargs)

        monkeypatch.setattr(catax.tca, name, spy)
    for model in random_models(100) + [wide_model()]:
        first.clear()
        tca_decompose(model, k=1)
        np.testing.assert_array_equal(bits(first[0]), bits(model.D))
