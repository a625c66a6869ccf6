"""CLI behavior: output formats, exit codes, warnings, determinism."""

import json
import logging
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import catax.cli
import catax.tca
from catax import AnalysisConfig, main
from catax.cli import build_parser
from test_tca import check_tca_invariants

COUNTS = [[4, 1, 0], [2, 3, 1], [0, 2, 4], [1, 1, 2]]


def write_csv(tmp_path, counts, name="table.csv"):
    counts = np.asarray(counts)
    I, J = counts.shape
    lines = ["label," + ",".join(f"c{j}" for j in range(J))]
    for i in range(I):
        lines.append(f"r{i}," + ",".join(str(int(x)) for x in counts[i]))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_tsv_both_methods(tmp_path, capsys):
    path = write_csv(tmp_path, COUNTS)
    assert main(["--input", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# sparsity=0.1666667\n")
    assert "# method=CA\taxis=rows" in out
    assert "# method=TCA\taxis=rows" in out
    assert out.count("bounds\t") == 1  # bounds belong to the TCA block only
    assert "cumDeltaSq" in out and "cumDelta\t" in out


def test_json_output(tmp_path, capsys):
    path = write_csv(tmp_path, COUNTS)
    assert main(["--input", path, "--format", "json", "--dims", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"sparsity", "reports"}
    assert doc["sparsity"] == pytest.approx(2 / 12)
    methods = [r["method"] for r in doc["reports"]]
    assert methods == ["CA", "TCA"]
    ca_report, tca_report = doc["reports"]
    assert ca_report["bounds"] is None
    assert tca_report["bounds"]["lower"] >= 1
    assert ca_report["dims"] == [1, 2]
    assert [p["label"] for p in ca_report["points"]] == ["r0", "r1", "r2", "r3"]


def test_axis_both_emits_two_reports_per_method(tmp_path, capsys):
    path = write_csv(tmp_path, COUNTS)
    assert main(["--input", path, "--method", "tca", "--axis", "both"]) == 0
    out = capsys.readouterr().out
    assert "# method=TCA\taxis=rows" in out
    assert "# method=TCA\taxis=cols" in out
    assert out.count("bounds\t") == 2


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["--input", str(tmp_path / "absent.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_negative_cell_exits_1(tmp_path, capsys):
    path = write_csv(tmp_path, [[1, -2], [3, 4]])
    assert main(["--input", path]) == 1
    assert "negative" in capsys.readouterr().err


def run_module(*args):
    return subprocess.run(
        [sys.executable, "-m", "catax", *args], capture_output=True, text=True
    )


@pytest.mark.parametrize("delimiter", ["", ";;"])
def test_bad_delimiter_exits_1(tmp_path, delimiter):
    proc = run_module("--input", write_csv(tmp_path, COUNTS), "--delimiter", delimiter)
    assert proc.returncode == 1
    assert "error: delimiter must be one character" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags", [[], ["--drop-empty"]], ids=["keep", "drop-empty"])
def test_absent_delimiter_exits_1(tmp_path, flags):
    proc = run_module("--input", write_csv(tmp_path, COUNTS), "--delimiter", ";", *flags)
    assert proc.returncode == 1
    assert "error: delimiter ';' does not split data row" in proc.stderr
    assert "all-zero" not in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_utf8_input_exits_1(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"label,c0,c1\nr\xff,1,2\nr1,3,4\n")
    proc = run_module("--input", str(path))
    assert proc.returncode == 1
    assert "error: input is not utf-8 text" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_zero_row_exits_1_without_drop_empty(tmp_path, capsys):
    counts = [[4, 1, 0], [0, 0, 0], [1, 2, 3]]
    path = write_csv(tmp_path, counts)
    assert main(["--input", path]) == 1
    assert "all-zero" in capsys.readouterr().err
    assert main(["--input", path, "--drop-empty"]) == 0
    captured = capsys.readouterr()
    assert "# method=CA" in captured.out


ZERO_ROW_TEXT = "A,x,y,z\nr1,5,1,2\nr2,0,0,0\nr3,2,2,7\nr4,1,6,2\n"
ZERO_ROW_NOTICES = (
    "warning: dropping all-zero row(s): r2\nwarning: requested dims 3 exceeds rank 2; using 2\n"
)


def write_text(tmp_path, text, name="table.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_dropped_row_notice_on_stderr(tmp_path, capsys):
    # a record of catax.contingency, printed by the run's own handler even
    # where the root logger has a handler (here pytest's)
    assert main(["--input", write_text(tmp_path, ZERO_ROW_TEXT), "--drop-empty"]) == 0
    assert capsys.readouterr().err == ZERO_ROW_NOTICES


@pytest.mark.parametrize(
    "text",
    [
        "A,x,y,z\nr1,5,1,2\nr2,1,6,2\nr3,2,2,7\n",
        'A,"x 1",y,z\n"r 1",5,1,2\n"r 2",1,6,2\n"r 3",2,2,7\n',  # no loadtxt block
    ],
    ids=["loadtxt", "csv"],
)
def test_truncation_notice_on_every_run(tmp_path, capsys, monkeypatch, text):
    # the same notice from three runs in one process: a warnings registry
    # would print it on the first run only
    path = write_text(tmp_path, text)
    monkeypatch.setattr(catax.tca, "_DELTA_FLOOR", 1e9)
    notice = "warning: residual exhausted after 0 axes (2 requested); truncating"
    for _ in range(3):
        assert main(["--input", path]) == 0
        err = capsys.readouterr().err
        assert err == f"warning: requested dims 3 exceeds rank 2; using 2\n{notice}\n"


def test_run_leaves_catax_handlers_as_it_found_them(tmp_path, capsys, monkeypatch):
    package = logging.getLogger("catax")
    during = []

    def spy(*args, _real=catax.cli.load_table, **kwargs):
        during.append(list(package.handlers))
        return _real(*args, **kwargs)

    monkeypatch.setattr(catax.cli, "load_table", spy)
    zero_row_rank_zero = write_text(tmp_path, "A,x,y\nr1,1,2\nr2,0,0\nr3,2,4\n", "rank0.csv")
    map_path = str(tmp_path / "m.svg")
    runs = [
        (["--input", write_text(tmp_path, ZERO_ROW_TEXT, "zero_row.csv"), "--drop-empty"], 0,
         ZERO_ROW_NOTICES),
        (["--input", write_csv(tmp_path, COUNTS), "--map", str(tmp_path / "absent" / "m.svg")], 1,
         f"error: map directory {str(tmp_path / 'absent')!r} does not exist\n"),
        (["--input", write_text(tmp_path, "A,x,y\nr1,1\nr2,3,4\n", "short.csv")], 1,
         "error: header has 3 fields but data rows have 2\n"),
        (["--input", zero_row_rank_zero, "--drop-empty", "--map", map_path], 2,
         "warning: dropping all-zero row(s): r2\n" + RANK_ZERO_WARNING
         + "error: no axes extracted; cannot draw a factor map\n"),
    ]
    sentinel = logging.NullHandler()
    package.addHandler(sentinel)
    try:
        for argv, code, err in runs:
            before = list(package.handlers)
            assert main(argv) == code
            assert capsys.readouterr().err == err
            assert package.handlers == before
    finally:
        package.removeHandler(sentinel)
    # the three runs that load a table did so with their own handler attached
    assert len(during) == 3
    assert all(len(handlers) == 2 and handlers[0] is sentinel for handlers in during)


@pytest.mark.parametrize("propagate", [True, False])
def test_notice_printed_once_under_root_logging(tmp_path, capsys, propagate):
    # A host that ran logging.basicConfig() has a stderr handler on the root
    # logger.  A run's notices must reach stderr once, through the run's own
    # handler, and nothing must reach the root logger; the catax logger's
    # propagate setting is restored whatever the exit code.
    reached = []

    class Recording(logging.Handler):
        def emit(self, record):
            reached.append(record.getMessage())

    root, package = logging.getLogger(), logging.getLogger("catax")
    host = logging.StreamHandler(sys.stderr)
    host.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    recording = Recording()
    zero_row = write_text(tmp_path, ZERO_ROW_TEXT, "zero_row.csv")
    rank_zero = write_text(tmp_path, "A,x,y\nr1,1,2\nr2,0,0\nr3,2,4\n", "rank0.csv")
    runs = [
        (["--input", zero_row, "--drop-empty", "--dims", "2"], 0,
         "warning: dropping all-zero row(s): r2\n"),
        (["--input", zero_row], 1, None),
        (["--input", rank_zero, "--drop-empty", "--map", str(tmp_path / "m.svg")], 2,
         "warning: dropping all-zero row(s): r2\n" + RANK_ZERO_WARNING
         + "error: no axes extracted; cannot draw a factor map\n"),
    ]
    was = package.propagate
    package.propagate = propagate
    root.addHandler(host)
    root.addHandler(recording)
    try:
        for argv, code, err in runs:
            assert main(argv) == code
            captured = capsys.readouterr().err
            if err is None:
                assert captured.startswith("error: ") and captured.count("\n") == 1
            else:
                assert captured == err
            assert package.propagate is propagate
        assert reached == []
        # outside a run the library's records reach the root logger as before
        package.warning("outside a run")
        assert reached == (["outside a run"] if propagate else [])
    finally:
        root.removeHandler(host)
        root.removeHandler(recording)
        package.propagate = was


def test_bad_flag_value_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--input", "x.csv", "--method", "xyz"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])  # --input is required
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["--input", "x.csv", "--map-axes", "1"])
    assert exc.value.code == 1


def test_dims_clamped_to_rank(tmp_path, capsys):
    path = write_csv(tmp_path, [[1, 0], [0, 1]])
    assert main(["--input", path, "--dims", "3"]) == 0
    captured = capsys.readouterr()
    assert "exceeds rank 1; using 1" in captured.err
    assert "cum1" in captured.out
    assert "cum2" not in captured.out


RANK_ZERO = [[1, 2], [2, 4]]
RANK_ZERO_WARNING = "warning: residual rank is 0 (independence table); nothing to decompose\n"


def test_rank_zero_table_warns_and_emits_header_only(tmp_path, capsys):
    path = write_csv(tmp_path, RANK_ZERO)
    assert main(["--input", path]) == 0
    assert capsys.readouterr() == ("# sparsity=0.0000000\n", RANK_ZERO_WARNING)
    assert main(["--input", path, "--format", "json"]) == 0
    out = '{\n  "sparsity": 0.0,\n  "reports": []\n}\n'
    assert capsys.readouterr() == (out, RANK_ZERO_WARNING)


def test_rank_zero_table_with_map_exits_2(tmp_path, capsys):
    map_path = tmp_path / "m.svg"
    assert main(["--input", write_csv(tmp_path, RANK_ZERO), "--map", str(map_path)]) == 2
    error = "error: no axes extracted; cannot draw a factor map\n"
    assert capsys.readouterr() == ("", RANK_ZERO_WARNING + error)
    assert not map_path.exists()


def write_cells(tmp_path, cells, name):
    """A table of float cells written with repr, so each reads back exactly."""
    lines = ["label," + ",".join(f"c{j}" for j in range(len(cells[0])))]
    lines += [f"r{i}," + ",".join(repr(float(x)) for x in row) for i, row in enumerate(cells)]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_grand_total_past_float64_runs_as_scaled_table(tmp_path, capsys):
    # the cells sum to 5.4e308, past float64's largest value; scaling every
    # cell by 2^-1000 is exact, so both tables have the same P
    cells = np.array([[5e307, 6e307, 7e307], [6e307, 5e307, 7e307], [7e307, 6e307, 5e307]])
    outputs = []
    for name, scale in (("huge.csv", 0), ("small.csv", -1000)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = write_cells(tmp_path, np.ldexp(cells, scale), name)
            assert main(["--input", path, "--dims", "2"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == "" and "# method=TCA" in outputs[0].out


@pytest.mark.parametrize(
    "cells",
    [
        [[1e300, 1, 2], [1, 1e-300, 3], [2, 1e-300, 1e-300]],
        [[1e300, 1e300, 2e300], [1e-300, 1e-300, 3e-300], [2, 1, 1]],
    ],
)
def test_cells_spanning_past_float64_exit_1(tmp_path, capsys, cells):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--input", write_cells(tmp_path, cells, "span.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cells span more than float64's range: "
        "a product of marginals underflows to 0\n"
    )


def test_determinism_across_runs(tmp_path, capsys):
    path = write_csv(tmp_path, COUNTS)
    map_path = tmp_path / "map.svg"
    args = [
        "--input", path, "--axis", "both", "--seed", "7",
        "--tca-strategy", "iterative", "--map", str(map_path),
    ]
    assert main(args) == 0
    first_out = capsys.readouterr().out
    first_map = map_path.read_bytes()
    map_path.unlink()
    assert main(args) == 0
    assert capsys.readouterr().out == first_out
    assert map_path.read_bytes() == first_map


def test_auto_iterates_above_limit_deterministically(tmp_path, capsys, monkeypatch):
    # min(25, 120) exceeds the enumeration limit, so the default "auto"
    # strategy takes the batched criss-cross path.
    path = write_csv(tmp_path, np.random.default_rng(3).poisson(2.0, size=(25, 120)))
    calls = []

    def spy(model, **kwargs):
        dec = real(model, **kwargs)
        calls.append((model, kwargs["strategy"], dec))
        return dec

    real = catax.cli.tca_decompose
    monkeypatch.setattr(catax.cli, "tca_decompose", spy)
    outputs = []
    for _ in range(2):
        assert main(["--input", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "# method=TCA" in outputs[0]
    assert len(calls) == 2
    for model, strategy, dec in calls:
        assert strategy == "auto" and min(model.shape) > catax.tca.EXHAUSTIVE_LIMIT
        assert dec.k == 3
        check_tca_invariants(model, dec)
    np.testing.assert_array_equal(calls[0][2].deltas, calls[1][2].deltas)


def test_exhaustive_limit_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = write_csv(tmp_path, rng.integers(1, 10, size=(25, 25)))
    code = main(["--input", path, "--method", "tca", "--tca-strategy", "exhaustive"])
    assert code == 2
    assert "exhaustive limit" in capsys.readouterr().err


def test_map_axes_out_of_range_exits_2(tmp_path, capsys):
    # axis 3 is within --dims 3, so only the table's rank 2 rules it out
    path = write_csv(tmp_path, COUNTS)
    code = main(["--input", path, "--map", str(tmp_path / "m.svg"), "--map-axes", "1,3"])
    assert code == 2
    assert "error: axis 3 out of range for a 2-axis decomposition" in capsys.readouterr().err
    assert not (tmp_path / "m.svg").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--map-axes", "1,9"], "map axis 9 exceeds dims 3"),
        (["--dims", "1"], "map axis 2 exceeds dims 1"),
    ],
    ids=["1,9", "dims-1"],
)
def test_map_axes_above_dims_exit_1_before_loading(tmp_path, capsys, monkeypatch, flags, message):
    calls = []
    monkeypatch.setattr(catax.cli, "load_table", lambda *args, **kwargs: calls.append(args))
    path = write_csv(tmp_path, COUNTS)
    assert main(["--input", path, "--map", str(tmp_path / "m.svg"), *flags]) == 1
    assert calls == []
    assert capsys.readouterr().err == f"error: {message}\n"


def test_dims_1_without_map_keeps_default_map_axes(tmp_path, capsys):
    assert main(["--input", write_csv(tmp_path, COUNTS), "--dims", "1"]) == 0
    assert "# method=CA" in capsys.readouterr().out


def test_map_written_and_prefers_tca(tmp_path, capsys):
    path = write_csv(tmp_path, COUNTS)
    map_path = tmp_path / "m.svg"
    assert main(["--input", path, "--map", str(map_path)]) == 0
    capsys.readouterr()
    svg = map_path.read_text()
    assert "TCA factor map" in svg


def test_unwritable_map_exits_1(tmp_path):
    map_path = tmp_path / "absent" / "m.svg"
    proc = run_module("--input", write_csv(tmp_path, COUNTS), "--map", str(map_path))
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not map_path.parent.exists()


def test_missing_map_directory_exits_before_loading(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(catax.cli, "load_table", lambda *args, **kwargs: calls.append(args))
    map_path = tmp_path / "absent" / "m.svg"
    assert main(["--input", write_csv(tmp_path, COUNTS), "--map", str(map_path)]) == 1
    assert calls == []
    assert f"error: map directory {str(map_path.parent)!r} does not exist" in capsys.readouterr().err


def test_negative_seed_exits_before_loading(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(catax.cli, "load_table", lambda *args, **kwargs: calls.append(args))
    assert main(["--input", write_csv(tmp_path, COUNTS), "--seed", "-1"]) == 1
    assert calls == []
    assert capsys.readouterr().err == "error: seed must be >= 0\n"


def test_repeated_map_axis_exits_before_loading(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(catax.cli, "load_table", lambda *args, **kwargs: calls.append(args))
    assert main(["--input", write_csv(tmp_path, COUNTS), "--map-axes", "1,1"]) == 1
    assert calls == []
    assert capsys.readouterr().err == "error: the two map axes must differ\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_rel_tol_exits_before_loading(tmp_path, capsys, monkeypatch, value):
    # NaN would classify every point as a contraction or a stretching
    calls = []
    monkeypatch.setattr(catax.cli, "load_table", lambda *args, **kwargs: calls.append(args))
    assert main(["--input", write_csv(tmp_path, COUNTS), "--rel-tol", value]) == 1
    assert calls == []
    assert capsys.readouterr().err == "error: rel-tol must be a finite number > 0\n"


def test_map_path_that_is_a_directory_exits_1(tmp_path, capsys):
    # the directory exists, so only writing the map fails
    assert main(["--input", write_csv(tmp_path, COUNTS), "--map", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["header", "label", "cell"])
def test_field_over_csv_limit_exits_1(tmp_path, where):
    long = "1" * 200_000
    rows = ["A,x,y", "r1,1,2", "r2,3,4"]
    if where == "header":
        rows[0] = f"A,x{long},y"
    elif where == "label":
        rows[1] = f"r{long},1,2"
    else:
        rows[2] = f"r2,{long},4"
    path = tmp_path / "big.csv"
    path.write_text("\n".join(rows) + "\n")
    proc = run_module("--input", str(path))
    assert proc.returncode == 1
    assert "error: field larger than field limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_absent_flags_take_config_defaults():
    namespace = build_parser().parse_args(["--input", "x.csv"])
    assert AnalysisConfig(**vars(namespace)) == AnalysisConfig("x.csv")


def test_main_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    # main parses every run with the parser it built on its first; a bad
    # flag on a later run still fails as on the first.  build_parser itself
    # returns a new parser on each call.
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(catax.cli, "build_parser", counted)
    catax.cli._parser.cache_clear()
    path = write_csv(tmp_path, COUNTS)
    outputs = []
    for _ in range(2):
        assert main(["--input", path]) == 0
        outputs.append(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            main(["--input", path, "--dims", "x"])
        assert exc.value.code == 1
        assert "argument --dims: invalid int value: 'x'" in capsys.readouterr().err
    assert outputs[0] == outputs[1]
    assert len(built) == 1 and catax.cli._parser() is built[0]
    assert build_parser() is not build_parser()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dims": 0},
        {"restarts": 0},
        {"rel_tol": 0.0},
        {"map_axes": (0, 2)},
        {"method": "magic"},
        {"output_format": "xml"},
        {"seed": -1},
        {"map_axes": (2, 2)},
        {"rel_tol": float("nan")},
        {"rel_tol": float("inf")},
        {"dims": 1, "map_path": "m.svg"},
        {"axis": "diag"},
        {"tca_strategy": "greedy"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        AnalysisConfig(input_path="x.csv", **kwargs)


def test_module_entry_point(tmp_path):
    path = write_csv(tmp_path, COUNTS)
    proc = subprocess.run(
        [sys.executable, "-m", "catax", "--input", path, "--method", "ca"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "# method=CA" in proc.stdout


def test_output_does_not_depend_on_blas_threads(tmp_path):
    # 200 x 3000: the Gram matrix of S is summed over two blocks of lines and
    # TCA takes the iterative step; JSON prints every value in full
    counts = np.random.default_rng(4).poisson(0.3, size=(200, 3000))
    counts[:, 0] += 1  # no empty row
    counts[0] += 1  # no empty column
    path = write_csv(tmp_path, counts)
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "catax", "--input", path, "--method", "both",
             "--axis", "both", "--format", "json"],
            capture_output=True,
            text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
