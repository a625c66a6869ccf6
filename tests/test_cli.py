"""CLI behavior: output formats, exit codes, warnings, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

import catax.cli
from catax import AnalysisConfig, main
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


def test_rank_zero_table_warns_and_emits_header_only(tmp_path, capsys):
    path = write_csv(tmp_path, [[1, 2], [2, 4]])
    assert main(["--input", path]) == 0
    captured = capsys.readouterr()
    assert "rank is 0" in captured.err
    assert captured.out == "# sparsity=0.0000000\n"


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
    path = write_csv(tmp_path, COUNTS)
    code = main(["--input", path, "--map", str(tmp_path / "m.svg"), "--map-axes", "1,9"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_map_written_and_prefers_tca(tmp_path, capsys):
    path = write_csv(tmp_path, COUNTS)
    map_path = tmp_path / "m.svg"
    assert main(["--input", path, "--map", str(map_path)]) == 0
    capsys.readouterr()
    svg = map_path.read_text()
    assert "TCA factor map" in svg


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dims": 0},
        {"restarts": 0},
        {"rel_tol": 0.0},
        {"map_axes": (0, 2)},
        {"method": "magic"},
        {"output_format": "xml"},
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
