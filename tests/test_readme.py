"""The README's examples run and print what the README shows."""

import re
from pathlib import Path

from catax import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S)[1]


CLI_OUTPUT = fenced_block("Command line", "text")
SPARSITY, REPORT = CLI_OUTPUT.split("\n\n", 1)

# The table of the library example, as a file for the command line.
DEMO_CSV = "flavor,mon,tue,wed\nvanilla,12,5,2\nchocolate,4,9,3\nmint,1,6,11\nplain,5,4,6\n"


def test_library_example_prints_the_report_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the example writes map.svg
    exec(fenced_block("Library", "python"), {})
    assert SPARSITY.startswith("# sparsity=")
    assert capsys.readouterr().out == REPORT + "\n"  # print adds a line break
    assert (tmp_path / "map.svg").is_file()


def test_command_line_example_prints_the_whole_block(tmp_path, capsys):
    demo = tmp_path / "demo.csv"
    demo.write_text(DEMO_CSV)
    assert main(["--input", str(demo), "--method", "tca", "--dims", "2"]) == 0
    assert capsys.readouterr().out == CLI_OUTPUT
