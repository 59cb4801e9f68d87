"""``tools/cli_outputs.py --compare``: which differences pass a tolerance."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "cli_outputs", Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"
)
cli_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_outputs)

CSV = "# seed=7\nrho,trial,status,error\n0.1,0,ok,0.1057971953\n0.1,1,fail,nan\n"


def _dirs(tmp_path, changes):
    """Two output directories that differ only in ``changes`` (name -> B's text)."""
    files = {"simulate.csv": CSV, "simulate.status": "exit 0\n", "data.npz": "PK"}
    out = []
    for side, edits in (("a", {}), ("b", changes)):
        d = tmp_path / side
        d.mkdir()
        for name, text in {**files, **edits}.items():
            if text is not None:
                (d / name).write_text(text, encoding="utf-8")
        out.append(d)
    return out


def test_identical_directories_pass(tmp_path, capsys):
    assert cli_outputs.compare(*_dirs(tmp_path, {}), 0.0) == 0
    assert "3 files, 0 over rtol 0" in capsys.readouterr().out


def test_numeric_cell_within_rtol_passes_and_reports_its_deviation(tmp_path, capsys):
    a, b = _dirs(tmp_path, {"simulate.csv": CSV.replace("0.1057971953", "0.1057971954")})
    assert cli_outputs.compare(a, b, 1e-9) == 0
    assert "simulate.csv: max rel dev 9.45e-10" in capsys.readouterr().out
    assert cli_outputs.compare(a, b, 1e-10) == 1


@pytest.mark.parametrize(
    "changes",
    [
        {"simulate.csv": CSV.replace("fail", "ok")},
        {"simulate.csv": CSV.replace("nan", "0.5")},
        {"simulate.csv": CSV.replace("seed=7", "seed=8")},
        {"simulate.csv": CSV + "0.1,2,ok,1.0\n"},
        {"simulate.status": "exit 4\n"},
        {"data.npz": "PK!"},
        {"data.npz": None},
        {"extra.txt": "x"},
    ],
    ids=["text_cell", "nan_cell", "header", "extra_row", "status", "npz", "missing", "extra"],
)
def test_any_other_difference_fails(tmp_path, capsys, changes):
    assert cli_outputs.compare(*_dirs(tmp_path, changes), 1.0) == 1
    assert "1 over rtol" in capsys.readouterr().out


@pytest.mark.parametrize(
    "changes, rtol, shown",
    [
        ({"simulate.csv": CSV.replace("seed=7", "seed=8")}, 0.0,
         ["  line 1 A: # seed=7", "  line 1 B: # seed=8"]),
        ({"simulate.csv": CSV.replace("0.1,1,fail", "0.1,1,ok").replace("953", "954")}, 1e-9,
         ["  line 4 A: 0.1,1,fail,nan", "  line 4 B: 0.1,1,ok,nan"]),
        ({"simulate.csv": CSV + "0.1,2,ok,1.0\n"}, 0.0,
         ["  line 5 A: <no line>", "  line 5 B: 0.1,2,ok,1.0"]),
        ({"simulate.status": "exit 4\n"}, 0.0, ["  line 1 A: exit 0", "  line 1 B: exit 4"]),
    ],
    ids=["provenance", "past_rows_within_rtol", "extra_row", "status"],
)
def test_a_failing_file_shows_its_first_differing_line(tmp_path, capsys, changes, rtol, shown):
    assert cli_outputs.compare(*_dirs(tmp_path, changes), rtol) == 1
    out = capsys.readouterr().out.splitlines()
    failing = next(i for i, line in enumerate(out) if line.endswith("FAIL"))
    assert out[failing + 1 : failing + 3] == shown


def test_a_passing_file_shows_no_line(tmp_path, capsys):
    a, b = _dirs(tmp_path, {"simulate.csv": CSV.replace("0.1057971953", "0.1057971954")})
    assert cli_outputs.compare(a, b, 1e-9) == 0
    assert "line" not in capsys.readouterr().out
