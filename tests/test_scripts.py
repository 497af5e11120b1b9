"""Smoke runs of the scripts under scripts/ on tiny inputs."""

import importlib.util
from pathlib import Path

from dftwz.harness import CSV_COLUMNS

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert _load("reproduce_experiment").main(["--frames", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 12  # header plus the 11 default CEQNR points
    assert "CSV written to" in capsys.readouterr().out

