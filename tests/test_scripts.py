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
    # enough frames that the printed time, to 10 ms, is not 0.00s
    assert _load("reproduce_experiment").main(["--frames", "2048", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 12  # header plus the 11 default CEQNR points
    printed = capsys.readouterr().out
    assert "CSV written to" in printed
    # the first line ends with the sweep's wall time, "<seconds>s"
    elapsed = printed.splitlines()[0].rsplit(", ", 1)[1]
    assert elapsed.endswith("s") and float(elapsed[:-1]) > 0.0


def test_reproduce_experiment_prints_only_the_approaches_that_ran(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["--approach", "parity", "--frames", "64", "--out", str(out)]
    assert _load("reproduce_experiment").main(argv) == 0
    printed = capsys.readouterr().out
    table = [ln for ln in printed.splitlines() if not ln.startswith("#")]
    assert table[0].split() == ["CEQNR", "dB", "mse_par", "loc_par"]
    assert len(table) == 12
    assert "syn" not in printed and "nan" not in printed


def test_reproduce_experiment_reports_a_bad_flag_as_dftwz_does(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert _load("reproduce_experiment").main(["--bits", "0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["dftwz: bits = 0: must be a positive integer"]
    assert captured.out == "" and not out.exists()
