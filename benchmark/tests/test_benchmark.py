"""The benchmark's own tests: self-time arithmetic, output checks, and a
smoke run of every workload at a tiny frame count.

Run from the repository root:  python3 -m pytest benchmark/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Span, self_times  # noqa: E402

run.import_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_each_direct_childs_outer_time():
    tree = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0, outer=2.5),  # 0.5 s of tracer work around a
        Span("a.leaf", 1.5, 2.5, parent=1),        # counts against a, not against root
        Span("b", 4.0, 5.0, parent=0),
        Span("c", 6.0, 8.0, parent=0),
    ]
    assert self_times(tree) == pytest.approx([10.0 - 2.5 - 1.0 - 2.0, 1.0, 1.0, 1.0, 2.0])


def test_row_and_count_checks_flag_bad_cells():
    text = ("ceqnr_db,mse_syndrome,mse_parity,sigma_q_sq,loc_freq_syndrome,loc_freq_parity,"
            "zero_error_frac,overload_rate,frames\n"
            "0,0.5,nan,0.0013,0.75,nan,0.25,0.125,4\n"
            "30,nan,nan,0.0013,0.75,nan,0.25,0,4\n")
    rows = checks.parse_csv(text)
    assert checks.row_problems(rows, (0.0, 30.0), 4, "syndrome") == {1: "non-finite mse_syndrome"}
    assert set(checks.row_problems(rows, (0.0, 30.0), 5, "syndrome")) == {0, 1}
    counts = {("syndrome", 0): dict(frames=4, localized=3, zero_error=1, overloads=2, samples=16)}
    assert checks.count_problems(rows[:1], counts, "syndrome") == {}
    counts[("syndrome", 0)]["localized"] = 2
    assert "localized" in checks.count_problems(rows[:1], counts, "syndrome")[0]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_every_workload(name, trace):
    tiny = dataclasses.replace(run.WORKLOADS[name], frames=6)
    outcome, values, _extra, _notes = run.measure(name, tiny, 3, 0.01, trace)
    assert outcome.problems == [] and outcome.failed == 0
    assert outcome.attempted > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in spec} <= set(values)
    if trace:
        # every traced frame reached the decoder and the span counts matched the CSV
        assert values["pgz.decodes"] == 2 * tiny.frames_per_call


def test_failed_check_makes_the_run_incorrect(monkeypatch, capsys):
    from dftwz import harness

    real_sweep = harness.sweep

    def short_counted(cfg):
        result = real_sweep(cfg)
        bad = dataclasses.replace(result.points[0], frames=cfg.frames + 1)
        return dataclasses.replace(result, points=(bad,) + result.points[1:])

    monkeypatch.setattr(harness, "sweep", short_counted)
    tiny = dataclasses.replace(run.WORKLOADS["clean_gate"], frames=4)
    outcome, values, extra, notes = run.measure("clean_gate", tiny, 1, 0.01, False)
    assert outcome.failed == 2 * tiny.frames  # the first call of each approach
    assert run.report(outcome, values, extra, notes, SPEC, "end_to_end") == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_checkout_without_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "clean_gate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "no dftwz package" in proc.stderr
    assert '"correct"' not in proc.stdout
