"""Harness: sweep aggregation, determinism, CSV contract."""

import functools
import multiprocessing
import os
import pickle
import platform
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dftwz import codes, harness
from dftwz.cli import main
from dftwz.codes import build_code
from dftwz.harness import (
    BLOCK_FRAMES,
    CSV_COLUMNS,
    SweepConfig,
    SweepPoint,
    SweepResult,
    read_csv,
    sweep,
    write_csv,
)
from dftwz.quantize import QuantizerSpec
from dftwz.sources import ChannelSpec, SourceSpec, draw_frames
from dftwz.wyner_ziv import APPROACHES, frame_length, tx_samples

C75 = build_code(7, 5)


def small_config(**overrides):
    base = dict(
        ceqnr_db=(0.0, 30.0),
        frames=300,
        seed=11,
        workers=1,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(approaches=())
    with pytest.raises(ValueError):
        SweepConfig(approaches=("syndrome", "turbo"))
    with pytest.raises(ValueError):
        SweepConfig(approaches=("parity", "parity"))
    with pytest.raises(ValueError):
        SweepConfig(ceqnr_db=())
    with pytest.raises(ValueError):
        SweepConfig(frames=0)
    with pytest.raises(ValueError):
        SweepConfig(seed=-1)
    with pytest.raises(ValueError):
        SweepConfig(errors_per_frame=2)  # exceeds t = 1 of (7,5)
    with pytest.raises(ValueError):
        SweepConfig(n=8, k=5)
    with pytest.raises(ValueError):
        SweepConfig(workers=0)


# Knobs that a sweep's blocks would otherwise reject only once they run,
# possibly in a pool's workers. Each maps to its overrides and a pattern
# the error must hold, if any.
_WORKER_KNOBS = {
    "reversed_parity_range": (dict(parity_range=(1.0, -1.0)), "^parity_range = "),
    "reversed_syndrome_range": (dict(syndrome_range=(1.0, -1.0)), "^syndrome_range = "),
    "rho_1.5": (dict(rho=1.5), None),
    "negative_errors": (dict(errors_per_frame=-1), None),
    "more_errors_than_k": (dict(n=11, k=3, errors_per_frame=4, approaches=("parity",)), None),
    "0_bits": (dict(bits=0), "^bits"),
    "600_bits": (dict(bits=600), None),
    "1100_bits": (dict(bits=1100), None),
    "fractional_frames": (dict(frames=2.5), "^frames must be an integer"),
    "fractional_seed": (dict(seed=1.5), "^seed must be an integer"),
    "float_errors": (dict(errors_per_frame=1.0), "^errors_per_frame must be an integer"),
    "fractional_workers": (dict(workers=1.5), "^workers must be an integer"),
    "bool_frames": (dict(frames=True), "^frames must be an integer"),
    "bool_bits": (dict(bits=True), "^bits"),
    "bool_k": (dict(k=True), "^n and k must be integers"),
}


@pytest.mark.parametrize("overrides, match", _WORKER_KNOBS.values(), ids=_WORKER_KNOBS)
def test_config_rejects_what_a_worker_would(overrides, match):
    with pytest.raises(ValueError, match=match):
        SweepConfig(**overrides)


# A knob that is no real number, or a bool, or a range that is no pair,
# raises ValueError naming it, not a TypeError from the arithmetic or the
# unpacking it would reach.
@pytest.mark.parametrize("knob, value, match", [
    ("rho", "0.5", "^rho "),
    ("rho", False, "^rho "),
    ("ceqnr_db", (True,), "^CEQNR values"),
    ("ceqnr_db", (0.0, "10"), "^CEQNR values"),
    ("ceqnr_db", (None,), "^CEQNR values"),
    ("ceqnr_db", (1j,), "^CEQNR values"),
    ("ref_range", (True, 4.0), "^ref_range = "),
    ("ref_range", ("-4", 4.0), "^ref_range = "),
    ("syndrome_range", (-1.0, None), "^syndrome_range = "),
    ("parity_range", (np.True_, 4.0), "^parity_range = "),
    ("ref_range", (-1.0, 0.0, 4.0), "^ref_range = "),
    ("ref_range", 4.0, "^ref_range = "),
    ("parity_range", (1.0,), "^parity_range = "),
])
def test_config_rejects_a_knob_that_is_no_real_number(knob, value, match):
    with pytest.raises(ValueError, match=match):
        SweepConfig(**{knob: value})


def test_config_allows_more_errors_than_k_without_parity():
    assert SweepConfig(n=11, k=3, errors_per_frame=4, approaches=("syndrome",)).k == 3


@pytest.mark.parametrize("ceqnr", [float("nan"), float("inf"), 4000.0])
def test_config_rejects_nan_and_plus_inf_ceqnr(ceqnr):
    with pytest.raises(ValueError, match="CEQNR"):
        SweepConfig(ceqnr_db=(0.0, ceqnr))
    assert SweepConfig(ceqnr_db=(float("-inf"), 0.0)).sigma_e(float("-inf")) == 0.0


def test_sigma_e_mapping():
    cfg = SweepConfig()
    s_q2 = cfg.reference_quantizer.sigma_q_sq
    assert cfg.sigma_e(0.0) == pytest.approx(np.sqrt(s_q2))
    assert cfg.sigma_e(20.0) == pytest.approx(10 * np.sqrt(s_q2))
    assert cfg.sigma_e(float("-inf")) == 0.0


def test_sweep_deterministic_same_seed():
    r1 = sweep(small_config())
    r2 = sweep(small_config())
    assert r1 == r2


def test_sweep_worker_count_invariance(tmp_path):
    # Fixed-block reduction: byte-identical CSV for any worker count, also
    # for (15,9) with 2 errors, whose pooled blocks weight supports of
    # up to 3 positions.
    for code in (dict(), dict(n=15, k=9, errors_per_frame=2)):
        cfg1 = small_config(frames=2 * BLOCK_FRAMES + 17, **code)
        p1, p3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
        write_csv(sweep(cfg1), str(p1))
        write_csv(sweep(replace(cfg1, workers=3)), str(p3))
        assert p1.read_bytes() == p3.read_bytes()


def test_list_fields_sweep_as_their_tuples(tmp_path):
    # A caller may give a sequence field as a list; the sweep keys nothing
    # on the configuration, so a list runs as its tuple does, here on two
    # workers against the tuple twin's one.
    fields = dict(approaches=["parity", "syndrome"], ceqnr_db=[0.0, 30.0], ref_range=[-4.0, 4.0],
                  syndrome_range=[-1.0, 1.0], parity_range=[-4.75, 4.75])
    lists = small_config(frames=2 * BLOCK_FRAMES + 17, workers=2, **fields)
    tuples = replace(lists, workers=1, **{name: tuple(v) for name, v in fields.items()})
    p_list, p_tuple = tmp_path / "list.csv", tmp_path / "tuple.csv"
    write_csv(sweep(lists), str(p_list))
    write_csv(sweep(tuples), str(p_tuple))
    assert p_list.read_bytes() == p_tuple.read_bytes()


def test_parity_sweep_of_a_code_with_fewer_candidates_than_t():
    # (11,3) counts up to t = 4 errors, but a parity frame has only k = 3
    # candidate positions; the count is capped at 3 instead of rejected.
    cfg = small_config(n=11, k=3, approaches=("parity",), ceqnr_db=(0.0, 20.0, 40.0), frames=256)
    points = sweep(cfg).points
    assert [p.frames for p in points] == [256] * 3
    assert all(np.isfinite(p.mse_parity) for p in points)


def test_sweeps_of_one_code_build_it_once(monkeypatch):
    # build_code's memo serves the sweep, its blocks and the decoders: two
    # sweeps of both approaches call the uncached builder once.
    calls, construct = [], codes._build.__wrapped__

    def counted(n, k):
        calls.append((n, k))
        return construct(n, k)

    monkeypatch.setattr(codes, "_build", functools.lru_cache(maxsize=8)(counted))
    cfg = small_config(n=11, k=5, ceqnr_db=(-np.inf, 30.0), frames=40)
    first, second = sweep(cfg), sweep(cfg)
    assert calls == [(11, 5)]
    assert first == second


class _InlinePool:
    """Stands in for multiprocessing.Pool: records the pool size asked for
    and runs the tasks in this process, starting none."""

    def __init__(self, processes, started):
        started.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def _pool_sizes(monkeypatch, tmp_path, cfg):
    """Pool sizes that ``sweep(cfg)`` asks for, after checking that its
    CSV matches the serial sweep's."""
    started = []
    monkeypatch.setattr(multiprocessing, "Pool", lambda **kw: _InlinePool(**kw, started=started))
    pooled, serial = tmp_path / "pooled.csv", tmp_path / "serial.csv"
    write_csv(sweep(cfg), str(pooled))
    write_csv(sweep(replace(cfg, workers=1)), str(serial))
    assert pooled.read_bytes() == serial.read_bytes()
    return started


@pytest.mark.parametrize(
    "frames, workers, pools",
    [(300, 8, []), (2 * BLOCK_FRAMES + 17, 8, [2]), (2 * BLOCK_FRAMES + 17, 2, [2])],
)
def test_sweep_starts_no_more_workers_than_tasks(monkeypatch, tmp_path, frames, workers, pools):
    # One CEQNR point and one approach: ceil(frames / BLOCK_FRAMES) tasks,
    # of which floor(frames / BLOCK_FRAMES) hold a full block; the pool
    # starts one worker per full block at most.
    cfg = small_config(ceqnr_db=(30.0,), approaches=("syndrome",), frames=frames, workers=workers)
    assert _pool_sizes(monkeypatch, tmp_path, cfg) == pools


def test_sweep_starts_no_pool_without_two_full_blocks(monkeypatch, tmp_path):
    # Two tasks of 300 frames at 4 points: none holds a full block, so
    # none pools.
    cfg = small_config(ceqnr_db=(0.0, 10.0, 20.0, 30.0), frames=300, workers=8)
    assert _pool_sizes(monkeypatch, tmp_path, cfg) == []


@pytest.mark.parametrize("flag, value", [("--parity-range", "1,-1"), ("--rho", "1.5")])
def test_cli_rejects_a_bad_knob_before_asking_for_a_pool(monkeypatch, tmp_path, capsys,
                                                          flag, value):
    started = []
    monkeypatch.setattr(multiprocessing, "Pool", lambda **kw: _InlinePool(**kw, started=started))
    code = main([flag, value, "--approach", "parity", "--ceqnr", "20",
                 "--frames", str(2 * BLOCK_FRAMES), "--workers", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2 and capsys.readouterr().err.startswith("dftwz: ")
    assert started == []


def test_overload_rate_counts_each_points_own_clips():
    # A narrow parity range clips at every point, a different number of
    # samples at each. Each point's rate is its own frames' clips, drawn
    # as the README's determinism contract says; 300 frames per point
    # make one block per point, and a decode call stacks the blocks of
    # all three points.
    cfg = small_config(approaches=("parity",), parity_range=(-1.5, 1.5),
                       ceqnr_db=(-10.0, 10.0, 30.0), frames=300)
    tx = cfg.frames * (C75.n - C75.k)
    clips = []
    for ci, db in enumerate(cfg.ceqnr_db):
        ch = ChannelSpec(cfg.errors_per_frame, cfg.sigma_e(db))
        count = 0
        for start in range(0, cfg.frames, BLOCK_FRAMES):
            rng = np.random.default_rng((cfg.seed, ci, 1, start))
            x = draw_frames(SourceSpec(cfg.rho), C75.k,
                            [(rng, ch, min(BLOCK_FRAMES, cfg.frames - start))])[0]
            count += int(np.sum(np.abs(x @ C75.P_gen.T) > 1.5))
        clips.append(count)
    assert len(set(clips)) == len(clips)  # pooled clips would read one rate
    assert [p.overload_rate for p in sweep(cfg).points] == [c / tx for c in clips]


def _block_trials(cfg, approach, ci, start):
    """``harness._trials`` of the block of frames from ``start`` at point
    ``ci``, drawn alone from its own generator."""
    code = build_code(cfg.n, cfg.k)
    ch = ChannelSpec(cfg.errors_per_frame, cfg.sigma_e(cfg.ceqnr_db[ci]))
    rng = np.random.default_rng((cfg.seed, ci, APPROACHES.index(approach), start))
    frames = draw_frames(SourceSpec(cfg.rho), frame_length(code, approach),
                         [(rng, ch, min(BLOCK_FRAMES, cfg.frames - start))])
    return harness._trials(code, approach, cfg.transmit_quantizer(approach), *frames)


@pytest.mark.parametrize("ceqnr_db, frames", [
    pytest.param((-10.0, 10.0, 30.0), 600, id="600"),
    pytest.param((-10.0, 10.0, 30.0), 2 * BLOCK_FRAMES + 88, id=str(2 * BLOCK_FRAMES + 88)),
    pytest.param(tuple(float(db) for db in range(-10, 41, 5)), 600, id="11-points-600"),
])
def test_point_mse_is_the_frame_order_sum(ceqnr_db, frames):
    # The reference loop: each block drawn alone, each frame's MSE added
    # to its block's sum one at a time, in frame order, from 0.0, and the
    # block sums added in block order. A pairwise sum (np.sum) rounds
    # differently, and so does one running sum across blocks, at every
    # point; at seed 12 the blocks added in reverse order do too, at
    # one of the three. 600 frames make one block per point;
    # 2 * BLOCK_FRAMES + 88 make two full blocks and one of 88. A task's
    # blocks at all 3 or 11 points fit one decode call's byte budget, and
    # test_csv_bytes_do_not_depend_on_the_call_budget holds the bytes of
    # stacks split or sliced otherwise to these.
    cfg = small_config(approaches=("syndrome",), ceqnr_db=ceqnr_db, frames=frames, seed=12)
    for ci, point in enumerate(sweep(cfg).points):
        total = 0.0
        for start in range(0, cfg.frames, BLOCK_FRAMES):
            block = 0.0
            for frame_mse in _block_trials(cfg, "syndrome", ci, start)[0].tolist():
                block += frame_mse
            total += block
        assert point.mse_syndrome == total / cfg.frames


def _sweep_peak(cfg):
    """tracemalloc's peak over ``sweep(cfg)``, above what was allocated before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep(cfg)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_grid_or_frames():
    # A decode call holds a bounded number of bytes, so the peak stays put
    # when the grid has 4x the points or each point 2x the frames. A
    # first, untraced sweep builds the code and its decoder constants,
    # which every later sweep reuses.
    cfg = small_config(n=15, k=9, errors_per_frame=2, approaches=("syndrome",),
                       ceqnr_db=(30.0, 40.0), frames=BLOCK_FRAMES)
    sweep(cfg)
    peak = _sweep_peak(cfg)
    assert _sweep_peak(replace(cfg, ceqnr_db=cfg.ceqnr_db * 4)) <= 1.1 * peak
    assert _sweep_peak(replace(cfg, frames=2 * cfg.frames)) <= 1.1 * peak


@pytest.mark.parametrize("n, k, errors", [
    pytest.param(31, 25, 3, id="31-25-3"),
    pytest.param(31, 21, 5, id="31-21-5"),
])
def test_three_error_weighting_holds_only_each_supports_magnitudes(monkeypatch, n, k, errors):
    # The weighting holds, for nu (frame, dropped position) pairs per
    # frame, its core's nu - 1 projections Q^T A and five rows over the
    # N = 31 positions, and no per-core operator. A budget no block
    # reaches decodes the 2,048-frame block in one call, as slices that
    # fit 8 MiB would hide a heavier weighting: it peaks at 15.7 MiB for
    # (31,25) with 3 errors and 20.9 MiB for (31,21) with 5, where a
    # cache of per-core operators held 21 and 95 MiB. Allocation sizes do
    # not depend on timing; an untraced sweep builds the code and its
    # decoder constants first.
    monkeypatch.setattr(harness, "_CALL_BYTES", 2**40)
    cfg = SweepConfig(n=n, k=k, errors_per_frame=errors, ceqnr_db=(30.0,), frames=BLOCK_FRAMES,
                      approaches=("syndrome",), seed=3)
    sweep(cfg)
    assert _sweep_peak(cfg) < 30 * 2**20


@pytest.mark.parametrize("n, k, errors", [
    pytest.param(63, 57, 3, id="63-57-3"),
    pytest.param(31, 21, 5, id="31-21-5"),
])
def test_a_block_above_the_call_budget_decodes_in_slices(n, k, errors):
    # A 2,048-frame block of these codes holds more than the budget; decoded
    # whole it peaked at about 31 and 21 MiB, sliced it stays near the budget.
    cfg = SweepConfig(n=n, k=k, errors_per_frame=errors, ceqnr_db=(30.0,), frames=BLOCK_FRAMES,
                      approaches=("syndrome",), seed=3)
    sweep(cfg)
    assert _sweep_peak(cfg) <= 1.5 * harness._CALL_BYTES


def test_default_grid_decodes_in_one_call_per_approach(monkeypatch):
    # 11 points of 256 frames fit one call's byte budget, so a sweep pays
    # the fixed cost of a decode call once per approach.
    calls, decode = [], harness.decode_block

    def counted(code, approach, *args):
        calls.append(approach)
        return decode(code, approach, *args)

    monkeypatch.setattr(harness, "decode_block", counted)
    sweep(SweepConfig(frames=256))
    assert sorted(calls) == sorted(APPROACHES)


@pytest.mark.parametrize("knobs", [
    pytest.param(dict(), id="7-5-grid"),
    pytest.param(dict(n=31, k=21, errors_per_frame=5, ceqnr_db=(30.0,)), id="31-21-5"),
])
def test_csv_bytes_do_not_depend_on_the_call_budget(monkeypatch, tmp_path, knobs):
    # A tiny budget decodes every block in slices of 5 to 156 frames; a
    # huge one decodes a task's blocks at every point in one call. Two full
    # blocks per point start a pool on 2 workers, whose forked workers
    # inherit the budget. None of it moves a bit of the CSV.
    cfg = SweepConfig(frames=2 * BLOCK_FRAMES + 17, seed=4, **knobs)
    want = tmp_path / "want.csv"
    write_csv(sweep(cfg), str(want))
    for budget in (100_003, 1 << 40):
        monkeypatch.setattr(harness, "_CALL_BYTES", budget)
        for workers in (1, 2):
            got = tmp_path / f"{budget}-{workers}.csv"
            write_csv(sweep(replace(cfg, workers=workers)), str(got))
            assert got.read_bytes() == want.read_bytes()


_WARM_FAULTS = """
import math, resource
from dftwz.harness import SweepConfig, sweep
cfg = SweepConfig(approaches=("syndrome",), {})
sweep(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    sweep(cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's heap thresholds")
@pytest.mark.parametrize("knobs", [
    pytest.param("n=15, k=9, errors_per_frame=2, ceqnr_db=(20.0, 30.0, 40.0), frames=256",
                 id="15-9-2"),
    pytest.param("ceqnr_db=(-math.inf,), frames=2048", id="7-5-clean"),
])
def test_warm_sweeps_do_not_fault_freed_blocks_back_in(knobs):
    # A fresh interpreter, since this one's earlier allocations may already
    # have lifted glibc's mmap and trim thresholds. Under the default ones,
    # glibc trims a block's freed temporaries and the next block faults
    # them back in: 580–620 (15,9) and 84 (7,5) minor faults per call.
    proc = subprocess.run(
        [sys.executable, "-c", _WARM_FAULTS.format(knobs)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).resolve().parents[1])})
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 5


@pytest.mark.parametrize("approach", ["syndrome", "parity"])
def test_sweep_single_approach_columns(approach):
    # The approach that did not run reads NaN; the pooled columns count
    # the one that ran alone. Narrow ranges clip 2-5% of the samples, so
    # that at -inf some frames are zero-error and some are not.
    cfg = small_config(approaches=(approach,), ceqnr_db=(float("-inf"), 0.0, 30.0),
                       syndrome_range=(-0.5, 0.5), parity_range=(-2.0, 2.0))
    other = "parity" if approach == "syndrome" else "syndrome"
    for ci, point in enumerate(sweep(cfg).points):
        assert np.isfinite(getattr(point, f"mse_{approach}"))
        assert np.isfinite(getattr(point, f"loc_freq_{approach}"))
        assert np.isnan(getattr(point, f"mse_{other}"))
        assert np.isnan(getattr(point, f"loc_freq_{other}"))
        trials = [_block_trials(cfg, approach, ci, start)
                  for start in range(0, cfg.frames, BLOCK_FRAMES)]
        zero_error = sum(int(np.count_nonzero(zero)) for _mse, _loc, zero, _ovl in trials)
        overloads = sum(int(ovl.sum()) for *_rest, ovl in trials)
        assert point.zero_error_frac == zero_error / cfg.frames
        assert point.overload_rate == overloads / (cfg.frames * tx_samples(C75, approach))


def test_sweep_perfect_correlation_point():
    res = sweep(small_config(ceqnr_db=(float("-inf"),), frames=400))
    point = res.points[0]
    # sigma_e = 0: almost every frame is returned untouched.
    assert point.mse_syndrome <= 0.02 * point.sigma_q_sq
    assert point.zero_error_frac >= 0.99
    assert point.frames == 400


def test_sweep_metrics_within_bounds():
    res = sweep(small_config())
    for p in res.points:
        assert 0.0 <= p.loc_freq_syndrome <= 1.0
        assert 0.0 <= p.loc_freq_parity <= 1.0
        assert 0.0 <= p.zero_error_frac <= 1.0
        assert 0.0 <= p.overload_rate <= 1.0
        assert p.sigma_q_sq == pytest.approx(0.125**2 / 12)


def test_energy_accounting_quantization_noise(rng):
    # Transmitted-sample quantization noise power on uniform input.
    q = QuantizerSpec(6, -1.0, 1.0)
    v = rng.uniform(-1, 1, 10**6)
    from dftwz.quantize import quantize

    noise = v - quantize(q, v)
    assert np.var(noise) == pytest.approx(q.sigma_q_sq, rel=0.03)


def test_ceqnr_calibration(rng):
    cfg = SweepConfig()
    for db in (0.0, 13.0, 27.0):
        sigma = cfg.sigma_e(db)
        draws = rng.normal(0, sigma, 2 * 10**5)
        measured = 10 * np.log10(np.var(draws) / cfg.reference_quantizer.sigma_q_sq)
        assert measured == pytest.approx(db, abs=0.2)


def test_csv_header_and_shape(tmp_path):
    res = sweep(small_config())
    path = tmp_path / "out.csv"
    write_csv(res, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(res.points)


def test_csv_empty_result_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(SweepResult(points=()), str(path))
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_round_trip(tmp_path):
    res = sweep(small_config(ceqnr_db=(0.0, 25.0, float("-inf")), frames=200))
    path = tmp_path / "rt.csv"
    write_csv(res, str(path))
    back = read_csv(str(path))
    assert len(back.points) == len(res.points)
    for a, b in zip(back.points, res.points):
        assert a.frames == b.frames
        assert a.ceqnr_db == b.ceqnr_db
        for field in ("mse_syndrome", "mse_parity", "sigma_q_sq", "loc_freq_syndrome",
                      "loc_freq_parity", "zero_error_frac", "overload_rate"):
            x, y = getattr(a, field), getattr(b, field)
            assert (np.isnan(x) and np.isnan(y)) or x == pytest.approx(y, rel=1e-8)


def test_csv_nine_significant_digits(tmp_path):
    point = SweepPoint(
        ceqnr_db=10.0,
        mse_syndrome=0.123456789123,
        mse_parity=float("nan"),
        sigma_q_sq=0.00130208333333,
        loc_freq_syndrome=1 / 3,
        loc_freq_parity=float("nan"),
        zero_error_frac=0.0,
        overload_rate=2e-12,
        frames=7,
    )
    path = tmp_path / "digits.csv"
    write_csv(SweepResult(points=(point,)), str(path))
    row = path.read_text().split("\n")[1].split(",")
    assert row[1] == "0.123456789"
    assert row[4] == "0.333333333"
    assert row[7] == "2e-12"
    assert row[8] == "7"


def test_sweep_result_pickles_equal_to_itself():
    # A point's class must be found where pickle looks for it, in
    # dftwz.harness, whatever builds it; both approaches at finite CEQNR
    # leave no NaN, so the copy compares equal.
    assert SweepPoint.__module__ == "dftwz.harness"
    res = sweep(small_config(frames=64))
    assert not any(np.isnan(getattr(p, c)) for p in res.points for c in CSV_COLUMNS)
    assert pickle.loads(pickle.dumps(res)) == res


def test_csv_read_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("alpha,beta\n1,2\n")
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        read_csv(str(bad))
    # A cell that does not parse names the file, the data row and the column.
    good = tmp_path / "good.csv"
    write_csv(sweep(SweepConfig(ceqnr_db=(0.0, 10.0), frames=8)), str(good))
    header, first, second = good.read_text().splitlines()
    for column, cell in (("frames", "2.5"), ("mse_syndrome", "abc")):
        cells = second.split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        bad.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}' row 2, column {column}: ")):
            read_csv(str(bad))
    with pytest.raises(OSError):
        read_csv(str(tmp_path / "missing.csv"))


def test_csv_write_propagates_io_error(tmp_path):
    with pytest.raises(OSError):
        write_csv(SweepResult(points=()), str(tmp_path / "nodir" / "x.csv"))
