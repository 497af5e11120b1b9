"""dftwz benchmark: sweep throughput and accuracy, with a traced layer breakdown.

Run from the repository root:

    python3 benchmark/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
syndrome-only and parity-only ``sweep`` calls of the workload, alternating,
until ``--seconds`` have passed (at least ``MIN_CALLS`` of each), with
fresh-interpreter set-up samples spread over the same span. Frames/s are
medians over calls of each call's frames over its duration, rescaled to a
reference host speed (``ReferenceClock``): on a shared VM the host's speed
swings by up to 2x within a minute, which raw wall time cannot survive.
The unscaled figures are printed beside them. ``setup_s`` is likewise the
median over fresh-interpreter samples of set-up time rescaled by a bare
``import numpy`` timed next to it (``measure_setup``).

``--trace 1`` runs the same sweeps single-process under the span tracer
(``spans.py``) and reports the per-layer metrics, next to an untraced
single-process run of the same sweep (tracing overhead) and, for a pooled
workload, the pooled run (pool speed-up).

Every sweep's CSV is checked (``checks.py``). A readable table goes to
stdout, and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are those listed in ``BENCHMARK.json``. Exit status: 0 when
every check passes, 1 when one fails, 2 when the checkout has no program
to measure or the arguments are invalid.

The program is imported from ``src/`` of this checkout, never from an
installed copy. Outputs (CSVs, span dumps) go to ``.benchmark_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmark_out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402

APPROACHES = ("syndrome", "parity")
MIN_CALLS = 3          # timed sweep calls per approach, at the least
SETUP_REPEATS = 15     # set-up samples per run; setup_s is their median
WARMUP_FRAMES = 8      # per grid point, untimed, before the first timed call
CAL_ITERS = 350        # iterations of the calibration kernel
REF_CAL_S = 0.05       # calibration time of the reference host (2-core x86 VM)
REF_IMPORT_S = 0.08    # fresh-interpreter ``import numpy`` time of that host


@dataclass(frozen=True)
class Workload:
    """Sweep settings; bits, quantizer ranges and rho stay at their defaults."""

    n: int
    k: int
    errors_per_frame: int
    ceqnr_db: tuple[float, ...]
    frames: int  # per grid point in one sweep call
    workers: int

    def config(self, approach: str, seed: int, *, workers: "int | None" = None,
               frames: "int | None" = None):
        from dftwz.harness import SweepConfig

        return SweepConfig(
            n=self.n, k=self.k, approaches=(approach,), ceqnr_db=self.ceqnr_db,
            frames=self.frames if frames is None else frames,
            errors_per_frame=self.errors_per_frame, seed=seed,
            workers=self.workers if workers is None else workers,
        )

    @property
    def frames_per_call(self) -> int:
        return self.frames * len(self.ceqnr_db)


# Why each workload exists is recorded in BENCHMARK.json. Frame counts put
# one sweep call near half a second on a 2-core machine, so a run holds
# enough calls for a steady median.
WORKLOADS = {
    "paper_grid": Workload(7, 5, 1, tuple(float(db) for db in range(-10, 41, 5)), 256, 2),
    "clean_gate": Workload(7, 5, 1, (-math.inf,), 2048, 1),
    "multi_error_15_9": Workload(15, 9, 2, (20.0, 30.0, 40.0), 256, 1),
}


class CheckoutError(Exception):
    """The checkout holds no program this benchmark can measure."""


def import_program():
    """Import dftwz from this checkout's src/, refusing any other copy."""
    if not (SRC / "dftwz" / "__init__.py").is_file():
        raise CheckoutError(f"no dftwz package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dftwz

    if Path(dftwz.__file__).resolve().parent != SRC / "dftwz":
        raise CheckoutError(f"dftwz imported from {dftwz.__file__}, not from {SRC}")
    return dftwz


@dataclass
class Outcome:
    """Frames attempted and failed over a run, with the reasons."""

    attempted: int = 0
    failed: int = 0
    raised: bool = False
    problems: list[str] = field(default_factory=list)

    def fail(self, frames: int, problem: str) -> None:
        self.failed += frames
        self.problems.append(problem)

    def check(self, found: dict[int, str], frames: int, what: str) -> None:
        for ci, problem in sorted(found.items()):
            self.fail(frames, f"{what}, grid point {ci}: {problem}")

    def check_csv(self, w: Workload, ap: str, text: str, first: dict[str, str]) -> None:
        """Row checks on an approach's first CSV of the run; every later CSV
        of that approach (same seed) must equal it byte for byte."""
        if ap not in first:
            first[ap] = text
            self.check(checks.row_problems(checks.parse_csv(text), w.ceqnr_db, w.frames, ap),
                       w.frames, f"{ap} CSV")
        elif text != first[ap]:
            self.fail(w.frames_per_call, f"{ap} CSV differs between sweeps with one seed")


def run_sweep(cfg, csv_path: Path, outcome: Outcome) -> "tuple[float, str] | None":
    """Time one sweep call from the call to its return; None if it raised."""
    from dftwz import harness

    outcome.attempted += cfg.frames * len(cfg.ceqnr_db)
    try:
        start = perf_counter()
        result = harness.sweep(cfg)
        elapsed = perf_counter() - start
        harness.write_csv(result, str(csv_path))
    except Exception:  # a failing sweep is a measured outcome, not a crash
        traceback.print_exc()
        outcome.raised = True
        outcome.fail(cfg.frames * len(cfg.ceqnr_db), f"sweep raised for {cfg.approaches}")
        return None
    return elapsed, csv_path.read_text(encoding="ascii")


_SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dftwz
dftwz.build_code(int(sys.argv[2]), int(sys.argv[3]))
print(time.perf_counter() - start)
"""

# The same start with numpy alone: the set-up time's reference kernel.
_NUMPY_CODE = """\
import sys, time
start = time.perf_counter()
import numpy
print(time.perf_counter() - start)
"""


# Calibration kernel: the operation mix of one (7,5) frame (seeded
# Generator, AR(1) loop, channel draw, syndrome matmul, quantizer
# arithmetic, 3x3 SVD, least squares, locator grid scoring), written
# without dftwz so that no change to the program moves it. A kernel this
# wide tracks the host's speed swings much more closely than a tight loop.
_CAL_H = np.exp(-2j * np.pi * np.outer(np.arange(3, 5), np.arange(7)) / 7) / np.sqrt(7)
_CAL_A = np.arange(9.0).reshape(3, 3) + 1j * np.eye(3)
_CAL_GRID = np.exp(2j * np.pi * np.arange(7) / 7)


def calibrate() -> float:
    """Seconds this host takes for CAL_ITERS frame-like iterations."""
    acc = 0.0
    start = perf_counter()
    for i in range(CAL_ITERS):
        rng = np.random.default_rng((7, i))
        x = rng.standard_normal(7)
        for j in range(1, 7):
            x[j] = 0.9 * x[j - 1] + 0.43 * x[j]
        x[rng.choice(7, size=1, replace=False)] += rng.normal(0.0, 0.1, 1)
        s = _CAL_H @ x
        q = np.clip(np.floor((s.real + 1.0) / 0.03), 0, 63)
        sing = np.linalg.svd(_CAL_A, compute_uv=False)
        coeffs, *_ = np.linalg.lstsq(_CAL_A, np.concatenate([s, q[:1]]), rcond=None)
        scores = np.abs(np.polyval(np.concatenate([-coeffs[::-1], [1.0]]), _CAL_GRID))
        acc += float(sing[0]) + float(np.lexsort((np.arange(7), scores))[0])
    return perf_counter() - start


def serve_calibration() -> None:
    """Helper-process loop: one calibration per input line, timed and
    printed on stdout; returns when stdin closes."""
    for _ in sys.stdin:
        print(calibrate(), flush=True)


_HELPER_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.serve_calibration()"


class ReferenceClock:
    """Rescales measured times to a host that runs ``calibrate`` in
    REF_CAL_S. Each timed job sits between two calibrations, and its time
    is divided by their mean over REF_CAL_S, so a host that slows down or
    speeds up during the run moves the job and the calibration together.

    With ``cores`` > 1 the kernel runs on that many processes at once (this
    one plus helper interpreters on pipes) and the clock takes the mean of
    their times, so that a pooled workload's clock sees every core the pool
    uses. On ``paper_grid`` this halves the run-to-run spread of frames/s
    against a one-process clock (BASELINE.md)."""

    def __init__(self, cores: int = 1) -> None:
        self._helpers = [
            subprocess.Popen([sys.executable, "-c", _HELPER_CODE, str(HERE)], cwd=ROOT,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(cores - 1)
        ]
        try:
            self.last = self._calibrate()
        except BaseException:
            self.__exit__()
            raise

    def __enter__(self) -> "ReferenceClock":
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._helpers:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def _calibrate(self) -> float:
        for proc in self._helpers:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        times = [calibrate()] + [float(proc.stdout.readline()) for proc in self._helpers]
        return sum(times) / len(times)

    def rescale(self, seconds: float) -> float:
        nxt = self._calibrate()
        factor = (self.last + nxt) / (2.0 * REF_CAL_S)
        self.last = nxt
        return seconds / factor


# Set-up children start numpy's BLAS with one thread. Starting its default
# pool of one thread per core waits on the scheduler, which on a shared host
# doubles import time for seconds at a stretch; no dftwz change can move it.
_SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _child_seconds(code: str, w: Workload) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(w.n), str(w.k)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        env={**os.environ, **_SETUP_ENV},
    )
    return float(proc.stdout.split()[-1])


def measure_setup(w: Workload) -> tuple[float, float]:
    """Seconds from a fresh interpreter to a built code, and from a fresh
    interpreter to ``import numpy`` alone, measured back to back. The second
    is the set-up time's reference clock: import work does not follow the
    calibration kernel, but it does follow a bare numpy import."""
    return _child_seconds(_SETUP_CODE, w), _child_seconds(_NUMPY_CODE, w)


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it has waited for
    (pool workers, set-up interpreters, calibration helpers)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(name: str, w: Workload, seed: int, seconds: float):
    """Untraced run: alternating timed sweep calls, each rescaled to
    reference host speed, with set-up samples spread over the same span."""
    outcome = Outcome()
    for ap in APPROACHES:
        run_sweep(w.config(ap, seed, frames=WARMUP_FRAMES), OUT / f"{name}-warmup.csv", outcome)
    with ReferenceClock(w.workers) as clock:
        elapsed: dict[str, list[float]] = {ap: [] for ap in APPROACHES}
        raw: dict[str, list[float]] = {ap: [] for ap in APPROACHES}
        first: dict[str, str] = {}
        setup: list[tuple[float, float]] = []
        start = perf_counter()
        while not outcome.raised and (perf_counter() < start + seconds
                                      or min(map(len, elapsed.values())) < MIN_CALLS):
            # set-up samples are spread over the run, so that they see the same
            # host as the sweeps rather than only its first second
            if (len(setup) < SETUP_REPEATS
                    and perf_counter() >= start + seconds * len(setup) / SETUP_REPEATS):
                setup.append(measure_setup(w))
            for ap in APPROACHES:
                got = run_sweep(w.config(ap, seed), OUT / f"{name}-{ap}.csv", outcome)
                if got is None:
                    break
                elapsed[ap].append(clock.rescale(got[0]))
                raw[ap].append(got[0])
                outcome.check_csv(w, ap, got[1], first)
    setup += [measure_setup(w) for _ in range(SETUP_REPEATS - len(setup))]

    values = {f"{ap}_frames_per_s": w.frames_per_call / statistics.median(ts)
              for ap, ts in elapsed.items() if ts}
    values["setup_s"] = statistics.median(REF_IMPORT_S * t / ref for t, ref in setup)
    values["peak_rss_mb"] = peak_rss_mib()
    extra = {}
    for ap, text in first.items():
        extra.update(checks.accuracy(checks.parse_csv(text), ap))
    extra["failed_frac"] = outcome.failed / max(outcome.attempted, 1)
    notes = [f"{ap}: {len(ts)} calls of {w.frames_per_call} frames; unscaled frames/s "
             f"{w.frames_per_call / statistics.median(raw[ap]):.6g}"
             for ap, ts in elapsed.items() if ts]
    notes.append(f"setup_s: {len(setup)} pairs; unscaled median "
                 f"{statistics.median(t for t, _ in setup):.4f} s, numpy-only median "
                 f"{statistics.median(ref for _, ref in setup):.4f} s")
    return outcome, values, extra, notes


def traced(name: str, w: Workload, seed: int, seconds: float):
    """Traced run. Each round sweeps each approach untraced and traced on
    one process, then pooled if the workload pools; rounds repeat until
    ``seconds`` pass. Per-layer values are medians over rounds."""
    outcome = Outcome()
    rounds: list[dict[str, float]] = []
    tracers: list[spans.Tracer] = []
    first: dict[str, str] = {}
    sigma_to_ci = {w.config("syndrome", seed).sigma_e(db): ci for ci, db in enumerate(w.ceqnr_db)}
    deadline = perf_counter() + seconds
    while not outcome.raised and (not rounds or perf_counter() < deadline):
        tracer = spans.Tracer()
        plain = timed = pooled = 0.0
        csvs: dict[str, str] = {}
        for ap in APPROACHES:
            one = w.config(ap, seed, workers=1)
            untraced = run_sweep(one, OUT / f"{name}-{ap}-untraced.csv", outcome)
            with tracer.installed():
                got = run_sweep(one, OUT / f"{name}-{ap}-traced.csv", outcome)
            pool = (run_sweep(w.config(ap, seed), OUT / f"{name}-{ap}-pool.csv", outcome)
                    if w.workers > 1 else got)
            if untraced is None or got is None or pool is None:
                break
            plain, timed, pooled = plain + untraced[0], timed + got[0], pooled + pool[0]
            csvs[ap] = got[1]
            if untraced[1] != got[1]:
                outcome.fail(w.frames_per_call, f"{ap}: traced CSV differs from untraced")
            if pool[1] != got[1]:
                outcome.fail(w.frames_per_call,
                             f"{ap}: {w.workers}-worker CSV differs from the 1-worker CSV")
        if outcome.raised:
            break
        frames = spans.frame_records(tracer.spans)
        counts = spans.grid_counts(frames, sigma_to_ci)
        for ap, text in csvs.items():
            outcome.check_csv(w, ap, text, first)
            if frames:  # a harness that no longer calls run_trial traces no frames
                outcome.check(checks.count_problems(checks.parse_csv(text), counts, ap),
                              w.frames, f"{ap} span counts")
        sizes = f"{len(frames)} traced frames and {len(tracer.spans)} spans per round"
        layer = spans.layer_metrics(tracer.spans, frames)
        layer["tracing.overhead"] = plain / timed
        layer["harness.pool.speedup"] = plain / pooled if w.workers > 1 else 1.0
        rounds.append(layer)
        tracers.append(tracer)

    values = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]} if rounds else {}
    for ap, text in first.items():
        values.update(checks.accuracy(checks.parse_csv(text), ap))
    for r, tracer in enumerate(tracers):
        tracer.write(OUT / f"spans-{name}-seed{seed}-round{r}.tsv")
    notes = [f"{len(rounds)} rounds; {sizes}"] if rounds else []
    extra = {"failed_frac": outcome.failed / max(outcome.attempted, 1)}
    return outcome, values, extra, notes


def measure(name: str, w: Workload, seed: int, seconds: float, trace: bool):
    """(outcome, metrics, extra readings, notes) of one run."""
    OUT.mkdir(exist_ok=True)
    return (traced if trace else end_to_end)(name, w, seed, seconds)


def _finite(v: float) -> "float | None":
    return v if math.isfinite(v) else None


def report(outcome: Outcome, values: dict[str, float], extra: dict[str, float],
           notes: list[str], spec: dict, section: str) -> int:
    """Print the readable table, then the JSON result line of ``spec[section]``;
    return the exit code. ``extra`` readings are printed, not returned."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "fraction"
    metrics = spec[section]
    for note in notes:
        print(f"# {note}")
    for key in [m["name"] for m in metrics] + list(extra):
        print(f"{key:<40} {values.get(key, extra.get(key, math.nan)):>16.6g} {units[key]}")
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not outcome.problems and outcome.failed == 0
    result = {m["name"]: {"value": _finite(values.get(m["name"], math.nan)), "unit": m["unit"]}
              for m in metrics}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": result}))
    return 0 if correct else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        dftwz = import_program()
    except (OSError, ValueError, ImportError, CheckoutError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace};"
          f" python {platform.python_version()} numpy {np.__version__}"
          f" dftwz {dftwz.__version__} cpus {os.cpu_count()}")
    result = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    return report(*result, spec, "per_layer" if args.trace else "end_to_end")


if __name__ == "__main__":
    sys.exit(main())
