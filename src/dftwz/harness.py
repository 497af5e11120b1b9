"""Monte-Carlo experiment engine: CEQNR sweeps, metrics, CSV output.

Determinism contract: each CEQNR point's frames are processed in fixed
blocks of BLOCK_FRAMES, and a point's block draws its innovations,
error-position keys and error magnitudes, in that order, from one
default_rng((master_seed, ceqnr_index, approach_id, start)), approach_id
being the approach's index in wyner_ziv.APPROACHES and start the index
of the block's first frame (sources.draw_frames); a block whose channel
can put no error (sigma_e = 0, or no errors per frame) draws its
innovations only, which changes none of its frames. Blocks start at
multiples of BLOCK_FRAMES, so it is part of the contract. A task is one
block of F frames of one approach at every CEQNR point. It draws the
blocks of as many points as fit one call's byte budget (_CALL_BYTES),
one at the least, as one stacked array, and encodes and decodes the
stack in one call through ``wyner_ziv``, or in slices that fit when one
block alone exceeds the budget. ``wyner_ziv`` alone maps an approach's
name to what it sends and how it decodes; this module names no
approach and has one ``mse_<a>`` and ``loc_freq_<a>`` column per entry
a of APPROACHES. A task's partial sums are one array with a row
per point (MSE sum, localized, zero-error and overload counts); each
point's frames are added in frame order, and the tasks' arrays of an
approach are added in submission order, so identical configuration and
seed produce byte-identical CSV for any worker count.

CEQNR (channel-error-to-quantization-noise ratio) is
10 log10(sigma_e^2 / sigma_q^2) where sigma_q^2 = step^2 / 12 of the
reference quantizer; a value of -inf requests sigma_e = 0 (perfect
correlation).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, make_dataclass
from numbers import Real

import numpy as np

from .codes import DftCode, build_code
from .quantize import BitsError, QuantizerSpec
from .sources import ChannelSpec, SourceSpec, draw_frames
from .wyner_ziv import (
    APPROACHES,
    DEFAULT_PARITY_RANGE,
    DEFAULT_SYNDROME_RANGE,
    decode_block,
    encode_block,
    frame_length,
    row_sums,
    tx_samples,
)

__all__ = [
    "SweepConfig",
    "SweepPoint",
    "SweepResult",
    "sweep",
    "write_csv",
    "read_csv",
    "CSV_COLUMNS",
    "BLOCK_FRAMES",
]

# Frames per grid point in one work unit, drawn from one generator. Part
# of the byte-determinism contract: it fixes which generator draws which
# frame, and partial sums are accumulated within a block and blocks are
# reduced in order, so results are independent of how blocks land on
# workers.
BLOCK_FRAMES = 2048

# Bytes one draw-encode-decode call may hold, as _frame_bytes counts
# them: a task stacks as many whole point blocks as fit, one at the
# least, and a block that alone exceeds it is decoded in slices that fit.
# Not part of the contract: a frame's products, in einsum's loop or one
# BLAS matrix-vector call per frame (wyner_ziv._mv), are bitwise the same
# in a call of any size. Per-frame cost falls as a call grows to 4 MiB and
# is flat to 24 MiB; 8 MiB puts the default grid (256 frames a point) in
# one call and keeps each array below _keep_freed_heap's 16 MiB, above
# which glibc maps it afresh.
_CALL_BYTES = 8 << 20

# Where the CLI writes the sweep CSV unless given a path.
DEFAULT_CSV_PATH = "sweep.csv"


@dataclass(frozen=True)
class SweepConfig:
    """Full experiment description and the one declaration of every sweep
    knob: the CLI's flags and config-file keys set these fields, and their
    defaults are the ones below. Construction validates every knob, so a
    bad one raises ValueError here, before any block or worker runs."""

    n: int = 7
    k: int = 5
    approaches: tuple[str, ...] = APPROACHES
    bits: int = 6
    ref_range: tuple[float, float] = (-4.0, 4.0)
    syndrome_range: tuple[float, float] = DEFAULT_SYNDROME_RANGE
    parity_range: tuple[float, float] = DEFAULT_PARITY_RANGE
    ceqnr_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    frames: int = 20000
    errors_per_frame: int = 1
    seed: int = 1
    rho: float = 0.9
    workers: int = 1

    def __post_init__(self) -> None:
        for name, least in (("frames", 1), ("seed", 0), ("workers", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or type(value) is bool:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if not self.approaches or any(a not in APPROACHES for a in self.approaches):
            raise ValueError(f"approaches must be a nonempty subset of {APPROACHES}")
        if len(set(self.approaches)) != len(self.approaches):
            raise ValueError("duplicate approach")
        # Build what a sweep builds, so that a bad bits, range, rho or
        # errors_per_frame raises here and not once blocks run.
        self.reference_quantizer
        for approach in APPROACHES:
            self.transmit_quantizer(approach)
        SourceSpec(self.rho)
        ChannelSpec(self.errors_per_frame)
        if not self.ceqnr_db:
            raise ValueError("CEQNR grid must be nonempty")
        for db in self.ceqnr_db:  # -inf gives sigma_e = 0
            try:
                real = isinstance(db, Real) and type(db) is not bool
                finite = real and math.isfinite(self.sigma_e(db))
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(
                    f"CEQNR values must be -inf or finite with a finite sigma_e, got {db!r}"
                )
        code = build_code(self.n, self.k)  # validates n, k (odd, n > k)
        if self.errors_per_frame > code.t:
            raise ValueError(
                f"errors_per_frame = {self.errors_per_frame} exceeds t = {code.t} "
                f"of the ({self.n}, {self.k}) code"
            )
        for approach in self.approaches:
            length = frame_length(code, approach)
            if self.errors_per_frame > length:
                raise ValueError(
                    f"errors_per_frame = {self.errors_per_frame} exceeds the {length} "
                    f"samples of a {approach} frame"
                )

    def _quantizer(self, name: str) -> QuantizerSpec:
        """``bits`` on the range field ``name``; an error names bits or the field."""
        lo_hi = getattr(self, name)
        try:
            lo, hi = lo_hi  # TypeError or ValueError unless a pair
            return QuantizerSpec(self.bits, lo, hi)
        except BitsError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} = {lo_hi}: {exc}") from None

    @functools.cached_property  # built once, in __post_init__
    def reference_quantizer(self) -> QuantizerSpec:
        return self._quantizer("ref_range")

    def transmit_quantizer(self, approach: str) -> QuantizerSpec:
        """Quantizer of the samples ``approach`` transmits."""
        return self._quantizer(f"{approach}_range")

    def sigma_e(self, ceqnr_db: float) -> float:
        return float(np.sqrt(self.reference_quantizer.sigma_q_sq * 10.0 ** (ceqnr_db / 10.0)))


# One CSV row: a field per column, with one mse_<a> and one loc_freq_<a>
# per approach a in APPROACHES, in that order.
SweepPoint = make_dataclass("SweepPoint", [
    ("ceqnr_db", float), *((f"mse_{a}", float) for a in APPROACHES), ("sigma_q_sq", float),
    *((f"loc_freq_{a}", float) for a in APPROACHES),
    ("zero_error_frac", float), ("overload_rate", float), ("frames", int),
], namespace={"__doc__": "One CSV row: aggregated metrics at a single CEQNR value."}, frozen=True)
SweepPoint.__module__ = __name__  # make_dataclass's own before 3.12; pickle looks it up here

# The CSV schema is SweepPoint's fields, in order.
CSV_COLUMNS = tuple(f.name for f in fields(SweepPoint))
_CELL_TYPES = {f.name: f.type for f in fields(SweepPoint)}


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]


def _trials(
    code: DftCode, approach: str, quantizer: QuantizerSpec,
    x: np.ndarray, y: np.ndarray, hit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Round trips of frames as ``draw_frames`` returns them: per-frame
    (MSE, localized, zero-error, overloads)."""
    values, overloads = encode_block(code, approach, x, quantizer)
    decoded = decode_block(code, approach, values, quantizer, y)
    diff = decoded.x_hat - x
    localized = functools.reduce(np.logical_and, (decoded.support == hit).T)
    zero_error = functools.reduce(np.logical_and, (decoded.x_hat == x).T)
    return row_sums(diff * diff) / x.shape[1], localized, zero_error, overloads  # np.mean's bits


def _frame_bytes(code: DftCode, approach: str) -> int:
    """Bytes a call holds per frame of ``approach`` at its peak: a frame
    of L samples that PGZ counts t errors in holds t (frame, dropped
    position) pairs of t + 5 rows of L floats in the weighting, and the
    draw, the codec and PGZ about 2t + 8 rows more. Within 0.74-1.14x of
    tracemalloc's per-frame peak at the worst CEQNR, (7,5) to (63,51)."""
    t = code.t
    return 8 * frame_length(code, approach) * (t * (t + 7) + 8)


@functools.cache
def _keep_freed_heap() -> None:
    """Free an untouched 16 MiB mmapped buffer once per process: glibc then
    lifts its mmap and trim thresholds to 16 and 32 MiB (mallopt(3)), so a
    block's freed temporaries stay in the heap instead of being trimmed and
    faulted back in by the next block. Other C libraries ignore it."""
    np.empty(1 << 24, np.uint8)


def _run_block(
    cfg: SweepConfig, quantizers: dict[str, QuantizerSpec], channels: list[ChannelSpec],
    task: tuple[str, int, int],
) -> np.ndarray:
    """Partial sums over one block of frames: one row per CEQNR point in
    grid order, of MSE sum, localized, zero-error and overload counts.
    ``quantizers`` holds each approach's transmit quantizer and
    ``channels`` each point's channel; the code comes from build_code's
    memo, built once per process."""
    _keep_freed_heap()
    approach, start, count = task
    code, source = build_code(cfg.n, cfg.k), SourceSpec(cfg.rho)
    length, approach_id = frame_length(code, approach), APPROACHES.index(approach)
    fit = max(1, _CALL_BYTES // _frame_bytes(code, approach))  # frames per call
    points, per = len(channels), max(1, fit // count)
    sums = np.empty((points, 4))
    for lo in range(0, points, per):
        stack = range(lo, min(lo + per, points))
        parts = [(np.random.default_rng((cfg.seed, ci, approach_id, start)), channels[ci], count)
                 for ci in stack]
        x, y, hit = draw_frames(source, length, parts)
        per_frame = np.empty((len(x), 4))
        for at in range(0, len(x), fit):  # more than one slice only for a lone block
            rows = slice(at, at + fit)
            per_frame[rows] = np.column_stack(
                _trials(code, approach, quantizers[approach], x[rows], y[rows], hit[rows]))
        # one frame at a time, in frame order; np.sum would add pairwise
        sums[stack] = np.add.accumulate(per_frame.reshape(len(stack), count, 4), axis=1)[:, -1]
    return sums


def sweep(config: SweepConfig) -> SweepResult:
    """Run the full experiment grid and aggregate one SweepPoint per CEQNR.

    zero_error_frac and overload_rate pool over every approach that ran
    (the CSV has one column each); per-approach values are obtained by
    sweeping a single approach. A task is one block of one approach at
    every point, and reduction order is fixed by the task list, never by
    worker scheduling. ``config.workers`` caps the pool, which starts one
    worker per task holding a full BLOCK_FRAMES block at most and none
    when that is one or fewer.
    """
    tasks = [(approach, start, min(BLOCK_FRAMES, config.frames - start))
             for approach in config.approaches for start in range(0, config.frames, BLOCK_FRAMES)]
    code = build_code(config.n, config.k)  # before a fork, so that workers inherit it
    run_block = functools.partial(
        _run_block, config,
        {approach: config.transmit_quantizer(approach) for approach in config.approaches},
        [ChannelSpec(config.errors_per_frame, config.sigma_e(db)) for db in config.ceqnr_db])
    # Starting a worker costs more than a part block's work saves.
    workers = min(config.workers, sum(task[-1] == BLOCK_FRAMES for task in tasks))
    if workers > 1:
        import multiprocessing  # only a pooled sweep pays for its import

        with multiprocessing.Pool(processes=workers) as pool:
            partials = list(pool.imap(run_block, tasks, chunksize=1))
    else:
        partials = [run_block(t) for t in tasks]

    sums: dict[str, np.ndarray] = {}
    for (approach, _start, _count), part in zip(tasks, partials):
        sums[approach] = sums.get(approach, 0.0) + part
    pooled = sum(sums.values())
    nan = np.full((len(config.ceqnr_db), 4), np.nan)
    columns = {}
    for approach in APPROACHES:
        rates = sums.get(approach, nan) / config.frames
        columns[f"mse_{approach}"], columns[f"loc_freq_{approach}"] = rates[:, 0], rates[:, 1]
    zero = pooled[:, 2] / (config.frames * len(config.approaches))
    overload = pooled[:, 3] / (config.frames * sum(tx_samples(code, a) for a in config.approaches))
    sigma_q_sq = config.reference_quantizer.sigma_q_sq
    return SweepResult(points=tuple(
        SweepPoint(
            ceqnr_db=float(db),
            sigma_q_sq=sigma_q_sq,
            zero_error_frac=float(zero[ci]),
            overload_rate=float(overload[ci]),
            frames=config.frames,
            **{column: float(values[ci]) for column, values in columns.items()},
        )
        for ci, db in enumerate(config.ceqnr_db)
    ))


def _fmt(column: str, value: "float | int") -> str:
    return f"{value:.9g}" if _CELL_TYPES[column] is float else str(value)


def write_csv(result: SweepResult, path: str) -> None:
    """One header plus one row per CEQNR point; floats carry 9 significant
    digits, which round-trips every metric the suite compares."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for p in result.points:
                fh.write(",".join(_fmt(c, getattr(p, c)) for c in CSV_COLUMNS) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path!r}: {exc}") from exc


def read_csv(path: str) -> SweepResult:
    """Inverse of write_csv (up to serialization precision). A foreign
    header, a row of the wrong length or a cell that does not parse raises
    ValueError naming the path (and the data row and column)."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise OSError(f"cannot read sweep CSV from {path!r}: {exc}") from exc
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError(f"{path!r} does not carry the expected sweep header")
    points = []
    for row, ln in enumerate(lines[1:], 1):
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"{path!r} row {row}: malformed sweep row {ln!r}")
        values = []
        for column, cell in zip(CSV_COLUMNS, cells):
            try:
                values.append(_CELL_TYPES[column](cell))
            except ValueError as exc:
                raise ValueError(f"{path!r} row {row}, column {column}: {exc}") from None
        points.append(SweepPoint(*values))
    return SweepResult(points=tuple(points))
