"""Span tracer that measures dftwz layers from outside the package.

The tracer replaces public functions at the module attributes their
callers look up (``dftwz.harness.run_trial``, ``dftwz.wyner_ziv.pgz_decode``,
``dftwz.pgz.solve_error_locator``, ...) with wrappers that record one span
per call: name, start, end, parent span and the frame id shared by every
span of one round trip. Spans stay in memory until the run ends. The
sources under ``src/`` are never edited; the originals are restored when
the ``installed`` context exits.

Tracing assumes one process: spans recorded in pool workers would be lost,
so traced sweeps run with ``workers=1``.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "Span",
    "Tracer",
    "WRAPS",
    "self_times",
    "frame_records",
    "grid_counts",
    "layer_metrics",
]


class Span:
    """One wrapped call. ``parent`` and ``frame`` are None outside a frame.

    ``start`` and ``end`` bracket the wrapped function alone. ``outer`` is
    the whole wrapper's time, the tracer's own bookkeeping included (span
    creation, stack, ``observe``); a parent subtracts its children's
    ``outer``, so that the tracer's work counts against no layer."""

    __slots__ = ("name", "start", "end", "outer", "parent", "frame", "info", "raised")

    def __init__(self, name: str, start: float, end: float,
                 parent: "int | None" = None, frame: "int | None" = None,
                 info: Any = None, raised: "str | None" = None,
                 outer: "float | None" = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.outer = end - start if outer is None else outer
        self.parent = parent
        self.frame = frame
        self.info = info
        self.raised = raised

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


# What each span keeps from its call, so that the frame's counts can be
# rebuilt from spans alone and compared with the CSV.
def _trial_info(args, kwargs, out):
    return _arg(args, kwargs, 1, "approach"), _arg(args, kwargs, 3, "ch").sigma_e


def _overload_info(args, kwargs, out):
    return int(out), int(np.size(_arg(args, kwargs, 1, "v")))


def _decode_info(args, kwargs, out):
    return out.x_hat.copy()


def _pgz_info(args, kwargs, out):
    return tuple(out.locations), int(out.diagnostics.retries)


@dataclass(frozen=True)
class Wrap:
    module: str
    attr: str
    name: str
    observe: "Callable[[tuple, dict, Any], Any] | None" = None
    frame_root: bool = False


WRAPS = (
    Wrap("harness", "sweep", "harness.sweep"),
    Wrap("harness", "build_code", "codes.build_code"),
    Wrap("harness", "run_trial", "harness.run_trial", _trial_info, frame_root=True),
    Wrap("harness", "gauss_markov", "sources.gauss_markov", lambda a, k, out: out.copy()),
    Wrap("harness", "apply_channel", "sources.apply_channel", lambda a, k, out: tuple(out[1])),
    Wrap("harness", "syndrome_encode", "wyner_ziv.syndrome_encode"),
    Wrap("harness", "parity_encode", "wyner_ziv.parity_encode"),
    Wrap("harness", "syndrome_decode", "wyner_ziv.syndrome_decode", _decode_info),
    Wrap("harness", "parity_decode", "wyner_ziv.parity_decode", _decode_info),
    Wrap("wyner_ziv", "quantize", "quantize.quantize"),
    Wrap("wyner_ziv", "count_overloads", "quantize.count_overloads", _overload_info),
    Wrap("wyner_ziv", "pgz_decode", "pgz.pgz_decode", _pgz_info),
    Wrap("pgz", "estimate_error_count", "pgz.estimate_error_count", lambda a, k, out: int(out)),
    Wrap("pgz", "solve_error_locator", "pgz.solve_error_locator"),
    Wrap("pgz", "locate_errors", "pgz.locate_errors"),
    Wrap("pgz", "estimate_magnitudes", "pgz.estimate_magnitudes"),
)


@dataclass
class Tracer:
    """In-memory span recorder; ``wrap`` returns a recording stand-in."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _next_frame: int = 0

    def wrap(self, fn: Callable, w: Wrap) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else None
            if w.frame_root:
                frame = self._next_frame
                self._next_frame += 1
            else:
                frame = spans[parent].frame if parent is not None else None
            span = Span(w.name, 0.0, 0.0, parent, frame)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                span.outer = span.end - entered
            if w.observe is not None:
                span.info = w.observe(args, kwargs, out)
                span.outer = perf_counter() - entered
            return out

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every wrap target that exists; a target a later version no
        longer has is skipped and simply reports zero calls."""
        saved = []
        try:
            for w in WRAPS:
                mod = importlib.import_module(f"dftwz.{w.module}")
                fn = getattr(mod, w.attr, None)
                if fn is None:
                    continue
                saved.append((mod, w.attr, fn))
                setattr(mod, w.attr, self.wrap(fn, w))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        """Tab-separated dump: index, name, start, end, outer, parent, frame,
        raised."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart_s\tend_s\touter_s\tparent\tframe\traised\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{s.outer:.9f}\t"
                         f"{'' if s.parent is None else s.parent}\t"
                         f"{'' if s.frame is None else s.frame}\t{s.raised or ''}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the ``outer`` time of its direct children.
    The tracer is single-threaded and its calls nest strictly, so children
    are disjoint and lie inside their parent."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.outer
    return out


@dataclass
class FrameRecord:
    """What the spans of one round trip say about it."""

    approach: str = ""
    sigma_e: float = 0.0
    x: "np.ndarray | None" = None
    x_hat: "np.ndarray | None" = None
    true_locs: "tuple[int, ...] | None" = None
    nu_hat: "int | None" = None
    locs: "tuple[int, ...] | None" = None
    retries: int = 0
    overloads: int = 0
    samples: int = 0


def frame_records(spans: list[Span]) -> list[FrameRecord]:
    frames: dict[int, FrameRecord] = {}
    for s in spans:
        if s.frame is None:
            continue
        rec = frames.setdefault(s.frame, FrameRecord())
        if s.name == "harness.run_trial":
            if s.info is not None:
                rec.approach, rec.sigma_e = s.info
        elif s.name == "sources.gauss_markov":
            rec.x = s.info
        elif s.name == "sources.apply_channel":
            rec.true_locs = s.info
        elif s.name in ("wyner_ziv.syndrome_decode", "wyner_ziv.parity_decode"):
            rec.x_hat = s.info
        elif s.name == "quantize.count_overloads" and s.info is not None:
            rec.overloads += s.info[0]
            rec.samples += s.info[1]
        elif s.name == "pgz.estimate_error_count" and s.info is not None:
            rec.nu_hat = s.info
        elif s.name == "pgz.pgz_decode" and s.info is not None:
            rec.locs, rec.retries = s.info
    return [frames[f] for f in sorted(frames)]


def _localized(rec: FrameRecord) -> bool:
    return (rec.locs is not None and rec.true_locs is not None
            and set(rec.locs) == set(rec.true_locs))


def grid_counts(frames: list[FrameRecord], sigma_to_ci: dict[float, int]) -> dict:
    """{(approach, ci): {"frames", "localized", "zero_error", "overloads",
    "samples"}} rebuilt from spans, for comparison with the CSV."""
    out: dict = {}
    for rec in frames:
        slot = out.setdefault((rec.approach, sigma_to_ci.get(rec.sigma_e, -1)), dict(
            frames=0, localized=0, zero_error=0, overloads=0, samples=0))
        slot["frames"] += 1
        slot["localized"] += _localized(rec)
        slot["zero_error"] += (rec.x is not None and rec.x_hat is not None
                               and np.array_equal(rec.x, rec.x_hat))
        slot["overloads"] += rec.overloads
        slot["samples"] += rec.samples
    return out


def _mean_us(values: list[float]) -> float:
    return 1e6 * sum(values) / len(values) if values else 0.0


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], frames: list[FrameRecord]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in µs per call unless
    the name says otherwise; a stage never called reads 0)."""
    dur: dict[str, list[float]] = defaultdict(list)
    outer: dict[str, list[float]] = defaultdict(list)
    own: dict[str, list[float]] = defaultdict(list)
    raised: dict[str, int] = defaultdict(int)
    for s, self_t in zip(spans, self_times(spans)):
        dur[s.name].append(s.duration)
        outer[s.name].append(s.outer)
        own[s.name].append(self_t)
        raised[s.name] += s.raised is not None
    n_frames = len(dur["harness.run_trial"])
    trial_us = 1e6 * np.asarray(dur["harness.run_trial"])
    p50, p99 = np.percentile(trial_us, [50, 99]) if n_frames else (0.0, 0.0)
    quant = sum(dur["quantize.quantize"]) + sum(dur["quantize.count_overloads"])
    decoded = [r for r in frames if r.nu_hat is not None]
    nonzero = [r for r in decoded if r.nu_hat > 0]
    with_truth = [r for r in decoded if r.true_locs is not None]
    m = {
        "harness.run_trial.us_p50": float(p50),
        "harness.run_trial.us_p99": float(p99),
        "harness.outside_trial.us_per_frame":
            1e6 * (sum(dur["harness.sweep"]) - sum(outer["harness.run_trial"])) / n_frames
            if n_frames else 0.0,
        "codes.build_code.ms": _mean_us(dur["codes.build_code"]) / 1e3,
        "sources.gauss_markov.us": _mean_us(dur["sources.gauss_markov"]),
        "sources.apply_channel.us": _mean_us(dur["sources.apply_channel"]),
        "quantize.us_per_frame": 1e6 * quant / n_frames if n_frames else 0.0,
        "quantize.overload_frac": _ratio(sum(r.overloads for r in frames),
                                         sum(r.samples for r in frames)),
    }
    for name in ("syndrome_encode", "parity_encode", "syndrome_decode", "parity_decode"):
        m[f"wyner_ziv.{name}.self_us"] = _mean_us(own[f"wyner_ziv.{name}"])
    m["pgz.pgz_decode.self_us"] = _mean_us(own["pgz.pgz_decode"])
    for name in ("estimate_error_count", "solve_error_locator", "locate_errors",
                 "estimate_magnitudes"):
        m[f"pgz.{name}.us"] = _mean_us(dur[f"pgz.{name}"])
    decodes = len(dur["pgz.pgz_decode"])
    m.update({
        "pgz.decodes": float(decodes),
        "pgz.gated_frac": _ratio(sum(r.nu_hat == 0 for r in decoded), len(decoded)),
        "pgz.nu_over_frac": _ratio(
            sum(r.nu_hat > len(r.true_locs) for r in with_truth), len(with_truth)),
        "pgz.nu_under_frac": _ratio(
            sum(r.nu_hat < len(r.true_locs) for r in with_truth), len(with_truth)),
        "pgz.retries_per_decode": _ratio(sum(r.retries for r in frames), decodes),
        "pgz.locator_raises": float(raised["pgz.solve_error_locator"]),
        "pgz.useful_frac": _ratio(sum(_localized(r) for r in nonzero), len(nonzero)),
    })
    return m
