"""Command-line front end for the sweep harness.

Example:
    dftwz --code 7,5 --approach both --ceqnr -10:5:40 --frames 20000 \\
          --seed 1 --out results.csv

Each sweep knob is one key of ``_KNOBS``: a --flag (dashes for
underscores) and a key of the key=value file that --config names, where
explicit flags win. SweepConfig supplies every default and validates.
``run(argv, action)``, shared by main and the scripts, runs action(config,
out) and returns 0, or 2 on a bad value or I/O with one line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable

from .harness import DEFAULT_CSV_PATH, SweepConfig, sweep, write_csv
from .wyner_ziv import APPROACHES

__all__ = ["main", "run", "entry", "config_from_argv", "parse_ceqnr_grid", "parse_pair",
           "load_config_file"]


def parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return float(parts[0]), float(parts[1])


def parse_code(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected N,K, got {text!r}")
    return int(parts[0]), int(parts[1])


def parse_ceqnr_grid(text: str) -> tuple[float, ...]:
    """Either START:STEP:STOP (inclusive) or a comma-separated list.

    -inf is accepted as a point and requests sigma_e = 0; the colon form
    takes finite START, STEP and STOP only. Its points are START + i STEP,
    up to STOP plus a billionth of STEP, each rounded to 9 decimals; a grid
    whose rounded points repeat (a STEP under 1e-9) raises ValueError.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be START:STEP:STOP, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ValueError(f"grid START, STEP and STOP must be finite, got {text!r}")
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        if step < 1e-9:  # finer than the rounding: the points would repeat
            raise ValueError(f"grid step must be at least 1e-9, got {step}")
        steps = (stop - start) / step + 1e-9  # STOP may fall short by a billionth of STEP
        if steps == math.inf:
            raise ValueError(f"grid {text!r} has too many points")
        values: list[float] = []
        for i in range(math.floor(max(steps, -1.0)) + 1):  # none when STOP < START
            values.append(round(start + i * step, 9))
            if i and values[-1] == values[-2]:  # START too large for STEP to move it
                raise ValueError(f"grid points repeat once rounded to 9 decimals: {text!r}")
        return tuple(values)
    return tuple(float(p) for p in text.split(","))


def load_config_file(path: str) -> dict[str, str]:
    """key=value per line; blank lines and #-comments ignored."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


# Key -> (text parser, the SweepConfig fields it sets, help). A parser
# for more than one field returns one value per field.
_KNOBS = {
    "code": (parse_code, ("n", "k"), "code parameters N,K (odd, N > K)"),
    "approach": (lambda text: APPROACHES if text == "both" else (text,), ("approaches",),
                 f"compression pipeline(s) to simulate: {', '.join(APPROACHES)} or both"),
    "bits": (int, ("bits",), "quantizer bits per sample"),
    "range": (parse_pair, ("ref_range",), "reference quantizer range LO,HI (defines sigma_q^2)"),
    "syndrome_range": (parse_pair, ("syndrome_range",), "sent syndrome quantizer range LO,HI"),
    "parity_range": (parse_pair, ("parity_range",), "sent parity quantizer range LO,HI"),
    "ceqnr": (parse_ceqnr_grid, ("ceqnr_db",), "CEQNR dB: START:STEP:STOP or list (-inf ok)"),
    "frames": (int, ("frames",), "frames per grid point"),
    "errors_per_frame": (int, ("errors_per_frame",), "sparse errors per frame"),
    "seed": (int, ("seed",), "master seed (nonnegative)"),
    "rho": (float, ("rho",), "lag-1 correlation of the Gauss-Markov source"),
    "workers": (int, ("workers",), "at most W parallel worker processes"),
}


def _shown(value: object) -> str:
    """A default as --help shows it: tuples comma-separated, floats in %g."""
    if isinstance(value, tuple):
        return ",".join(map(_shown, value))
    return f"{value:g}" if isinstance(value, float) else str(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dftwz", description="Wyner-Ziv coding simulator with real BCH-DFT codes",
        argument_default=argparse.SUPPRESS,
    )
    defaults = SweepConfig()
    for key, (_parse, fields, text) in _KNOBS.items():
        shown = _shown(tuple(getattr(defaults, f) for f in fields))
        parser.add_argument("--" + key.replace("_", "-"), help=f"{text} (default {shown})")
    parser.add_argument("--out", help=f"output CSV path (default {DEFAULT_CSV_PATH})")
    parser.add_argument("--config", help="key=value file with any of the keys above")
    return parser


# Flags whose values legitimately start with a dash (-10:5:40, -4,4,
# -inf, -1e-3). argparse treats such tokens as option strings, so the
# space-separated spelling is merged into --flag=value before parsing.
_DASH_VALUE_FLAGS = ("--range", "--syndrome-range", "--parity-range", "--ceqnr", "--rho")


def _merge_dash_values(argv: list[str]) -> list[str]:
    merged: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def config_from_argv(argv: list[str]) -> tuple[SweepConfig, str]:
    """The sweep and the CSV path that ``argv`` asks for; raises ValueError
    or OSError on a bad value, key or config file."""
    flags = vars(_build_parser().parse_args(_merge_dash_values(argv)))
    entries = {**(load_config_file(flags["config"]) if "config" in flags else {}), **flags}
    entries.pop("config", None)
    out = entries.pop("out", DEFAULT_CSV_PATH)
    kwargs = {}
    for key, text in entries.items():
        if key not in _KNOBS:  # only a file can name a key argparse does not know
            raise ValueError(f"unknown configuration key {key!r} in {flags['config']}")
        parse, fields, _help = _KNOBS[key]
        try:
            value = parse(text)
        except ValueError as exc:
            raise ValueError(f"{key} = {text!r}: {exc}") from None
        kwargs.update(zip(fields, value if len(fields) > 1 else (value,)))
    try:
        return SweepConfig(**kwargs), out
    except ValueError as exc:  # SweepConfig names a field; name the key that set it
        field, _sep, rest = str(exc).partition(" = ")
        keys = [key for key, (_p, f, _h) in _KNOBS.items() if f == (field,) and field != key]
        if not keys:
            raise
        raise ValueError(f"{keys[0]} = {rest}") from None


def run(argv: "list[str] | None", action: Callable[[SweepConfig, str], None]) -> int:
    try:
        config, out = config_from_argv(list(sys.argv[1:]) if argv is None else list(argv))
        action(config, out)
    except (ValueError, OSError) as exc:
        print(f"dftwz: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: "list[str] | None" = None) -> int:
    return run(argv, lambda config, out: write_csv(sweep(config), out))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
