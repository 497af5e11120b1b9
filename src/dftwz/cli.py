"""Command-line front end for the sweep harness.

Example:
    dftwz --code 7,5 --approach both --ceqnr -10:5:40 --frames 20000 \\
          --seed 1 --out results.csv

Flags may also come from a plain key=value file via --config; explicit
command-line flags win over file entries. Exits 0 on success, 2 on
validation or I/O failure with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys

from .harness import SweepConfig, sweep, write_csv

__all__ = ["main", "entry", "parse_ceqnr_grid", "parse_pair", "load_config_file"]


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
    takes finite START, STEP and STOP only.
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
        values = []
        v = start
        while v <= stop + 1e-9:
            values.append(round(v, 9))
            v += step
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dftwz",
        description="Wyner-Ziv coding simulator with real BCH-DFT codes",
    )
    parser.add_argument("--code", default="7,5", help="code parameters N,K (odd, N > K)")
    parser.add_argument(
        "--approach", default="both", choices=["syndrome", "parity", "both"],
        help="compression pipeline(s) to simulate",
    )
    parser.add_argument("--bits", type=int, default=6, help="quantizer bits per sample")
    parser.add_argument(
        "--range", dest="ref_range", default="-4,4",
        help="reference quantizer range LO,HI (defines sigma_q^2)",
    )
    parser.add_argument(
        "--syndrome-range", default=None,
        help="transmitted syndrome quantizer range LO,HI (default -1,1)",
    )
    parser.add_argument(
        "--parity-range", default=None,
        help="transmitted parity quantizer range LO,HI (default -4.75,4.75)",
    )
    parser.add_argument(
        "--ceqnr", default="-10:5:40",
        help="CEQNR grid in dB: START:STEP:STOP or comma list (-inf allowed)",
    )
    parser.add_argument("--frames", type=int, default=20000, help="frames per grid point")
    parser.add_argument("--errors-per-frame", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1, help="master seed (nonnegative)")
    parser.add_argument("--out", default="sweep.csv", help="output CSV path")
    parser.add_argument(
        "--reconstruction", default="projection", choices=["projection", "subtract"],
        help="syndrome-approach reconstruction variant",
    )
    parser.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    parser.add_argument("--config", default=None, help="key=value file with any of the above")
    return parser


_CONFIG_ONLY_KEYS = {"rho"}

# Flags whose values legitimately start with a dash (-10:5:40, -4,4,
# -inf). argparse treats such tokens as option strings, so the
# space-separated spelling is merged into --flag=value before parsing.
_DASH_VALUE_FLAGS = ("--range", "--syndrome-range", "--parity-range", "--ceqnr")


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


def _apply_config_file(parser: argparse.ArgumentParser, args: argparse.Namespace,
                       argv: list[str]) -> dict[str, str]:
    extra: dict[str, str] = {}
    if args.config is None:
        return extra
    entries = load_config_file(args.config)
    defaults = {}
    for key, value in entries.items():
        if key in _CONFIG_ONLY_KEYS:
            extra[key] = value
            continue
        if key == "range":
            key = "ref_range"
        if not hasattr(args, key):
            raise ValueError(f"unknown configuration key {key!r} in {args.config}")
        defaults[key] = value
    # Re-parse so explicit command-line flags override file entries.
    parser.set_defaults(**{
        k: (int(v) if k in ("bits", "frames", "errors_per_frame", "seed", "workers") else v)
        for k, v in defaults.items()
    })
    new_args = parser.parse_args(argv)
    args.__dict__.update(new_args.__dict__)
    return extra


def _config_from_args(args: argparse.Namespace, extra: dict[str, str]) -> SweepConfig:
    n, k = parse_code(args.code)
    approaches = ("syndrome", "parity") if args.approach == "both" else (args.approach,)
    kwargs = dict(
        n=n,
        k=k,
        approaches=approaches,
        bits=args.bits,
        ref_range=parse_pair(args.ref_range),
        ceqnr_db=parse_ceqnr_grid(args.ceqnr),
        frames=args.frames,
        errors_per_frame=args.errors_per_frame,
        seed=args.seed,
        reconstruction=args.reconstruction,
        workers=args.workers,
    )
    if args.syndrome_range is not None:
        kwargs["syndrome_range"] = parse_pair(args.syndrome_range)
    if args.parity_range is not None:
        kwargs["parity_range"] = parse_pair(args.parity_range)
    if "rho" in extra:
        kwargs["rho"] = float(extra["rho"])
    return SweepConfig(**kwargs)


def main(argv: "list[str] | None" = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    argv = _merge_dash_values(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        extra = _apply_config_file(parser, args, argv)
        config = _config_from_args(args, extra)
        result = sweep(config)
        write_csv(result, args.out)
    except (ValueError, OSError) as exc:
        print(f"dftwz: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
