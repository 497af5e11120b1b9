#!/usr/bin/env python3
"""Reproduce the headline distributed-coding experiment.

Runs the sweep that the dftwz command would run with the same flags (by
default the paper's: (7,5) code, 6-bit quantizers, 1 error per frame,
CEQNR -10..40 dB in 5 dB steps, 20,000 frames per point per approach),
writes the CSV, and prints MSE normalized by sigma_q^2 plus localization
frequencies so curve shapes can be eyeballed without plotting. Takes
every dftwz flag, e.g. --frames, --seed, --workers and --out.
"""

import sys
import time

from dftwz.cli import run
from dftwz.harness import sweep, write_csv


def main(argv=None) -> int:
    """Exits as dftwz does: 0, or 2 with a one-line diagnostic on stderr."""
    return run(argv, _reproduce)


def _reproduce(config, out) -> None:
    start = time.perf_counter()
    result = sweep(config)
    elapsed = time.perf_counter() - start
    write_csv(result, out)

    s_q2 = config.reference_quantizer.sigma_q_sq
    print(f"# ({config.n},{config.k}) code, {config.frames} frames/point, "
          f"seed {config.seed}, {elapsed:.2f}s")
    print(f"# sigma_q^2 = {s_q2:.6g}; MSE columns are relative to it")
    header = f"{'CEQNR dB':>9} {'mse_syn':>9} {'mse_par':>9} {'loc_syn':>8} {'loc_par':>8}"
    print(header)
    for p in result.points:
        print(
            f"{p.ceqnr_db:>9.1f} {p.mse_syndrome / s_q2:>9.4f} "
            f"{p.mse_parity / s_q2:>9.4f} {p.loc_freq_syndrome:>8.4f} "
            f"{p.loc_freq_parity:>8.4f}"
        )
    print(f"# CSV written to {out}")


if __name__ == "__main__":
    sys.exit(main())
