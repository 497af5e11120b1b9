#!/usr/bin/env python3
"""Reproduce the headline distributed-coding experiment.

Runs the sweep that the dftwz command would run with the same flags (by
default the paper's: (7,5) code, 6-bit quantizers, 1 error per frame,
CEQNR -10..40 dB in 5 dB steps, 20,000 frames per point per approach),
writes the CSV, and prints MSE normalized by sigma_q^2 plus localization
frequencies, one column each per approach that ran, so curve shapes can
be eyeballed without plotting. Takes every dftwz flag, e.g. --frames,
--seed, --workers, --approach and --out.
"""

import sys
import time

from dftwz.cli import run
from dftwz.harness import sweep, write_csv
from dftwz.wyner_ziv import APPROACHES


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
    ran = [a for a in APPROACHES if a in config.approaches]
    print(f"{'CEQNR dB':>9}" + "".join(f" {'mse_' + a[:3]:>9}" for a in ran)
          + "".join(f" {'loc_' + a[:3]:>8}" for a in ran))
    for p in result.points:
        print(f"{p.ceqnr_db:>9.1f}"
              + "".join(f" {getattr(p, 'mse_' + a) / s_q2:>9.4f}" for a in ran)
              + "".join(f" {getattr(p, 'loc_freq_' + a):>8.4f}" for a in ran))
    print(f"# CSV written to {out}")


if __name__ == "__main__":
    sys.exit(main())
