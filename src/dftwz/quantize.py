"""Uniform midrise scalar quantization.

Reconstruction levels sit half a step inside the range edges with no
level at zero; in-range inputs incur at most step/2 of error and
out-of-range inputs clip to the nearest edge level (counted, never
fatal). The reference noise power sigma_q^2 = step^2 / 12 normalizes
every MSE reported by the simulation harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BitsError", "QuantizerSpec", "quantize"]


class BitsError(ValueError):
    """A bits that is not a positive integer; the message names bits."""


@dataclass(frozen=True)
class QuantizerSpec:
    """Midrise uniform quantizer on [lo, hi] with 2**bits levels."""

    bits: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not isinstance(self.bits, (int, np.integer)) or type(self.bits) is bool or self.bits < 1:
            raise BitsError(f"bits = {self.bits!r}: must be a positive integer")
        if not np.isfinite(self.lo) or not np.isfinite(self.hi) or self.hi <= self.lo:
            raise ValueError(f"need finite hi > lo, got [{self.lo}, {self.hi}]")
        try:
            sigma_q_sq = self.sigma_q_sq
        except OverflowError:  # 2**bits or step**2 beyond a float
            sigma_q_sq = 0.0
        if not 0.0 < sigma_q_sq < np.inf:
            raise ValueError(
                f"{self.bits} bits on [{self.lo}, {self.hi}] give a step whose "
                "sigma_q^2 = step^2/12 is not a positive finite float"
            )

    @property
    def n_levels(self) -> int:
        return 2**self.bits

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.n_levels

    @property
    def sigma_q_sq(self) -> float:
        return self.step**2 / 12.0

    def levels(self) -> np.ndarray:
        return self.lo + self.step * (np.arange(self.n_levels) + 0.5)


def quantize(q: QuantizerSpec, v: "float | np.ndarray") -> np.ndarray:
    """Nearest midrise reconstruction level of each entry, as a float64
    array of v's shape (0-d for a scalar); out-of-range clips to the edge
    level. Exact ties between levels resolve upward (floor indexing)."""
    values = np.asarray(v, dtype=np.float64)
    idx = np.floor((values - q.lo) / q.step)
    idx = np.clip(idx, 0, q.n_levels - 1)
    return np.asarray(q.lo + (idx + 0.5) * q.step)

