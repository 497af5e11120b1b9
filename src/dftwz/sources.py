"""Source and correlation-channel models for the Monte-Carlo harness.

The source is a stationary unit-variance Gauss-Markov (AR(1)) chain; the
correlation channel perturbs a frame at a few random positions with
Gaussian magnitudes, producing the decoder's side information
y = x + e. ``draw_frames`` draws a block of frames through both from
one explicit numpy Generator, so trials can be replayed bit for bit; a
single frame is a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SourceSpec", "ChannelSpec", "draw_frames"]


@dataclass(frozen=True)
class SourceSpec:
    """Zero-mean, unit-variance AR(1) source with lag-1 correlation rho."""

    rho: float = 0.9

    def __post_init__(self) -> None:
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")


@dataclass(frozen=True)
class ChannelSpec:
    """Sparse Bernoulli-Gaussian disturbance: errors_per_frame distinct
    positions, magnitudes ~ N(0, sigma_e^2)."""

    errors_per_frame: int = 1
    sigma_e: float = 0.0

    def __post_init__(self) -> None:
        if self.errors_per_frame < 0:
            raise ValueError(f"errors_per_frame must be >= 0, got {self.errors_per_frame}")
        if not self.sigma_e >= 0.0:
            raise ValueError(f"sigma_e must be >= 0, got {self.sigma_e}")


def _ar1(rho: float, w: np.ndarray) -> np.ndarray:
    """Run the AR(1) recursion along the rows of the innovations w (F, L),
    each step across all F rows at once."""
    scale = np.sqrt(1.0 - rho**2)
    x = np.empty_like(w)
    x[:, 0] = w[:, 0]
    for i in range(1, w.shape[1]):
        x[:, i] = rho * x[:, i - 1] + scale * w[:, i]
    return x


def draw_frames(
    spec: SourceSpec, ch: ChannelSpec, length: int, rng: np.random.Generator, frames: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``frames`` frames drawn from one generator as arrays: returns x and
    y = x + e, both (F, length), and the (F, length) mask of the
    positions where y differs from x.

    Each source frame follows x_0 ~ N(0, 1), x_i = rho x_{i-1} +
    sqrt(1 - rho^2) w_i; the sqrt(1 - rho^2) innovation scaling keeps the
    marginal variance at exactly 1 for every sample, so frames are
    stationary from index 0. Each frame carries errors at E distinct,
    uniform positions with N(0, sigma_e^2) magnitudes; a magnitude of
    exactly zero (the sigma_e = 0 case) leaves the sample untouched and is
    left out of the mask, which is the ground truth "positions where y
    differs from x".

    The draws come in a fixed order, each for all F frames at once:
    ``standard_normal((F, length))`` innovations, then ``random((F,
    length))`` keys whose rows' first E stable-argsort entries are the
    error positions, then ``normal(0, sigma_e, (F, E))`` magnitudes.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if ch.errors_per_frame > length:
        raise ValueError(
            f"errors_per_frame = {ch.errors_per_frame} exceeds frame length {length}"
        )
    x = _ar1(spec.rho, rng.standard_normal((frames, length)))
    keys = rng.random((frames, length))
    positions = np.argsort(keys, axis=1, kind="stable")[:, : ch.errors_per_frame]
    values = rng.normal(0.0, ch.sigma_e, (frames, ch.errors_per_frame))
    y = x.copy()
    rows = np.arange(frames)[:, None]
    y[rows, positions] += values
    hit = np.zeros(x.shape, dtype=bool)
    hit[rows, positions] = values != 0.0
    return x, y, hit
