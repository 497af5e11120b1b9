"""Source and correlation-channel models for the Monte-Carlo harness.

The source is a stationary unit-variance Gauss-Markov (AR(1)) chain; the
correlation channel perturbs a frame at a few random positions with
Gaussian magnitudes, producing the decoder's side information
y = x + e. ``draw_frames`` draws a stack of frames through both, each
part of it from its own numpy Generator, so trials can be replayed bit
for bit; a single frame is a stack of one part of one frame.
"""

from __future__ import annotations

from collections.abc import Sequence
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
        e = self.errors_per_frame
        if not isinstance(e, (int, np.integer)) or type(e) is bool:
            raise ValueError(f"errors_per_frame must be an integer, got {e!r}")
        if e < 0:
            raise ValueError(f"errors_per_frame must be >= 0, got {e}")
        if not self.sigma_e >= 0.0:
            raise ValueError(f"sigma_e must be >= 0, got {self.sigma_e}")


def draw_frames(
    spec: SourceSpec, length: int, parts: Sequence[tuple[np.random.Generator, ChannelSpec, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frames of every (generator, channel, frames) part in order:
    returns x and y = x + e, both (F, length), and the (F, length) mask
    of the positions where y differs from x.

    Each source frame follows x_0 ~ N(0, 1), x_i = rho x_{i-1} +
    sqrt(1 - rho^2) w_i; the sqrt(1 - rho^2) innovation scaling keeps the
    marginal variance at exactly 1 for every sample, so frames are
    stationary from index 0. Each frame carries errors at E distinct,
    uniform positions with N(0, sigma_e^2) magnitudes; a magnitude of
    exactly zero (the sigma_e = 0 case) leaves the sample untouched and is
    left out of the mask, which is the ground truth "positions where y
    differs from x". All parts share E.

    Each part's generator draws in a fixed order, each for all its F_p
    frames at once: ``standard_normal((F_p, length))`` innovations, then
    ``random((F_p, length))`` keys whose rows' first E stable-argsort
    entries are the error positions (for E = 1 the first minimum), then
    ``normal(0, sigma_e, (F_p, E))`` magnitudes. The recursion, positions
    and scatter then run once over the stack, elementwise or per row, so
    a frame's values do not depend on the frames drawn beside it.
    """
    errors = {ch.errors_per_frame for _rng, ch, _frames in parts}
    if len(errors) != 1:
        raise ValueError(f"parts must share one errors_per_frame, got {sorted(errors)}")
    (e,) = errors
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if e > length:
        raise ValueError(f"errors_per_frame = {e} exceeds frame length {length}")
    draws = [(rng.standard_normal((frames, length)), rng.random((frames, length)),
              rng.normal(0.0, ch.sigma_e, (frames, e))) for rng, ch, frames in parts]
    w, keys, values = (np.concatenate(a) for a in zip(*draws))
    w = w.T.copy()  # x_i = rho x_{i-1} + scale w_i along C-ordered rows
    x = np.sqrt(1.0 - spec.rho**2) * w
    x[0] = w[0]
    for i in range(1, length):
        x[i] += spec.rho * x[i - 1]
    x = np.ascontiguousarray(x.T)
    positions = (keys.argmin(axis=1)[:, None] if e == 1
                 else np.argsort(keys, axis=1, kind="stable")[:, :e])
    y = x.copy()
    rows = np.arange(len(x))[:, None]
    y[rows, positions] += values
    hit = np.zeros(x.shape, dtype=bool)
    hit[rows, positions] = values != 0.0
    return x, y, hit
