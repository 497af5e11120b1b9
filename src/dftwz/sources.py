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
        s = self.sigma_e
        if isinstance(s, (bool, np.bool_)) or not 0.0 <= s < np.inf:
            raise ValueError(f"sigma_e must be a finite number >= 0, got {s!r}")


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
    frames at once, the first two with ``out=`` into the stack:
    ``standard_normal((F_p, length))`` innovations, then
    ``random((F_p, length))`` keys whose rows' first E stable-argsort
    entries are the error positions, then ``normal(0, sigma_e, (F_p, E))``
    magnitudes. The recursion, positions and scatter then run once over
    the stack, elementwise or per row, so a frame's values do not depend
    on the frames drawn beside it. The positions take E argmin passes,
    each masking its pick to +inf: the first minimum, then the next, ties
    in index order as a stable sort. No parts, like parts of no frames,
    give (0, length) arrays.
    """
    errors = {ch.errors_per_frame for _rng, ch, _frames in parts}
    if len(errors) > 1:
        raise ValueError(f"parts must share one errors_per_frame, got {sorted(errors)}")
    e = errors.pop() if errors else 0
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if e > length:
        raise ValueError(f"errors_per_frame = {e} exceeds frame length {length}")
    at = np.cumsum([0] + [frames for _rng, _ch, frames in parts])
    x, keys, values = (np.empty((at[-1], d)) for d in (length, length, e))
    for (rng, ch, frames), lo, hi in zip(parts, at, at[1:]):
        rng.standard_normal(out=x[lo:hi])
        rng.random(out=keys[lo:hi])
        values[lo:hi] = rng.normal(0.0, ch.sigma_e, (frames, e))
    columns = x.T  # x_i = rho x_{i-1} + scale w_i, in place down the columns
    columns[1:] *= np.sqrt(1.0 - spec.rho**2)
    for prev, col in zip(columns, columns[1:]):
        col += spec.rho * prev
    # E masked argmin passes pick each row's positions, as flat indices
    flat = np.empty((len(x), e), dtype=np.intp)
    row_start = np.arange(0, x.size, length)
    for j in range(e):
        flat[:, j] = keys.argmin(axis=1) + row_start
        if j < e - 1:
            keys.ravel()[flat[:, j]] = np.inf
    y = x.copy()
    y.ravel()[flat] += values
    hit = np.zeros(x.shape, dtype=bool)
    hit.ravel()[flat] = values != 0.0
    return x, y, hit
