"""Real-field Peterson-Gorenstein-Zierler decoding.

Works on the complex syndrome s = H r, whose m-th component rides the
DFT row zero_rows[m]. Because the zero rows are contiguous, an error
pattern e with nu nonzeros produces syndrome components obeying a
length-nu linear recurrence, which is what the classical PGZ steps
exploit: rank of the Hankel syndrome matrix -> nu; key-equation solve ->
locator coefficients; evaluation of the locator on the unit-circle grid
-> locations; linear solve -> magnitudes.

All steps tolerate an additive perturbation on the syndrome (here:
quantization noise) via a relative rank tolerance, an absolute noise
floor, and least-squares fits over all 2t syndrome components.

The solver follows the shape of the problem. A t = 1 code's Hankel
matrix is 1x1, with singular value |s_0|, and a one-unknown locator
(nu = 1, any t) is the scalar least-squares fit a^H b / a^H a, formed
on a scaled copy so that its decisions do not depend on the syndrome's
scale. Every larger count and locator system runs an SVD; a Gram matrix
would square its condition number.

``decode_block`` runs the count, locator and location steps on a block
of F syndromes at once and is the one way into the chain; ``pgz_decode``
is the same code on a block of one, plus the magnitudes. Magnitudes only
enter the reported estimate of a single frame (``frame_estimate``), never
a reconstruction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .codes import DftCode

__all__ = [
    "ErrorEstimate",
    "PgzDiagnostics",
    "PgzBlock",
    "pgz_decode",
    "decode_block",
    "frame_estimate",
]

# Relative rank tolerance used when the syndrome carries quantization
# noise; noiseless tests override with 1e-10.
DEFAULT_REL_TOL = 1e-2

# Relative floor under which the locator system counts as singular.
_LOCATOR_SINGULAR_RTOL = 1e-10


@dataclass(frozen=True)
class PgzDiagnostics:
    """Per-decode numerical health record. ``singular_values`` are the
    Hankel singular values of the count step, empty for a frame the clean
    gate passed without an SVD."""

    singular_values: np.ndarray
    locator_residual: float
    magnitude_residual: float
    retries: int


@dataclass(frozen=True)
class ErrorEstimate:
    """Decoder output: nu errors at ``locations`` with ``magnitudes``."""

    count: int
    locations: tuple[int, ...]
    magnitudes: np.ndarray
    locator_coeffs: np.ndarray
    diagnostics: PgzDiagnostics = field(compare=False)


class PgzBlock(NamedTuple):
    """PGZ decisions for a block of F syndromes.

    ``gated`` (F,) marks frames the clean gate passed; ``singular_values``
    (F, t) holds the count step's Hankel singular values (NaN rows for
    gated frames); ``count`` (F,) is nu after the retry ladder, with
    ``retries`` (F,) steps down; ``locator`` (F, t) holds the locator
    coefficients in its first ``count`` columns; ``support`` (F, n) marks
    the chosen locations.
    """

    gated: np.ndarray
    singular_values: np.ndarray
    count: np.ndarray
    retries: np.ndarray
    locator: np.ndarray
    support: np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Per-size constants, filled on first use and shared read-only.
@functools.lru_cache(maxsize=None)
def _hankel_index(t: int) -> np.ndarray:
    """(t, t) indices a + b of the Hankel matrix S[a, b] = s[a + b]."""
    return _frozen(np.add.outer(np.arange(t), np.arange(t)))


@functools.lru_cache(maxsize=None)
def _grid_points(n: int) -> np.ndarray:
    """alpha^{-i} for i = 0..n-1, alpha = e^{-j 2 pi / n}."""
    return _frozen(np.exp(2j * np.pi * np.arange(n) / n))


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(v, v).real))


def _count(
    values: np.ndarray, t: int, rel_tol: float, noise_floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clean gate and Hankel rank of each row of ``values`` (F, 2t):
    (gated, singular values, count). Gated rows run no SVD, and neither
    does t = 1, whose 1x1 Hankel matrix [s_0] has singular value |s_0|."""
    mag = np.abs(values)
    gated = mag.max(axis=1, initial=0.0) <= noise_floor
    sing = np.full((len(values), t), np.nan)
    live = (~gated).nonzero()[0]
    if t == 1:
        sing[live] = mag[live, :1]
    elif live.size:
        sing[live] = np.linalg.svd(values[live[:, None, None], _hankel_index(t)], compute_uv=False)
    # NaN rows count 0, and so does an all-zero Hankel matrix
    count = (sing >= rel_tol * sing[:, :1]).sum(axis=1) * (sing[:, 0] > 0.0)
    return gated, sing, count


@functools.lru_cache(maxsize=None)
def _locator_index(two_t: int, nu: int) -> np.ndarray:
    """(2t - nu, nu) indices m + nu - j of the key-equation matrix."""
    return _frozen(np.add.outer(np.arange(nu, two_t), -np.arange(1, nu + 1)))


def _locator_system(values: np.ndarray, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows s[m + nu] = sum_j Lambda_j s[m + nu - j], m < 2t - nu, of each
    row of ``values`` (F, 2t): matrices (F, 2t - nu, nu), right sides
    (F, 2t - nu)."""
    return values[:, _locator_index(values.shape[1], nu)], values[:, nu:]


def _solve_locators(values: np.ndarray, nu: int) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares locator coefficients (F, nu) of each row of
    ``values``, and whether its system has full rank. One SVD per row
    serves both the rank test and the solve, x = V diag(1/sing) U^H b;
    the coefficients of a rank-deficient row are meaningless.

    One unknown (nu = 1) needs no SVD: its one column a = s_0..s_{2t-2}
    has full rank when a != 0, and Lambda_1 = a^H b / a^H a. Both are
    formed from a and b divided by max |a|, so that a^H a lies in
    [1, 2t - 1] and the solve does not under- or overflow at any scale of
    the syndrome."""
    a, b = _locator_system(values, nu)
    if nu == 1:
        scale = np.abs(a[:, :, 0]).max(axis=1)
        full = scale > 0.0
        scale[~full] = 1.0
        a, b = a[:, :, 0] / scale[:, None], b / scale[:, None]
        aa = (a.real * a.real + a.imag * a.imag).sum(axis=1)
        return ((a.conj() * b).sum(axis=1) / np.where(full, aa, 1.0))[:, None], full
    u, sing, vh = np.linalg.svd(a, full_matrices=False)
    full = (sing[:, 0] > 0.0) & (sing[:, -1] >= _LOCATOR_SINGULAR_RTOL * sing[:, 0])
    ub = (b[:, None, :] @ u.conj()) / np.where(full[:, None, None], sing[:, None, :], 1.0)
    return (ub @ vh.conj())[:, 0], full


def _candidates(candidate_set, n: int) -> np.ndarray:
    if candidate_set is None:
        return np.arange(n)
    cands = np.array(sorted(set(int(i) for i in candidate_set)), dtype=np.int64)
    if np.any(cands < 0) or np.any(cands >= n):
        raise ValueError("candidate indices must lie in 0..n-1")
    return cands


def _grid(coeffs: np.ndarray, count: np.ndarray, cands: np.ndarray, n: int) -> np.ndarray:
    """(F, |cands|) mask of the count[f] candidates minimizing
    |Lambda(alpha^{-i})| for each row of ``coeffs`` (F, d); ties break
    toward the smaller index. Horner's rule from the highest degree, as
    np.polyval evaluates it; zero leading coefficients leave the value
    unchanged, so rows of lower degree may share one array."""
    alpha_inv = _grid_points(n)[cands]
    value = np.zeros((len(coeffs), len(cands)), dtype=np.complex128)
    for c in coeffs.T[::-1]:
        value = value * alpha_inv - c[:, None]
    value = value * alpha_inv + 1.0
    order = np.argsort(np.abs(value), axis=1, kind="stable")
    return np.argsort(order, axis=1) < count[:, None]  # rank of each candidate < count


def _magnitudes(code: DftCode, values: np.ndarray, locs: np.ndarray) -> np.ndarray:
    """Real magnitudes at ``locs`` solving s_m = sum_l e_l H[m, l]: real and
    imaginary parts of all 2t equations in one least-squares fit."""
    a = code.H[:, locs]
    a_real = np.concatenate([a.real, a.imag])
    b_real = np.concatenate([values.real, values.imag])
    return np.linalg.lstsq(a_real, b_real, rcond=None)[0]


def decode_block(
    code: DftCode,
    syndromes: np.ndarray,
    candidate_set: "list[int] | tuple[int, ...] | np.ndarray | None" = None,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    noise_floor: float = 0.0,
) -> PgzBlock:
    """PGZ decisions for each row of ``syndromes`` (F, 2t).

    Clean gate and Hankel rank -> nu; locator solves grouped by nu, where
    a rank-deficient system steps nu down by one (the retry ladder) and
    nu = 0 is the empty estimate; grid location over ``candidate_set``.
    The ladder starts at most at the number of candidates, and the steps
    that cap takes count as retries.
    Raises ValueError for non-finite syndromes, never for numerical
    reasons: worst cases surface as poor estimates, which the Monte-Carlo
    metrics then record.
    """
    values = np.asarray(syndromes, dtype=np.complex128)
    t, n = code.t, code.n
    if values.ndim != 2 or values.shape[1] != 2 * t:
        raise ValueError(f"syndromes must have shape (F, {2 * t}), got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("syndrome has non-finite components")
    cands = _candidates(candidate_set, n)
    gated, sing, count = _count(values, t, rel_tol, noise_floor)
    retries = np.maximum(count - len(cands), 0)  # no more errors than candidates
    count -= retries
    locator = np.zeros((len(values), t), dtype=np.complex128)
    for nu in range(count.max(initial=0), 0, -1):  # a frame failing at nu retries at nu - 1
        rows = (count == nu).nonzero()[0]
        if rows.size:
            coeffs, full = _solve_locators(values[rows], nu)
            locator[rows, :nu] = coeffs
            if not full.all():
                failed = rows[~full]
                locator[failed] = 0.0
                count[failed] -= 1
                retries[failed] += 1
    support = np.zeros((len(values), n), dtype=bool)
    live = count.nonzero()[0]
    if live.size:
        support[live[:, None], cands] = _grid(locator[live], count[live], cands, n)
    return PgzBlock(gated, sing, count, retries, locator, support)


def frame_estimate(code: DftCode, syndromes: np.ndarray, block: PgzBlock) -> ErrorEstimate:
    """The ErrorEstimate of a one-frame block: ``block``'s decisions plus
    least-squares magnitudes and the residual diagnostics."""
    nu, locs, values = int(block.count[0]), block.support[0].nonzero()[0], syndromes[0]
    mags = _magnitudes(code, values, locs)
    coeffs = block.locator[0, :nu]
    loc_residual = mag_residual = 0.0
    if nu:
        a, b = _locator_system(syndromes[:1], nu)
        loc_residual = _norm(b[0] - a[0] @ coeffs)
        mag_residual = _norm(code.H[:, locs] @ mags - values)
    return ErrorEstimate(
        count=nu,
        locations=tuple(locs.tolist()),
        magnitudes=mags,
        locator_coeffs=coeffs,
        diagnostics=PgzDiagnostics(
            singular_values=np.zeros(0) if block.gated[0] else block.singular_values[0],
            locator_residual=loc_residual,
            magnitude_residual=mag_residual,
            retries=int(block.retries[0]),
        ),
    )


def pgz_decode(
    code: DftCode,
    s: np.ndarray,
    candidate_set: "list[int] | tuple[int, ...] | np.ndarray | None" = None,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    noise_floor: float = 0.0,
) -> ErrorEstimate:
    """Full PGZ chain with a retry ladder: ``decode_block`` on a block of
    one, then least-squares magnitudes. Raises ValueError for a non-finite
    syndrome; never raises for numerical reasons."""
    values = np.asarray(s, dtype=np.complex128)[None]  # decode_block checks it
    block = decode_block(code, values, candidate_set, rel_tol=rel_tol, noise_floor=noise_floor)
    return frame_estimate(code, values, block)
