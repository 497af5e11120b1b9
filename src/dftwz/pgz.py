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
scale. Every larger count runs an SVD (a Gram matrix would square its
condition number). A nu = t locator is solved by LU on that spectrum,
and a 1 < nu < t one by Householder QR, whose rank test the SVD's implies.

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
    gate passed without an SVD; ``magnitude_residual`` is the norm of the
    syndrome left over by the least-squares magnitudes, 0 for nu = 0;
    ``retries`` counts the steps down the retry ladder."""

    singular_values: np.ndarray
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
    gated = functools.reduce(np.maximum, mag.T) <= noise_floor  # exact, fast on short rows
    sing = np.full((len(values), t), np.nan)
    live = (~gated).nonzero()[0]
    if t == 1:
        sing[live] = mag[live, :1]
    elif live.size:
        sing[live] = np.linalg.svd(values[live[:, None, None], _hankel_index(t)], compute_uv=False)
    # NaN rows count 0, and so does an all-zero Hankel matrix. Integer
    # columns added are fast on short rows; bool columns would OR.
    above = (sing >= rel_tol * sing[:, :1]).T.astype(int)
    count = functools.reduce(np.add, above) * (sing[:, 0] > 0.0)
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


def _solve_locators(
    values: np.ndarray, nu: int, sing: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares locator coefficients (F, nu) of each row of
    ``values``, and whether its system has full rank. One Householder QR
    per row, A = QR, serves both the rank test min |R_jj| >= rtol max |R_jj|
    (implied by the SVD's, as sing_min <= |R_jj| <= sing_max) and the
    solve R x = Q^H b; a rank-deficient row's coefficients are meaningless.

    For nu = t the caller passes the count's singular values ``sing``:
    A[m, c] = S[m, t-1-c] is the Hankel matrix with its columns reversed,
    so they serve the rank test, and LU solves the full-rank rows.

    One unknown (nu = 1) needs no QR: its one column a = s_0..s_{2t-2}
    has full rank when max |a| > 0 and max |a| >= rtol max |b|, and
    Lambda_1 = a^H b / a^H a. Both are formed from a and b divided by
    max |a|, so that a^H a lies in [1, 2t - 1] and b within 1 / rtol;
    a rank-deficient row is divided by max |b| and its solve by 1, so
    that no row under- or overflows at any scale of the syndrome."""
    a, b = _locator_system(values, nu)
    if nu == 1:
        top, b_top = np.abs(a[:, :, 0]).max(axis=1), np.abs(b).max(axis=1)
        full = (top > 0.0) & (top >= _LOCATOR_SINGULAR_RTOL * b_top)
        scale = np.where(full, top, np.where(b_top > 0.0, b_top, 1.0))
        a, b = a[:, :, 0] / scale[:, None], b / scale[:, None]
        aa = (a.real * a.real + a.imag * a.imag).sum(axis=1)
        return ((a.conj() * b).sum(axis=1) / np.where(full, aa, 1.0))[:, None], full
    if sing is not None:  # a count of t > 0 implies sing[:, 0] > 0
        full = sing[:, -1] >= _LOCATOR_SINGULAR_RTOL * sing[:, 0]
        coeffs = np.zeros(b.shape, dtype=np.complex128)
        coeffs[full] = np.linalg.solve(a[full], b[full, :, None])[..., 0]
        return coeffs, full
    q, r = np.linalg.qr(a)  # reduced: q (F, 2t - nu, nu), r (F, nu, nu)
    size = np.abs(np.diagonal(r, axis1=1, axis2=2))
    top = size.max(axis=1)
    full = (top > 0.0) & (size.min(axis=1) >= _LOCATOR_SINGULAR_RTOL * top)
    rhs = (b[:, None, :] @ q.conj())[:, 0]  # q^H b, one product per row
    coeffs = np.zeros(rhs.shape, dtype=np.complex128)
    for j in range(nu - 1, -1, -1):  # back-substitution; rank-deficient rows divide by 1
        rest = (r[:, j, j + 1 :] * coeffs[:, j + 1 :]).sum(axis=1)
        coeffs[:, j] = (rhs[:, j] - rest) / np.where(full, r[:, j, j], 1.0)
    return coeffs, full


def _candidates(candidate_set, n: int) -> np.ndarray:
    """``candidate_set`` as a strictly increasing int array in 0..n-1. Such
    an array, as a code's ``systematic``, passes through unchanged; any
    other input is checked, sorted and deduplicated."""
    if candidate_set is None:
        return np.arange(n)
    c = candidate_set
    if (isinstance(c, np.ndarray) and c.dtype.kind == "i" and c.ndim == 1 and c.size
            and 0 <= c[0] and c[-1] < n and not np.count_nonzero(c[1:] <= c[:-1])):
        return c
    items = list(candidate_set)  # a generator is read once
    if not all(isinstance(i, (int, np.integer)) and type(i) is not bool for i in items):
        raise ValueError(f"candidate_set must hold integers, got {candidate_set!r}")
    cands = np.array(sorted(set(int(i) for i in items)), dtype=np.int64)
    if np.any(cands < 0) or np.any(cands >= n):
        raise ValueError("candidate indices must lie in 0..n-1")
    return cands


def _grid(coeffs: np.ndarray, count: np.ndarray, cands: np.ndarray, n: int) -> np.ndarray:
    """(F, |cands|) mask of the count[f] candidates minimizing
    |Lambda(alpha^{-i})| for each row of ``coeffs`` (F, d), ties toward the
    smaller index and NaN (an overflow) last: argmin passes over its bits
    less the sign, which order as it does, each masking its pick. Horner's
    rule as np.polyval runs it; zero leading coefficients leave the value
    unchanged, so rows of lower degree may share one array."""
    alpha_inv = _grid_points(n)[cands]
    value = np.zeros((len(coeffs), len(cands)), dtype=np.complex128)
    for c in coeffs.T[::-1]:
        value = value * alpha_inv - c[:, None]
    value = value * alpha_inv + 1.0
    keys, taken = np.abs(value).view(np.uint64) & np.uint64(2**63 - 1), np.uint64(2**64 - 1)
    for live in (np.flatnonzero(count > j) for j in range(count.max(initial=0))):
        keys[live, keys.argmin(axis=1)[live]] = taken
    return keys == taken


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
    Raises ValueError for non-finite syndromes, a ``rel_tol`` outside
    [0, 1) or a negative or NaN ``noise_floor``, never for numerical
    reasons: worst cases surface as poor estimates, which the Monte-Carlo
    metrics then record.
    """
    if not 0.0 <= rel_tol < 1.0:  # NaN fails every comparison
        raise ValueError(f"rel_tol must lie in [0, 1), got {rel_tol}")
    if not noise_floor >= 0.0:
        raise ValueError(f"noise_floor must be >= 0, got {noise_floor}")
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
            coeffs, full = _solve_locators(values[rows], nu, sing[rows] if nu == t else None)
            locator[rows, :nu] = coeffs
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
    least-squares magnitudes and their residual."""
    nu, locs, values = int(block.count[0]), block.support[0].nonzero()[0], syndromes[0]
    mags = _magnitudes(code, values, locs)
    return ErrorEstimate(
        count=nu,
        locations=tuple(locs.tolist()),
        magnitudes=mags,
        locator_coeffs=block.locator[0, :nu],
        diagnostics=PgzDiagnostics(
            singular_values=np.zeros(0) if block.gated[0] else block.singular_values[0],
            magnitude_residual=_norm(code.H[:, locs] @ mags - values) if nu else 0.0,
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
    syndrome or a bad ``rel_tol`` or ``noise_floor``, as ``decode_block``
    does; never raises for numerical reasons."""
    values = np.asarray(s, dtype=np.complex128)[None]  # decode_block checks it
    block = decode_block(code, values, candidate_set, rel_tol=rel_tol, noise_floor=noise_floor)
    return frame_estimate(code, values, block)
