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

The count, locator and location steps work on a block of F syndromes at
once (``decode_block``); the per-syndrome functions below run the same
code on a block of one. Magnitudes only enter the reported estimate of a
single frame (``frame_estimate``), never a reconstruction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .codes import DftCode

__all__ = [
    "Syndrome",
    "ErrorEstimate",
    "PgzDiagnostics",
    "PgzBlock",
    "compute_syndrome",
    "estimate_error_count",
    "solve_error_locator",
    "locate_errors",
    "estimate_magnitudes",
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
class Syndrome:
    """Complex syndrome vector of length n - k = 2t, in zero_rows order."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PgzDiagnostics:
    """Per-decode numerical health record. ``singular_values`` are the
    Hankel singular values of the count step, empty for a frame the clean
    gate passed without an SVD."""

    singular_values: np.ndarray
    locator_residual: float
    magnitude_residual: float
    retries: int


_EMPTY_DIAG = PgzDiagnostics(np.zeros(0), 0.0, 0.0, 0)


@dataclass(frozen=True)
class ErrorEstimate:
    """Decoder output: nu errors at ``locations`` with ``magnitudes``."""

    count: int
    locations: tuple[int, ...]
    magnitudes: np.ndarray
    locator_coeffs: np.ndarray
    diagnostics: PgzDiagnostics = field(default=_EMPTY_DIAG, compare=False)


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


def _syndrome_values(s: Syndrome | np.ndarray) -> np.ndarray:
    values = np.asarray(getattr(s, "values", s), dtype=np.complex128)
    if values.ndim != 1:
        raise ValueError(f"syndrome must be a vector, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("syndrome has non-finite components")
    return values


def compute_syndrome(H: np.ndarray, r: np.ndarray) -> Syndrome:
    """s = H r. For r = codeword + e the syndrome depends only on e."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (H.shape[1],):
        raise ValueError(f"received vector length {r.shape} does not match n = {H.shape[1]}")
    return Syndrome(values=H @ r)


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
    (gated, singular values, count). Gated rows run no SVD."""
    gated = np.abs(values).max(axis=1, initial=0.0) <= noise_floor
    sing = np.full((len(values), t), np.nan)
    live = (~gated).nonzero()[0]
    if live.size:
        sing[live] = np.linalg.svd(values[live[:, None, None], _hankel_index(t)], compute_uv=False)
    # NaN rows count 0, and so does an all-zero Hankel matrix
    count = (sing >= rel_tol * sing[:, :1]).sum(axis=1) * (sing[:, 0] > 0.0)
    return gated, sing, count


def estimate_error_count(
    s: Syndrome | np.ndarray,
    t: int,
    rel_tol: float = DEFAULT_REL_TOL,
    noise_floor: float = 0.0,
) -> int:
    """Number of errors nu via the rank of the t x t Hankel matrix
    S[a, b] = s[a + b].

    A syndrome whose components all sit below ``noise_floor`` is declared
    clean (nu = 0) before any rank logic runs; the floor is the caller's
    bound on syndrome-domain quantization noise.
    """
    values = _syndrome_values(s)
    if len(values) != 2 * t:
        raise ValueError(f"syndrome length {len(values)} does not match 2t = {2 * t}")
    return int(_count(values[None], t, rel_tol, noise_floor)[2][0])


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
    the coefficients of a rank-deficient row are meaningless."""
    a, b = _locator_system(values, nu)
    u, sing, vh = np.linalg.svd(a, full_matrices=False)
    full = (sing[:, 0] > 0.0) & (sing[:, -1] >= _LOCATOR_SINGULAR_RTOL * sing[:, 0])
    ub = (b[:, None, :] @ u.conj()) / np.where(full[:, None, None], sing[:, None, :], 1.0)
    return (ub @ vh.conj())[:, 0], full


def solve_error_locator(s: Syndrome | np.ndarray, nu: int) -> np.ndarray:
    """Coefficients Lambda_1..Lambda_nu of Lambda(x) = 1 - sum Lambda_j x^j.

    The syndrome recurrence s[m + nu] = sum_j Lambda_j s[m + nu - j]
    yields 2t - nu equations; they are solved in the least-squares sense
    so every syndrome component contributes. A rank-deficient system
    signals an over-estimated nu and raises LinAlgError for the caller's
    retry ladder.
    """
    values = _syndrome_values(s)
    two_t = len(values)
    if not 1 <= nu <= two_t // 2:
        raise ValueError(f"nu must be in 1..t = {two_t // 2}, got {nu}")
    coeffs, full = _solve_locators(values[None], nu)
    if not full[0]:
        raise np.linalg.LinAlgError(
            f"locator system is rank deficient for nu = {nu}; retry with fewer errors"
        )
    return coeffs[0]


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


def locate_errors(
    locator_coeffs: np.ndarray,
    n: int,
    nu: int,
    candidate_set: "list[int] | tuple[int, ...] | np.ndarray | None" = None,
) -> tuple[int, ...]:
    """The nu candidate indices minimizing |Lambda(alpha^{-i})|.

    Grid evaluation over the candidate set replaces polynomial root
    extraction: exact when the syndrome is exact, and under noise it
    degrades gracefully by picking the nearest grid cells. Ties break
    toward the smaller index.
    """
    cands = _candidates(candidate_set, n)
    if len(cands) < nu:
        raise ValueError(f"need at least nu = {nu} candidates, got {len(cands)}")
    coeffs = np.asarray(locator_coeffs, dtype=np.complex128)[None]
    chosen = _grid(coeffs, np.array([nu]), cands, n)[0]
    return tuple(cands[chosen].tolist())


def _magnitudes(code: DftCode, values: np.ndarray, locs: np.ndarray, method: str) -> np.ndarray:
    a = code.H[:, locs]
    if method == "exact":
        nu = len(locs)
        return np.asarray(np.linalg.solve(a[:nu, :], values[:nu]).real, dtype=np.float64)
    if method != "ls":
        raise ValueError(f"unknown magnitude method {method!r}")
    a_real = np.concatenate([a.real, a.imag])
    b_real = np.concatenate([values.real, values.imag])
    return np.linalg.lstsq(a_real, b_real, rcond=None)[0]


def estimate_magnitudes(
    code: DftCode,
    s: Syndrome | np.ndarray,
    locations: "list[int] | tuple[int, ...]",
    method: str = "ls",
) -> np.ndarray:
    """Real error magnitudes at the given locations.

    Solves s_m = sum_l e_l (1/sqrt(n)) alpha^{zero_rows[m] i_l}.
    method="ls" (default) stacks real and imaginary parts of all 2t
    equations into one real least-squares fit; method="exact" solves the
    square complex subsystem of the first nu equations and keeps the real
    part.
    """
    values = _syndrome_values(s)
    locs = list(locations)
    if len(set(locs)) != len(locs):
        raise np.linalg.LinAlgError(f"repeated error locations {locations}")
    return _magnitudes(code, values, np.array(locs, dtype=np.int64), method)


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
    retries = np.zeros(len(values), dtype=np.int64)
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
    if len(cands) < t and count.max(initial=0) > len(cands):
        raise ValueError(f"need at least nu = {count.max()} candidates, got {len(cands)}")
    support = np.zeros((len(values), n), dtype=bool)
    live = count.nonzero()[0]
    if live.size:
        support[live[:, None], cands] = _grid(locator[live], count[live], cands, n)
    return PgzBlock(gated, sing, count, retries, locator, support)


def frame_estimate(
    code: DftCode, syndromes: np.ndarray, block: PgzBlock, magnitude_method: str = "ls"
) -> ErrorEstimate:
    """The ErrorEstimate of a one-frame block: ``block``'s decisions plus
    magnitudes by ``magnitude_method`` and the residual diagnostics."""
    nu, locs, values = int(block.count[0]), block.support[0].nonzero()[0], syndromes[0]
    mags = _magnitudes(code, values, locs, magnitude_method)
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
    s: Syndrome | np.ndarray,
    candidate_set: "list[int] | tuple[int, ...] | np.ndarray | None" = None,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    noise_floor: float = 0.0,
    magnitude_method: str = "ls",
) -> ErrorEstimate:
    """Full PGZ chain with a retry ladder: ``decode_block`` on a block of
    one, then magnitudes by ``magnitude_method``. Raises ValueError for a
    non-finite syndrome; never raises for numerical reasons."""
    values = _syndrome_values(s)[None]
    block = decode_block(code, values, candidate_set, rel_tol=rel_tol, noise_floor=noise_floor)
    return frame_estimate(code, values, block, magnitude_method)
