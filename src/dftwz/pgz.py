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
(nu = 1, any t) is the scalar least-squares fit a^H b / a^H a. Every
locator system is solved on a scaled copy, so that its decisions do not
depend on the syndrome's scale. A t = 2 or t = 3 count compares the
closed-form eigenvalues of the Hankel matrix's Gram matrix with the
threshold, and sends to the SVD only the rows whose eigenvalues lie too
close to it or to each other to decide (``_closed_form_count``); t >= 4
and small blocks run the SVD on every live row. Either way the count is
the one LAPACK's singular values give. A nu = t locator is solved by LU
once the count's rank test passes, and a 1 < nu < t one by Householder
QR, whose rank test the SVD's implies. A one-error row is located by
its locator's angle, through a table of half-bins, and only the rows
whose angle lies too close to a boundary between candidates
(``_nearest``) and the rows of nu >= 2 scan the grid; either way the
pick is the grid's.

``decode_block`` runs the count, locator and location steps on a block
of F syndromes at once and is the one way into the chain; ``pgz_decode``
is the same code on a block of one, whose one SVD is the count's, plus
the magnitudes. Magnitudes only enter the reported estimate of a single
frame (``frame_estimate``), never a reconstruction.
"""

from __future__ import annotations

import functools
import itertools
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
]

# Relative rank tolerance used when the syndrome carries quantization
# noise; noiseless tests override with 1e-10.
DEFAULT_REL_TOL = 1e-2

# Relative floor under which the locator system counts as singular.
_LOCATOR_SINGULAR_RTOL = 1e-10

# The least scale a nu = 1 locator system is divided by: its reciprocal,
# 2^1022, is finite, where that of a subnormal scale can overflow.
_SMALLEST_NORMAL = np.finfo(np.float64).smallest_normal

# Live rows from which a t = 2 or t = 3 count takes the closed form: on
# fewer, its few dozen numpy calls cost more than the SVD they save. Both
# routes give the same count, so this only picks the faster one.
_CLOSED_FORM_ROWS = 24

# The closed form's error allowance per unit e_1^t (4096 eps); see
# _closed_form_count.
_BAND = 2.0**-40

# The one-error location's band per unit n^2 (1 + r)^2 / r, in half-bins
# (16 eps); see _nearest.
_LOCATION_BAND = 2.0**-48

# Angles of the trigonometric cubic formula's roots, largest root first.
_CUBIC_TURNS = np.array([[2.0], [4.0], [0.0]]) * np.pi / 3.0


@dataclass(frozen=True)
class PgzDiagnostics:
    """Per-decode numerical health record. ``magnitude_residual`` is the
    norm of the syndrome left over by the least-squares magnitudes, 0 for
    nu = 0; ``retries`` counts the steps down the retry ladder, so the
    count step's Hankel rank is ``count + retries``."""

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

    ``gated`` (F,) marks frames the clean gate passed; ``count`` (F,) is
    nu after the retry ladder, with ``retries`` (F,) steps down;
    ``locator`` (F, t) holds the locator coefficients in its first
    ``count`` columns; ``support`` (F, n) marks the chosen locations.
    """

    gated: np.ndarray
    count: np.ndarray
    retries: np.ndarray
    locator: np.ndarray
    support: np.ndarray


def one_frame(a, length: int, what: str) -> np.ndarray:
    """The one frame ``a`` as a block of one; any shape but (length,) raises ValueError."""
    if (a := np.asarray(a)).shape != (length,):
        raise ValueError(f"{what} has shape {a.shape}, expected ({length},)")
    return a[None]


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


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


@functools.lru_cache(maxsize=None)
def _gram_tables(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (4, K) of the K = (t choose 2)^2 2x2 minors s_a s_b - s_c s_d
    of the t x t Hankel matrix S, the minor of S without row 0 and column
    j at -1 - j for t = 3; and the number of times (2t - 1, 1) each s_m
    appears in S."""
    pairs = list(itertools.combinations(range(t), 2))
    minors = np.array([(i + j, k + l, i + l, k + j) for i, k in pairs for j, l in pairs]).T
    weights = np.minimum(np.arange(1, 2 * t), np.arange(2 * t - 1, 0, -1))[:, None]
    return _frozen(minors), _frozen(weights.astype(float))


def _closed_form_count(
    values: np.ndarray, top: np.ndarray, t: int, rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Hankel rank of each row of ``values`` (L, 2t), t = 2 or 3, and
    whether the closed form decided it: (count, decided), both (L,), with
    ``top`` each row's largest |s_m|, m < 2t - 1. A row it does not decide
    goes to the SVD.

    The rank counts the singular values sigma_i >= rel_tol sigma_0 of the
    Hankel matrix S, so the eigenvalues lambda_i = sigma_i^2 of S^H S at
    or above tau = rel_tol^2 lambda_0. They are the roots of
    p(x) = x^t - e_1 x^(t-1) + e_2 x^(t-2) - e_3, where by Cauchy-Binet
    e_1 = ||S||_F^2, e_2 is the sum of the squared 2x2 minors of S and
    e_3 = |det S|^2 (t = 3); the quadratic formula or the trigonometric
    cubic formula gives them, largest first. Each row is first scaled by
    the power of two that brings its largest |s_m|, m < 2t - 1, into
    [1/2, 1): this changes no decision, nothing over- or underflows at
    any scale, and e_1 lies in [1/4, t^2).

    The band. Each rounding in forming the e_k moves e_k by a few
    eps e_1^k (|s_m|^2 and every 2x2 minor are at most e_1), and each in
    the formula moves a root by a few eps e_1, which is p with e_k moved
    by at most 3 eps e_1^k. So the computed roots l_i are the exact roots
    of a polynomial q with |q(z) - p(z)| <= Delta = _BAND e_1^t on
    |z| <= 2 e_1: some hundreds of eps against _BAND's 4096, and more
    than 600 times the largest |l_i - lambda_i| prod_j |l_i - l_j| /
    (eps e_1^t) met against LAPACK, clustered roots included. On the
    circle |z - l_i| = r_i <= g_i / 2, g_i the gap to the nearest other
    l_j, |q(z)| >= r_i prod_(j != i) |l_i - l_j| / 2^(t-1); by Rouche's
    theorem, with r_i = 2^(t-1) Delta / prod_(j != i) |l_i - l_j| < g_i / 2
    for every i, each disc holds exactly one lambda_i, in order. Near a
    double or a triple root the formula's error grows to sqrt(eps) or
    cbrt(eps) times lambda_0 and the radii pass g_i / 2: such a row is not
    decided. Otherwise tau lies within rel_tol^2 r_0 of rel_tol^2 l_0, and
    the row is decided when every |l_i - rel_tol^2 l_0|, i >= 1, exceeds
    r_i + rel_tol^2 r_0 + _BAND e_1. The last term covers LAPACK's own
    error, a small multiple of eps sigma_0 in each sigma_i, so that its
    test decides these rows as the exact one does. lambda_0 always counts
    (rel_tol < 1). A decided count of t has lambda_(t-1) >= _BAND e_1, so
    sigma_(t-1) >= 2^-20 sigma_0 also passes the nu = t locator's test."""
    scaled = np.ldexp(values.view(np.float64), -np.frexp(top)[1][:, None])
    s = scaled.view(np.complex128).T
    minors, weights = _gram_tables(t)
    a, b, c, d = s[minors]
    m = a * b - c * d
    e1 = (weights * _abs2(s[: 2 * t - 1])).sum(axis=0)
    e2 = _abs2(m).sum(axis=0)
    if t == 2:
        gap = np.sqrt(np.maximum(e1 * e1 - 4.0 * e2, 0.0))
        lam = np.array([e1 + gap, e1 - gap]) * 0.5
        prods = nearest = np.array([gap, gap])
    else:
        e3 = _abs2(s[0] * m[-1] - s[1] * m[-2] + s[2] * m[-3])  # along row 0
        third = e1 / 3.0
        q = np.maximum(third * third - e2 / 3.0, 0.0)
        r = third * (0.5 * e2 - third * third) - 0.5 * e3
        root = np.sqrt(q)  # q = 0 is a triple root, which the gaps leave undecided
        cos3 = np.minimum(np.maximum(r / np.maximum(q * root, 2.0**-1000), -1.0), 1.0)
        lam = third - 2.0 * root * np.cos(np.arccos(cos3) / 3.0 + _CUBIC_TURNS)
        g01, g12 = np.maximum(lam[0] - lam[1], 0.0), np.maximum(lam[1] - lam[2], 0.0)
        prods = np.array([g01 * (g01 + g12), g01 * g12, (g01 + g12) * g12])
        nearest = np.array([g01, np.minimum(g01, g12), g12])
    tol2 = rel_tol * rel_tol
    tau = tol2 * lam[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # gaps near 0: inf, NaN
        rad = 2.0 ** (t - 1) * _BAND * e1**t / prods
        clear = np.abs(lam[1:] - tau) > rad[1:] + tol2 * rad[0] + _BAND * e1
        decided = (rad < 0.5 * nearest).all(axis=0) & clear.all(axis=0)
    return 1 + (lam[1:] >= tau).sum(axis=0), decided


def _count(
    values: np.ndarray, t: int, rel_tol: float, noise_floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Clean gate, Hankel rank and the nu = t locator's rank test of each
    row of ``values`` (F, 2t), and its largest |s_m|, m < 2t - 1, and of
    all: (gated, count, full, top, peak). The rank counts the Hankel
    singular values sigma_i >= rel_tol sigma_0, 0 when sigma_0 = 0; ``full``
    is sigma_(t-1) >= _LOCATOR_SINGULAR_RTOL sigma_0, read only where the
    count is t. Gated rows count 0, and t = 1 ([s_0], singular value |s_0|)
    runs no SVD. A t = 2 or 3 block of _CLOSED_FORM_ROWS or more live rows
    counts them in closed form; one SVD counts those it leaves, or all."""
    mag = np.abs(values).T
    top = functools.reduce(np.maximum, mag[:-1])  # exact, fast on short rows
    peak = np.maximum(top, mag[-1])
    gated = peak <= noise_floor
    live = (~gated).nonzero()[0]
    count, full = np.zeros(len(values), dtype=int), np.zeros(len(values), dtype=bool)
    if t == 1:
        count[live] = top[live] > 0.0
        return gated, count, full, top, peak
    if t <= 3 and live.size >= _CLOSED_FORM_ROWS:
        count[live], decided = _closed_form_count(values[live], top[live], t, rel_tol)
        full[live] = True
        live = live[~decided]
    if live.size:
        sing = np.linalg.svd(values[live[:, None, None], _hankel_index(t)], compute_uv=False)
        # An all-zero Hankel matrix counts 0. Integer columns added are
        # fast on short rows; bool columns would OR.
        above = (sing >= rel_tol * sing[:, :1]).T.astype(int)
        count[live] = functools.reduce(np.add, above) * (sing[:, 0] > 0.0)
        full[live] = sing[:, -1] >= _LOCATOR_SINGULAR_RTOL * sing[:, 0]
    return gated, count, full, top, peak


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
    values: np.ndarray, nu: int, top: np.ndarray, peak: np.ndarray,
    full: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares locator coefficients (F, nu) of each row of
    ``values``, and whether its system has full rank, given ``_count``'s
    ``top`` and ``peak`` of the rows. One Householder QR per row, A = QR,
    serves both the rank test min |R_jj| >= rtol max |R_jj| (implied by
    the SVD's, as sing_min <= |R_jj| <= sing_max) and the solve
    R x = Q^H b; a rank-deficient row's coefficients are meaningless.

    For nu = t the caller passes the count's rank test ``full``:
    A[m, c] = S[m, t-1-c] is the Hankel matrix with its columns reversed,
    so the count's singular values serve its rank test, and LU solves the
    full-rank rows.

    Each row's system is scaled first, so that no row under- or
    overflows at any scale of the syndrome: it has full rank only when
    max |a| > 0 and max |a| >= rtol max |b|, and is scaled by max |a|,
    a rank-deficient one by max |b| (its solve then divides by 1). As a
    holds s_0..s_{2t-2} and b s_nu..s_{2t-1}, max |a| is ``top``, and
    ``peak`` = max(top, |s_{2t-1}|) serves for max |b|: where peak > top,
    peak = |s_{2t-1}| = max |b|, and elsewhere both tests pass, or both
    fail on an all-zero row. For
    nu >= 2 the factor is the power of two 2^-e of that maximum m 2^e,
    m in [1/2, 1), capped at 2^1022 so that it stays finite. It is
    exact, so the rank tests and coefficients are those of the system as
    it came wherever that neither under- nor overflows.

    One unknown (nu = 1) needs no QR: its one column a = s_0..s_{2t-2}
    gives Lambda_1 = a^H b / a^H a, formed from a and b times the
    reciprocal of the maximum itself, so that a^H a lies in [1, 2t - 1]
    and b within 1 / rtol; a subnormal maximum counts as the smallest
    normal number, whose reciprocal is finite."""
    fits = (top > 0.0) & (top >= _LOCATOR_SINGULAR_RTOL * peak)
    scale = np.where(fits, top, peak)
    if nu == 1:
        factor = 1.0 / np.maximum(scale, _SMALLEST_NORMAL)
    else:
        factor = np.ldexp(1.0, np.minimum(-np.frexp(scale)[1], 1022))
    a, b = _locator_system((values.view(np.float64) * factor[:, None]).view(np.complex128), nu)
    if nu == 1:
        a = a[:, :, 0]
        aa = (a.real * a.real + a.imag * a.imag).sum(axis=1)
        return ((a.conj() * b).sum(axis=1) / np.where(fits, aa, 1.0))[:, None], fits
    if full is not None:
        full = full & fits
        coeffs = np.zeros(b.shape, dtype=np.complex128)
        coeffs[full] = np.linalg.solve(a[full], b[full, :, None])[..., 0]
        return coeffs, full
    q, r = np.linalg.qr(a)  # reduced: q (F, 2t - nu, nu), r (F, nu, nu)
    size = np.abs(np.diagonal(r, axis1=1, axis2=2))
    diag_top = size.max(axis=1)
    full = fits & (diag_top > 0.0) & (size.min(axis=1) >= _LOCATOR_SINGULAR_RTOL * diag_top)
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
    if not cands.size or np.any(cands < 0) or np.any(cands >= n):
        raise ValueError(f"candidate_set must hold one or more indices in 0..{n - 1}")
    return cands


@functools.lru_cache(maxsize=16)  # both candidate sets of build_code's 8 codes
def _half_bins(n: int, cands: bytes) -> tuple[np.ndarray, np.ndarray]:
    """For the int64 candidates ``cands`` of the n-point grid, as
    ``_nearest`` reads them: the candidate nearest the half-bin [h, h + 1)
    of u, h = 0..2n, and 0 at each integer u that is a Voronoi boundary,
    1 at the others. Candidate i sits at u = n + 2i (mod 2n), so every
    boundary is an integer and no half-bin's midpoint is a tie."""
    c = np.frombuffer(cands, dtype=np.int64)
    ahead = (np.arange(-1, 2 * n + 1)[:, None] + 0.5 - (n + 2 * c)) % (2 * n)
    nearest = c[np.minimum(ahead, 2 * n - ahead).argmin(axis=1)]  # bins -1..2n
    return _frozen(nearest[1:]), _frozen((nearest[:-1] == nearest[1:]).astype(float))


def _nearest(lam: np.ndarray, cands: np.ndarray, n: int) -> np.ndarray:
    """The candidate ``_grid`` picks for a locator 1 - lam x of degree 1,
    for each entry of ``lam`` (L,), or -1 where the angle does not decide
    it: ``lam`` is 0, non-finite or too large, or its angle lies within
    the band of a boundary.

    As |alpha^{-i}| = 1, |1 - lam alpha^{-i}| = |lam - z_i|, z_i =
    alpha^i: the grid picks the candidate nearest lam in the plane. With
    r = |lam|, theta = arg lam, that is the z_i nearest the angle theta,
    which u = (pi - theta) n / pi, in half-bins of pi / n, places in one
    of ``_half_bins``' bins.

    The band. alpha^{-i} is rounded within 18 eps of the unit circle's
    point, in the angle 2 pi i / n and in exp; with one complex product,
    a sum and np.abs on top, the grid's |Lambda| at z_i is within
    E = 24 eps (1 + r) of |lam - z_i|. So it picks the nearest z_c when
    |lam - z_j| - |lam - z_c| > 2 E for every other candidate j. Their
    bisector is a line through 0, at an angle from lam of at least delta,
    lam's angle to the nearest boundary (at most pi / 2); so
    |lam - z_j|^2 - |lam - z_c|^2 = 2 |z_j - z_c| dist(lam, bisector)
    >= 4 sin(pi / n) r sin(delta), and |lam - z_j| + |lam - z_c| <=
    2 (1 + r). As sin(pi / n) >= 2 / n and sin(delta) >= 2 delta / pi,
    delta > 6 eps n^2 (1 + r)^2 / r half-bins (of pi / n) suffices; u's
    own rounding, at most 10 eps n half-bins, adds less than a sixth of
    that, as (1 + r)^2 / r >= 4 and n >= 3. The band,
    _LOCATION_BAND n^2 (1 + r)^2 / r, is over twice the sum. Once r or
    1 / r passes about 1.4e14 / n^2, the band passes half a half-bin and
    every row goes to the grid, long before its values overflow; so does
    a row of r = 0, inf or NaN, where no distance times r exceeds the
    band times r."""
    table, off = _half_bins(n, np.asarray(cands, dtype=np.int64).tobytes())
    u = np.fmax((np.pi - np.arctan2(lam.imag, lam.real)) * (n / np.pi), 0.0)  # [0, 2n]; NaN: 0
    edge = np.rint(u)
    apart = np.abs(off[edge.astype(np.intp)] - np.abs(u - edge))  # 1 - |u - edge| off a boundary
    r = np.minimum(np.abs(lam), 1e100)  # (1 + r)^2 stays finite; NaN stays NaN
    decided = apart * r > (_LOCATION_BAND * n * n) * ((1.0 + r) * (1.0 + r))
    return np.where(decided, table[u.astype(np.intp)], -1)


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
    Raises ValueError for non-finite syndromes, an empty ``candidate_set``,
    a ``rel_tol`` outside [0, 1) or a negative or NaN ``noise_floor``,
    never for numerical reasons: worst cases surface as poor estimates,
    which the Monte-Carlo metrics then record.
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
    gated, count, full_t, top, peak = _count(values, t, rel_tol, noise_floor)
    retries = np.maximum(count - len(cands), 0)  # no more errors than candidates
    count -= retries
    locator = np.zeros((len(values), t), dtype=np.complex128)
    for nu in range(count.max(initial=0), 0, -1):  # a frame failing at nu retries at nu - 1
        rows = (count == nu).nonzero()[0]
        if rows.size:
            coeffs, full = _solve_locators(
                values[rows], nu, top[rows], peak[rows], full_t[rows] if nu == t else None)
            locator[rows, :nu] = coeffs
            failed = rows[~full]
            if failed.size:
                locator[failed] = 0.0
                count[failed] -= 1
                retries[failed] += 1
    support = np.zeros((len(values), n), dtype=bool)
    grid = count > 0
    one = (count == 1).nonzero()[0]
    if one.size:  # zero past Lambda_1: a failed row's locator was cleared
        pos = _nearest(locator[one, 0], cands, n)
        hit = pos >= 0
        support.reshape(-1)[one[hit] * n + pos[hit]] = True
        grid[one[hit]] = False
    live = grid.nonzero()[0]
    if live.size:
        support[live[:, None], cands] = _grid(locator[live], count[live], cands, n)
    return PgzBlock(gated, count, retries, locator, support)


def frame_estimate(code: DftCode, syndromes: np.ndarray, block: PgzBlock) -> ErrorEstimate:
    """The ErrorEstimate of a one-frame block: ``block``'s decisions plus
    the real magnitudes at its locations that solve s_m = sum_l e_l H[m, l]
    in one least-squares fit of the real and imaginary parts of all 2t
    equations, and the norm of the syndrome they leave over."""
    nu, locs, values = int(block.count[0]), block.support[0].nonzero()[0], syndromes[0]
    mags, residual = np.zeros(0), 0.0
    if nu:
        a = code.H[:, locs]
        mags = np.linalg.lstsq(np.concatenate([a.real, a.imag]),
                               np.concatenate([values.real, values.imag]), rcond=None)[0]
        left = a @ mags - values
        residual = float(np.sqrt(np.vdot(left, left).real))
    return ErrorEstimate(
        count=nu,
        locations=tuple(locs.tolist()),
        magnitudes=mags,
        locator_coeffs=block.locator[0, :nu],
        diagnostics=PgzDiagnostics(magnitude_residual=residual, retries=int(block.retries[0])),
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
    one, then least-squares magnitudes. Raises ValueError for a syndrome
    not of shape (n - k,), and as ``decode_block`` does; never raises for
    numerical reasons."""
    values = one_frame(np.asarray(s, dtype=np.complex128), 2 * code.t, "syndrome")
    block = decode_block(code, values, candidate_set, rel_tol=rel_tol, noise_floor=noise_floor)
    return frame_estimate(code, values, block)
