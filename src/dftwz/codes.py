"""Real BCH-DFT code construction.

A code is defined by an odd pair (n, k), n > k. The generator is
G = sqrt(n/k) * W_n^H @ Sigma @ W_k with W_m the unitary DFT matrix and
Sigma an n x k selection pattern whose n - k empty rows sit in one
cyclically contiguous block. Codewords therefore have a contiguous block
of zero spectral components, which is what enables BCH-style decoding
over the reals. The parity check H collects the rows of W_n at those
spectral indices, so HG = 0 and H H^H = I.

Matrices are built in extended precision (long double) and returned as
float64/complex128. ``DftCode.route_gap`` records how far the two
systematic construction routes (via H2^{-1} and via G1^{-1}) disagree:
at most 7.1e-11 for (3,1), (7,5), (15,9) and (31,25), but it grows with
the code, e.g. 2.8e-6 for (31,15) and 0.68 for (255,249), and some odd
pairs raise on a singular block. No supported (n, k) range is enforced
yet.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CodeSpec",
    "SigmaPattern",
    "DftCode",
    "build_sigma",
    "build_code",
    "encode",
    "decode_pseudo_inverse",
]

COND_WARN = 1e8
COND_ERROR = 1e12

# Residual refinement iterations for the systematic solves. Three passes
# against long-double residuals push the route gap to the rounding floor.
_REFINE_ITERS = 3


def _validate_odd_pair(n: int, k: int) -> None:
    if not (isinstance(n, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise ValueError(f"n and k must be integers, got n={n!r}, k={k!r}")
    if n % 2 == 0 or k % 2 == 0:
        raise ValueError(f"n and k must both be odd, got (n, k) = ({n}, {k})")
    if k < 1 or n <= k:
        raise ValueError(f"need n > k >= 1, got (n, k) = ({n}, {k})")


@dataclass(frozen=True)
class CodeSpec:
    """Code parameters: odd n > odd k >= 1, correcting t = (n - k)/2 errors."""

    n: int
    k: int

    def __post_init__(self) -> None:
        _validate_odd_pair(self.n, self.k)

    @property
    def t(self) -> int:
        return (self.n - self.k) // 2


@dataclass(frozen=True)
class SigmaPattern:
    """Nonzero layout of the n x k spectral selection matrix."""

    n: int
    k: int
    nonzero_positions: frozenset[tuple[int, int]]
    zero_rows: tuple[int, ...]


@dataclass(frozen=True)
class DftCode:
    """A constructed code: all derived matrices plus build diagnostics.

    Arrays are read-only; instances are safe to share across workers.
    ``route_gap`` is the max entrywise disagreement between the two
    systematic construction routes, kept as a construction health metric.
    """

    spec: CodeSpec
    G: np.ndarray
    H: np.ndarray
    G_sys: np.ndarray
    P_gen: np.ndarray
    zero_rows: tuple[int, ...]
    route_gap: float = field(default=0.0, compare=False)

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def t(self) -> int:
        return self.spec.t


def build_sigma(spec: CodeSpec) -> SigmaPattern:
    """Nonzeros {(0,0)} | {(i,i), (n-i, k-i) : i = 1..(k-1)/2}; the k
    occupied rows leave one cyclically contiguous empty block."""
    n, k = spec.n, spec.k
    positions = {(0, 0)}
    for i in range(1, (k - 1) // 2 + 1):
        positions.add((i, i))
        positions.add((n - i, k - i))
    occupied = {r for r, _ in positions}
    zero_rows = tuple(r for r in range(n) if r not in occupied)
    return SigmaPattern(n=n, k=k, nonzero_positions=frozenset(positions), zero_rows=zero_rows)


def _dft_unitary(n: int) -> np.ndarray:
    """Unitary DFT matrix, entries (1/sqrt(n)) exp(-j 2 pi m l / n)."""
    m = np.arange(n, dtype=np.longdouble)
    phase = (-2.0 * np.pi / np.longdouble(n)) * np.outer(m, m)
    return (np.cos(phase) + 1j * np.sin(phase)) / np.sqrt(np.longdouble(n))


def _sigma_matrix(pattern: SigmaPattern) -> np.ndarray:
    sig = np.zeros((pattern.n, pattern.k), dtype=np.longdouble)
    for r, c in pattern.nonzero_positions:
        sig[r, c] = 1.0
    return sig


def _build_generator(spec: CodeSpec) -> np.ndarray:
    pattern = build_sigma(spec)
    wn = _dft_unitary(spec.n)
    wk = _dft_unitary(spec.k)
    scale = np.sqrt(np.longdouble(spec.n) / np.longdouble(spec.k))
    g = scale * (wn.conj().T @ _sigma_matrix(pattern).astype(wn.dtype) @ wk)
    residue = float(np.abs(g.imag).max())
    if residue >= 1e-10:
        raise ValueError(
            f"generator for (n, k) = ({spec.n}, {spec.k}) has imaginary residue "
            f"{residue:.3e} >= 1e-10; construction is unsound"
        )
    return g.real


def _solve_refined(a_ext: np.ndarray, b_ext: np.ndarray) -> np.ndarray:
    """Solve a x = b where a, b carry extended-precision data.

    LAPACK only accepts double, so factor in double and run iterative
    refinement with residuals accumulated in extended precision.
    """
    a_dbl = a_ext.astype(np.complex128 if np.iscomplexobj(a_ext) else np.float64)
    b_dbl = b_ext.astype(a_dbl.dtype)
    x = np.linalg.solve(a_dbl, b_dbl)
    for _ in range(_REFINE_ITERS):
        r = b_ext - a_ext @ x.astype(a_ext.dtype)
        x = x + np.linalg.solve(a_dbl, r.astype(a_dbl.dtype))
    return x


def _check_conditioning(name: str, matrix: np.ndarray) -> float:
    cond = float(np.linalg.cond(matrix.astype(np.complex128 if np.iscomplexobj(matrix) else np.float64)))
    if cond > COND_ERROR:
        raise np.linalg.LinAlgError(
            f"{name} is numerically singular (condition number {cond:.3e} > {COND_ERROR:.0e})"
        )
    if cond > COND_WARN:
        warnings.warn(
            f"{name} is ill conditioned (condition number {cond:.3e}); "
            "systematic matrices may lose accuracy",
            RuntimeWarning,
            stacklevel=3,
        )
    return cond


def _systematic_routes(g_ext: np.ndarray, h_ext: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Both systematic constructions; returns (G_sys, P_gen, route_gap)."""
    n = h_ext.shape[1]
    k = n - h_ext.shape[0]
    h1, h2 = h_ext[:, :k], h_ext[:, k:]
    _check_conditioning("H2 (parity block of H)", h2)
    p = _solve_refined(h2, h1)
    residue = float(np.abs(p.imag).max())
    # P is real in exact arithmetic; its computed imaginary part is pure
    # rounding noise, whose floor scales with how large P itself is (the
    # refinement floor is cond * eps_longdouble * |P|). A genuinely
    # complex result would show an imaginary part comparable to |P|.
    scale = max(1.0, float(np.abs(p.real).max()))
    if residue >= max(1e-10, 1e-9 * scale):
        raise ValueError(
            f"systematic parity block has imaginary residue {residue:.3e} "
            f"(relative to |P| = {scale:.3e})"
        )
    p_gen = -np.asarray(p.real, dtype=np.longdouble)
    g_sys_h = np.vstack([np.eye(k, dtype=np.longdouble), p_gen])

    g1 = g_ext[:k, :]
    _check_conditioning("G1 (top block of G)", g1)
    # G_sys = G @ G1^{-1}, computed as a transposed solve to reuse refinement.
    g_sys_g = _solve_refined(g1.T, g_ext.T).T

    gap = float(np.abs(np.asarray(g_sys_h - g_sys_g, dtype=np.float64)).max())
    return g_sys_h, p_gen, gap


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_code(n: int, k: int) -> DftCode:
    """Construct every matrix of the (n, k) code in one pass."""
    spec = CodeSpec(n, k)
    pattern = build_sigma(spec)
    g_ext = _build_generator(spec)
    h_ext = _dft_unitary(n)[list(pattern.zero_rows), :]
    g_sys_ext, p_gen_ext, gap = _systematic_routes(g_ext, h_ext)
    return DftCode(
        spec=spec,
        G=_freeze(np.asarray(g_ext, dtype=np.float64)),
        H=_freeze(np.asarray(h_ext, dtype=np.complex128)),
        G_sys=_freeze(np.asarray(g_sys_ext, dtype=np.float64)),
        P_gen=_freeze(np.asarray(p_gen_ext, dtype=np.float64)),
        zero_rows=pattern.zero_rows,
        route_gap=gap,
    )


def encode(G: np.ndarray, message: np.ndarray) -> np.ndarray:
    """Codeword G @ message."""
    message = np.asarray(message, dtype=np.float64)
    if message.shape != (G.shape[1],):
        raise ValueError(f"message length {message.shape} does not match k = {G.shape[1]}")
    return G @ message


def decode_pseudo_inverse(G: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Least-squares message estimate (k/n) G^T y_hat.

    Because G^T G = (n/k) I, the pseudo-inverse is just a scaled
    transpose; additive noise of variance s2 on the codeword lands on the
    message with per-sample variance (k/n) s2.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    n, k = G.shape
    if y_hat.shape != (n,):
        raise ValueError(f"received vector length {y_hat.shape} does not match n = {n}")
    return (k / n) * (G.T @ y_hat)
