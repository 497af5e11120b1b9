"""Real BCH-DFT code construction.

A code is defined by an odd pair (n, k), n > k. The generator is
G = sqrt(n/k) * W_n^H @ Sigma @ W_k with W_m the unitary DFT matrix and
Sigma an n x k selection pattern whose n - k empty rows sit in one
cyclically contiguous block. Codewords therefore have a contiguous block
of zero spectral components, which is what enables BCH-style decoding
over the reals. The parity check H collects the rows of W_n at those
spectral indices, so HG = 0 and H H^H = I.

Matrices are built in extended precision (long double) internally and
returned as float64/complex128; this keeps the two systematic
construction routes (via H2^{-1} and via G1^{-1}) in agreement well
below 1e-8 even for the worst conditioned spec in the supported range.
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
    "build_generator",
    "build_parity_check",
    "build_systematic",
    "build_code",
    "encode",
    "decode_pseudo_inverse",
    "dump_matrices",
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


def _dft_unitary(n: int, extended: bool = False) -> np.ndarray:
    """Unitary DFT matrix, entries (1/sqrt(n)) exp(-j 2 pi m l / n)."""
    dtype = np.longdouble if extended else np.float64
    m = np.arange(n, dtype=dtype)
    phase = (-2.0 * np.pi / np.array(n, dtype=dtype)) * np.outer(m, m)
    out = (np.cos(phase) + 1j * np.sin(phase)) / np.sqrt(np.array(n, dtype=dtype))
    return out


def _sigma_matrix(pattern: SigmaPattern, extended: bool = False) -> np.ndarray:
    dtype = np.longdouble if extended else np.float64
    sig = np.zeros((pattern.n, pattern.k), dtype=dtype)
    for r, c in pattern.nonzero_positions:
        sig[r, c] = 1.0
    return sig


def _build_generator_any(spec: CodeSpec, extended: bool) -> np.ndarray:
    pattern = build_sigma(spec)
    dtype = np.longdouble if extended else np.float64
    wn = _dft_unitary(spec.n, extended)
    wk = _dft_unitary(spec.k, extended)
    scale = np.sqrt(np.array(spec.n, dtype=dtype) / np.array(spec.k, dtype=dtype))
    g = scale * (wn.conj().T @ _sigma_matrix(pattern, extended).astype(wn.dtype) @ wk)
    residue = float(np.abs(g.imag).max())
    if residue >= 1e-10:
        raise ValueError(
            f"generator for (n, k) = ({spec.n}, {spec.k}) has imaginary residue "
            f"{residue:.3e} >= 1e-10; construction is unsound"
        )
    return g.real


def build_generator(spec: CodeSpec) -> np.ndarray:
    """Real n x k generator with G^T G = (n/k) I_k."""
    return np.asarray(_build_generator_any(spec, extended=False), dtype=np.float64)


def build_parity_check(spec: CodeSpec) -> np.ndarray:
    """Complex (n-k) x n parity check: rows of W_n at the zero spectral rows."""
    pattern = build_sigma(spec)
    wn = _dft_unitary(spec.n, extended=False)
    return np.ascontiguousarray(wn[list(pattern.zero_rows), :]).astype(np.complex128)


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


def build_systematic(G: np.ndarray, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Systematic generator G_sys = [I_k ; P_gen] and parity generator P_gen.

    Computed both as [I ; -H2^{-1} H1] and as G G1^{-1}; the returned
    matrix is the H route. For matrices produced by build_generator /
    build_parity_check the construction is redone in extended precision,
    which keeps the two routes within 1e-8 of each other across the whole
    supported range. Arbitrary full-rank inputs fall back to double
    precision with iterative refinement; agreement then degrades with the
    conditioning of G1.
    """
    G = np.asarray(G)
    H = np.asarray(H)
    if G.ndim != 2 or H.ndim != 2 or H.shape[1] != G.shape[0]:
        raise ValueError(f"incompatible shapes G {G.shape}, H {H.shape}")
    n, k = G.shape
    if H.shape[0] != n - k:
        raise ValueError(f"H must be (n-k) x n, got {H.shape} for G {G.shape}")

    g_ext, h_ext = G, H
    if n % 2 == 1 and k % 2 == 1 and k >= 1:
        try:
            spec = CodeSpec(n, k)
            g_canon = _build_generator_any(spec, extended=True)
            pattern = build_sigma(spec)
            h_canon = _dft_unitary(n, extended=True)[list(pattern.zero_rows), :]
            if (
                np.abs(G - g_canon.astype(np.float64)).max() < 1e-9
                and np.abs(H - h_canon.astype(np.complex128)).max() < 1e-9
            ):
                g_ext, h_ext = g_canon, h_canon
        except ValueError:
            pass

    g_sys, p_gen, _gap = _systematic_routes(
        np.asarray(g_ext, dtype=g_ext.dtype), np.asarray(h_ext, dtype=h_ext.dtype)
    )
    return np.asarray(g_sys, dtype=np.float64), np.asarray(p_gen, dtype=np.float64)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_code(n: int, k: int) -> DftCode:
    """Construct every matrix of the (n, k) code in one pass."""
    spec = CodeSpec(n, k)
    pattern = build_sigma(spec)
    g_ext = _build_generator_any(spec, extended=True)
    h_ext = _dft_unitary(n, extended=True)[list(pattern.zero_rows), :]
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


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.12e}{z.imag:+.12e}j"


def dump_matrices(code: DftCode) -> str:
    """Plain-text dump of all code matrices for cross-implementation diffs.

    Row-major; every entry rendered as "re+imj" with fixed precision so
    two dumps can be compared with ordinary text tools.
    """
    lines = [f"code n={code.n} k={code.k} t={code.t}",
             "zero_rows " + " ".join(str(r) for r in code.zero_rows)]
    for name, mat in (("G", code.G), ("H", code.H), ("G_sys", code.G_sys), ("P_gen", code.P_gen)):
        lines.append(f"{name} {mat.shape[0]}x{mat.shape[1]}")
        for row in np.atleast_2d(mat):
            lines.append(" ".join(_fmt_complex(complex(v)) for v in row))
    return "\n".join(lines) + "\n"
