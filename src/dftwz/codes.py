"""Real BCH-DFT code construction.

A code is defined by an odd pair (n, k), n > k. The generator is
G = sqrt(n/k) * W_n^H @ Sigma @ W_k with W_m the unitary DFT matrix and
Sigma an n x k selection matrix with nonzeros (0, 0), (i, i) and
(n - i, k - i) for i = 1..(k-1)/2, so its n - k empty rows sit in one
cyclically contiguous block. Codewords therefore have a contiguous block
of zero spectral components, which is what enables BCH-style decoding
over the reals. The parity check H collects the rows of W_n at those
spectral indices, so HG = 0 and H H^H = I.

The systematic form puts the n - k parity samples at the positions
floor(i n / (n - k)), i = 0..n-k-1, spread evenly around the cycle, and
the k message samples at the others, in order. With H_S and H_P the
columns of H at the systematic and parity positions, P_gen = -H_P^{-1} H_S
maps a message to its parity. Evenly spread positions keep H_P well
conditioned (Vaezi and Labeau, "Systematic DFT frames: principle,
eigenvalues structure, and applications", IEEE Trans. Signal Process.,
2013): cond(H_P) is 1.25 for (7,5), 1.38 for (15,9), 2.21 for (37,13)
and 1.02 for (255,249), at most 11.4 over every odd pair with n <= 129,
and max |P_gen| is 1 up to rounding. So every matrix is built in one
float64 pass, and every odd pair with n <= 129 builds, as do (255,249),
(511,501) and (1023,1013).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CodeSpec",
    "DftCode",
    "build_code",
    "decode_pseudo_inverse",
]

# Largest imaginary residue of a matrix that is real in exact arithmetic,
# and largest |H G_sys| build_code accepts.
_REAL_TOL = 1e-10


def _validate_odd_pair(n: int, k: int) -> None:
    if not all(isinstance(v, (int, np.integer)) and type(v) is not bool for v in (n, k)):
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
class DftCode:
    """A constructed code: all derived matrices and the systematic layout.

    Arrays are read-only, and ``build_code`` hands out one shared instance
    per (n, k), which pickling rebuilds through it; instances are safe to
    share across callers and workers.
    ``systematic`` (k,) and ``parity`` (n - k,) are the ascending codeword
    positions of the message and parity samples: ``G_sys`` holds the
    identity at the rows ``systematic`` and ``P_gen`` at the rows
    ``parity``.
    """

    spec: CodeSpec
    G: np.ndarray
    H: np.ndarray
    G_sys: np.ndarray
    P_gen: np.ndarray
    zero_rows: tuple[int, ...]
    systematic: np.ndarray
    parity: np.ndarray

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def t(self) -> int:
        return self.spec.t

    def __reduce__(self):
        # Unpickled arrays would come back writable: rebuild the code instead.
        return build_code, (self.n, self.k)


def _dft_rows(n: int, rows) -> np.ndarray:
    """Rows of the unitary DFT matrix, entries (1/sqrt(n)) exp(-j 2 pi m l / n);
    m l is reduced mod n in integers first, so a large n costs no phase
    accuracy."""
    ml = np.outer(rows, np.arange(n)) % n
    return np.exp(-2j * np.pi * ml / n) / np.sqrt(n)


def _real(name: str, matrix: np.ndarray) -> np.ndarray:
    """The real part of a matrix that is real in exact arithmetic."""
    residue = float(np.abs(matrix.imag).max())
    if residue >= _REAL_TOL:
        raise ValueError(
            f"{name} has imaginary residue {residue:.3e} >= {_REAL_TOL:.0e}; "
            "construction is unsound"
        )
    return np.ascontiguousarray(matrix.real)


def _parity_generator(h: np.ndarray, systematic: np.ndarray, parity: np.ndarray) -> np.ndarray:
    """P_gen = -H_P^{-1} H_S; a singular H_P raises LinAlgError."""
    return _real("P_gen", -np.linalg.solve(h[:, parity], h[:, systematic]))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def build_code(n: int, k: int) -> DftCode:
    """The (n, k) code: every matrix built in one float64 pass on the first
    call, and the same read-only instance on later ones.

    The 8 most recently used codes are kept. Each holds
    16 n k + 16 n (n - k) + 8 k (n - k) + 8 n bytes of arrays: 920 for
    (7,5), at most 301 KB for n <= 129 (2.4 MB for 8 of them) and
    16.8 MB for (1023,1013).

    Raises ValueError for an invalid pair, for a G or P_gen that comes
    out complex, or when max |H G_sys| exceeds 1e-10.
    """
    _validate_odd_pair(n, k)  # before the lookup, where 7.0 or True would match 7 or 1
    return _build(int(n), int(k))


@functools.lru_cache(maxsize=8)
def _build(n: int, k: int) -> DftCode:
    """``build_code``'s construction, for a pair it has validated."""
    spec = CodeSpec(n, k)
    half = (k - 1) // 2
    occupied = [*range(half + 1), *range(n - half, n)]  # Sigma's nonzero rows, by column
    zero_rows = tuple(range(half + 1, n - half))
    g = np.sqrt(n / k) * (_dft_rows(n, occupied).conj().T @ _dft_rows(k, range(k)))
    g = _real(f"generator of (n, k) = ({n}, {k})", g)
    h = _dft_rows(n, zero_rows)
    parity = np.arange(n - k) * n // (n - k)
    systematic = np.delete(np.arange(n), parity)
    p_gen = _parity_generator(h, systematic, parity)
    g_sys = np.empty((n, k))
    g_sys[systematic] = np.eye(k)
    g_sys[parity] = p_gen
    residue = float(np.abs(h @ g_sys).max())
    if residue > _REAL_TOL:
        raise ValueError(
            f"(n, k) = ({n}, {k}): systematic generator misses the code, "
            f"max |H G_sys| = {residue:.3e} > {_REAL_TOL:.0e}"
        )
    return DftCode(
        spec=spec,
        G=_freeze(g),
        H=_freeze(h),
        G_sys=_freeze(g_sys),
        P_gen=_freeze(p_gen),
        zero_rows=zero_rows,
        systematic=_freeze(systematic),
        parity=_freeze(parity),
    )


def decode_pseudo_inverse(G: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Least-squares message estimate (k/n) G^T y_hat.

    Because G^T G = (n/k) I, the pseudo-inverse is just a scaled
    transpose; additive noise of variance s2 on the codeword lands on the
    message with per-sample variance (k/n) s2. A complex or non-finite
    y_hat raises ValueError.
    """
    y_hat = np.asarray(y_hat)
    n, k = G.shape
    if y_hat.shape != (n,):
        raise ValueError(f"received vector length {y_hat.shape} does not match n = {n}")
    if np.iscomplexobj(y_hat) or not np.isfinite(y_hat).all():
        raise ValueError("received vector must be real and finite")
    return (k / n) * (G.T @ y_hat)
