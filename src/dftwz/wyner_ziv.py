"""Syndrome- and parity-based Wyner-Ziv compression pipelines.

The encoder sends the quantized complex syndrome s_x = Hx of a length-n
source frame (syndrome approach, 2(n-k) real numbers) or the quantized
parity p = P_gen x of a length-k one (parity approach, n-k real
numbers). Both decoders hold side information y = x + e and the message
v, and decode the same DFT-code error from one residual
r = A y - v[pick] = A e - q, q being v's quantization noise, white with
variance step^2/12. For syndrome, A is the real, then the imaginary
parts of H's first t = (n-k)/2 rows, and r is the first half of
Hy - s_x_hat: H's row i is the conjugate of its row 2t-1-i, so the
decoder never reads the message's last t components. For parity,
A = P_gen and r = P_gen y - p_hat. PGZ decodes r's ``lift``, a fixed
real map: for syndrome, the t components of r and then their conjugates
in reverse order; for parity, -H_P r, H_P being H's columns at the
parity positions, which is the syndrome H_S y + H_P p_hat of the noisy
codeword since H_S + H_P P_gen = 0. PGZ searches all n positions for
syndrome and only the systematic ones for parity (parity samples never
carry channel errors). This module owns the mapping: message index i is
codeword position ``code.systematic[i]``, and every support or location
it returns for a parity frame is a message index.

Both pipelines declare a frame clean when every syndrome component sits
below a worst-case quantization-noise bound, and then return the side
information untouched: under perfect correlation this reproduces the
source exactly, which is the whole point of binning.

Otherwise PGZ's support is only the centre of the correction, not the
correction itself. When the error is small, a neighbouring support fits
the quantized data almost as well, and committing to the wrong one costs
about twice the error it should have removed. The decoder therefore fits
least-squares magnitudes to r on A's columns, over PGZ's support and
every support that swaps one of its positions for another candidate, and
takes as e_hat the average of those corrections weighted by each
support's likelihood exp(-rss / (2 step^2/12)) / sqrt(det(A^T A)). Both
pipelines reconstruct x_hat = y - e_hat.

This module is the one place that maps an approach name to what it
sends and how it decodes, through one read-only record per (n, k,
approach), ``_Approach``, built once per process. ``frame_length``,
``tx_samples``, ``noise_floor``, ``encode_block`` and ``decode_block``
(a block of frames as arrays) read its fields, never the name.
``encode`` and ``decode`` run them on a block of one frame and carry
one ``Message`` type, which names its approach.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .codes import DftCode, build_code
from .pgz import ErrorEstimate, PgzBlock, frame_estimate
from .pgz import decode_block as _pgz_decode_block
from .quantize import QuantizerSpec, quantize

__all__ = [
    "APPROACHES",
    "Message",
    "ReconstructionResult",
    "encode",
    "decode",
    "frame_length",
    "tx_samples",
    "compression_ratio",
    "encode_block",
    "decode_block",
    "DecodedBlock",
    "noise_floor",
    "DEFAULT_SYNDROME_RANGE",
    "DEFAULT_PARITY_RANGE",
]

APPROACHES = ("syndrome", "parity")

# Default transmitted-sample quantizer ranges. Syndrome components of a
# unit-variance source stay within a fraction of 1 (unitary H rows), so a
# tight range buys a small step and precise localization. The parity
# samples of the (7,5) code on a rho = 0.9 source have stds 0.97 and
# 1.07; their range trades clip floors (pushing wider) against
# localization noise (pushing narrower). It was set for stds of 1.34,
# before the parity positions were spread, and is kept on purpose:
# retuning it moves every parity cell and is a decision of its own.
DEFAULT_SYNDROME_RANGE = (-1.0, 1.0)
DEFAULT_PARITY_RANGE = (-4.75, 4.75)

# Margin factor on the worst-case noise floors so exact boundary cases
# (error-free frames whose noise meets the bound) still gate to clean.
_FLOOR_MARGIN = 1.0 + 1e-9


@dataclass(frozen=True)
class Message:
    """One frame's quantized samples, n - k of them: the complex syndrome
    Hx for the syndrome approach, its real and imaginary parts each
    reconstruction levels of ``quantizer``, or the parity P_gen x."""

    approach: str
    values: np.ndarray
    quantizer: QuantizerSpec
    bits_used: int
    overloads: int


@dataclass(frozen=True)
class ReconstructionResult:
    """Decoder output; x_hat has length n (syndrome) or k (parity).

    ``error_estimate`` is PGZ's own estimate, the centre of the weighted
    correction that produced ``x_hat``; its magnitudes do not enter
    ``x_hat``.
    """

    x_hat: np.ndarray
    error_estimate: ErrorEstimate


def frame_length(code: DftCode, approach: str) -> int:
    """Source samples per frame: n for the syndrome approach, k for parity."""
    return _approach(code.n, code.k, approach).length


def tx_samples(code: DftCode, approach: str) -> int:
    """Real numbers sent per frame: 2(n-k) syndrome parts or n-k parity samples."""
    return len(_approach(code.n, code.k, approach).sends)


def noise_floor(code: DftCode, approach: str, quantizer: QuantizerSpec) -> float:
    """Worst-case |syndrome component| of the quantization noise on what
    ``approach`` sends: a syndrome's real and imaginary errors are each
    <= step/2; parity's n - k errors enter through entries of magnitude
    1/sqrt(n)."""
    return float(quantizer.step * _approach(code.n, code.k, approach).floor)


def _frames(a: np.ndarray, length: int, approach: str, what: str) -> np.ndarray:
    """``a`` as a C-contiguous float64 (F, length) block of real, finite frames."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        raise ValueError(f"{approach} {what} frames must be real, got {a.dtype}")
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != length:
        raise ValueError(f"{what} frames have shape {a.shape[1:]}, expected ({length},)")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite samples")
    return a


# Each frame's product is computed on its own, so its bits never depend on
# the frames beside it; one BLAS matrix-matrix product's rows would. A
# matrix of at most _EINSUM_ENTRIES entries per frame takes einsum's loop,
# faster there than the BLAS matrix-vector call per frame a larger one takes.
_EINSUM_ENTRIES = 64


def _mv(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """matrix @ v[f] for each row v[f] of v (matrix may be a stack too)."""
    if matrix.shape[-2] * matrix.shape[-1] <= _EINSUM_ENTRIES:
        return np.einsum("...ij,...j->...i", matrix, v)
    return (matrix @ v[..., None])[..., 0]


def _vm(v: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """v[f] @ matrix for each row v[f] of v (matrix may be a stack too)."""
    if matrix.shape[-2] * matrix.shape[-1] <= _EINSUM_ENTRIES:
        return np.einsum("...i,...ij->...j", v, matrix)
    return (v[..., None, :] @ matrix)[..., 0, :]


def _normalized(logw: np.ndarray) -> np.ndarray:
    """Rows of exp(logw) over their sums, shifting ``logw`` in place; a weight
    under e^-708 of its row's largest is 0, sparing exp its slow subnormal path."""
    logw -= functools.reduce(np.maximum, logw.T)[:, None]  # exact, fast on short rows
    w = np.exp(logw, out=np.zeros_like(logw), where=logw > -708.0)
    w /= w.sum(axis=1, keepdims=True)
    return w


class _Approach(NamedTuple):
    """One approach on one (n, k) code, all read-only: the frame length;
    ``sends``, a real row per number sent, whose product with a frame read
    as type ``sent`` is what is sent; ``pick``, the indices into a
    message's real view that the residual r = A y - v[pick] reads;
    ``lift``, real rows whose product with r read as complex is PGZ's
    syndrome; the clean gate's floor per quantizer step, PGZ's candidates,
    and A (rows, N) with A^T A, the squared norms |a|^2 of its columns and
    the nu = 1 operators A / |a|^2 and log(|a|^2) / 2."""

    length: int
    sends: np.ndarray
    sent: type
    pick: np.ndarray
    lift: np.ndarray
    floor: float
    cands: np.ndarray
    matrix: np.ndarray
    gram: np.ndarray
    sq: np.ndarray
    unit: np.ndarray
    half_log_sq: np.ndarray


def _approach(n: int, k: int, approach: str) -> _Approach:
    """``approach``'s record on the (n, k) code, built once per process;
    a name outside APPROACHES raises ValueError."""
    if approach not in APPROACHES:  # before the lookup, which cannot hash a list
        raise ValueError(f"unknown approach {approach!r}: expected one of {APPROACHES}")
    return _build_approach(n, k, approach)


# Two entries per code that build_code keeps, one per approach.
@functools.lru_cache(maxsize=16)
def _build_approach(n: int, k: int, approach: str) -> _Approach:
    """``_approach``'s construction, for a name it has checked."""
    code = build_code(n, k)
    if approach == "syndrome":
        h, eye = code.H[: code.t], np.eye(code.t)
        pick = np.concatenate([np.arange(0, n - k, 2), np.arange(1, n - k, 2)])
        lift = np.block([[eye, 1j * eye], [eye[::-1], -1j * eye[::-1]]])  # s_i; conj(s_i) at 2t-1-i
        head = (n, _rows(code.H), complex, 1.0 / np.sqrt(2.0), np.arange(n),
                np.vstack([h.real, h.imag]), pick, _rows(lift))
    else:  # -H_P r = H_S y + H_P p_hat, as H_S + H_P P_gen = 0
        head = (k, code.P_gen, float, (n - k) / (2.0 * np.sqrt(n)), code.systematic,
                code.P_gen, np.arange(n - k), _rows(-code.H[:, code.parity]))
    length, sends, sent, floor, cands, matrix, pick, lift = head
    sq = (matrix * matrix).sum(axis=0)
    arrays = (matrix, matrix.T @ matrix, sq, matrix / sq, 0.5 * np.log(sq))
    for a in (sends, pick, lift, cands, *arrays):
        a.flags.writeable = False
    return _Approach(length, sends, sent, pick, lift, float(floor * _FLOOR_MARGIN), cands, *arrays)


def _rows(m: np.ndarray) -> np.ndarray:
    """Complex ``m`` as rows Re m_0; Im m_0; ..., a product with which read as complex is m's."""
    return np.stack([m.real, m.imag], axis=1).reshape(2 * len(m), m.shape[1])


def _weighted_errors(
    basis: _Approach, residual: np.ndarray, support: np.ndarray, sizes: np.ndarray,
    noise_var: float,
) -> np.ndarray:
    """Error estimates (F, N) averaged over each frame's PGZ support and
    its single swaps.

    Row f of ``residual`` (F, rows) observes ``A @ e`` through white noise
    of variance ``noise_var``, A being ``basis.matrix``, whose N columns
    are the candidates; row f of ``support`` (F, N) marks PGZ's
    ``sizes[f]`` positions. The supports keep all but one of them (the
    core C) and add any other column c. Each gets least-squares magnitudes
    and the weight exp(-rss / (2 noise_var)) / sqrt(det(A_S^T A_S)), the
    likelihood of the residual with the magnitudes integrated out under a
    flat prior. Each frame's log-weights are shifted to a largest of 0
    before they are normalized, so the per-frame |r|^2 in rss cancels and
    a frame that no support explains still gives finite weights.

    For nu = 1 the core is empty: g_j = a_j.r / |a_j|^2, one product
    r @ (A / |a|^2). For nu >= 2, each (frame, dropped position) pair
    orthonormalizes its core's columns, A_C = Q_C R_C, by nu - 1 rank-one
    Gram-Schmidt steps on the Gram matrix. They leave, for every column c,
    |P_C a_c|^2 = |a_c|^2 - |Q_C^T a_c|^2 and (P_C r).a_c = r.a_c -
    (Q_C^T r).(Q_C^T a_c), P_C being I - Q_C Q_C^T. Support C + {c} fits
    g_c = (P_C r).a_c / |P_C a_c|^2 at c and R_C^-1 Q_C^T (r - g_c a_c) on
    C, with log-weight ((P_C r).a_c g_c + |Q_C^T r|^2) / (2 noise_var)
    - log(|P_C a_c|^2) / 2 - log|det R_C|; so a pair's weighted core
    magnitudes are one triangular solve R_C^-1 (Q_C^T r sum_c w_c -
    Q_C^T A (w g)). Core columns weigh 0, PGZ's own support (which every
    pair reaches) counts once, and a frame's estimate sums its nu pairs'.
    Each pair holds Q_C^T A and five rows of N floats until its weights
    are known: bound F to bound them.
    """
    cols = basis.matrix.shape[1]
    est = np.empty((len(residual), cols))
    for nu in np.bincount(sizes).nonzero()[0]:
        group = (sizes == nu).nonzero()[0]
        if nu == 1:  # g_j = a_j.r / |a_j|^2 for each column j
            g = _vm(residual[group], basis.unit)
            logw = g * g * (basis.sq / (2.0 * noise_var)) - basis.half_log_sq
            est[group] = _normalized(logw) * g
            continue
        locs = np.nonzero(support[group])[1].reshape(len(group), nu)
        frames = len(group)
        # Pair p = f * nu + i is frame f less its i-th position
        kept = np.nonzero(~np.eye(nu, dtype=bool))[1].reshape(nu, nu - 1)
        cores = locs[:, kept].reshape(-1, nu - 1)
        pairs = np.arange(len(cores))
        ra = np.repeat(_vm(residual[group], basis.matrix), nu, axis=0)  # becomes (P_C r).a_c
        sq = np.tile(basis.sq, (len(cores), 1))  # becomes |P_C a_c|^2
        qta = np.empty((len(cores), nu - 1, cols))
        qtr = np.empty((len(cores), nu - 1))
        base = np.zeros(len(cores))  # |Q_C^T r|^2 / (2 noise_var) - log|det R_C|
        for i in range(nu - 1):
            j = cores[:, i]
            norm = np.sqrt(sq[pairs, j])
            row = basis.gram[j]
            for q in qta[:, :i].transpose(1, 0, 2):
                row = row - q[pairs, j, None] * q
            qta[:, i] = row = row / norm[:, None]
            qtr[:, i] = ra[pairs, j] / norm
            ra -= qtr[:, i, None] * row
            sq -= row * row
            sq[pairs, j] = np.inf  # a core column: fit 0, log-weight -inf
            base += qtr[:, i] * qtr[:, i] / (2.0 * noise_var) - np.log(norm)
        g = ra / sq
        logw = ra * g / (2.0 * noise_var) + base[:, None] - 0.5 * np.log(sq)
        # PGZ's support is core i plus position i for every i; count it once
        logw[pairs.reshape(frames, nu)[:, 1:], locs[:, 1:]] = -np.inf
        w = _normalized(logw.reshape(frames, -1)).reshape(-1, cols)
        # A pair's fit: at each added column, that one support's weighted
        # magnitude; at the core's own, the weighted core magnitudes
        fit = w * g
        rhs = qtr * w.sum(axis=1)[:, None] - _mv(qta, fit)
        for i in reversed(range(nu - 1)):  # back-substitution through R_C
            j = cores[:, i]
            fit[pairs, j] = mag = rhs[:, i] / qta[pairs, i, j]
            rhs[:, :i] -= qta[pairs, :i, j] * mag[:, None]
        est[group] = fit.reshape(frames, nu, cols).sum(axis=1)
    return est


def encode_block(
    code: DftCode, approach: str, x: np.ndarray, quantizer: QuantizerSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize what ``approach`` sends of each row x[f] of x: the complex
    syndrome H x[f] (real and imaginary parts apart) or the parity
    P_gen x[f]; returns the levels and each frame's number of clipped
    samples, those outside [lo, hi]."""
    rec = _approach(code.n, code.k, approach)
    parts = _mv(rec.sends, _frames(x, rec.length, approach, "source"))
    overloads = np.count_nonzero((parts < quantizer.lo) | (parts > quantizer.hi), axis=1)
    return quantize(quantizer, parts).view(rec.sent), overloads


class DecodedBlock(NamedTuple):
    """Reconstructions (F, frame length), the syndromes PGZ decoded
    (F, n - k), lifted from the residual, its decisions, and its support
    (F, frame length) over the frame's own indices: codeword positions for
    the syndrome approach, message indices for the parity approach."""

    x_hat: np.ndarray
    syndromes: np.ndarray
    pgz: PgzBlock
    support: np.ndarray


def decode_block(
    code: DftCode, approach: str, values: np.ndarray, quantizer: QuantizerSpec, y: np.ndarray
) -> DecodedBlock:
    """``decode`` for a block: rows of the quantized ``values`` (F, n - k)
    that ``encode_block`` sent against rows of the side information y
    (F, frame length). Values must be complex for the syndrome approach
    and real for parity, and finite; others raise ValueError."""
    rec = _approach(code.n, code.k, approach)
    y = _frames(y, rec.length, approach, "side information")
    values, expected = np.asarray(values), (len(y), code.n - code.k)
    if values.shape != expected:
        raise ValueError(f"message values have shape {values.shape}, expected {expected}")
    if np.iscomplexobj(values) != (rec.sent is complex):
        kind = "complex" if rec.sent is complex else "real"
        raise ValueError(f"{approach} message values must be {kind}, got {values.dtype}")
    if not np.isfinite(values).all():
        raise ValueError(f"{approach} message values have non-finite samples")
    # A Fortran-ordered or strided block has no real view until it is contiguous
    v = np.ascontiguousarray(values, rec.sent).view(np.float64)
    residual = _mv(rec.matrix, y) - v[:, rec.pick]
    syndromes = _mv(rec.lift, residual).view(np.complex128)
    floor = noise_floor(code, approach, quantizer)
    pgz = _pgz_decode_block(code, syndromes, rec.cands, noise_floor=floor)
    support = pgz.support[:, rec.cands]
    x_hat = y.copy()
    fix = pgz.count.nonzero()[0]
    if fix.size:
        x_hat[fix] -= _weighted_errors(
            rec, residual[fix], support[fix], pgz.count[fix], quantizer.sigma_q_sq)
    return DecodedBlock(x_hat, syndromes, pgz, support)


def encode(code: DftCode, approach: str, x: np.ndarray, quantizer: QuantizerSpec) -> Message:
    """Quantize what ``approach`` sends of the frame x: the syndrome Hx,
    real and imaginary parts apart, of a length-n frame, or the parity
    P_gen x of a length-k one."""
    values, overloads = encode_block(code, approach, np.asarray(x)[None], quantizer)
    bits_used = tx_samples(code, approach) * quantizer.bits
    return Message(approach, values[0], quantizer, bits_used, int(overloads[0]))


def decode(code: DftCode, msg: Message, y: np.ndarray) -> ReconstructionResult:
    """Decode ``msg`` against the side information y with the decoder of
    ``msg.approach`` and undo the estimated channel error.

    PGZ runs on the lift of the residual r = A y - v[pick] (module
    docstring), over all n positions for syndrome and over the systematic
    positions for parity (the parity samples carry only quantization
    noise, which the noise floor absorbs), whose locations are message
    indices 0..k-1. PGZ gives the reported ``error_estimate``;
    x_hat = y - e_hat, where e_hat is the likelihood-weighted average over
    PGZ's support and its single swaps described in the module docstring.
    A frame whose syndrome sits entirely below the quantization-noise
    floor is declared clean and returned as y unchanged, preserving exact
    recovery when source and side information coincide. Non-finite side
    information or message values raise ValueError.
    """
    decoded = decode_block(code, msg.approach, msg.values[None], msg.quantizer, np.asarray(y)[None])
    estimate = frame_estimate(code, decoded.syndromes, decoded.pgz)
    locations = tuple(np.flatnonzero(decoded.support[0]).tolist())
    return ReconstructionResult(
        x_hat=decoded.x_hat[0], error_estimate=replace(estimate, locations=locations)
    )


def compression_ratio(code: DftCode, approach: str) -> numbers.Rational:
    """Source samples per transmitted real number, as an exact Fraction:
    n / (2(n-k)) for the syndrome approach, k / (n-k) for parity. The
    annotation names the ABC that numpy has already loaded, so resolving
    it does not import fractions, which loads decimal."""
    from fractions import Fraction  # imported on first use

    return Fraction(frame_length(code, approach), tx_samples(code, approach))
