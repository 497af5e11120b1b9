"""Syndrome- and parity-based Wyner-Ziv compression pipelines.

Syndrome approach: the encoder sends the quantized complex syndrome
s_x = Hx of a length-n source frame (2(n-k) real numbers). The decoder
holds side information y = x + e, forms s_e_tilde = Hy - s_x_hat, and
runs PGZ over all n positions.

Parity approach: the encoder sends the quantized parity p = P_gen x of a
length-k source frame (n-k real numbers). The decoder places y at the
code's systematic positions and p_hat at its parity positions to form a
noisy codeword z_tilde, and runs PGZ with candidates restricted to the
systematic positions (parity samples never carry channel errors). This
module owns the mapping: message index i is codeword position
``code.systematic[i]``, and every support or location it returns for a
parity frame is a message index.

Both pipelines declare a frame clean when every syndrome component sits
below a worst-case quantization-noise bound, and then return the side
information untouched: under perfect correlation this reproduces the
source exactly, which is the whole point of binning.

Otherwise PGZ's support is only the centre of the correction, not the
correction itself. When the error is small, a neighbouring support fits
the quantized data almost as well, and committing to the wrong one costs
about twice the error it should have removed. The decoder therefore
writes the residual in coordinates where the transmitted quantization
noise is white with variance step^2/12 (parity: P_gen y - p_hat;
syndrome: real and imaginary parts of the first (n-k)/2 components of
Hy - s_x_hat, the rest being their conjugates), fits least-squares
magnitudes on PGZ's support and on every support that swaps one of its
positions for another candidate, and takes as e_hat the average of those
corrections weighted by each support's likelihood
exp(-rss / (2 step^2/12)) / sqrt(det(A^T A)). Both pipelines reconstruct
x_hat = y - e_hat; they differ only in the basis and the residual that
e_hat is fitted on.

This module is the one place that maps an approach name to what it
sends and how it decodes: ``APPROACHES``, ``frame_length``,
``tx_samples``, ``noise_floor``, and ``encode_block`` and
``decode_block``, which run a block of frames of either approach as
arrays. ``encode`` and ``decode`` run them on a block of one frame and
carry one ``Message`` type, which names its approach.
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


def _is_syndrome(approach: str) -> bool:
    """Whether ``approach`` is the syndrome one; a name outside APPROACHES raises."""
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}: expected one of {APPROACHES}")
    return approach == "syndrome"


def frame_length(code: DftCode, approach: str) -> int:
    """Source samples per frame: n for the syndrome approach, k for parity."""
    return code.n if _is_syndrome(approach) else code.k


def tx_samples(code: DftCode, approach: str) -> int:
    """Real numbers sent per frame: 2(n-k) syndrome parts or n-k parity samples."""
    return (code.n - code.k) * (2 if _is_syndrome(approach) else 1)


def noise_floor(code: DftCode, approach: str, quantizer: QuantizerSpec) -> float:
    """Worst-case |syndrome component| of the quantization noise on what
    ``approach`` sends: a syndrome's real and imaginary errors are each
    <= step/2; parity's n - k errors enter through entries of magnitude
    1/sqrt(n)."""
    if _is_syndrome(approach):
        floor = quantizer.step / np.sqrt(2.0)
    else:
        floor = (code.n - code.k) * quantizer.step / (2.0 * np.sqrt(code.n))
    return float(floor * _FLOOR_MARGIN)


def _frames(a: np.ndarray, code: DftCode, approach: str, what: str) -> np.ndarray:
    """``a`` as a float64 (F, frame length) block of real, finite frames."""
    a, length = np.asarray(a), frame_length(code, approach)
    if np.iscomplexobj(a):
        raise ValueError(f"{approach} {what} frames must be real, got {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if a.ndim != 2 or a.shape[1] != length:
        raise ValueError(f"{what} frames have shape {a.shape[1:]}, expected ({length},)")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite samples")
    return a


# One cache entry per (code, approach, noise variance, core). A code correcting t
# errors has C(N,1) + ... + C(N,t-1) cores over its N candidate columns:
# 1,561 for the (21,13) syndrome basis (N = 21, t = 4) and 377 for its
# parity basis (N = 13). The bound is their sum, so a sweep of both
# approaches of that code, or of one with fewer cores ((31,25): 496 + 325),
# builds each core's fits once. An entry holds rows * M * (nu + rows)
# floats: 5.6 KB for a (15,9) syndrome core of two positions, 13.8 KB
# for a (21,13) one of three; the full (21,13) cache holds 24.6 MB. It
# is not unbounded: (31,21) has 44,002 cores, and 1,938 of its entries of
# up to 32.4 KB hold 63 MB.
@functools.lru_cache(maxsize=1938)
def _extension_fits(
    n: int, k: int, approach: str, noise_var: float, core: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fits of every support ``core + (c,)``, c not in ``core`` (non-empty).

    The columns are those of the (rows, N) residual basis of the (n, k)
    decoder of ``approach``; each core's fits are built once and then
    reused. The M added columns c are the candidates not in ``core``,
    ascending. For each support, with A its columns and P = I - A pinv(A)
    the symmetric projector onto the residual of the fit, the returned
    (rows, M * (nu + rows)) operator maps a residual r (as ``r @ op``) to
    [the nu least-squares magnitudes, core positions first and c last;
    P r / (2 noise_var)], whose dot product with r is rss / (2 noise_var).
    The (M,) log-priors are -log(det(A^T A)) / 2. In both decoders' bases
    every support of at most t positions has full column rank (the
    syndrome basis holds t Vandermonde rows, and P_gen = -H_P^{-1} H_S
    maps independent columns of H through the invertible H_P^{-1}), so
    A^T A is invertible.
    """
    a_all = _decoder(n, k, approach).matrix
    rows = len(a_all)
    supports = [core + (c,) for c in range(a_all.shape[1]) if c not in core]
    a = a_all[:, supports].transpose(1, 0, 2)  # (M, rows, nu)
    pinv = np.linalg.pinv(a)
    ops = np.concatenate([pinv, (np.eye(rows) - a @ pinv) / (2.0 * noise_var)], axis=1)
    ops = np.ascontiguousarray(ops.transpose(2, 0, 1).reshape(rows, -1))
    log_prior = -0.5 * np.linalg.slogdet(a.transpose(0, 2, 1) @ a)[1]
    ops.flags.writeable = log_prior.flags.writeable = False
    return ops, log_prior


# Products over a block are stacks of per-frame matrix-vector products,
# never one matrix-matrix product: BLAS rounds a matrix-matrix product
# differently from a matrix-vector one, and a frame's result must not
# depend on how many frames are decoded beside it.
def _mv(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """matrix @ v[f] for each row v[f] of v (matrix may be a stack too)."""
    return (matrix @ v[..., None])[..., 0]


def _vm(v: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """v[f] @ matrix for each row v[f] of v (matrix may be a stack too)."""
    return (v[..., None, :] @ matrix)[..., 0, :]


def _normalized(logw: np.ndarray) -> np.ndarray:
    """Rows of exp(logw) over their sums, shifting ``logw`` in place; a weight
    under e^-708 of its row's largest is 0, sparing exp its slow subnormal path."""
    logw -= functools.reduce(np.maximum, logw.T)[:, None]  # exact, fast on short rows
    w = np.exp(logw, out=np.zeros_like(logw), where=logw > -708.0)
    w /= w.sum(axis=1, keepdims=True)
    return w


class _Decoder(NamedTuple):
    """PGZ's candidate positions (None: all n), the residual basis
    (rows, N) and what every fit on it reuses: the squared norms |a|^2 of
    its columns, and the read-only nu = 1 operators basis / |a|^2 and
    log(|a|^2) / 2."""

    cands: np.ndarray | None
    matrix: np.ndarray
    sq: np.ndarray
    unit: np.ndarray
    half_log_sq: np.ndarray


# Two entries per code that build_code keeps, one per approach.
@functools.lru_cache(maxsize=16)
def _decoder(n: int, k: int, approach: str) -> _Decoder:
    """The (n, k) decoder of ``approach``, built once per process; its
    basis is the real and imaginary parts of the first t rows of H, or
    P_gen."""
    code = build_code(n, k)
    if _is_syndrome(approach):
        h = code.H[: code.t]
        cands, matrix = None, np.vstack([h.real, h.imag])
    else:
        cands, matrix = code.systematic, code.P_gen
    sq = (matrix * matrix).sum(axis=0)
    arrays = (matrix, sq, matrix / sq, 0.5 * np.log(sq))
    for a in arrays:
        a.flags.writeable = False
    return _Decoder(cands, *arrays)


def _weighted_errors(
    key: tuple[int, int, str], residual: np.ndarray, support: np.ndarray, sizes: np.ndarray,
    noise_var: float,
) -> np.ndarray:
    """Error estimates (F, N) averaged over each frame's PGZ support and
    its single swaps.

    ``key`` is (n, k, approach), naming the decoder whose basis B is
    used. Row f of ``residual`` (F, rows) observes ``B @ e`` through
    white noise of variance ``noise_var``; the candidate positions are the
    N columns of B, and row f of ``support`` (F, N) marks
    PGZ's ``sizes[f]`` positions. The supports are those that keep all but one
    of PGZ's positions (the core) and add any other column. Each gets
    least-squares magnitudes and the weight
    exp(-rss / (2 noise_var)) / sqrt(det(A^T A)): the likelihood of the
    residual with the magnitudes integrated out under a flat prior.
    Weights are normalized after shifting each frame's largest log-weight
    to 0, so a frame that no support explains still gives finite weights.
    Frames are weighted together, one support size at a time. Support {j}
    of a nu = 1 frame is a_j alone, fitted by g_j = a_j.r / |a_j|^2 with
    rss |r|^2 - |a_j|^2 g_j^2, whose |r|^2 cancels in the normalization:
    one product r @ (basis / |a|^2). For nu >= 2, (frame, dropped position)
    pairs are sorted by core, one operator per contiguous slice, and a
    frame's estimate is the sum of its nu pairs' weighted fits. Each pair
    holds M (nu + rows) floats until the weights are known: bound F to
    bound them.
    """
    basis = _decoder(*key)
    rows, cols = basis.matrix.shape
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
        m = cols - nu + 1  # supports per core
        # Pair p = f * nu + i is frame f less its i-th position, keeping row i
        # of ``kept``; in core order, the pairs that share a core are one slice
        # and one operator
        kept = np.nonzero(~np.eye(nu, dtype=bool))[1].reshape(nu, nu - 1)
        cores = locs[:, kept].reshape(-1, nu - 1)
        keys = cores @ cols ** np.arange(nu - 1)
        order = np.argsort(keys, kind="stable")
        bounds = np.r_[0, np.diff(keys[order]).nonzero()[0] + 1, len(order)]
        res = residual[group[order // nu]]
        out = np.empty((len(order), 1, m * (nu + rows)))
        logw = np.empty((len(order), m))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            core = tuple(cores[order[lo]].tolist())
            ops, logw[lo:hi] = _extension_fits(*key, noise_var, core)
            np.matmul(res[lo:hi, None], ops, out=out[lo:hi])
        out = out.reshape(len(order), m, nu + rows)
        logw -= _mv(out[..., nu:], res)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order))
        logw = logw[inverse].reshape(frames, nu * m)
        # PGZ's support ends up in every core's list, at entry s_i - i of
        # core i's block; count it once.
        for i in range(1, nu):
            logw[np.arange(frames), i * m + locs[:, i] - i] = -np.inf
        # Pairs in frame order: a pair's fit is its weighted core magnitudes
        # and, at each added column, that one support's weighted magnitude
        w = _normalized(logw).reshape(-1, m)
        mags = out[inverse, :, :nu]
        del out  # before the frame-order estimates allocate their own
        added = np.ones((len(order), cols), dtype=bool)
        added[np.arange(len(order))[:, None], cores] = False
        pairs = np.empty((len(order), cols))
        pairs[~added] = _vm(w, mags[..., : nu - 1]).ravel()
        pairs[added] = (w * mags[..., nu - 1]).ravel()
        est[group] = pairs.reshape(frames, nu, cols).sum(axis=1)
    return est


def encode_block(
    code: DftCode, approach: str, x: np.ndarray, quantizer: QuantizerSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Quantize what ``approach`` sends of each row x[f] of x: the complex
    syndrome H x[f] (real and imaginary parts apart) or the parity
    P_gen x[f]; returns the levels and each frame's number of clipped
    samples, those outside [lo, hi]."""
    x = _frames(x, code, approach, "source")
    v = _mv(code.H if _is_syndrome(approach) else code.P_gen, x)
    parts = v.view(np.float64)  # a complex row's real and imaginary parts interleaved
    overloads = np.count_nonzero((parts < quantizer.lo) | (parts > quantizer.hi), axis=1)
    return quantize(quantizer, parts).view(v.dtype), overloads


class DecodedBlock(NamedTuple):
    """Reconstructions (F, frame length), the syndromes PGZ decoded
    (F, n - k), its decisions, and its support (F, frame length) over the
    frame's own indices: codeword positions for the syndrome approach,
    message indices for the parity approach."""

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
    and real for parity; the wrong kind raises ValueError."""
    y = _frames(y, code, approach, "side information")
    values, expected = np.asarray(values), (len(y), code.n - code.k)
    if values.shape != expected:
        raise ValueError(f"message values have shape {values.shape}, expected {expected}")
    cands = _decoder(code.n, code.k, approach).cands
    if np.iscomplexobj(values) != (cands is None):
        kind = "complex" if cands is None else "real"
        raise ValueError(f"{approach} message values must be {kind}, got {values.dtype}")
    if cands is None:
        syndromes = _mv(code.H, y) - values
        index, t = slice(None), code.t

        def residual(rows: np.ndarray) -> np.ndarray:
            return np.concatenate([syndromes[rows, :t].real, syndromes[rows, :t].imag], axis=1)
    else:
        z = np.empty((len(y), code.n))
        z[:, code.systematic] = y
        z[:, code.parity] = values
        syndromes = _mv(code.H, z)
        index = cands

        def residual(rows: np.ndarray) -> np.ndarray:
            return _mv(code.P_gen, y[rows]) - values[rows]
    floor = noise_floor(code, approach, quantizer)
    pgz = _pgz_decode_block(code, syndromes, cands, noise_floor=floor)
    support = pgz.support[:, index]
    x_hat = y.copy()
    fix = pgz.count.nonzero()[0]
    if fix.size:
        x_hat[fix] -= _weighted_errors(
            (code.n, code.k, approach), residual(fix), support[fix], pgz.count[fix],
            quantizer.sigma_q_sq)
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

    Syndrome: PGZ runs on s_e_tilde = Hy - s_x_hat over all n positions.
    Parity: PGZ runs on the noisy codeword z_tilde, y at
    ``code.systematic`` and p_hat at ``code.parity``, with candidates
    restricted to the systematic positions (the parity samples carry only
    quantization noise, which the noise floor absorbs); its locations are
    message indices 0..k-1. PGZ gives the reported ``error_estimate``;
    x_hat = y - e_hat, where e_hat is the likelihood-weighted average over
    PGZ's support and its single swaps described in the module docstring.
    A frame whose syndrome sits entirely below the quantization-noise
    floor is declared clean and returned as y unchanged, preserving exact
    recovery when source and side information coincide. Non-finite side
    information raises ValueError.
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
