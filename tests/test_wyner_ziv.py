"""Compression pipelines: rate accounting, exact-recovery oracles,
the weighted correction, compression ratios."""

import dataclasses
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dftwz import wyner_ziv
from dftwz.codes import build_code
from dftwz.pgz import pgz_decode
from dftwz.quantize import QuantizerSpec
from dftwz.sources import ChannelSpec, SourceSpec, draw_frames
from dftwz.wyner_ziv import (
    APPROACHES,
    _EINSUM_ENTRIES,
    _approach,
    _mv,
    _vm,
    _weighted_errors,
    compression_ratio,
    decode,
    decode_block,
    encode,
    encode_block,
    frame_length,
    noise_floor,
    tx_samples,
)

C75 = build_code(7, 5)
C159 = build_code(15, 9)
Q_SY = QuantizerSpec(6, -1.0, 1.0)
Q_PA = QuantizerSpec(6, -4.75, 4.75)

# Effectively transparent quantizers for no-quantization oracles.
Q_FINE_SY = QuantizerSpec(28, -1.0, 1.0)
Q_FINE_PA = QuantizerSpec(28, -8.0, 8.0)
Q = {"syndrome": Q_SY, "parity": Q_PA}
Q_FINE = {"syndrome": Q_FINE_SY, "parity": Q_FINE_PA}


def _source_frame(length, rng):
    """One frame of the rho = 0.9 source, drawn without channel errors."""
    return draw_frames(SourceSpec(0.9), length, [(rng, ChannelSpec(0), 1)])[0][0]


def test_syndrome_encode_codeword_near_zero(rng):
    x = C75.G @ rng.standard_normal(5)
    msg = encode(C75, "syndrome", x, Q_SY)
    assert np.abs(msg.values.real).max() <= Q_SY.step
    assert np.abs(msg.values.imag).max() <= Q_SY.step


def test_syndrome_rate_accounting(rng):
    msg = encode(C75, "syndrome", rng.standard_normal(7), Q_SY)
    assert len(msg.values) == 2
    assert msg.bits_used == 2 * (7 - 5) * 6
    assert msg.bits_used // Q_SY.bits == 4  # transmitted real numbers


def test_parity_rate_accounting(rng):
    msg = encode(C75, "parity", rng.standard_normal(5), Q_PA)
    assert len(msg.values) == 2
    assert msg.bits_used == (7 - 5) * 6


def test_parity_of_zero_frame_quantizes_near_zero():
    msg = encode(C75, "parity", np.zeros(5), Q_PA)
    assert np.abs(msg.values).max() <= Q_PA.step


def test_stacked_parity_is_codeword(rng):
    x = rng.standard_normal(5)
    z = np.empty(7)
    z[C75.systematic], z[C75.parity] = x, C75.P_gen @ x
    assert np.abs(C75.H @ z).max() < 1e-10


def test_dimension_validation():
    # Each approach's coders refuse the other's frame length.
    for approach, other in zip(APPROACHES, APPROACHES[::-1]):
        wrong = np.zeros(frame_length(C75, other))
        with pytest.raises(ValueError):
            encode(C75, approach, wrong, Q[approach])
        msg = encode(C75, approach, np.zeros(frame_length(C75, approach)), Q[approach])
        with pytest.raises(ValueError):
            decode(C75, msg, wrong)


def _perfect_correlation_exact(approach, rng):
    """Frames of 500 that ``approach`` recovers bit for bit when y = x."""
    exact = 0
    for _ in range(500):
        x = _source_frame(frame_length(C75, approach), rng)
        res = decode(C75, encode(C75, approach, x, Q[approach]), x.copy())
        exact += bool(np.array_equal(res.x_hat, x))
    return exact


def test_syndrome_perfect_correlation_exact(rng):
    assert _perfect_correlation_exact("syndrome", rng) >= 495


def test_parity_perfect_correlation_exact(rng):
    assert _perfect_correlation_exact("parity", rng) >= 495


def _assert_single_errors_undone(approach, rng):
    # Without quantization, one error anywhere in the frame is located and
    # removed.
    length = frame_length(C75, approach)
    for _ in range(100):
        x = _source_frame(length, rng)
        pos = int(rng.integers(length))
        mag = float(rng.normal())
        if abs(mag) < 1e-3:
            continue
        y = x.copy()
        y[pos] += mag
        res = decode(C75, encode(C75, approach, x, Q_FINE[approach]), y)
        assert res.error_estimate.locations == (pos,)
        np.testing.assert_allclose(res.x_hat, x, atol=1e-6)


def test_syndrome_single_error_no_quantization_exact(rng):
    _assert_single_errors_undone("syndrome", rng)


def test_parity_single_error_no_quantization_exact(rng):
    _assert_single_errors_undone("parity", rng)


def test_two_errors_15_9_no_quantization_exact(rng):
    # (15,9) parity entries reach ~160, so its transparent range is wide.
    q = {"syndrome": QuantizerSpec(28, -2.0, 2.0), "parity": QuantizerSpec(36, -1000.0, 1000.0)}
    for _ in range(50):
        locs = tuple(sorted(int(i) for i in rng.choice(9, size=2, replace=False)))
        mags = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.1, 2.0, size=2)
        x = _source_frame(15, rng)
        y = x.copy()
        y[list(locs)] += mags
        for approach in APPROACHES:
            length = frame_length(C159, approach)
            res = decode(C159, encode(C159, approach, x[:length], q[approach]), y[:length])
            assert res.error_estimate.locations == locs
            np.testing.assert_allclose(res.x_hat, x[:length], atol=1e-6)


def _lifted(code, approach, y, values):
    # PGZ's input as the decoder forms it: the record's residual and lift.
    rec = _approach(code.n, code.k, approach)
    residual = _mv(rec.matrix, y[None]) - values.view(float)[None, rec.pick]
    return _mv(rec.lift, residual).view(complex)[0]


def test_error_estimate_is_pgz_output(rng):
    # The reported estimate is PGZ's own; only x_hat uses the weighting.
    # PGZ's input, lifted from the residual, is Hy - s_x_hat for syndrome
    # and the noisy codeword's syndrome Hz for parity, up to rounding.
    for _ in range(100):
        x = _source_frame(7, rng)
        y = x.copy()
        y[int(rng.integers(7))] += 0.05 * rng.normal()
        msg = encode(C75, "syndrome", x, Q_SY)
        got = decode(C75, msg, y).error_estimate
        syndrome = _lifted(C75, "syndrome", y, msg.values)
        np.testing.assert_allclose(syndrome, C75.H @ y - msg.values, rtol=0, atol=1e-14)
        want = pgz_decode(C75, syndrome, noise_floor=noise_floor(C75, "syndrome", Q_SY))
        assert got.locations == want.locations
        np.testing.assert_array_equal(got.magnitudes, want.magnitudes)
        np.testing.assert_array_equal(got.locator_coeffs, want.locator_coeffs)

        pmsg = encode(C75, "parity", x[:5], Q_PA)
        got = decode(C75, pmsg, y[:5]).error_estimate
        z = np.empty(7)
        z[C75.systematic], z[C75.parity] = y[:5], pmsg.values
        syndrome = _lifted(C75, "parity", y[:5], pmsg.values)
        np.testing.assert_allclose(syndrome, C75.H @ z, rtol=0, atol=1e-14)
        want = pgz_decode(
            C75,
            syndrome,
            candidate_set=C75.systematic,
            noise_floor=noise_floor(C75, "parity", Q_PA),
        )
        # decode reports a parity frame's message indices, PGZ codeword positions
        assert tuple(C75.systematic[list(got.locations)]) == want.locations
        np.testing.assert_array_equal(got.magnitudes, want.magnitudes)
        np.testing.assert_array_equal(got.locator_coeffs, want.locator_coeffs)


def _matrices():
    # name: (product, a 2-D matrix or None, or else the per-frame shape of
    # a stack): real matrices of the records, H's interleaved parts and
    # the lifts among them, on both sides of the einsum / BLAS size rule,
    # 2-D and stacked.
    syn75, syn159 = _approach(7, 5, "syndrome"), _approach(15, 9, "syndrome")
    return {
        "P_gen (7,5)": (_mv, _approach(7, 5, "parity").sends, None),
        "P_gen (31,21)": (_mv, _approach(31, 21, "parity").sends, None),
        "parts of H (7,5)": (_mv, syn75.sends, None),
        "parts of H (15,9)": (_mv, syn159.sends, None),
        "syndrome lift (7,5)": (_mv, syn75.lift, None),
        "syndrome lift (15,9)": (_mv, syn159.lift, None),
        "parity lift (15,9)": (_mv, _approach(15, 9, "parity").lift, None),
        "unit (7,5)": (_vm, syn75.unit, None),
        "unit (15,9)": (_vm, syn159.unit, None),
        "stack 2x15": (_mv, None, (2, 15)),
        "stack 4x31": (_mv, None, (4, 31)),
        "stack 15x2": (_vm, None, (15, 2)),
        "stack 31x4": (_vm, None, (31, 4)),
    }


@pytest.mark.parametrize("name", _matrices())
def test_each_product_row_equals_its_one_row_call(name):
    # Every row of a product over a stack of 1-64 frames, at offsets 0-3
    # into the arrays, equals the call on that row alone bitwise: neither
    # einsum's loop nor the BLAS matrix-vector stack lets a frame's bits
    # depend on the frames beside it or on where its row sits in memory.
    product, matrix, stacked = _matrices()[name]
    rng = np.random.default_rng(11)
    if stacked:
        matrix = rng.normal(size=(67, *stacked))
    rows, cols = matrix.shape[-2:]
    v = rng.normal(size=(67, cols if product is _mv else rows))

    def call(i, j):  # the product of frames i to j - 1
        m = matrix[i:j] if stacked else matrix
        return _mv(m, v[i:j]) if product is _mv else _vm(v[i:j], m)

    one = np.stack([call(i, i + 1)[0] for i in range(67)])
    for frames in range(1, 65):
        for offset in range(4):
            np.testing.assert_array_equal(call(offset, offset + frames), one[offset:][:frames])


def test_products_cover_both_paths_and_read_h_as_complex():
    # The cases above put _mv and _vm, 2-D and stacked, on both sides of
    # the size rule, and H's interleaved parts read as complex are H's
    # products.
    sides = {
        (product, stacked is None, np.prod(stacked or matrix.shape) <= _EINSUM_ENTRIES)
        for product, matrix, stacked in _matrices().values()
    }
    assert len(sides) == 8
    for code in (C75, C159):
        x = np.random.default_rng(3).normal(size=(5, code.n))
        parts = _approach(code.n, code.k, "syndrome").sends
        np.testing.assert_allclose(_mv(parts, x).view(complex), x @ code.H.T, atol=1e-14)


def _direct_correction(basis, r, support, noise_var):
    # The decoders' rule written out: PGZ's support and its single swaps,
    # one least-squares fit and one weight per support.
    cols = basis.shape[1]
    supports = [support] + [
        support[:i] + (c,) + support[i + 1 :]
        for i in range(len(support))
        for c in range(cols)
        if c not in support
    ]
    logw, fits = [], []
    for sup in supports:
        a = basis[:, list(sup)]
        mags = np.linalg.lstsq(a, r, rcond=None)[0]
        rss = np.sum((r - a @ mags) ** 2)
        logw.append(-rss / (2 * noise_var) - 0.5 * np.linalg.slogdet(a.T @ a)[1])
        fit = np.zeros(cols)
        fit[list(sup)] = mags
        fits.append(fit)
    w = np.exp(np.array(logw) - max(logw))
    return w @ np.array(fits) / w.sum()


@pytest.mark.parametrize(
    "code, errors, q_pa", [(C75, 1, Q_PA), (C159, 2, QuantizerSpec(12, -300.0, 300.0))]
)
def test_weighted_correction_matches_direct_fits(rng, code, errors, q_pa):
    n, k, t = code.n, code.k, code.t
    syn_basis = np.vstack([code.H[:t].real, code.H[:t].imag])
    # Both sides round the exponents -rss / (2 sigma_q^2) differently, by
    # about eps * |r|^2 / sigma_q^2, which is 1e-9 for large (15,9) parity
    # residuals.
    tol = dict(rtol=1e-8, atol=1e-9)
    counts = set()
    for _ in range(60):
        x = _source_frame(n, rng)
        y = x.copy()
        y[rng.choice(k, size=errors, replace=False)] += rng.choice([0.5, 10.0]) * rng.normal(
            size=errors
        )

        msg = encode(code, "syndrome", x, Q_SY)
        res = decode(code, msg, y)
        if res.error_estimate.count:
            s_err = (code.H @ y - msg.values)[:t]
            r = np.concatenate([s_err.real, s_err.imag])
            want = y - _direct_correction(
                syn_basis, r, res.error_estimate.locations, Q_SY.sigma_q_sq
            )
            np.testing.assert_allclose(res.x_hat, want, **tol)
            counts.add(res.error_estimate.count)

        pmsg = encode(code, "parity", x[:k], q_pa)
        res = decode(code, pmsg, y[:k])
        if res.error_estimate.count:
            r = code.P_gen @ y[:k] - pmsg.values
            want = y[:k] - _direct_correction(
                code.P_gen, r, res.error_estimate.locations, q_pa.sigma_q_sq
            )
            np.testing.assert_allclose(res.x_hat, want, **tol)
            counts.add(res.error_estimate.count)
    assert counts >= {max(t - 1, 1), t}  # supports of t - 1 and t positions ran


def _weigh_each_row(key, supports, seed):
    # Each row of one call over frames with these PGZ supports, on the
    # basis of the (n, k, approach) decoder ``key``, equals its one-row
    # call bitwise and the decoders' rule written out.
    rng = np.random.default_rng(seed)
    decoder = _approach(*key)
    basis = decoder.matrix
    rows, cols = basis.shape
    residual = np.empty((len(supports), rows))
    mask = np.zeros((len(supports), cols), dtype=bool)
    for f, sup in enumerate(supports):
        mask[f, list(sup)] = True
        e = np.zeros(cols)
        e[list(sup)] = rng.choice([0.05, 0.5], len(sup)) * rng.normal(size=len(sup))
        residual[f] = basis @ e + 0.3 * np.sqrt(Q_SY.sigma_q_sq) * rng.normal(size=rows)
    est = _weighted_errors(decoder, residual, mask, mask.sum(axis=1), Q_SY.sigma_q_sq)
    for f, sup in enumerate(supports):
        one = _weighted_errors(
            decoder, residual[f : f + 1], mask[f : f + 1], np.array([len(sup)]), Q_SY.sigma_q_sq)
        np.testing.assert_array_equal(est[f], one[0])
        want = _direct_correction(basis, residual[f], sup, Q_SY.sigma_q_sq)
        np.testing.assert_allclose(est[f], want, rtol=1e-8, atol=1e-9)


def test_frames_sharing_a_core_through_different_positions():
    # {0, 1, 2} dropping 0 and {1, 2, 5} dropping 5 both reach core (1, 2),
    # each through its own rank-one steps, whose rows must not mix with
    # the others'; {1, 2, 7} and a second {0, 1, 2} reach that core too,
    # {1, 2} is a smaller support, and the one-position frames run beside
    # them.
    supports = [(0, 1, 2), (2,), (1, 2, 5), (3, 4, 6), (1, 2, 7), (0, 1, 2), (1, 2), (9,)]
    _weigh_each_row((15, 9, "syndrome"), supports, 7)


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("n, k, supports, seed", [
    pytest.param(21, 13, [(0, 5, 9), (1, 2, 3, 12), (4, 7, 11), (0, 6, 8, 10), (1, 2, 3)], 9,
                 id="21-13"),
    pytest.param(31, 21, [(2, 9, 14, 20), (0, 1, 5, 11, 17), (3, 4, 6, 19), (7, 8, 10, 13, 16)],
                 10, id="31-21"),
])
def test_deep_cores_weighted_as_the_rule_written_out(approach, n, k, supports, seed):
    # Cores of 2 to 4 positions, orthonormalized by as many rank-one steps:
    # (21,13) with supports of 3 and 4 positions and (31,21) with 4 and 5,
    # some of them runs of adjacent positions.
    _weigh_each_row((n, k, approach), supports, seed)


def test_weights_spanning_more_than_the_exponent_range(rng):
    # Errors of 0.5 to 2 against a tenth of the quantizer's noise
    # variance: a swapped support leaves thousands of nats of residual, so
    # the log-weights of one frame span far more than 708 nats and most
    # weights are cut to 0 rather than taken through exp's slow subnormal
    # path; the estimates still match the rule written out.
    t = C159.t
    basis = np.vstack([C159.H[:t].real, C159.H[:t].imag])
    noise_var = 0.1 * Q_SY.sigma_q_sq
    supports = [(2, 9), (0, 4, 11), (6,), (1, 13), (3, 7, 8)]
    residual = np.empty((len(supports), 2 * t))
    mask = np.zeros((len(supports), C159.n), dtype=bool)
    for f, sup in enumerate(supports):
        mask[f, list(sup)] = True
        e = np.zeros(C159.n)
        e[list(sup)] = rng.uniform(0.5, 2.0, len(sup)) * rng.choice([-1.0, 1.0], len(sup))
        residual[f] = basis @ e + np.sqrt(noise_var) * rng.normal(size=2 * t)
        swaps = [basis[:, list(sup[1:]) + [c]] for c in range(C159.n) if c not in sup]
        fits = [a @ np.linalg.lstsq(a, residual[f], rcond=None)[0] for a in swaps]
        rss = [np.sum((residual[f] - fit) ** 2) for fit in fits]
        assert max(rss) / (2 * noise_var) > 2e3  # swaps that drop sup[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = _weighted_errors(
            _approach(15, 9, "syndrome"), residual, mask, mask.sum(axis=1), noise_var)
    for f, sup in enumerate(supports):
        want = _direct_correction(basis, residual[f], sup, noise_var)
        np.testing.assert_allclose(est[f], want, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("approach", APPROACHES)
def test_single_position_frames_weighted_in_place(approach):
    # One-position supports share the empty core and skip the grouping;
    # interleaved with two-position frames, each keeps its own row.
    _weigh_each_row((15, 9, approach), [(4,), (1, 6), (0,), (4,), (2, 5), (8,), (1, 6), (3,)], 8)


def _best_single_rss(basis, r):
    # Smallest least-squares residual over every one-position support.
    fit = (basis.T @ r) ** 2 / np.sum(basis * basis, axis=0)
    return float(r @ r - fit.max())


def test_unexplained_frame_gives_finite_reconstruction(rng):
    # Two large errors on a t = 1 code: no candidate support explains the
    # residual, and every weight exp(-rss / (2 sigma_q^2)) underflows to 0
    # before normalization.
    x = _source_frame(7, rng)
    y = x.copy()
    y[1] += 30.0
    y[3] -= 40.0

    msg = encode(C75, "syndrome", x, Q_SY)
    s_err = (C75.H @ y - msg.values)[0]
    basis = np.vstack([C75.H[0].real, C75.H[0].imag])
    assert _best_single_rss(basis, np.array([s_err.real, s_err.imag])) > 2e3 * Q_SY.sigma_q_sq
    res = decode(C75, msg, y)
    assert res.error_estimate.count == 1
    assert np.all(np.isfinite(res.x_hat))

    pmsg = encode(C75, "parity", x[:5], Q_PA)
    r = C75.P_gen @ y[:5] - pmsg.values
    assert _best_single_rss(C75.P_gen, r) > 2e3 * Q_PA.sigma_q_sq
    res = decode(C75, pmsg, y[:5])
    assert res.error_estimate.count == 1
    assert np.all(np.isfinite(res.x_hat))


def test_parity_candidates_restricted_to_systematic(rng):
    for _ in range(200):
        x = _source_frame(5, rng)
        y = x.copy()
        y[2] += 2.0
        msg = encode(C75, "parity", x, Q_PA)
        res = decode(C75, msg, y)
        assert all(loc < 5 for loc in res.error_estimate.locations)


def test_noise_floor_values_frozen():
    assert noise_floor(C75, "syndrome", Q_SY) == pytest.approx(Q_SY.step / np.sqrt(2), rel=1e-6)
    assert noise_floor(C75, "parity", Q_PA) == pytest.approx(
        2 * Q_PA.step / (2 * np.sqrt(7)), rel=1e-6
    )


def test_compression_ratios_frozen():
    assert compression_ratio(C75, "syndrome") == Fraction(7, 4)
    assert compression_ratio(C75, "parity") == Fraction(5, 2)
    # Efficiency ratio parity/syndrome = 2k/n.
    assert compression_ratio(C75, "parity") / compression_ratio(C75, "syndrome") == Fraction(10, 7)
    with pytest.raises(ValueError):
        compression_ratio(C75, "hybrid")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frames_rejected(bad):
    frame = np.zeros(7)
    frame[2] = bad
    for approach in APPROACHES:
        length = frame_length(C75, approach)
        with pytest.raises(ValueError, match="non-finite"):
            encode(C75, approach, frame[:length], Q[approach])
        msg = encode(C75, approach, np.zeros(length), Q[approach])
        with pytest.raises(ValueError, match="non-finite"):
            decode(C75, msg, frame[:length])


def test_non_finite_frame_rejects_its_block(rng):
    # One bad frame fails the block with a clear error, not inside LAPACK.
    x = rng.standard_normal((4, 7))
    y = x.copy()
    y[2, 1] = np.nan
    for approach in APPROACHES:
        length = frame_length(C75, approach)
        values, _ = encode_block(C75, approach, x[:, :length], Q[approach])
        with pytest.raises(ValueError, match="non-finite"):
            decode_block(C75, approach, values, Q[approach], y[:, :length])


@pytest.mark.parametrize("approach", APPROACHES)
def test_scalar_decoder_rejects_a_message_of_the_wrong_length(approach):
    # A message carries n - k values; one too few would be broadcast over
    # both syndrome components or both parity positions.
    length = frame_length(C75, approach)
    msg = encode(C75, approach, np.zeros(length), Q[approach])
    short = dataclasses.replace(msg, values=msg.values[:1] + 0.3)
    with pytest.raises(ValueError, match=r"message values have shape \(1, 1\), expected \(1, 2\)"):
        decode(C75, short, np.zeros(length))


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("shape", [(3, 1), (2,), (2, 2), (3, 3)],
                         ids=["one-column", "flat", "two-frames", "three-columns"])
def test_block_decoder_rejects_values_of_the_wrong_shape(approach, shape):
    # Values (F, n - k) for F frames of side information: (3, 1) would be
    # broadcast over both columns and (2,) over every frame, and the
    # others would fail inside numpy with an error that names neither.
    y = np.zeros((3, frame_length(C75, approach)))
    values = np.full(shape, 0.5, dtype=complex if approach == "syndrome" else float)
    with pytest.raises(ValueError, match=re.escape(f"message values have shape {shape}")):
        decode_block(C75, approach, values, Q[approach], y)


@pytest.mark.parametrize("approach", APPROACHES)
def test_block_coders_reject_values_of_the_wrong_kind(approach):
    # A syndrome message is complex and a parity message real; real
    # syndrome values would decode as if every imaginary part were 0, and
    # a complex parity message, source or side information would lose its
    # imaginary parts.
    x = np.zeros((3, frame_length(C75, approach)))
    values, _ = encode_block(C75, approach, x, Q[approach])
    wrong = values.real if np.iscomplexobj(values) else values + 0.5j
    with pytest.raises(ValueError, match=f"^{approach} message values must be "):
        decode_block(C75, approach, wrong, Q[approach], x)
    with pytest.raises(ValueError, match=f"^{approach} source frames must be real"):
        encode_block(C75, approach, x + 0.5j, Q[approach])
    with pytest.raises(ValueError, match=f"^{approach} side information frames must be real"):
        decode_block(C75, approach, values, Q[approach], x + 0.5j)


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_block_decoder_rejects_non_finite_values(approach, bad):
    # Caught up front, with the message values named: inside the decoder an
    # infinite parity value would first warn in a matmul and then fail as a
    # non-finite syndrome.
    x = np.zeros((3, frame_length(C75, approach)))
    values, _ = encode_block(C75, approach, x, Q[approach])
    values[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{approach} message values have non-finite"):
            decode_block(C75, approach, values, Q[approach], x)


def _two_error_block(approach, rng, frames=48):
    # (15,9) frames, what approach sends of them, and side information
    # with two errors each, small enough to be gated clean or large enough
    # to be weighted.
    length = frame_length(C159, approach)
    x = draw_frames(SourceSpec(0.9), length, [(rng, ChannelSpec(0), frames)])[0]
    y = x.copy()
    locs = np.argsort(rng.random((frames, length)), axis=1)[:, :2]
    sizes = rng.choice([0.01, 0.1, 1.0], (frames, 1)) * rng.normal(size=(frames, 2))
    np.put_along_axis(y, locs, np.take_along_axis(y, locs, axis=1) + sizes, axis=1)
    return x, encode_block(C159, approach, x, Q[approach])[0], y


def _assert_blocks_equal(got, want):
    # Every array of two DecodedBlocks, PGZ's decisions among them, bitwise.
    for a, b in zip((*got[:2], *got.pgz, got.support), (*want[:2], *want.pgz, want.support)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("approach", APPROACHES)
def test_non_contiguous_blocks_decode_as_contiguous_ones(rng, approach):
    # A Fortran-ordered or strided block has no real view of its own; the
    # decoder reads it as its C-ordered copy, bit for bit.
    _, values, y = _two_error_block(approach, rng)
    want = decode_block(C159, approach, values, Q[approach], y)
    strided_values = np.repeat(values, 2, axis=1)[:, ::2]
    strided_y = np.repeat(y, 3, axis=0)[::3]
    for v, side in ((np.asfortranarray(values), np.asfortranarray(y)), (strided_values, strided_y)):
        assert not (v.flags.c_contiguous and side.flags.c_contiguous)
        _assert_blocks_equal(decode_block(C159, approach, v, Q[approach], side), want)


def test_a_third_approach_runs_through_the_record(monkeypatch, rng):
    # A name that _build_approach builds as it builds parity's record
    # encodes and decodes through the record alone, with no change to the
    # code, and bit for bit as parity does.
    monkeypatch.setattr(wyner_ziv, "APPROACHES", (*APPROACHES, "relay"))
    x, values, y = _two_error_block("parity", rng)
    for code in (C75, C159):
        for f in (frame_length, tx_samples, compression_ratio):
            assert f(code, "relay") == f(code, "parity")
        assert noise_floor(code, "relay", Q_PA) == noise_floor(code, "parity", Q_PA)
    sent = [encode_block(C159, a, x, Q_PA) for a in ("relay", "parity")]
    for got, want in zip(*sent):
        np.testing.assert_array_equal(got, want)
    want = decode_block(C159, "parity", values, Q_PA, y)
    _assert_blocks_equal(decode_block(C159, "relay", values, Q_PA, y), want)
    got, want = (decode(C159, encode(C159, a, x[0], Q_PA), y[0]) for a in ("relay", "parity"))
    np.testing.assert_array_equal(got.x_hat, want.x_hat)
    assert got.error_estimate.locations == want.error_estimate.locations
    np.testing.assert_array_equal(got.error_estimate.magnitudes, want.error_estimate.magnitudes)


def test_unknown_approach_raises_one_error():
    # Every layer passes the approach name through to wyner_ziv, whose one
    # check names the valid approaches, also for a name that cannot be
    # hashed, which the record's cache would reject with a TypeError.
    x = np.zeros((1, 7))
    for name in ("hybrid", ["syndrome"], {"syndrome": 0}):
        calls = (
            lambda: frame_length(C75, name),
            lambda: tx_samples(C75, name),
            lambda: noise_floor(C75, name, Q_SY),
            lambda: encode_block(C75, name, x, Q_SY),
            lambda: decode_block(C75, name, np.zeros((1, 2)), Q_SY, x),
            lambda: compression_ratio(C75, name),
        )
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {f"unknown approach {name!r}: expected one of ('syndrome', 'parity')"}


def test_reconstruction_result_is_frozen():
    res = decode(C75, encode(C75, "syndrome", np.zeros(7), Q_SY), np.zeros(7))
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.x_hat = np.ones(7)
