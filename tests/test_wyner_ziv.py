"""Compression pipelines: rate accounting, exact-recovery oracles,
the weighted correction, compression ratios."""

import dataclasses
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dftwz.codes import build_code
from dftwz.harness import SweepConfig, sweep
from dftwz.pgz import pgz_decode
from dftwz.quantize import QuantizerSpec
from dftwz.sources import ChannelSpec, SourceSpec, draw_frames
from dftwz.wyner_ziv import (
    _basis,
    _extension_fits,
    _weighted_errors,
    compression_ratio,
    decode_block,
    encode_block,
    parity_decode,
    parity_encode,
    parity_noise_floor,
    syndrome_decode,
    syndrome_encode,
    syndrome_noise_floor,
)

C75 = build_code(7, 5)
C159 = build_code(15, 9)
Q_SY = QuantizerSpec(6, -1.0, 1.0)
Q_PA = QuantizerSpec(6, -4.75, 4.75)

# Effectively transparent quantizers for no-quantization oracles.
Q_FINE_SY = QuantizerSpec(28, -1.0, 1.0)
Q_FINE_PA = QuantizerSpec(28, -8.0, 8.0)


def _source_frame(length, rng):
    """One frame of the rho = 0.9 source, drawn without channel errors."""
    return draw_frames(SourceSpec(0.9), length, [(rng, ChannelSpec(0), 1)])[0][0]


def test_syndrome_encode_codeword_near_zero(rng):
    x = C75.G @ rng.standard_normal(5)
    msg = syndrome_encode(C75, x, Q_SY)
    assert np.abs(msg.values.real).max() <= Q_SY.step
    assert np.abs(msg.values.imag).max() <= Q_SY.step


def test_syndrome_rate_accounting(rng):
    msg = syndrome_encode(C75, rng.standard_normal(7), Q_SY)
    assert len(msg.values) == 2
    assert msg.bits_used == 2 * (7 - 5) * 6
    assert msg.bits_used // Q_SY.bits == 4  # transmitted real numbers


def test_parity_rate_accounting(rng):
    msg = parity_encode(C75, rng.standard_normal(5), Q_PA)
    assert len(msg.values) == 2
    assert msg.bits_used == (7 - 5) * 6


def test_parity_of_zero_frame_quantizes_near_zero():
    msg = parity_encode(C75, np.zeros(5), Q_PA)
    assert np.abs(msg.values).max() <= Q_PA.step


def test_stacked_parity_is_codeword(rng):
    x = rng.standard_normal(5)
    z = np.empty(7)
    z[C75.systematic], z[C75.parity] = x, C75.P_gen @ x
    assert np.abs(C75.H @ z).max() < 1e-10


def test_dimension_validation(rng):
    with pytest.raises(ValueError):
        syndrome_encode(C75, np.zeros(5), Q_SY)
    with pytest.raises(ValueError):
        parity_encode(C75, np.zeros(7), Q_PA)
    msg = syndrome_encode(C75, np.zeros(7), Q_SY)
    with pytest.raises(ValueError):
        syndrome_decode(C75, msg, np.zeros(5))
    pmsg = parity_encode(C75, np.zeros(5), Q_PA)
    with pytest.raises(ValueError):
        parity_decode(C75, pmsg, np.zeros(7))


def test_syndrome_perfect_correlation_exact(rng):
    exact = 0
    for _ in range(500):
        x = _source_frame(7, rng)
        msg = syndrome_encode(C75, x, Q_SY)
        res = syndrome_decode(C75, msg, x.copy())
        exact += bool(np.array_equal(res.x_hat, x))
    assert exact >= 495


def test_parity_perfect_correlation_exact(rng):
    exact = 0
    for _ in range(500):
        x = _source_frame(5, rng)
        msg = parity_encode(C75, x, Q_PA)
        res = parity_decode(C75, msg, x.copy())
        exact += bool(np.array_equal(res.x_hat, x))
    assert exact >= 495


def test_syndrome_single_error_no_quantization_exact(rng):
    for _ in range(100):
        x = _source_frame(7, rng)
        pos = int(rng.integers(7))
        mag = float(rng.normal())
        if abs(mag) < 1e-3:
            continue
        y = x.copy()
        y[pos] += mag
        msg = syndrome_encode(C75, x, Q_FINE_SY)
        res = syndrome_decode(C75, msg, y)
        assert res.error_estimate.locations == (pos,)
        np.testing.assert_allclose(res.x_hat, x, atol=1e-6)


def test_parity_single_error_no_quantization_exact(rng):
    for _ in range(100):
        x = _source_frame(5, rng)
        pos = int(rng.integers(5))
        mag = float(rng.normal())
        if abs(mag) < 1e-3:
            continue
        y = x.copy()
        y[pos] += mag
        msg = parity_encode(C75, x, Q_FINE_PA)
        res = parity_decode(C75, msg, y)
        assert res.error_estimate.locations == (pos,)
        np.testing.assert_allclose(res.x_hat, x, atol=1e-6)


def test_two_errors_15_9_no_quantization_exact(rng):
    # (15,9) parity entries reach ~160, so its transparent range is wide.
    q_sy = QuantizerSpec(28, -2.0, 2.0)
    q_pa = QuantizerSpec(36, -1000.0, 1000.0)
    for _ in range(50):
        locs = tuple(sorted(int(i) for i in rng.choice(9, size=2, replace=False)))
        mags = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.1, 2.0, size=2)
        x = _source_frame(15, rng)
        y = x.copy()
        y[list(locs)] += mags
        res = syndrome_decode(C159, syndrome_encode(C159, x, q_sy), y)
        assert res.error_estimate.locations == locs
        np.testing.assert_allclose(res.x_hat, x, atol=1e-6)
        res = parity_decode(C159, parity_encode(C159, x[:9], q_pa), y[:9])
        assert res.error_estimate.locations == locs
        np.testing.assert_allclose(res.x_hat, x[:9], atol=1e-6)


def test_error_estimate_is_pgz_output(rng):
    # The reported estimate is PGZ's own; only x_hat uses the weighting.
    for _ in range(100):
        x = _source_frame(7, rng)
        y = x.copy()
        y[int(rng.integers(7))] += 0.05 * rng.normal()
        msg = syndrome_encode(C75, x, Q_SY)
        got = syndrome_decode(C75, msg, y).error_estimate
        want = pgz_decode(
            C75, C75.H @ y - msg.values, noise_floor=syndrome_noise_floor(C75, Q_SY)
        )
        assert got.locations == want.locations
        np.testing.assert_array_equal(got.magnitudes, want.magnitudes)
        np.testing.assert_array_equal(got.locator_coeffs, want.locator_coeffs)

        pmsg = parity_encode(C75, x[:5], Q_PA)
        got = parity_decode(C75, pmsg, y[:5]).error_estimate
        z = np.empty(7)
        z[C75.systematic], z[C75.parity] = y[:5], pmsg.values
        want = pgz_decode(
            C75,
            C75.H @ z,
            candidate_set=C75.systematic,
            noise_floor=parity_noise_floor(C75, Q_PA),
        )
        # parity_decode reports message indices, PGZ codeword positions
        assert tuple(C75.systematic[list(got.locations)]) == want.locations
        np.testing.assert_array_equal(got.magnitudes, want.magnitudes)
        np.testing.assert_array_equal(got.locator_coeffs, want.locator_coeffs)


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

        msg = syndrome_encode(code, x, Q_SY)
        res = syndrome_decode(code, msg, y)
        if res.error_estimate.count:
            s_err = (code.H @ y - msg.values)[:t]
            r = np.concatenate([s_err.real, s_err.imag])
            want = y - _direct_correction(
                syn_basis, r, res.error_estimate.locations, Q_SY.sigma_q_sq
            )
            np.testing.assert_allclose(res.x_hat, want, **tol)
            counts.add(res.error_estimate.count)

        pmsg = parity_encode(code, x[:k], q_pa)
        res = parity_decode(code, pmsg, y[:k])
        if res.error_estimate.count:
            r = code.P_gen @ y[:k] - pmsg.values
            want = y[:k] - _direct_correction(
                code.P_gen, r, res.error_estimate.locations, q_pa.sigma_q_sq
            )
            np.testing.assert_allclose(res.x_hat, want, **tol)
            counts.add(res.error_estimate.count)
    assert counts >= {max(t - 1, 1), t}  # supports of t - 1 and t positions ran


def _weigh_each_row(basis, supports, seed):
    # Each row of one call over frames with these PGZ supports equals its
    # one-row call bitwise and the decoders' rule written out.
    rng = np.random.default_rng(seed)
    rows, cols = basis.shape
    residual = np.empty((len(supports), rows))
    mask = np.zeros((len(supports), cols), dtype=bool)
    for f, sup in enumerate(supports):
        mask[f, list(sup)] = True
        e = np.zeros(cols)
        e[list(sup)] = rng.choice([0.05, 0.5], len(sup)) * rng.normal(size=len(sup))
        residual[f] = basis @ e + 0.3 * np.sqrt(Q_SY.sigma_q_sq) * rng.normal(size=rows)
    fit = _basis(basis)
    est = _weighted_errors(fit, residual, mask, mask.sum(axis=1), Q_SY.sigma_q_sq)
    for f, sup in enumerate(supports):
        one = _weighted_errors(
            fit, residual[f : f + 1], mask[f : f + 1], np.array([len(sup)]), Q_SY.sigma_q_sq)
        np.testing.assert_array_equal(est[f], one[0])
        want = _direct_correction(basis, residual[f], sup, Q_SY.sigma_q_sq)
        np.testing.assert_allclose(est[f], want, rtol=1e-8, atol=1e-9)


def test_frames_sharing_a_core_through_different_positions():
    # {0, 1, 2} dropping 0 and {1, 2, 5} dropping 5 both reach core (1, 2),
    # so the weighting serves them with one operator; {1, 2, 7} and a
    # second {0, 1, 2} join that core too, {1, 2} is a smaller support, and
    # the one-position frames run beside them.
    t = C159.t
    basis = np.vstack([C159.H[:t].real, C159.H[:t].imag])
    supports = [(0, 1, 2), (2,), (1, 2, 5), (3, 4, 6), (1, 2, 7), (0, 1, 2), (1, 2), (9,)]
    _weigh_each_row(basis, supports, 7)


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
        est = _weighted_errors(_basis(basis), residual, mask, mask.sum(axis=1), noise_var)
    for f, sup in enumerate(supports):
        want = _direct_correction(basis, residual[f], sup, noise_var)
        np.testing.assert_allclose(est[f], want, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("approach", ["syndrome", "parity"])
def test_single_position_frames_weighted_in_place(approach):
    # One-position supports share the empty core and skip the grouping;
    # interleaved with two-position frames, each keeps its own row.
    t = C159.t
    basis = np.vstack([C159.H[:t].real, C159.H[:t].imag]) if approach == "syndrome" else C159.P_gen
    _weigh_each_row(basis, [(4,), (1, 6), (0,), (4,), (2, 5), (8,), (1, 6), (3,)], 8)


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

    msg = syndrome_encode(C75, x, Q_SY)
    s_err = (C75.H @ y - msg.values)[0]
    basis = np.vstack([C75.H[0].real, C75.H[0].imag])
    assert _best_single_rss(basis, np.array([s_err.real, s_err.imag])) > 2e3 * Q_SY.sigma_q_sq
    res = syndrome_decode(C75, msg, y)
    assert res.error_estimate.count == 1
    assert np.all(np.isfinite(res.x_hat))

    pmsg = parity_encode(C75, x[:5], Q_PA)
    r = C75.P_gen @ y[:5] - pmsg.values
    assert _best_single_rss(C75.P_gen, r) > 2e3 * Q_PA.sigma_q_sq
    res = parity_decode(C75, pmsg, y[:5])
    assert res.error_estimate.count == 1
    assert np.all(np.isfinite(res.x_hat))


def test_parity_candidates_restricted_to_systematic(rng):
    for _ in range(200):
        x = _source_frame(5, rng)
        y = x.copy()
        y[2] += 2.0
        msg = parity_encode(C75, x, Q_PA)
        res = parity_decode(C75, msg, y)
        assert all(loc < 5 for loc in res.error_estimate.locations)


def test_noise_floor_values_frozen():
    assert syndrome_noise_floor(C75, Q_SY) == pytest.approx(Q_SY.step / np.sqrt(2), rel=1e-6)
    assert parity_noise_floor(C75, Q_PA) == pytest.approx(
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
    with pytest.raises(ValueError, match="non-finite"):
        syndrome_encode(C75, frame, Q_SY)
    with pytest.raises(ValueError, match="non-finite"):
        parity_encode(C75, frame[:5], Q_PA)
    with pytest.raises(ValueError, match="non-finite"):
        syndrome_decode(C75, syndrome_encode(C75, np.zeros(7), Q_SY), frame)
    with pytest.raises(ValueError, match="non-finite"):
        parity_decode(C75, parity_encode(C75, np.zeros(5), Q_PA), frame[:5])


def test_non_finite_frame_rejects_its_block(rng):
    # One bad frame fails the block with a clear error, not inside LAPACK.
    x = rng.standard_normal((4, 7))
    y = x.copy()
    y[2, 1] = np.nan
    values, _ = encode_block(C75, "syndrome", x, Q_SY)
    with pytest.raises(ValueError, match="non-finite"):
        decode_block(C75, "syndrome", values, Q_SY, y)
    values, _ = encode_block(C75, "parity", x[:, :5], Q_PA)
    with pytest.raises(ValueError, match="non-finite"):
        decode_block(C75, "parity", values, Q_PA, y[:, :5])


@pytest.mark.parametrize("encode, decode, length, quantizer", [
    (syndrome_encode, syndrome_decode, 7, Q_SY), (parity_encode, parity_decode, 5, Q_PA),
], ids=["syndrome", "parity"])
def test_scalar_decoder_rejects_a_message_of_the_wrong_length(encode, decode, length, quantizer):
    # A message carries n - k values; one too few would be broadcast over
    # both syndrome components or both parity positions.
    msg = encode(C75, np.zeros(length), quantizer)
    short = dataclasses.replace(msg, values=msg.values[:1] + 0.3)
    with pytest.raises(ValueError, match=r"message values have shape \(1, 1\), expected \(1, 2\)"):
        decode(C75, short, np.zeros(length))


@pytest.mark.parametrize("approach", ["syndrome", "parity"])
@pytest.mark.parametrize("shape", [(3, 1), (2,), (2, 2), (3, 3)],
                         ids=["one-column", "flat", "two-frames", "three-columns"])
def test_block_decoder_rejects_values_of_the_wrong_shape(approach, shape):
    # Values (F, n - k) for F frames of side information: (3, 1) would be
    # broadcast over both columns and (2,) over every frame, and the
    # others would fail inside numpy with an error that names neither.
    y = np.zeros((3, 7 if approach == "syndrome" else 5))
    values = np.full(shape, 0.5, dtype=complex if approach == "syndrome" else float)
    with pytest.raises(ValueError, match=re.escape(f"message values have shape {shape}")):
        decode_block(C75, approach, values, Q_SY if approach == "syndrome" else Q_PA, y)


def test_unknown_approach_raises_one_error():
    # Every layer passes the approach name through to wyner_ziv, whose one
    # check names the valid approaches.
    x = np.zeros((1, 7))
    calls = (
        lambda: encode_block(C75, "hybrid", x, Q_SY),
        lambda: decode_block(C75, "hybrid", np.zeros((1, 2)), Q_SY, x),
        lambda: compression_ratio(C75, "hybrid"),
    )
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        messages.add(str(info.value))
    assert messages == {"unknown approach 'hybrid': expected one of ('syndrome', 'parity')"}


def test_message_goes_to_its_own_decoder():
    msg = parity_encode(C75, np.zeros(5), Q_PA)
    with pytest.raises(ValueError, match="parity message given to the syndrome decoder"):
        syndrome_decode(C75, msg, np.zeros(7))


def test_reconstruction_result_is_frozen():
    res = syndrome_decode(C75, syndrome_encode(C75, np.zeros(7), Q_SY), np.zeros(7))
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.x_hat = np.ones(7)


def test_extension_fits_hold_every_core_of_a_t3_code():
    # A (31,25) 3-error sweep meets hundreds of cores; each one's fits are
    # built once, so no entry is evicted and rebuilt.
    _extension_fits.cache_clear()
    sweep(SweepConfig(n=31, k=25, errors_per_frame=3, ceqnr_db=(30.0,), frames=512,
                      approaches=("syndrome",), seed=2))
    info = _extension_fits.cache_info()
    assert info.currsize > 256
    assert info.misses == info.currsize


def test_extension_fits_hold_every_core_of_a_t4_code():
    # A (21,13) 4-error syndrome sweep meets over 1,300 cores. Under a smaller
    # bound, a second identical sweep rebuilds the cores the first evicted;
    # with every core held, it builds none.
    cfg = SweepConfig(n=21, k=13, errors_per_frame=4, ceqnr_db=(30.0, 40.0), frames=512,
                      approaches=("syndrome",), seed=3)
    _extension_fits.cache_clear()
    sweep(cfg)
    first = _extension_fits.cache_info()
    sweep(cfg)
    assert _extension_fits.cache_info().misses == first.misses
    assert first.currsize > 1300
