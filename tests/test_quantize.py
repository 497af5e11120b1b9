"""Midrise quantizer: frozen levels, clipping, idempotence, noise power."""

import numpy as np
import pytest

from dftwz.codes import build_code
from dftwz.quantize import QuantizerSpec, quantize
from dftwz.wyner_ziv import _approach, _mv, encode_block

REF = QuantizerSpec(6, -4.0, 4.0)


def test_step_frozen():
    assert REF.step == 0.125
    assert REF.n_levels == 64
    assert REF.sigma_q_sq == pytest.approx(0.125**2 / 12)


def test_quantize_zero_ties_upward():
    assert quantize(REF, 0.0) == 0.0625


def test_quantize_clips_to_edge_level():
    assert quantize(REF, 5.0) == 3.9375
    assert quantize(REF, -123.0) == -3.9375


def _sent(code, approach, x):
    # What encode_block quantizes: the package's own per-frame products of
    # C-contiguous frames.
    rec = _approach(code.n, code.k, approach)
    return _mv(rec.sends, np.ascontiguousarray(x))


def test_encode_block_counts_clips_per_frame():
    # A clip is a sample outside [lo, hi] = [-4, 4]. Frames of the (7,5)
    # code are solved (least squares, minimum norm) to send chosen values.
    code = build_code(7, 5)
    parities = np.array([[5.0, 0.0], [1.0, -1.0], [9.0, -9.0]])
    xp = np.linalg.lstsq(code.P_gen, parities.T, rcond=None)[0].T
    values, overloads = encode_block(code, "parity", xp, REF)
    assert overloads.tolist() == [1, 0, 2]
    np.testing.assert_array_equal(values, quantize(REF, _sent(code, "parity", xp)))
    # A syndrome is sent as the real and the imaginary parts of its first
    # component, then of its second, each counted apart. A real frame's
    # second syndrome component is the conjugate of its first.
    first = np.array([5.0 + 0.5j, 1.0 - 1.0j, 0.5 - 5.0j, 5.0 + 5.0j])
    h = code.H[0]
    x = np.linalg.lstsq(np.vstack([h.real, h.imag]), np.vstack([first.real, first.imag]),
                        rcond=None)[0].T
    sent = _sent(code, "syndrome", x)
    parts = np.column_stack([first.real, first.imag, first.real, -first.imag])
    np.testing.assert_allclose(sent, parts, atol=1e-12)
    values, overloads = encode_block(code, "syndrome", x, REF)
    assert overloads.tolist() == [2, 0, 2, 4]
    np.testing.assert_array_equal(values, quantize(REF, sent))
    # The edges themselves are in range. A code's products do not land on
    # round edges, so a range is set to end exactly at a frame's parities.
    lo, hi = sorted(_sent(code, "parity", xp[1:2])[0])
    assert encode_block(code, "parity", xp[1:2], QuantizerSpec(6, lo, hi))[1].tolist() == [0]
    inside = QuantizerSpec(6, np.nextafter(lo, 0.0), np.nextafter(hi, 0.0))
    assert encode_block(code, "parity", xp[1:2], inside)[1].tolist() == [2]


def test_levels_grid():
    levels = REF.levels()
    assert len(levels) == 64
    assert levels[0] == -4 + 0.0625
    assert levels[-1] == 4 - 0.0625
    np.testing.assert_allclose(np.diff(levels), 0.125)


def test_quantize_idempotent(rng):
    v = rng.uniform(-5, 5, 1000)
    q1 = quantize(REF, v)
    np.testing.assert_array_equal(quantize(REF, q1), q1)


def test_error_bound_in_range(rng):
    v = rng.uniform(-4, 4, 10000)
    assert np.abs(v - quantize(REF, v)).max() <= REF.step / 2 + 1e-15


def test_output_is_level(rng):
    levels = set(np.round(REF.levels(), 12))
    out = np.round(np.asarray(quantize(REF, rng.uniform(-9, 9, 500))), 12)
    assert set(out) <= levels


def test_noise_power_uniform_regime(rng):
    # In-range uniform input: quantization noise variance = step^2 / 12.
    v = rng.uniform(-4, 4, 10**6)
    noise = v - quantize(REF, v)
    assert np.var(noise) == pytest.approx(REF.sigma_q_sq, rel=0.03)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuantizerSpec(0, -1, 1)
    with pytest.raises(ValueError):
        QuantizerSpec(6, 1.0, 1.0)
    with pytest.raises(ValueError):
        QuantizerSpec(6, 2.0, -2.0)
    with pytest.raises(ValueError):
        QuantizerSpec(6, -np.inf, 1.0)
    # sigma_q^2 = step^2 / 12 must be a positive finite float: 600 bits
    # underflow it to 0, 1100 bits overflow 2**bits, 1e200 overflows step^2.
    for bits, lo, hi in ((600, -4.0, 4.0), (1100, -4.0, 4.0), (6, -1e200, 1e200)):
        with pytest.raises(ValueError, match="sigma_q"):
            QuantizerSpec(bits, lo, hi)


def test_scalar_and_array_shapes():
    # One return type: a float64 array of the input's shape, 0-d included.
    for v in (1.0, np.array(1.0), np.array([1.0, 2.0])):
        out = quantize(REF, v)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.shape == np.shape(v)
