"""Midrise quantizer: frozen levels, clipping, idempotence, noise power."""

from types import SimpleNamespace

import numpy as np
import pytest

from dftwz.quantize import QuantizerSpec, quantize
from dftwz.wyner_ziv import encode_block

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


def test_encode_block_counts_clips_per_frame():
    # A clip is a sample outside [lo, hi]; the edges themselves are in range.
    # A stand-in code: the parity approach sends x, the syndrome (1+1j) x.
    code = SimpleNamespace(n=3, k=3, P_gen=np.eye(3), H=(1.0 + 1.0j) * np.eye(3))
    x = np.array([[5.0, 0.0, -4.5], [4.0, -4.0, 0.1], [9.0, 9.0, -9.0]])
    values, overloads = encode_block(code, "parity", x, REF)
    assert overloads.tolist() == [2, 0, 3]
    np.testing.assert_array_equal(values, quantize(REF, x))
    # A complex syndrome counts the real and the imaginary parts apart.
    _, overloads = encode_block(code, "syndrome", x, REF)
    assert overloads.tolist() == [4, 0, 6]


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
    assert isinstance(quantize(REF, 1.0), float)
    out = quantize(REF, np.array([1.0, 2.0]))
    assert out.shape == (2,)
