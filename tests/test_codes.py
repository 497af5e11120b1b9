"""Code-construction oracles: frozen patterns, algebraic identities,
the systematic layout, pseudo-inverse decoding."""

import pickle

import numpy as np
import pytest

from dftwz import codes
from dftwz.codes import (
    CodeSpec,
    _parity_generator,
    build_code,
    decode_pseudo_inverse,
)

STANDARD_SPECS = [(3, 1), (7, 5), (15, 9), (31, 25)]
# Pairs whose parity block was singular or ill conditioned when the
# parity sat at the last n - k positions.
LARGE_SPECS = [(37, 13), (101, 95), (255, 249)]


def sigma_pattern(n, k):
    """Nonzero (row, column) entries of Sigma = sqrt(k/n) W_n G W_k^H,
    read off the spectrum of G's columns."""
    spectrum = np.fft.fft(build_code(n, k).G, axis=0) / np.sqrt(n)  # W_n G
    w_k = np.fft.fft(np.eye(k)) / np.sqrt(k)
    sigma = np.sqrt(k / n) * spectrum @ w_k.conj().T
    np.testing.assert_allclose(np.abs(sigma), np.abs(sigma).round(), atol=1e-10)
    return frozenset(map(tuple, np.argwhere(np.abs(sigma) > 0.5).tolist()))


@pytest.mark.parametrize("n,k", [(6, 4), (7, 4), (8, 5), (5, 5), (3, 5), (7, 0), (7, -1)])
def test_spec_rejects_invalid_pairs(n, k):
    with pytest.raises(ValueError):
        CodeSpec(n, k)


def test_spec_t():
    assert CodeSpec(7, 5).t == 1
    assert CodeSpec(15, 9).t == 3
    assert CodeSpec(31, 25).t == 3


def test_sigma_pattern_7_5_frozen():
    assert sigma_pattern(7, 5) == frozenset({(0, 0), (1, 1), (2, 2), (6, 4), (5, 3)})
    assert build_code(7, 5).zero_rows == (3, 4)


def test_sigma_pattern_3_1_frozen():
    assert sigma_pattern(3, 1) == frozenset({(0, 0)})
    assert build_code(3, 1).zero_rows == (1, 2)


def test_sigma_pattern_15_9_frozen():
    assert len(sigma_pattern(15, 9)) == 9
    assert build_code(15, 9).zero_rows == (5, 6, 7, 8, 9, 10)


def test_sigma_rows_single_nonzero():
    rows = [r for r, _ in sigma_pattern(15, 9)]
    assert len(rows) == len(set(rows))
    assert set(rows).isdisjoint(build_code(15, 9).zero_rows)


def test_generator_3_1_is_ones_column():
    g = build_code(3, 1).G
    np.testing.assert_allclose(g, np.ones((3, 1)), atol=1e-12)


@pytest.mark.parametrize("n,k", STANDARD_SPECS + LARGE_SPECS)
def test_algebraic_identities(n, k):
    code = build_code(n, k)
    assert np.abs(code.H @ code.G).max() < 1e-10
    assert np.abs(code.G.T @ code.G - (n / k) * np.eye(k)).max() < 1e-10
    assert np.abs(code.H @ code.H.conj().T - np.eye(n - k)).max() < 1e-10
    assert np.abs(code.H @ code.G_sys).max() < 1e-10
    assert np.isrealobj(code.G) and np.isrealobj(code.G_sys)


@pytest.mark.parametrize("n,k", STANDARD_SPECS)
def test_systematic_identity_block_and_route_gap(n, k):
    # The systematic layout, and build_code's own check of it.
    code = build_code(n, k)
    np.testing.assert_array_equal(code.parity, np.arange(n - k) * n // (n - k))
    np.testing.assert_array_equal(np.sort(np.r_[code.systematic, code.parity]), np.arange(n))
    np.testing.assert_array_equal(code.G_sys[code.systematic], np.eye(k))
    np.testing.assert_array_equal(code.G_sys[code.parity], code.P_gen)
    assert np.abs(code.H @ code.G_sys).max() <= 1e-10


def test_parity_check_7_5_closed_form():
    h = build_code(7, 5).H
    ell = np.arange(7)
    np.testing.assert_allclose(h[0], np.exp(-2j * np.pi * 3 * ell / 7) / np.sqrt(7), atol=1e-12)
    np.testing.assert_allclose(h[1], np.exp(-2j * np.pi * 4 * ell / 7) / np.sqrt(7), atol=1e-12)


def test_parity_check_first_column_constant():
    h = build_code(15, 9).H
    np.testing.assert_allclose(h[:, 0], np.full(6, 1 / np.sqrt(15)), atol=1e-12)


def test_spectral_zeros_random_messages(rng):
    code = build_code(15, 9)
    for _ in range(100):
        m = rng.standard_normal(9)
        spectrum = np.fft.fft(code.G @ m) / np.sqrt(15)
        assert np.abs(spectrum[list(code.zero_rows)]).max() < 1e-10


def test_zero_rows_cyclically_contiguous():
    for n, k in STANDARD_SPECS + [(31, 15), (9, 5), (21, 11)]:
        zr = build_code(n, k).zero_rows
        gaps = [(zr[(i + 1) % len(zr)] - zr[i]) % n for i in range(len(zr))]
        assert sorted(gaps) == [1] * (len(zr) - 1) + [n - len(zr) + 1]


def test_build_systematic_singular_h2_raises():
    # Degenerate handcrafted input: the parity block of H has rank 1.
    h = np.zeros((2, 7), dtype=complex)
    h[:, 5] = 1.0
    h[:, 6] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        _parity_generator(h, np.arange(5), np.array([5, 6]))


def test_generator_imaginary_residue_guard():
    # Construction through the real extraction path never trips for valid
    # specs; the guard is exercised via the residue value itself.
    for n, k in STANDARD_SPECS:
        g = build_code(n, k).G
        assert np.isrealobj(g)


def test_encode_decode_roundtrip_noiseless(rng):
    code = build_code(7, 5)
    for _ in range(20):
        m = rng.standard_normal(5)
        np.testing.assert_allclose(decode_pseudo_inverse(code.G, code.G @ m), m, atol=1e-10)


def test_decode_pseudo_inverse_3_1_averaging():
    code = build_code(3, 1)
    a, b, c = 0.03, -0.11, 0.05
    y = np.array([1 + a, 1 + b, 1 + c])
    est = decode_pseudo_inverse(code.G, y)
    np.testing.assert_allclose(est, [1 + (a + b + c) / 3], atol=1e-12)


def test_decode_pseudo_inverse_mse_factor(rng):
    # Additive noise of variance s2 on the codeword lands on the message
    # with variance (k/n) s2; checked loosely here, tightly in acceptance.
    code = build_code(7, 5)
    s2 = 0.125**2 / 12
    half = np.sqrt(3 * s2)
    err = 0.0
    trials = 4000
    for _ in range(trials):
        m = rng.standard_normal(5)
        y = code.G @ m + rng.uniform(-half, half, 7)
        err += np.mean((decode_pseudo_inverse(code.G, y) - m) ** 2)
    assert err / trials == pytest.approx((5 / 7) * s2, rel=0.1)


def test_decode_pseudo_inverse_dimension_mismatch():
    code = build_code(7, 5)
    with pytest.raises(ValueError):
        decode_pseudo_inverse(code.G, np.zeros(6))


@pytest.mark.parametrize("y_hat", [
    pytest.param(np.ones(7) + 1j, id="complex"),  # a cast would decode it as ones(7)
    pytest.param(np.r_[np.ones(6), np.nan], id="nan"),
    pytest.param(np.r_[np.inf, np.ones(6)], id="inf"),
    pytest.param(np.r_[np.ones(3), -np.inf, np.ones(3)], id="-inf"),
])
def test_decode_pseudo_inverse_rejects_complex_or_non_finite_input(y_hat):
    with pytest.raises(ValueError, match="must be real and finite"):
        decode_pseudo_inverse(build_code(7, 5).G, y_hat)


def test_arrays_are_readonly():
    code = build_code(7, 5)
    for arr in (code.G, code.H, code.G_sys, code.P_gen, code.systematic, code.parity):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 99.0


@pytest.mark.parametrize("n,k", [(7, 5), (15, 9)])
def test_pickled_code_stays_readonly_and_equal(n, k):
    # A spawned pool worker receives the sweep's code pickled.
    code = build_code(n, k)
    copy = pickle.loads(pickle.dumps(code))
    assert (copy.spec, copy.zero_rows) == (code.spec, code.zero_rows)
    for name in ("G", "H", "G_sys", "P_gen", "systematic", "parity"):
        arr = getattr(copy, name)
        np.testing.assert_array_equal(arr, getattr(code, name))
        assert arr.dtype == getattr(code, name).dtype
        assert not arr.flags.writeable, name


def test_build_code_shares_one_read_only_instance_per_pair():
    code = build_code(9, 3)
    assert build_code(9, 3) is code
    assert build_code(np.int64(9), np.int64(3)) is code
    assert pickle.loads(pickle.dumps(code)) is code
    for name in ("G", "H", "G_sys", "P_gen", "systematic", "parity"):
        assert not getattr(code, name).flags.writeable, name
    # A value equal to a valid one but of the wrong type is refused, not
    # served from the memo: 9.0 == 9 and True == 1 as keys.
    for n, k in ((9.0, 3), (3, True)):
        with pytest.raises(ValueError, match="integers"):
            build_code(n, k)


def test_build_code_keeps_the_eight_latest_pairs():
    codes._build.cache_clear()
    first = build_code(3, 1)
    later = [build_code(n, 1) for n in range(5, 21, 2)]  # 8 more pairs
    assert codes._build.cache_info().currsize == 8
    assert all(build_code(code.n, 1) is code for code in later)
    rebuilt = build_code(3, 1)  # the least recently used, evicted
    assert rebuilt is not first
    np.testing.assert_array_equal(rebuilt.G, first.G)
