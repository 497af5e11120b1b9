"""Code-construction oracles: frozen patterns, algebraic identities,
systematic-route agreement, pseudo-inverse decoding."""

import numpy as np
import pytest

from dftwz.codes import (
    ROUTE_GAP_MAX,
    CodeSpec,
    _systematic_routes,
    build_code,
    build_sigma,
    decode_pseudo_inverse,
    encode,
)

STANDARD_SPECS = [(3, 1), (7, 5), (15, 9), (31, 25)]


@pytest.mark.parametrize("n,k", [(6, 4), (7, 4), (8, 5), (5, 5), (3, 5), (7, 0), (7, -1)])
def test_spec_rejects_invalid_pairs(n, k):
    with pytest.raises(ValueError):
        CodeSpec(n, k)


def test_spec_t():
    assert CodeSpec(7, 5).t == 1
    assert CodeSpec(15, 9).t == 3
    assert CodeSpec(31, 25).t == 3


def test_sigma_pattern_7_5_frozen():
    pat = build_sigma(CodeSpec(7, 5))
    assert pat.nonzero_positions == frozenset({(0, 0), (1, 1), (2, 2), (6, 4), (5, 3)})
    assert pat.zero_rows == (3, 4)


def test_sigma_pattern_3_1_frozen():
    pat = build_sigma(CodeSpec(3, 1))
    assert pat.nonzero_positions == frozenset({(0, 0)})
    assert pat.zero_rows == (1, 2)


def test_sigma_pattern_15_9_frozen():
    pat = build_sigma(CodeSpec(15, 9))
    assert len(pat.nonzero_positions) == 9
    assert pat.zero_rows == (5, 6, 7, 8, 9, 10)


def test_sigma_rows_single_nonzero():
    pat = build_sigma(CodeSpec(15, 9))
    rows = [r for r, _ in pat.nonzero_positions]
    assert len(rows) == len(set(rows))


def test_generator_3_1_is_ones_column():
    g = build_code(3, 1).G
    np.testing.assert_allclose(g, np.ones((3, 1)), atol=1e-12)


@pytest.mark.parametrize("n,k", STANDARD_SPECS)
def test_algebraic_identities(n, k):
    code = build_code(n, k)
    assert np.abs(code.H @ code.G).max() < 1e-10
    assert np.abs(code.G.T @ code.G - (n / k) * np.eye(k)).max() < 1e-10
    assert np.abs(code.H @ code.H.conj().T - np.eye(n - k)).max() < 1e-10
    assert np.abs(code.H @ code.G_sys).max() < 1e-10
    assert np.isrealobj(code.G) and np.isrealobj(code.G_sys)


@pytest.mark.parametrize("n,k", STANDARD_SPECS)
def test_systematic_identity_block_and_route_gap(n, k):
    code = build_code(n, k)
    np.testing.assert_array_equal(code.G_sys[:k, :], np.eye(k))
    np.testing.assert_array_equal(code.G_sys[k:, :], code.P_gen)
    assert code.route_gap < 1e-8


# The supported range past n = 35: the largest n each n - k builds up to.
RANGE_PAST_35 = {6: 83, 8: 49, 10: 41}


def test_supported_range_builds_and_the_first_pair_past_it_raises():
    for n in range(3, 36, 2):
        for k in range(1, n, 2):
            assert build_code(n, k).route_gap <= ROUTE_GAP_MAX
    for r, n_max in RANGE_PAST_35.items():
        for n in range(37, n_max + 1, 2):
            assert build_code(n, n - r).route_gap <= ROUTE_GAP_MAX
    # n - k <= 4 builds up to at least n = 131; its largest pairs:
    for n, k in [(131, 129), (131, 127)]:
        assert build_code(n, k).route_gap <= ROUTE_GAP_MAX
    past = [(37, 13), (85, 79), (51, 43), (43, 33), (101, 95), (127, 121)]
    for n, k in past:
        with pytest.raises(ValueError, match="outside the supported range"):
            build_code(n, k)


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
        zr = build_sigma(CodeSpec(n, k)).zero_rows
        gaps = [(zr[(i + 1) % len(zr)] - zr[i]) % n for i in range(len(zr))]
        assert sorted(gaps) == [1] * (len(zr) - 1) + [n - len(zr) + 1]


def test_build_systematic_singular_h2_raises():
    # Degenerate handcrafted input: H2 block has rank 1.
    g = np.vstack([np.eye(5), np.zeros((2, 5))])
    h = np.zeros((2, 7), dtype=complex)
    h[:, 5] = 1.0
    h[:, 6] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        _systematic_routes(g, h)


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
        np.testing.assert_allclose(
            decode_pseudo_inverse(code.G, encode(code.G, m)), m, atol=1e-10
        )


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
        y = encode(code.G, m) + rng.uniform(-half, half, 7)
        err += np.mean((decode_pseudo_inverse(code.G, y) - m) ** 2)
    assert err / trials == pytest.approx((5 / 7) * s2, rel=0.1)


def test_decode_pseudo_inverse_dimension_mismatch():
    code = build_code(7, 5)
    with pytest.raises(ValueError):
        decode_pseudo_inverse(code.G, np.zeros(6))
    with pytest.raises(ValueError):
        encode(code.G, np.zeros(4))


def test_arrays_are_readonly():
    code = build_code(7, 5)
    for arr in (code.G, code.H, code.G_sys, code.P_gen):
        with pytest.raises(ValueError):
            arr[0, 0] = 99.0
