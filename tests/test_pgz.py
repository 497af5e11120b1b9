"""PGZ decoder oracles: closed-form syndromes, Hankel count, locator
algebra, grid location, least-squares magnitudes, retry ladder,
noiseless exactness and scale invariance, all read off ``pgz_decode``,
and the closed-form one-unknown solves against LAPACK."""

import numpy as np
import pytest

from dftwz.codes import build_code
from dftwz.pgz import _grid, _locator_system, decode_block, pgz_decode

C75 = build_code(7, 5)
C159 = build_code(15, 9)


def unit_error_syndrome(code, pos, mag=1.0):
    e = np.zeros(code.n)
    e[pos] = mag
    return code.H @ e


def test_syndrome_of_codeword_is_zero(rng):
    m = rng.standard_normal(5)
    s = C75.H @ (C75.G @ m)
    assert np.abs(s).max() < 1e-10


def test_syndrome_unit_error_at_zero_frozen():
    s = unit_error_syndrome(C75, 0)
    np.testing.assert_allclose(s, [1 / np.sqrt(7), 1 / np.sqrt(7)], atol=1e-12)


@pytest.mark.parametrize("pos", range(7))
def test_syndrome_closed_form_vs_matrix(pos):
    mag = 2.3
    s = unit_error_syndrome(C75, pos, mag)
    alpha = np.exp(-2j * np.pi / 7)
    expected = [mag / np.sqrt(7) * alpha ** (z * pos) for z in C75.zero_rows]
    np.testing.assert_allclose(s, expected, atol=1e-12)


def raw_rank(est):
    """The Hankel rank of the count step: the retry ladder steps the count
    down once per retry."""
    return est.count + est.diagnostics.retries


def test_error_count_zero_syndrome():
    assert raw_rank(pgz_decode(C75, np.zeros(2, dtype=complex))) == 0


def test_error_count_single_error():
    s = unit_error_syndrome(C75, 3)
    assert raw_rank(pgz_decode(C75, s, rel_tol=1e-10)) == 1


def test_error_count_hankel_rank_two_errors():
    e = np.zeros(15)
    e[2], e[9] = 1.0, -0.7
    s = C159.H @ e
    assert raw_rank(pgz_decode(C159, s, rel_tol=1e-10)) == 2


def test_error_count_noise_floor_gates_small_syndromes():
    s = np.full(2, 1e-3 + 1e-3j)
    assert raw_rank(pgz_decode(C75, s, rel_tol=1e-2, noise_floor=0.01)) == 0
    assert raw_rank(pgz_decode(C75, s, rel_tol=1e-2, noise_floor=1e-5)) == 1


def test_locator_single_error_ratio():
    s = unit_error_syndrome(C75, 0)
    coeffs = pgz_decode(C75, s, rel_tol=1e-10).locator_coeffs
    np.testing.assert_allclose(coeffs, [s[1] / s[0]], atol=1e-12)
    np.testing.assert_allclose(coeffs, [1.0], atol=1e-12)


@pytest.mark.parametrize("pos", range(7))
def test_locator_single_error_alpha_power(pos):
    s = unit_error_syndrome(C75, pos, mag=-1.4)
    coeffs = pgz_decode(C75, s, rel_tol=1e-10).locator_coeffs
    alpha = np.exp(-2j * np.pi / 7)
    np.testing.assert_allclose(coeffs, [alpha**pos], atol=1e-10)


def test_locator_two_errors_roots():
    i1, i2 = 4, 11
    e = np.zeros(15)
    e[i1], e[i2] = 1.3, 0.8
    coeffs = pgz_decode(C159, C159.H @ e, rel_tol=1e-10).locator_coeffs
    assert coeffs.shape == (2,)
    poly = np.concatenate([-coeffs[::-1], [1.0]])
    alpha = np.exp(-2j * np.pi / 15)
    roots = np.roots(poly)
    expected = sorted([alpha ** (-i1), alpha ** (-i2)], key=lambda z: np.angle(z))
    got = sorted(roots, key=lambda z: np.angle(z))
    np.testing.assert_allclose(got, expected, atol=1e-8)


def test_locate_root_at_zero():
    est = pgz_decode(C75, unit_error_syndrome(C75, 0), rel_tol=1e-10)
    np.testing.assert_allclose(est.locator_coeffs, [1.0], atol=1e-12)
    assert est.locations == (0,)


def test_locate_noiseless_position_five():
    s = unit_error_syndrome(C75, 5)
    est = pgz_decode(C75, s, rel_tol=1e-10)
    assert est.locations == (5,)
    alpha_inv = np.exp(2j * np.pi * 5 / 7)
    poly = np.concatenate([-est.locator_coeffs[::-1], [1.0]])
    assert abs(np.polyval(poly, alpha_inv)) < 1e-12


def test_locate_respects_candidate_set():
    # Same locator, but position 5 excluded: best remaining cell wins.
    s = unit_error_syndrome(C75, 5)
    est = pgz_decode(C75, s, candidate_set=[0, 1, 2, 3], rel_tol=1e-10)
    assert len(est.locations) == 1 and est.locations[0] in (0, 1, 2, 3)


def test_locate_tie_breaks_to_smaller_index():
    # Zero locator coefficients, which no syndrome produces, score every
    # candidate identically.
    chosen = _grid(np.zeros((1, 2), dtype=complex), np.array([2]), np.arange(15), 15)
    assert tuple(chosen[0].nonzero()[0]) == (0, 1)


def test_locate_validates_candidates():
    with pytest.raises(ValueError):
        pgz_decode(C75, unit_error_syndrome(C75, 1), candidate_set=[7])
    # Two errors but one candidate: the ladder starts at one unknown.
    e = np.zeros(15)
    e[2], e[9] = 1.0, -0.7
    est = pgz_decode(C159, C159.H @ e, candidate_set=[1], rel_tol=1e-10)
    assert (est.count, est.diagnostics.retries, est.locations) == (1, 1, (1,))


def test_magnitudes_unit_error():
    est = pgz_decode(C75, unit_error_syndrome(C75, 0), rel_tol=1e-10)
    np.testing.assert_allclose(est.magnitudes, [1.0], atol=1e-10)


def test_magnitudes_roundtrip(rng):
    s = unit_error_syndrome(C75, 2, mag=3.7)
    np.testing.assert_allclose(pgz_decode(C75, s).magnitudes, [3.7], atol=1e-8)
    # Under noise the magnitudes are the least-squares fit over all 2t
    # syndrome components: nudging them only raises the residual.
    e = np.zeros(15)
    e[4], e[11] = 1.3, -0.8
    noisy = C159.H @ e + 1e-3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    est = pgz_decode(C159, noisy)
    assert est.locations == (4, 11)
    a = C159.H[:, list(est.locations)]
    assert est.diagnostics.magnitude_residual == pytest.approx(
        np.linalg.norm(a @ est.magnitudes - noisy), rel=1e-12)
    for step in ([1e-4, 0.0], [0.0, -1e-4], [1e-4, 1e-4]):
        assert np.linalg.norm(a @ (est.magnitudes + step) - noisy) > (
            est.diagnostics.magnitude_residual)


def test_pgz_zero_syndrome_empty_estimate():
    est = pgz_decode(C75, np.zeros(2, dtype=complex))
    assert est.count == 0 and est.locations == () and len(est.magnitudes) == 0


def test_pgz_single_error_exact(rng):
    for _ in range(300):
        pos = int(rng.integers(7))
        mag = float(rng.normal())
        if abs(mag) < 1e-6:
            continue
        est = pgz_decode(C75, unit_error_syndrome(C75, pos, mag), rel_tol=1e-10)
        assert est.locations == (pos,)
        np.testing.assert_allclose(est.magnitudes, [mag], atol=1e-8)


def test_pgz_multi_error_exact(rng):
    for _ in range(300):
        nu = int(rng.integers(1, 4))
        locs = np.sort(rng.choice(15, size=nu, replace=False))
        vals = rng.normal(0, 1, nu)
        if np.abs(vals).min() < 1e-6:
            continue
        e = np.zeros(15)
        e[locs] = vals
        est = pgz_decode(C159, C159.H @ e, rel_tol=1e-10)
        assert est.locations == tuple(int(i) for i in locs)
        np.testing.assert_allclose(est.magnitudes, vals, atol=1e-8)


def test_pgz_retry_ladder_recovers_overestimated_count():
    # One exact error plus a tiny perturbation with an absurdly small
    # rank tolerance inflates nu to t; the locator solve then degenerates
    # and the ladder walks back down to the true single error.
    e = np.zeros(15)
    e[6] = 1.0
    s = C159.H @ e
    noisy = s + 1e-13 * np.ones(6)
    est = pgz_decode(C159, noisy, rel_tol=1e-15)
    assert est.count == 1
    assert est.locations == (6,)
    assert est.diagnostics.retries >= 1


def test_pgz_diagnostics_populated():
    est = pgz_decode(C75, unit_error_syndrome(C75, 4, 2.0), rel_tol=1e-10)
    d = est.diagnostics
    assert len(d.singular_values) == 1
    assert d.magnitude_residual < 1e-10
    assert d.retries == 0


def test_pgz_candidate_restriction():
    # An error outside the candidate set cannot be reported inside it.
    est = pgz_decode(C75, unit_error_syndrome(C75, 6, 1.0), candidate_set=range(5),
                     rel_tol=1e-10)
    assert all(loc < 5 for loc in est.locations)


def test_pgz_reports_the_count_steps_singular_values(rng):
    # The count step's Hankel SVD is the only one: the diagnostics report
    # its singular values, and a syndrome the clean gate passes runs none.
    e = np.zeros(15)
    e[2], e[9] = 1.0, -0.7
    noise = 1e-3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    s = C159.H @ e + noise
    sing = np.linalg.svd(np.array([s[a : a + 3] for a in range(3)]), compute_uv=False)
    est = pgz_decode(C159, s)
    np.testing.assert_array_equal(est.diagnostics.singular_values, sing)
    assert raw_rank(est) == np.sum(sing >= 1e-2 * sing[0])
    gated = pgz_decode(C159, s, noise_floor=10.0)
    assert gated.count == 0
    assert gated.diagnostics.singular_values.shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_syndrome_rejected(bad):
    s = unit_error_syndrome(C75, 3)
    s[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        pgz_decode(C75, s)
    with pytest.raises(ValueError, match="non-finite"):
        decode_block(C75, s[None])


@pytest.mark.parametrize("exponent", [-300, -160, 0, 160, 300])
@pytest.mark.parametrize(
    "code, errors", [(C75, {3: 1.3}), (C159, {5: -0.8}), (C159, {2: 1.0, 9: -0.7})],
    ids=["7-5-one", "15-9-one", "15-9-two"],
)
def test_pgz_decisions_do_not_depend_on_the_syndromes_scale(code, errors, exponent):
    e = np.zeros(code.n)
    e[list(errors)] = list(errors.values())
    s = code.H @ e
    est = pgz_decode(code, s * 10.0**exponent, rel_tol=1e-10)
    assert (est.count, est.locations, est.diagnostics.retries) == (len(errors), tuple(errors), 0)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _one_error_block(code, frames, rng):
    """Syndromes of one error of random size and position each, under
    complex noise of 1e-4, at scales from 1e-3 to 1e3."""
    e = np.zeros((frames, code.n))
    e[np.arange(frames), rng.integers(code.n, size=frames)] = rng.normal(size=frames)
    noise = 1e-4 * _complex_normal(rng, (frames, code.n - code.k))
    return (e @ code.H.T + noise) * 10.0 ** rng.uniform(-3, 3, (frames, 1))


@pytest.mark.parametrize("code", [C75, C159], ids=["7-5", "15-9"])
def test_one_unknown_solves_match_lapack(code, rng):
    # t = 1 counts with |s_0| and a one-unknown locator solves
    # a^H b / a^H a; both must agree with the SVD and least squares they
    # replace, and pick the same support.
    syndromes = np.concatenate(
        [_one_error_block(code, 256, rng), _complex_normal(rng, (256, code.n - code.k))]
    )
    block = decode_block(code, syndromes)
    hankel = syndromes[:, np.add.outer(np.arange(code.t), np.arange(code.t))]
    np.testing.assert_allclose(
        block.singular_values, np.linalg.svd(hankel, compute_uv=False), rtol=1e-12, atol=0)
    rows = (block.count == 1).nonzero()[0]
    assert rows.size >= 200
    a, b = _locator_system(syndromes[rows], 1)
    ref = np.array([np.linalg.lstsq(a_f, b_f, rcond=None)[0] for a_f, b_f in zip(a, b)])
    np.testing.assert_allclose(block.locator[rows, :1], ref, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(
        block.support[rows], _grid(ref, block.count[rows], np.arange(code.n), code.n))
