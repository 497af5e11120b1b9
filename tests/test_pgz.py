"""PGZ decoder oracles: closed-form syndromes, locator algebra, magnitude
solvers, retry ladder, and noiseless exactness."""

import numpy as np
import pytest

from dftwz.codes import build_code
from dftwz.pgz import (
    Syndrome,
    compute_syndrome,
    estimate_error_count,
    estimate_magnitudes,
    locate_errors,
    pgz_decode,
    solve_error_locator,
)

C75 = build_code(7, 5)
C159 = build_code(15, 9)


def unit_error_syndrome(code, pos, mag=1.0):
    e = np.zeros(code.n)
    e[pos] = mag
    return compute_syndrome(code.H, e)


def test_syndrome_of_codeword_is_zero(rng):
    m = rng.standard_normal(5)
    s = compute_syndrome(C75.H, C75.G @ m)
    assert np.abs(s.values).max() < 1e-10


def test_syndrome_unit_error_at_zero_frozen():
    s = unit_error_syndrome(C75, 0)
    np.testing.assert_allclose(s.values, [1 / np.sqrt(7), 1 / np.sqrt(7)], atol=1e-12)


@pytest.mark.parametrize("pos", range(7))
def test_syndrome_closed_form_vs_matrix(pos):
    mag = 2.3
    s = unit_error_syndrome(C75, pos, mag)
    alpha = np.exp(-2j * np.pi / 7)
    expected = [mag / np.sqrt(7) * alpha ** (z * pos) for z in C75.zero_rows]
    np.testing.assert_allclose(s.values, expected, atol=1e-12)


def test_syndrome_dimension_mismatch():
    with pytest.raises(ValueError):
        compute_syndrome(C75.H, np.zeros(6))


def test_error_count_zero_syndrome():
    assert estimate_error_count(Syndrome(np.zeros(2, dtype=complex)), t=1) == 0


def test_error_count_single_error():
    s = unit_error_syndrome(C75, 3)
    assert estimate_error_count(s, t=1, rel_tol=1e-10) == 1


def test_error_count_hankel_rank_two_errors():
    e = np.zeros(15)
    e[2], e[9] = 1.0, -0.7
    s = compute_syndrome(C159.H, e)
    assert estimate_error_count(s, t=3, rel_tol=1e-10) == 2


def test_error_count_noise_floor_gates_small_syndromes():
    s = Syndrome(np.full(2, 1e-3 + 1e-3j))
    assert estimate_error_count(s, t=1, rel_tol=1e-2, noise_floor=0.01) == 0
    assert estimate_error_count(s, t=1, rel_tol=1e-2, noise_floor=1e-5) == 1


def test_locator_single_error_ratio():
    s = unit_error_syndrome(C75, 0)
    coeffs = solve_error_locator(s, 1)
    np.testing.assert_allclose(coeffs, [s.values[1] / s.values[0]], atol=1e-12)
    np.testing.assert_allclose(coeffs, [1.0], atol=1e-12)


@pytest.mark.parametrize("pos", range(7))
def test_locator_single_error_alpha_power(pos):
    s = unit_error_syndrome(C75, pos, mag=-1.4)
    coeffs = solve_error_locator(s, 1)
    alpha = np.exp(-2j * np.pi / 7)
    np.testing.assert_allclose(coeffs, [alpha**pos], atol=1e-10)


def test_locator_two_errors_roots():
    i1, i2 = 4, 11
    e = np.zeros(15)
    e[i1], e[i2] = 1.3, 0.8
    coeffs = solve_error_locator(compute_syndrome(C159.H, e), 2)
    poly = np.concatenate([-coeffs[::-1], [1.0]])
    alpha = np.exp(-2j * np.pi / 15)
    roots = np.roots(poly)
    expected = sorted([alpha ** (-i1), alpha ** (-i2)], key=lambda z: np.angle(z))
    got = sorted(roots, key=lambda z: np.angle(z))
    np.testing.assert_allclose(got, expected, atol=1e-8)


def test_locator_rejects_bad_nu():
    s = unit_error_syndrome(C75, 1)
    with pytest.raises(ValueError):
        solve_error_locator(s, 0)
    with pytest.raises(ValueError):
        solve_error_locator(s, 2)


def test_locator_singular_system_raises():
    with pytest.raises(np.linalg.LinAlgError):
        solve_error_locator(Syndrome(np.zeros(6, dtype=complex)), 2)


def test_locate_root_at_zero():
    locs = locate_errors(np.array([1.0 + 0j]), n=7, nu=1, candidate_set=None)
    assert locs == (0,)


def test_locate_noiseless_position_five():
    s = unit_error_syndrome(C75, 5)
    coeffs = solve_error_locator(s, 1)
    locs = locate_errors(coeffs, 7, 1)
    assert locs == (5,)
    alpha_inv = np.exp(2j * np.pi * 5 / 7)
    poly = np.concatenate([-coeffs[::-1], [1.0]])
    assert abs(np.polyval(poly, alpha_inv)) < 1e-12


def test_locate_respects_candidate_set():
    # Same locator, but position 5 excluded: best remaining cell wins.
    s = unit_error_syndrome(C75, 5)
    coeffs = solve_error_locator(s, 1)
    locs = locate_errors(coeffs, 7, 1, candidate_set=[0, 1, 2, 3])
    assert len(locs) == 1 and locs[0] in (0, 1, 2, 3)


def test_locate_tie_breaks_to_smaller_index():
    # Zero locator coefficients score every candidate identically.
    locs = locate_errors(np.zeros(2, dtype=complex), n=15, nu=2, candidate_set=range(15))
    assert locs == (0, 1)


def test_locate_validates_candidates():
    with pytest.raises(ValueError):
        locate_errors(np.array([1.0 + 0j]), 7, 1, candidate_set=[7])
    with pytest.raises(ValueError):
        locate_errors(np.array([1.0 + 0j]), 7, 2, candidate_set=[1])


def test_magnitudes_unit_error():
    s = unit_error_syndrome(C75, 0)
    np.testing.assert_allclose(estimate_magnitudes(C75, s, [0]), [1.0], atol=1e-10)


@pytest.mark.parametrize("method", ["ls", "exact"])
def test_magnitudes_roundtrip(method):
    s = unit_error_syndrome(C75, 2, mag=3.7)
    np.testing.assert_allclose(
        estimate_magnitudes(C75, s, [2], method=method), [3.7], atol=1e-8
    )


def test_magnitudes_repeated_locations_raise():
    s = unit_error_syndrome(C75, 2)
    with pytest.raises(np.linalg.LinAlgError):
        estimate_magnitudes(C75, s, [2, 2])


def test_magnitudes_unknown_method():
    s = unit_error_syndrome(C75, 2)
    with pytest.raises(ValueError):
        estimate_magnitudes(C75, s, [2], method="qr")


def test_ls_beats_exact_under_quantization_noise(rng):
    # With nu = 2 on the (15,9) code, the least-squares fit uses all six
    # syndrome components; the square subsystem sees only the first two.
    mse = {"ls": 0.0, "exact": 0.0}
    trials = 2000
    for _ in range(trials):
        e = np.zeros(15)
        locs = rng.choice(15, size=2, replace=False)
        vals = rng.normal(0, 1, 2)
        e[locs] = vals
        s = compute_syndrome(C159.H, e)
        noisy = Syndrome(s.values + rng.uniform(-0.01, 0.01, 6) + 1j * rng.uniform(-0.01, 0.01, 6))
        order = np.argsort(locs)
        for method in ("ls", "exact"):
            est = estimate_magnitudes(C159, noisy, list(locs[order]), method=method)
            mse[method] += np.sum((est - vals[order]) ** 2)
    assert mse["ls"] < mse["exact"]


def test_pgz_zero_syndrome_empty_estimate():
    est = pgz_decode(C75, Syndrome(np.zeros(2, dtype=complex)))
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
        est = pgz_decode(C159, compute_syndrome(C159.H, e), rel_tol=1e-10)
        assert est.locations == tuple(int(i) for i in locs)
        np.testing.assert_allclose(est.magnitudes, vals, atol=1e-8)


def test_pgz_retry_ladder_recovers_overestimated_count():
    # One exact error plus a tiny perturbation with an absurdly small
    # rank tolerance inflates nu to t; the locator solve then degenerates
    # and the ladder walks back down to the true single error.
    e = np.zeros(15)
    e[6] = 1.0
    s = compute_syndrome(C159.H, e)
    noisy = Syndrome(s.values + 1e-13 * np.ones(6))
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
    s = compute_syndrome(C159.H, e).values + noise
    sing = np.linalg.svd(np.array([s[a : a + 3] for a in range(3)]), compute_uv=False)
    est = pgz_decode(C159, s)
    np.testing.assert_array_equal(est.diagnostics.singular_values, sing)
    assert est.count == estimate_error_count(s, 3) == np.sum(sing >= 1e-2 * sing[0])
    gated = pgz_decode(C159, s, noise_floor=10.0)
    assert gated.count == 0
    assert gated.diagnostics.singular_values.shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_syndrome_rejected(bad):
    s = unit_error_syndrome(C75, 3).values.copy()
    s[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        pgz_decode(C75, s)
    with pytest.raises(ValueError, match="non-finite"):
        estimate_error_count(s, 1)
