"""PGZ decoder oracles: closed-form syndromes, Hankel count, locator
algebra, grid location, least-squares magnitudes, retry ladder,
noiseless exactness and scale invariance, all read off ``pgz_decode``,
the closed-form t = 2 and t = 3 counts against LAPACK's on rows near
the edges of their band, the closed-form one-unknown solves, the
1 < nu < t QR solves and the nu = t LU solves against LAPACK, the rank
test of a one-unknown system far below its right side, and the domain
of the tolerances."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dftwz import pgz
from dftwz.codes import build_code
from dftwz.pgz import _grid, _grid_points, _locator_system, _solve_locators, decode_block, pgz_decode

C75 = build_code(7, 5)
C159 = build_code(15, 9)
C2113 = build_code(21, 13)
C3125 = build_code(31, 25)
C117 = build_code(11, 7)


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


def _grid_by_argsort(coeffs, count, cands, n):
    # The rule written out: Lambda's values by np.polyval, and a candidate
    # is chosen when its rank in a stable argsort of |Lambda| is < count.
    value = np.array([np.polyval(np.r_[-c[::-1], 1.0], _grid_points(n)[cands]) for c in coeffs])
    return np.argsort(np.argsort(np.abs(value), axis=1, kind="stable"), axis=1) < count[:, None]


@pytest.mark.parametrize("code,parity", [(C75, False), (C75, True), (C159, False), (C159, True)],
                         ids=["7-5", "7-5-parity", "15-9", "15-9-parity"])
def test_grid_ranks_as_a_stable_argsort(code, parity, rng):
    # Counts 0..t in one call over random locators, all-zero and tiny ones
    # (|Lambda| = 1 at every candidate, an exact tie), repeated rows, and
    # locators near the float limit or infinite, whose values overflow to
    # inf or NaN, so that masked picks tie with what is left.
    t, n = code.t, code.n
    cands = code.systematic if parity else np.arange(n)
    coeffs = _complex_normal(rng, (600, t))
    coeffs[100:150] = 0.0
    coeffs[150:200] *= 1e-300
    coeffs[200:300] = coeffs[300:400]
    coeffs[400:500] = 1.5e308 * np.exp(2j * np.pi * rng.random((100, t)))
    coeffs[450:500, -1] = np.inf
    count = rng.integers(0, t + 1, len(coeffs))
    count[400:500] = t
    with np.errstate(over="ignore", invalid="ignore"):
        want = _grid_by_argsort(coeffs, count, cands, n)
        np.testing.assert_array_equal(_grid(coeffs, count, cands, n), want)
        value = np.abs([np.polyval(np.r_[-c[::-1], 1.0], _grid_points(n)[cands]) for c in coeffs])
    assert np.array_equal(want.sum(axis=1), count)
    assert np.all(value[100:200] == 1.0)
    assert np.isinf(value[400:500]).any()
    assert np.isnan(value[400:500]).any() == (t > 1)


def _near_boundaries(n, cands, rows, rng):
    """Degree-1 locators Lambda_1 of |Lambda_1| log-uniform in 1e-12..1e12
    whose angles lie 1e-14..1e-1 half-bins (pi / n) to either side of a
    boundary between circularly adjacent candidates, at the angle
    -pi (c_a + c_b) / n; then Lambda_1 = 0, infinite, huge and NaN."""
    pairs = np.c_[cands, np.r_[cands[1:], cands[0] + n]]
    mid = pairs[rng.integers(len(pairs), size=rows)].sum(axis=1)
    off = 10.0 ** rng.uniform(-14, -1, rows) * rng.choice([-1.0, 1.0], rows)
    size = 10.0 ** rng.uniform(-12, 12, rows)
    lam = size * np.exp(-1j * np.pi * (mid + off) / n)
    return np.r_[lam, 0.0, np.inf, complex(np.inf, np.inf), 1.5e308, -1.5e308j, np.nan]


def _misplaced(n, rng):
    """Decided one-error locations that differ from the grid's pick, and
    rows decided and left to the grid, over full and systematic candidate
    sets of n points."""
    wrong = decided = undecided = 0
    for cands in (np.arange(n), np.delete(np.arange(n), np.arange(4) * n // 4)):
        lam = _near_boundaries(n, cands, 4096 if n < 1000 else 2048, rng)
        pos = pgz._nearest(lam, cands, n)
        with np.errstate(over="ignore", invalid="ignore"):
            want = cands[_grid(lam[:, None], np.ones(len(lam), int), cands, n).argmax(axis=1)]
        assert np.all(pos[-6:] == -1)  # 0, inf, 1.5e308, NaN: the grid's rule
        hit = pos >= 0
        wrong += np.count_nonzero(pos[hit] != want[hit])
        decided, undecided = decided + hit.sum(), undecided + (~hit).sum()
    return wrong, decided, undecided


def test_one_error_location_is_the_grids_outside_its_band(monkeypatch):
    # The angle rule decides a degree-1 locator only outside its band
    # around each boundary, where the grid's rounding cannot move the
    # pick. With a band 2^8 narrower the same locators are misplaced, so
    # they reach the band's edge.
    rng = np.random.default_rng(35)
    sizes = (7, 15, 31, 63, 127, 255, 1023)
    for n in sizes:
        wrong, decided, undecided = _misplaced(n, rng)
        assert wrong == 0 and decided > 500 and undecided > 500, n
    monkeypatch.setattr(pgz, "_LOCATION_BAND", pgz._LOCATION_BAND / 2**8)
    rng = np.random.default_rng(35)
    assert sum(_misplaced(n, rng)[0] for n in sizes) > 0


@pytest.mark.parametrize("code", [C75, C159], ids=["7-5", "15-9"])
def test_one_error_rows_reach_the_grid_only_inside_the_band(code, monkeypatch):
    # Geometric syndromes s_m = c beta^m count 1 error with Lambda_1 =
    # beta. At -arg beta = 2 pi i / n, on candidate i, and at 2 pi (i +
    # 1/4) / n, halfway to a boundary, the angle decides each row; the
    # rows at a boundary, pi (2i + 1) / n, and only they, go to the grid.
    n, m = code.n, np.arange(2 * code.t)
    rng = np.random.default_rng(n)
    turns = np.r_[np.arange(n) + 0.25, np.arange(n) + 0.5, np.arange(n)]
    scale = 10.0 ** rng.uniform(-3, 3, (3 * n, 1)) * np.exp(2j * np.pi * rng.random((3 * n, 1)))
    syndromes = scale * np.exp(-2j * np.pi * turns[:, None] * m / n)
    rows, real_grid = [], pgz._grid

    def grid(coeffs, count, cands, n):
        rows.append(coeffs.copy())
        return real_grid(coeffs, count, cands, n)

    monkeypatch.setattr(pgz, "_grid", grid)
    block = decode_block(code, syndromes[np.r_[:n, 2 * n:3 * n]])
    assert rows == [] and np.all(block.count == 1)
    np.testing.assert_array_equal(block.support.nonzero()[1], np.r_[np.arange(n), np.arange(n)])
    block = decode_block(code, syndromes)
    assert np.all(block.count == 1) and len(rows) == 1
    np.testing.assert_array_equal(rows[0], block.locator[n:2 * n])
    assert np.all(block.support.sum(axis=1) == 1)


def test_locate_validates_candidates():
    with pytest.raises(ValueError):
        pgz_decode(C75, unit_error_syndrome(C75, 1), candidate_set=[7])
    # Non-integer entries are refused, not truncated: int(-0.5) == 0 would
    # pass the range check, and a bool is no position.
    for bad in ([2.7, 3.2], [3, -0.5], [1, True], np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="candidate_set"):
            pgz_decode(C75, unit_error_syndrome(C75, 1), candidate_set=bad)
    # Integers pass, from any iterable, a one-shot generator included.
    for good in ([1, 4], np.array([4, 1]), (i for i in range(7))):
        est = pgz_decode(C75, unit_error_syndrome(C75, 1), candidate_set=good, rel_tol=1e-10)
        assert est.locations == (1,)
    # Two errors but one candidate: the ladder starts at one unknown.
    e = np.zeros(15)
    e[2], e[9] = 1.0, -0.7
    est = pgz_decode(C159, C159.H @ e, candidate_set=[1], rel_tol=1e-10)
    assert (est.count, est.diagnostics.retries, est.locations) == (1, 1, (1,))


@pytest.mark.parametrize(
    "empty", [[], (), np.array([], dtype=np.int64), (i for i in ())],
    ids=["list", "tuple", "array", "generator"])
def test_empty_candidate_set_rejected(empty):
    # No candidate can hold an error: a count of 0 with the true count
    # booked as retries would be a wrong answer, not an estimate.
    with pytest.raises(ValueError, match="^candidate_set must hold one or more indices in 0..6"):
        pgz_decode(C75, unit_error_syndrome(C75, 1), candidate_set=empty)
    with pytest.raises(ValueError, match="^candidate_set must hold one or more indices in 0..14"):
        decode_block(C159, np.ones((2, 6)), candidate_set=empty)


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
    assert d.magnitude_residual < 1e-10
    assert d.retries == 0


def test_pgz_candidate_restriction():
    # An error outside the candidate set cannot be reported inside it.
    est = pgz_decode(C75, unit_error_syndrome(C75, 6, 1.0), candidate_set=range(5),
                     rel_tol=1e-10)
    assert all(loc < 5 for loc in est.locations)


def test_parity_candidates_as_array_list_or_generator_decide_alike(rng):
    # A code's systematic array passes through unchecked; the same indices
    # as a list or a one-shot generator go through the full check. Noisy
    # codewords of 0, 1 and 2 errors at systematic positions give every
    # field of the block something to hold.
    code = C159
    frames = 60
    z = rng.standard_normal((frames, code.k)) @ code.G_sys.T
    for f in range(frames):
        z[f, rng.choice(code.systematic, size=f % 3, replace=False)] += rng.normal(size=f % 3)
    syndromes = (z + 1e-3 * rng.standard_normal(z.shape)) @ code.H.T
    blocks = [
        decode_block(code, syndromes, cands, noise_floor=0.01)
        for cands in (code.systematic, code.systematic.tolist(), (int(i) for i in code.systematic))
    ]
    assert set(blocks[0].count.tolist()) == {0, 1, 2}
    for block in blocks[1:]:
        for got, want in zip(block, blocks[0]):
            np.testing.assert_array_equal(got, want)


def _two_error_syndrome(rng):
    """A (15,9) syndrome of two errors under complex noise of 1e-3."""
    e = np.zeros(15)
    e[2], e[9] = 1.0, -0.7
    return C159.H @ e + 1e-3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))


def test_pgz_reports_the_count_steps_singular_values(rng):
    # count + retries is the count step's Hankel rank, that of the
    # singular values; a syndrome the clean gate passes counts 0.
    s = _two_error_syndrome(rng)
    sing = np.linalg.svd(np.array([s[a : a + 3] for a in range(3)]), compute_uv=False)
    est = pgz_decode(C159, s)
    assert raw_rank(est) == np.sum(sing >= 1e-2 * sing[0])
    gated = pgz_decode(C159, s, noise_floor=10.0)
    assert gated.count == 0


def test_scalar_pgz_runs_the_count_steps_svd_alone(rng, monkeypatch):
    # A live one-frame block of a t = 3 code counts by one Hankel SVD, and
    # the magnitudes run none; a syndrome the clean gate passes runs none.
    s = _two_error_syndrome(rng)
    calls, real_svd = [], np.linalg.svd

    def svd(*args, **kwargs):
        calls.append(args[0])
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    assert pgz_decode(C159, s).locations == (2, 9)
    assert len(calls) == 1
    calls.clear()
    assert pgz_decode(C159, s, noise_floor=10.0).count == 0
    assert calls == []


def test_block_count_is_each_rows_hankel_rank(rng):
    # A block's counts are taken column by column; each must equal its
    # row's own Hankel rank, 0 to t, as an integer: adding bool columns
    # would OR them and read every nonzero rank as 1.
    errors = np.zeros((64, 15))
    for f in range(64):
        errors[f, rng.choice(15, f % 4, replace=False)] = rng.uniform(0.5, 2.0, f % 4)
    noise = 1e-6 * (rng.standard_normal((64, 6)) + 1j * rng.standard_normal((64, 6)))
    syndromes = errors @ C159.H.T + noise * (errors.any(axis=1)[:, None])
    block = decode_block(C159, syndromes)
    ranks = []
    for s in syndromes:
        sing = np.linalg.svd(np.array([s[a : a + 3] for a in range(3)]), compute_uv=False)
        ranks.append(int(np.sum(sing >= 1e-2 * sing[0])) if sing[0] > 0.0 else 0)
    assert block.count.dtype == np.int_
    np.testing.assert_array_equal(block.count + block.retries, ranks)
    assert sorted(set(ranks)) == [0, 1, 2, 3]


def _hankel_syndrome(sing, rng):
    """A syndrome of length 2t, t = len(sing) = 2 or 3, whose t x t Hankel
    matrix has the singular values ``sing``, largest first. Its first
    2t - 1 components, with the odd ones zero, make the Hankel matrix a
    block diagonal of [[a, c], [c, b]] = R diag(x, -y) R^T, R a rotation,
    and of c = z (t = 3); a phase e^{j psi} times w^m on component m
    (|w| = 1) keeps the singular values."""
    if len(sing) == 2:
        parts = [sing[0], 0.0, -sing[1]]
    else:
        x, y, z = sing
        half = 0.5 * np.arcsin(min(1.0, 2.0 * z / (x + y))) if x + y > 0.0 else 0.0
        c, s = np.cos(half), np.sin(half)
        parts = [x * c * c - y * s * s, 0.0, z, 0.0, x * s * s - y * c * c]
    turn = np.exp(2j * np.pi * rng.uniform(size=2))
    return np.append(np.array(parts) * turn[0] * turn[1] ** np.arange(len(parts)), rng.normal())


def _count_cases(code, rel_tol, rng):
    """Rows of a block whose count the closed form must get right: one
    singular value within 1e-6 relative of rel_tol sigma_0; near-double
    and near-triple eigenvalues; noiseless syndromes of 0 to t errors
    (rank-deficient Hankel matrices) and noisy ones; complex normal rows;
    the same scaled by 1e300 and 1e-300, and a subnormal one; an all-zero
    row, and a row whose Hankel matrix alone is zero."""
    t, rows = code.t, []
    for _ in range(4):
        sing = np.sort(rng.uniform(0.0, 1.0, t))[::-1]
        sing[0] = 1.0
        sing[rng.integers(1, t)] = rel_tol * (1.0 + rng.choice([-1, 1]) * 10.0 ** -rng.uniform(6, 16))
        rows.append(_hankel_syndrome(np.sort(sing)[::-1], rng))
    for gap in 10.0 ** -rng.uniform(2.0, 16.0, 4):
        for sing in ([1.0, 1.0 - gap, rng.uniform(0.0, 0.5)], [1.0, 0.5, 0.5 * (1.0 - gap)],
                     [1.0, 1.0 - gap, 1.0 - 2.0 * gap]):
            rows.append(_hankel_syndrome(np.array(sing[:t]), rng))
    for nu in range(t + 1):
        e = np.zeros((3, code.n))
        for row in e:
            row[rng.choice(code.n, size=nu, replace=False)] = rng.uniform(0.5, 2.0, nu)
        rows.extend(e @ code.H.T)
        rows.extend(e @ code.H.T + 10.0 ** -rng.uniform(3, 12) * _complex_normal(rng, (3, 2 * t)))
    rows.extend(_complex_normal(rng, (4, 2 * t)))
    rows = np.array(rows)
    zero_hankel = np.zeros(2 * t, dtype=complex)
    zero_hankel[-1] = 1.0
    extremes = [rows[rng.integers(len(rows))] * scale for scale in (1e300, 1e-300, 1e-310)]
    return np.concatenate([rows, extremes, [np.zeros(2 * t), zero_hankel]])


@given(
    code=st.sampled_from([C117, C159, C3125]),
    rel_tol=st.sampled_from([0.0, 1e-10, 1e-2, 0.999]),
    seed=st.integers(0, 2**32 - 1),
)
def test_count_is_the_svds_on_rows_near_its_edges(code, rel_tol, seed):
    # The count step decode_block runs must give the count LAPACK's
    # singular values give, int(sum(sigma >= rel_tol sigma_0)) if
    # sigma_0 > 0 else 0, on rows near every edge of the closed form's
    # band, in a block and row by row, with small blocks let into the
    # closed form too; it must decide some rows itself.
    rng = np.random.default_rng(seed)
    rows = _count_cases(code, rel_tol, rng)
    sing = np.linalg.svd(rows[:, np.add.outer(np.arange(code.t), np.arange(code.t))],
                         compute_uv=False)
    want = np.where(sing[:, 0] > 0.0, np.sum(sing >= rel_tol * sing[:, :1], axis=1), 0)
    seen, real_svd = [], np.linalg.svd

    def svd(*args, **kwargs):
        seen.append(len(args[0]))
        return real_svd(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pgz, "_CLOSED_FORM_ROWS", 1)
        patch.setattr(np.linalg, "svd", svd)
        gated, count, *_ = pgz._count(rows, code.t, rel_tol, 0.0)
        assert sum(seen) < np.count_nonzero(~gated)
        np.testing.assert_array_equal(count, want)
        for f in rng.choice(len(rows), size=8, replace=False):
            assert pgz._count(rows[f : f + 1], code.t, rel_tol, 0.0)[1][0] == want[f]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_syndrome_rejected(bad):
    s = unit_error_syndrome(C75, 3)
    s[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        pgz_decode(C75, s)
    with pytest.raises(ValueError, match="non-finite"):
        decode_block(C75, s[None])


@pytest.mark.parametrize("exponent", [-310, -300, -160, 0, 160, 300])
@pytest.mark.parametrize(
    "code, errors",
    [(C75, {3: 1.3}), (C159, {5: -0.8}), (C159, {2: 1.0, 9: -0.7}), (C117, {2: 1.0, 7: -0.7})],
    ids=["7-5-one", "15-9-one", "15-9-two", "11-7-two"],
)
def test_pgz_decisions_do_not_depend_on_the_syndromes_scale(code, errors, exponent):
    # Subnormal syndromes (1e-310) and huge ones (1e300) included: the
    # locator systems are scaled, so no step under- or overflows and warns.
    e = np.zeros(code.n)
    e[list(errors)] = list(errors.values())
    s = code.H @ e
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
    # t = 1 counts with |s_0|, t = 3 in closed form, and a one-unknown
    # locator solves a^H b / a^H a; all must agree with the SVD and least
    # squares they replace, and pick the same support.
    syndromes = np.concatenate(
        [_one_error_block(code, 256, rng), _complex_normal(rng, (256, code.n - code.k))]
    )
    block = decode_block(code, syndromes)
    hankel = syndromes[:, np.add.outer(np.arange(code.t), np.arange(code.t))]
    sing = np.linalg.svd(hankel, compute_uv=False)
    np.testing.assert_array_equal(
        block.count + block.retries, np.sum(sing >= 1e-2 * sing[:, :1], axis=1))
    rows = (block.count == 1).nonzero()[0]
    assert rows.size >= 200
    a, b = _locator_system(syndromes[rows], 1)
    ref = np.array([np.linalg.lstsq(a_f, b_f, rcond=None)[0] for a_f, b_f in zip(a, b)])
    np.testing.assert_allclose(block.locator[rows, :1], ref, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(
        block.support[rows], _grid(ref, block.count[rows], np.arange(code.n), code.n))


@pytest.mark.parametrize(
    "syndrome", [[1e-310, 1e300 + 1e300j], [1e200, 1e300]], ids=["subnormal-a", "huge-a"])
def test_one_unknown_system_far_below_its_right_side_is_rank_deficient(syndrome):
    # max |a| = |s_0| under 1e-10 max |b| = |s_1|: b / max |a| overflows
    # on the first row, and an unscaled a^H a on the second. Each row
    # steps down the ladder, with no warning and no locator.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = decode_block(C75, np.array([syndrome]))
    assert (block.count[0], block.retries[0]) == (0, 1)
    assert not block.locator.any() and not block.support.any()


def _full_count_block(code, frames, rng):
    """Syndromes of t errors of random size and position each, under
    complex noise of 1e-3, then as many complex normal syndromes."""
    e = np.zeros((frames, code.n))
    for row in e:
        row[rng.choice(code.n, size=code.t, replace=False)] = rng.normal(size=code.t)
    noise = 1e-3 * _complex_normal(rng, (frames, code.n - code.k))
    return np.concatenate([e @ code.H.T + noise, _complex_normal(rng, (frames, code.n - code.k))])


@pytest.mark.parametrize("code", [C159, C3125], ids=["15-9", "31-25"])
def test_full_count_solves_match_lapack(code, rng):
    # A count of t solves its square key-equation system by LU, with the
    # count's singular values as its rank test; it must agree with the
    # least squares it replaces and pick the same support.
    syndromes = _full_count_block(code, 256, rng)
    block = decode_block(code, syndromes)
    rows = (block.count == code.t).nonzero()[0]
    assert rows.size >= 256
    a, b = _locator_system(syndromes[rows], code.t)
    ref = np.array([np.linalg.lstsq(a_f, b_f, rcond=None)[0] for a_f, b_f in zip(a, b)])
    np.testing.assert_allclose(block.locator[rows], ref, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(
        block.support[rows], _grid(ref, block.count[rows], np.arange(code.n), code.n))


def test_full_count_block_runs_no_svd(rng, monkeypatch):
    # A block whose live frames the closed form counts t each runs no SVD:
    # the locators take its rank test.
    syndromes = _complex_normal(rng, (64, 6))
    syndromes[:4] = 0.0  # gated
    calls, real_svd = [], np.linalg.svd

    def svd(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    block = decode_block(C159, syndromes)
    assert block.gated.sum() == 4
    assert np.all(block.count[~block.gated] == C159.t)
    assert calls == []


def _partial_count_block(code, frames, rng):
    """For each nu in 2..t-1, syndromes of nu errors of random size and
    position under complex noise of 1e-3; then noiseless syndromes of one
    error, whose locator systems of two or more unknowns are singular, and
    of one error beside one 1e-6 as large, whose systems of two unknowns
    are ill-conditioned but of full rank."""
    blocks = []
    for nu in range(2, code.t):
        e = np.zeros((frames, code.n))
        for row in e:
            mags = rng.uniform(0.5, 2.0, nu) * rng.choice([-1.0, 1.0], nu)
            row[rng.choice(code.n, size=nu, replace=False)] = mags
        blocks.append(e @ code.H.T + 1e-3 * _complex_normal(rng, (frames, code.n - code.k)))
    for second in (0.0, 1e-6):
        e = np.zeros((frames // 4, code.n))
        for row in e:
            mags = rng.uniform(0.5, 2.0) * np.array([1.0, second])
            row[rng.choice(code.n, size=2, replace=False)] = mags
        blocks.append(e @ code.H.T)
    return np.concatenate(blocks)


@pytest.mark.parametrize("code", [C159, C2113, C3125], ids=["15-9", "21-13", "31-25"])
def test_partial_count_solves_match_lapack(code, rng):
    # A count of 1 < nu < t solves its tall key-equation system by QR, with
    # the diagonal of R as its rank test; it must agree with the least
    # squares and the SVD rank test it replaces and pick the same support.
    syndromes = _partial_count_block(code, 128, rng)
    block = decode_block(code, syndromes)
    for nu in range(2, code.t):
        a, b = _locator_system(syndromes, nu)
        mag = np.abs(syndromes)
        coeffs, full = _solve_locators(syndromes, nu, mag[:, :-1].max(axis=1), mag.max(axis=1))
        sing = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_array_equal(full, sing[:, -1] >= 1e-10 * sing[:, 0])
        assert 128 <= full.sum() <= len(full) - 32
        rows = (block.count == nu).nonzero()[0]
        assert rows.size >= 100
        np.testing.assert_array_equal(block.locator[rows, :nu], coeffs[rows])
        a, b = a[rows], b[rows]
        ref = np.array([np.linalg.lstsq(a_f, b_f, rcond=None)[0] for a_f, b_f in zip(a, b)])
        np.testing.assert_allclose(coeffs[rows], ref, rtol=1e-10, atol=0)
        np.testing.assert_array_equal(
            block.support[rows], _grid(ref, block.count[rows], np.arange(code.n), code.n))


def test_partial_count_block_runs_one_svd(rng, monkeypatch):
    # Frames that count 2 < t run QR locators, and no SVD. The last four
    # frames are noiseless single errors: their Hankel matrices' two zero
    # eigenvalues are a double root, which the closed form leaves to the
    # one SVD, run on exactly those frames.
    e = np.zeros((64, 15))
    for row in e[:60]:
        row[rng.choice(15, size=2, replace=False)] = rng.uniform(0.5, 2.0, 2)
    e[60:, [1, 4, 8, 13]] = np.diag(rng.uniform(0.5, 2.0, 4))
    syndromes = e @ C159.H.T
    syndromes[:60] += 1e-6 * _complex_normal(rng, (60, 6))
    syndromes[:4] = 0.0  # gated
    calls, real_svd = [], np.linalg.svd

    def svd(*args, **kwargs):
        calls.append(args[0])
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    block = decode_block(C159, syndromes)
    assert block.gated.sum() == 4
    np.testing.assert_array_equal(block.count[4:], [2] * 56 + [1] * 4)
    assert not block.retries.any()
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], syndromes[60:, np.add.outer(np.arange(3), np.arange(3))])


@pytest.mark.parametrize("rel_tol", [np.nan, -0.1, 1.0, 2.0])
def test_bad_rel_tol_rejected(rel_tol):
    e = np.zeros(15)
    e[2], e[9] = 1.0, -0.7
    with pytest.raises(ValueError, match="rel_tol"):
        pgz_decode(C159, C159.H @ e, rel_tol=rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        decode_block(C159, (C159.H @ e)[None], rel_tol=rel_tol)


@pytest.mark.parametrize("noise_floor", [np.nan, -1e-9, -np.inf])
def test_bad_noise_floor_rejected(noise_floor):
    s = unit_error_syndrome(C75, 3)
    with pytest.raises(ValueError, match="noise_floor"):
        pgz_decode(C75, s, noise_floor=noise_floor)
    with pytest.raises(ValueError, match="noise_floor"):
        decode_block(C75, s[None], noise_floor=noise_floor)


def test_tolerance_domain_edges_accepted():
    # rel_tol = 0 counts every nonzero singular value; an infinite noise
    # floor gates every frame.
    e = np.zeros(15)
    e[2], e[9] = 1.0, -0.7
    assert pgz_decode(C159, C159.H @ e, rel_tol=0.0).count >= 2
    assert pgz_decode(C159, C159.H @ e, noise_floor=np.inf).count == 0
