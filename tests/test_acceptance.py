"""Acceptance suite: one test per release criterion.

Each test measures its own runtime, records a one-line verdict into the
session acceptance log (printed under "acceptance criteria" at the end
of the run), and then asserts. Heavy Monte-Carlo artifacts are shared
through module-scoped fixtures so the whole suite stays within the
stated runtime budgets.
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from dftwz.codes import build_code, decode_pseudo_inverse
from dftwz.harness import SweepConfig, sweep, write_csv
from dftwz.pgz import pgz_decode
from dftwz.quantize import QuantizerSpec
from dftwz.wyner_ziv import compression_ratio, encode_block, frame_length

ALGEBRAIC_SPECS = ((3, 1), (7, 5), (15, 9), (31, 25))

FULL_GRID = tuple(float(v) for v in range(-10, 45, 5))


def record(acceptance_log, num, ok, detail):
    acceptance_log[num] = (ok, detail)


@pytest.fixture(scope="module")
def full_sweep():
    """Default-configuration sweep (both approaches, 11 points x 20k)."""
    cfg = SweepConfig(ceqnr_db=FULL_GRID, frames=20000, seed=1, workers=1)
    start = time.perf_counter()
    result = sweep(cfg)
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


@pytest.fixture(scope="module")
def perfect_sweeps():
    """sigma_e = 0 runs, one per approach, 20k frames each."""
    out = {}
    start = time.perf_counter()
    for approach in ("syndrome", "parity"):
        cfg = SweepConfig(
            approaches=(approach,), ceqnr_db=(float("-inf"),), frames=20000, seed=1
        )
        out[approach] = sweep(cfg).points[0]
    elapsed = time.perf_counter() - start
    return out, elapsed


def test_criterion_1_algebraic_identities(acceptance_log):
    start = time.perf_counter()
    worst = 0.0
    all_real = True
    for n, k in ALGEBRAIC_SPECS:
        code = build_code(n, k)
        eye_k = np.eye(k)
        residuals = (
            np.max(np.abs(code.H @ code.G)),
            np.max(np.abs(code.G.T @ code.G - (n / k) * eye_k)),
            np.max(np.abs(code.H @ code.H.conj().T - np.eye(n - k))),
            np.max(np.abs(code.H @ code.G_sys)),
        )
        worst = max(worst, *map(float, residuals))
        all_real = all_real and not np.iscomplexobj(code.G_sys)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and all_real and elapsed < 1.0
    record(
        acceptance_log, 1, ok,
        f"identity residuals max {worst:.2e} (< 1e-10), real generators, {elapsed:.2f}s",
    )
    assert worst < 1e-10
    assert all_real
    assert elapsed < 1.0


def _noiseless_trials(code, counts, trials, seed):
    rng = np.random.default_rng(seed)
    loc_wrong = 0
    mag_worst = 0.0
    for _ in range(trials):
        m = int(rng.choice(counts))
        locations = np.sort(rng.choice(code.n, size=m, replace=False))
        mags = rng.standard_normal(m)
        while np.any(np.abs(mags) < 1e-6):
            small = np.abs(mags) < 1e-6
            mags[small] = rng.standard_normal(int(np.sum(small)))
        e = np.zeros(code.n)
        e[locations] = mags
        est = pgz_decode(code, code.H @ e, rel_tol=1e-10)
        if est.locations != tuple(int(v) for v in locations):
            loc_wrong += 1
        else:
            mag_worst = max(mag_worst, float(np.max(np.abs(est.magnitudes - mags))))
    return loc_wrong, mag_worst


def test_criterion_2_noiseless_decoding_oracle(acceptance_log):
    start = time.perf_counter()
    wrong75, mag75 = _noiseless_trials(build_code(7, 5), (1,), 10_000, seed=75)
    wrong159, mag159 = _noiseless_trials(build_code(15, 9), (1, 2, 3), 10_000, seed=159)
    elapsed = time.perf_counter() - start
    rate75 = 1 - wrong75 / 10_000
    rate159 = 1 - wrong159 / 10_000
    mag_worst = max(mag75, mag159)
    ok = rate75 >= 0.999 and rate159 >= 0.999 and mag_worst < 1e-8 and elapsed < 10.0
    record(
        acceptance_log, 2, ok,
        f"location accuracy {rate75:.4f}/(7,5), {rate159:.4f}/(15,9) (>= 0.999), "
        f"magnitude error {mag_worst:.1e} (< 1e-8), {elapsed:.1f}s",
    )
    assert rate75 >= 0.999
    assert rate159 >= 0.999
    assert mag_worst < 1e-8
    assert elapsed < 10.0


def test_criterion_3_tight_frame_mse_reduction(acceptance_log):
    code = build_code(7, 5)
    q = QuantizerSpec(6, -4.0, 4.0)
    sigma_q_sq = q.sigma_q_sq
    frames = 100_000
    rng = np.random.default_rng(35)
    start = time.perf_counter()
    sq_err = 0.0
    half = q.step / 2
    for _ in range(frames):
        m = rng.standard_normal(5)
        y_hat = code.G @ m + rng.uniform(-half, half, 7)
        m_hat = decode_pseudo_inverse(code.G, y_hat)
        sq_err += float(np.sum((m_hat - m) ** 2))
    elapsed = time.perf_counter() - start
    mse = sq_err / (frames * 5)
    factor = mse / sigma_q_sq
    ok = abs(factor - 5 / 7) <= 0.05 * (5 / 7) and elapsed < 10.0
    record(
        acceptance_log, 3, ok,
        f"message MSE / sigma_q^2 = {factor:.4f} (target 5/7 = {5 / 7:.4f} "
        f"within 5%), {elapsed:.1f}s",
    )
    assert abs(factor - 5 / 7) <= 0.05 * (5 / 7)
    assert elapsed < 10.0


def test_criterion_4_perfect_correlation_zero_loss(acceptance_log, perfect_sweeps):
    points, elapsed = perfect_sweeps
    sigma_q_sq = SweepConfig().reference_quantizer.sigma_q_sq
    details = []
    ok = elapsed < 30.0
    for approach, point in points.items():
        mse = point.mse_syndrome if approach == "syndrome" else point.mse_parity
        ok = ok and point.zero_error_frac >= 0.99 and mse <= 0.02 * sigma_q_sq
        details.append(
            f"{approach}: zero-error {point.zero_error_frac:.4f}, "
            f"MSE {mse / sigma_q_sq:.4f} sigma_q^2"
        )
    record(
        acceptance_log, 4, ok,
        "; ".join(details) + f" (need >= 0.99 and <= 0.02), {elapsed:.1f}s",
    )
    for approach, point in points.items():
        mse = point.mse_syndrome if approach == "syndrome" else point.mse_parity
        assert point.zero_error_frac >= 0.99, approach
        assert mse <= 0.02 * sigma_q_sq, approach
    assert elapsed < 30.0


def test_criterion_5_mse_curve_shape(acceptance_log, full_sweep):
    _, result, elapsed = full_sweep
    sigma_q_sq = result.points[0].sigma_q_sq
    dbs = [p.ceqnr_db for p in result.points]
    mse_s = np.array([p.mse_syndrome for p in result.points])
    mse_p = np.array([p.mse_parity for p in result.points])

    a_ok = bool(np.all(mse_s <= mse_p))
    edge = [i for i, db in enumerate(dbs) if db >= 30.0 or db <= -5.0]
    b_bad = [
        (dbs[i], float(m / sigma_q_sq))
        for i in edge
        for m in (mse_s[i], mse_p[i])
        if not m < sigma_q_sq
    ]
    b_ok = not b_bad
    edge_max = {
        name: float(max(mse[i] for i in edge) / sigma_q_sq)
        for name, mse in (("syndrome", mse_s), ("parity", mse_p))
    }
    over = [i for i, m in enumerate(mse_s) if not m < sigma_q_sq]
    c_ok = len(over) <= 3 and (not over or over == list(range(over[0], over[-1] + 1)))
    time_ok = elapsed < 300.0

    ok = a_ok and b_ok and c_ok and time_ok
    detail = (
        f"(a) syndrome <= parity everywhere: {a_ok}; "
        f"(b) edge points below sigma_q^2: {b_ok}, largest edge MSE "
        f"syndrome {edge_max['syndrome']:.3f}, parity {edge_max['parity']:.3f} sigma_q^2"
        + (f" (violations {b_bad})" if b_bad else "")
        + f"; (c) syndrome exceeds sigma_q^2 at {len(over)} consecutive points: {c_ok}; "
        f"{elapsed:.0f}s"
    )
    record(acceptance_log, 5, ok, detail)
    assert a_ok, "syndrome MSE above parity MSE somewhere"
    assert c_ok, f"syndrome curve exceeds sigma_q^2 at points {over}"
    assert time_ok
    assert b_ok, f"MSE at edge CEQNR points not below sigma_q^2: {b_bad}"


def test_criterion_6_localization_curve_shape(acceptance_log, full_sweep):
    _, result, _ = full_sweep
    dbs = [p.ceqnr_db for p in result.points]
    window = [i for i, db in enumerate(dbs) if 10.0 <= db <= 40.0]
    ok = True
    details = []
    for approach in ("syndrome", "parity"):
        freq = [
            getattr(result.points[i], f"loc_freq_{approach}") for i in window
        ]
        drops = [
            (freq[j] - freq[j + 1]) for j in range(len(freq) - 1) if freq[j + 1] < freq[j]
        ]
        monotone_ok = len(drops) <= 1 and all(d <= 0.02 for d in drops)
        final_ok = freq[-1] >= 0.95
        ok = ok and monotone_ok and final_ok
        details.append(
            f"{approach}: {len(drops)} inversion(s) max "
            f"{max(drops, default=0.0):.4f}, freq(40 dB) = {freq[-1]:.4f}"
        )
    record(acceptance_log, 6, ok, "; ".join(details) + " (need <= 1 of <= 0.02, >= 0.95)")
    assert ok, "; ".join(details)


def test_criterion_7_compression_ratio_accounting(acceptance_log):
    code = build_code(7, 5)
    ratio_s = compression_ratio(code, "syndrome")
    ratio_p = compression_ratio(code, "parity")
    rng = np.random.default_rng(7)
    tx = {}
    for approach, quantizer in (("syndrome", QuantizerSpec(6, -1.0, 1.0)),
                                ("parity", QuantizerSpec(6, -4.75, 4.75))):
        x = rng.standard_normal((1, frame_length(code, approach)))
        values, _ = encode_block(code, approach, x, quantizer)
        tx[approach] = values.shape[1]  # real numbers actually sent
    ok = (
        ratio_s == Fraction(7, 4)
        and ratio_p == Fraction(5, 2)
        and tx["syndrome"] == 2 * (7 - 5)
        and tx["parity"] == 7 - 5
    )
    record(
        acceptance_log, 7, ok,
        f"ratios {ratio_s}/{ratio_p} (need 7/4, 5/2), "
        f"tx samples {tx['syndrome']}/{tx['parity']} (need 4, 2)",
    )
    assert ratio_s == Fraction(7, 4)
    assert ratio_p == Fraction(5, 2)
    assert tx == {"syndrome": 4, "parity": 2}


def test_criterion_8_worker_count_determinism(acceptance_log, full_sweep, tmp_path):
    cfg, result_serial, _ = full_sweep
    result_pool = sweep(dataclasses.replace(cfg, workers=3))
    p1, p3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
    write_csv(result_serial, str(p1))
    write_csv(result_pool, str(p3))
    identical = p1.read_bytes() == p3.read_bytes()
    record(
        acceptance_log, 8, identical,
        f"full-sweep CSV identical for 1 vs 3 workers: {identical} "
        f"({p1.stat().st_size} bytes)",
    )
    assert identical
