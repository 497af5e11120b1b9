"""Property-based checks over odd code pairs and random inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dftwz.codes import DftCode, build_code
from dftwz.pgz import pgz_decode
from dftwz.quantize import QuantizerSpec, quantize
from dftwz.wyner_ziv import (
    APPROACHES,
    compression_ratio,
    decode_block,
    encode,
    encode_block,
    frame_length,
    tx_samples,
)

_CODES: dict[tuple[int, int], DftCode] = {}


def cached_code(n: int, k: int) -> DftCode:
    if (n, k) not in _CODES:
        _CODES[(n, k)] = build_code(n, k)
    return _CODES[(n, k)]


@st.composite
def odd_pairs(draw, max_n: int = 31):
    n = draw(st.sampled_from(range(3, max_n + 1, 2)))
    k = draw(st.sampled_from(range(1, n, 2)))
    return n, k


@given(pair=odd_pairs())
def test_algebraic_invariants_for_any_odd_pair(pair):
    n, k = pair
    code = cached_code(n, k)
    assert np.max(np.abs(code.H @ code.G)) < 1e-10
    assert np.max(np.abs(code.G.T @ code.G - (n / k) * np.eye(k))) < 1e-10
    assert np.max(np.abs(code.H @ code.H.conj().T - np.eye(n - k))) < 1e-10
    assert np.max(np.abs(code.G_sys[code.systematic] - np.eye(k))) < 1e-9
    # Evenly spread parity positions keep the parity block well conditioned.
    assert np.linalg.cond(code.H[:, code.parity]) <= 20
    assert np.max(np.abs(code.P_gen)) <= 1 + 1e-9


@given(pair=odd_pairs(), seed=st.integers(0, 2**32 - 1))
def test_codeword_spectrum_vanishes_on_zero_rows(pair, seed):
    n, k = pair
    code = cached_code(n, k)
    x = code.G @ np.random.default_rng(seed).standard_normal(k)
    spectrum = np.fft.fft(x) / np.sqrt(n)
    assert np.max(np.abs(spectrum[list(code.zero_rows)])) < 1e-9


@given(pair=odd_pairs())
def test_zero_rows_form_one_cyclic_block(pair):
    n, k = pair
    code = cached_code(n, k)
    rows = sorted(code.zero_rows)
    assert len(rows) == n - k
    gaps = [(b - a) % n for a, b in zip(rows, rows[1:] + rows[:1])]
    # one wrap-around gap of size k + 1, all others 1
    assert sorted(gaps) == [1] * (n - k - 1) + [k + 1]


@given(
    location=st.integers(0, 6),
    magnitude=st.floats(0.5, 3.0),
    sign=st.sampled_from((-1.0, 1.0)),
    scale=st.floats(0.25, 4.0),
)
def test_pgz_scale_equivariance(location, magnitude, sign, scale):
    code = cached_code(7, 5)
    e = np.zeros(7)
    e[location] = sign * magnitude
    s = code.H @ e
    base = pgz_decode(code, s)
    scaled = pgz_decode(code, s * scale)
    assert scaled.locations == base.locations == (location,)
    assert scaled.magnitudes == pytest.approx(base.magnitudes * scale, rel=1e-9, abs=1e-12)


@given(
    locations=st.sets(st.integers(0, 14), min_size=0, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_error_count_matches_rank(locations, seed):
    code = cached_code(15, 9)
    rng = np.random.default_rng(seed)
    e = np.zeros(15)
    for loc in locations:
        e[loc] = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    s = code.H @ e
    est = pgz_decode(code, s, rel_tol=1e-6)
    assert est.count + est.diagnostics.retries == len(locations)  # the Hankel rank


@given(
    locations=st.sets(st.integers(0, 14), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40)
def test_noiseless_decode_is_exact(locations, seed):
    code = cached_code(15, 9)
    rng = np.random.default_rng(seed)
    e = np.zeros(15)
    for loc in locations:
        e[loc] = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    est = pgz_decode(code, code.H @ e, rel_tol=1e-6)
    assert est.locations == tuple(sorted(locations))
    assert np.max(np.abs(est.magnitudes - e[list(est.locations)])) < 1e-8


@given(
    bits=st.integers(1, 10),
    lo=st.floats(-8.0, 0.0),
    width=st.floats(0.01, 16.0),
    values=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8),
)
def test_quantizer_idempotent_and_bounded(bits, lo, width, values):
    q = QuantizerSpec(bits, lo, lo + width)
    v = np.asarray(values)
    once = quantize(q, v)
    assert np.array_equal(quantize(q, once), once)
    assert np.all(once >= lo + q.step / 2 - 1e-12)
    assert np.all(once <= lo + width - q.step / 2 + 1e-12)
    inside = (v >= lo) & (v <= lo + width)
    assert np.all(np.abs(once[inside] - v[inside]) <= q.step / 2 + 1e-12)


@given(pair=odd_pairs(max_n=15), bits=st.integers(1, 8), seed=st.integers(0, 2**10))
def test_rate_accounting(pair, bits, seed):
    n, k = pair
    code = cached_code(n, k)
    rng = np.random.default_rng(seed)
    q = QuantizerSpec(bits, -4.0, 4.0)
    sm = encode(code, "syndrome", rng.standard_normal(n), q)
    pm = encode(code, "parity", rng.standard_normal(k), q)
    assert sm.bits_used == 2 * (n - k) * bits
    assert pm.bits_used == (n - k) * bits
    assert sm.values.shape == (2 * (n - k),)
    assert pm.values.shape == (n - k,)


@given(
    pair=odd_pairs(), frames=st.integers(1, 4), bits=st.integers(1, 8),
    seed=st.integers(0, 2**10),
)
def test_messages_are_real_blocks_of_what_is_sent(pair, frames, bits, seed):
    # Both approaches send real numbers: encode_block returns a real,
    # C-contiguous (F, tx_samples) block, a message holds tx_samples values
    # of bits each, and decode_block refuses a complex message by name.
    n, k = pair
    code = cached_code(n, k)
    rng = np.random.default_rng(seed)
    q = QuantizerSpec(bits, -4.0, 4.0)
    for approach in APPROACHES:
        sent = tx_samples(code, approach)
        x = rng.standard_normal((frames, frame_length(code, approach)))
        values, _ = encode_block(code, approach, x, q)
        assert values.dtype == np.float64
        assert values.shape == (frames, sent)
        assert values.flags.c_contiguous
        msg = encode(code, approach, x[0], q)
        assert msg.values.size == sent == msg.bits_used / bits
        with pytest.raises(ValueError, match=f"^{approach} message frames must be real"):
            decode_block(code, approach, values + 0j, q, x)


@given(pair=odd_pairs(), bits=st.integers(1, 8))
def test_compression_ratios_are_exact_rationals(pair, bits):
    from fractions import Fraction

    n, k = pair
    code = cached_code(n, k)
    assert compression_ratio(code, "syndrome") == Fraction(n, 2 * (n - k))
    assert compression_ratio(code, "parity") == Fraction(k, n - k)
    # Every count of what a frame sends agrees: the sent-sample count, the
    # message's bits and its values.
    q = QuantizerSpec(bits, -4.0, 4.0)
    for approach in APPROACHES:
        length = frame_length(code, approach)
        assert length == (n if approach == "syndrome" else k)
        msg = encode(code, approach, np.zeros(length), q)
        assert msg.approach == approach
        sent = len(msg.values)
        assert tx_samples(code, approach) == msg.bits_used / bits == sent
        assert compression_ratio(code, approach) == Fraction(length, sent)
