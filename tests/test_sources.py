"""Source and channel statistics of ``draw_frames``: stationarity,
correlation, error model."""

import numpy as np
import pytest

from dftwz.sources import ChannelSpec, SourceSpec, draw_frames

CLEAN = ChannelSpec(0)


def _source(rho, length, rng, frames):
    return draw_frames(SourceSpec(rho), CLEAN, length, rng, frames)[0]


def _lag1(x):
    return np.corrcoef(x[:, :-1].ravel(), x[:, 1:].ravel())[0, 1]


def test_source_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec(rho=1.0)
    with pytest.raises(ValueError):
        SourceSpec(rho=-1.5)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(errors_per_frame=-1)
    with pytest.raises(ValueError):
        ChannelSpec(sigma_e=-0.1)


# 10^6 source samples each, as 1,000 frames of 1,000.
def test_gauss_markov_iid_when_rho_zero(rng):
    assert abs(_lag1(_source(0.0, 1000, rng, 1000))) < 0.02


def test_gauss_markov_lag1_correlation(rng):
    assert _lag1(_source(0.9, 1000, rng, 1000)) == pytest.approx(0.9, abs=0.01)


def test_gauss_markov_unit_variance(rng):
    x = _source(0.9, 1000, rng, 1000)
    assert np.var(x) == pytest.approx(1.0, rel=0.02)
    assert np.mean(x) == pytest.approx(0.0, abs=0.01)


def test_gauss_markov_stationary_from_first_sample(rng):
    # Marginal variance of x_0 across frames is already 1.
    head = _source(0.9, 3, rng, 20000)[:, 0]
    assert np.var(head) == pytest.approx(1.0, rel=0.05)


def test_gauss_markov_length_validation(rng):
    with pytest.raises(ValueError):
        draw_frames(SourceSpec(0.9), CLEAN, 0, rng, 1)


def test_apply_channel_sigma_zero_identity(rng):
    x, y, hit = draw_frames(SourceSpec(0.9), ChannelSpec(1, 0.0), 7, rng, 50)
    np.testing.assert_array_equal(y, x)
    assert not hit.any()


def test_apply_channel_one_position_differs(rng):
    x, y, hit = draw_frames(SourceSpec(0.9), ChannelSpec(1, 1.0), 7, rng, 200)
    np.testing.assert_array_equal(y != x, hit)
    assert np.all(hit.sum(axis=1) == 1)


def test_apply_channel_distinct_positions(rng):
    _, _, hit = draw_frames(SourceSpec(0.9), ChannelSpec(3, 1.0), 15, rng, 200)
    assert np.all(hit.sum(axis=1) == 3)


def test_apply_channel_error_moments(rng):
    x, y, hit = draw_frames(SourceSpec(0.9), ChannelSpec(1, 1.0), 7, rng, 10**5)
    vals = (y - x)[hit]
    assert vals.size == 10**5
    assert np.std(vals) == pytest.approx(1.0, rel=0.02)
    skew = np.mean(vals**3) / np.std(vals) ** 3
    exkurt = np.mean(vals**4) / np.var(vals) ** 2 - 3
    assert abs(skew) < 0.05
    assert abs(exkurt) < 0.1


def test_apply_channel_too_many_errors(rng):
    with pytest.raises(ValueError):
        draw_frames(SourceSpec(0.9), ChannelSpec(4, 1.0), 3, rng, 1)


def test_seeded_replay_bit_identical():
    ch = ChannelSpec(1, 0.7)
    first = draw_frames(SourceSpec(0.9), ch, 7, np.random.default_rng(42), 3)
    second = draw_frames(SourceSpec(0.9), ch, 7, np.random.default_rng(42), 3)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)
