"""Source and channel statistics of ``draw_frames``: stationarity,
correlation, error model."""

import hashlib
import math

import numpy as np
import pytest

from dftwz.sources import ChannelSpec, SourceSpec, draw_frames

CLEAN = ChannelSpec(0)


def _source(rho, length, rng, frames):
    return draw_frames(SourceSpec(rho), length, [(rng, CLEAN, frames)])[0]


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
    for sigma_e in (-0.1, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="sigma_e"):
            ChannelSpec(sigma_e=sigma_e)


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
        draw_frames(SourceSpec(0.9), 0, [(rng, CLEAN, 1)])


def test_apply_channel_sigma_zero_identity(rng):
    x, y, hit = draw_frames(SourceSpec(0.9), 7, [(rng, ChannelSpec(1, 0.0), 50)])
    np.testing.assert_array_equal(y, x)
    assert not hit.any()


def test_apply_channel_one_position_differs(rng):
    x, y, hit = draw_frames(SourceSpec(0.9), 7, [(rng, ChannelSpec(1, 1.0), 200)])
    np.testing.assert_array_equal(y != x, hit)
    assert np.all(hit.sum(axis=1) == 1)


def test_apply_channel_distinct_positions(rng):
    _, _, hit = draw_frames(SourceSpec(0.9), 15, [(rng, ChannelSpec(3, 1.0), 200)])
    assert np.all(hit.sum(axis=1) == 3)


def test_apply_channel_error_moments(rng):
    x, y, hit = draw_frames(SourceSpec(0.9), 7, [(rng, ChannelSpec(1, 1.0), 10**5)])
    vals = (y - x)[hit]
    assert vals.size == 10**5
    assert np.std(vals) == pytest.approx(1.0, rel=0.02)
    skew = np.mean(vals**3) / np.std(vals) ** 3
    exkurt = np.mean(vals**4) / np.var(vals) ** 2 - 3
    assert abs(skew) < 0.05
    assert abs(exkurt) < 0.1


def test_apply_channel_too_many_errors(rng):
    with pytest.raises(ValueError):
        draw_frames(SourceSpec(0.9), 3, [(rng, ChannelSpec(4, 1.0), 1)])


def test_seeded_replay_bit_identical():
    ch = ChannelSpec(1, 0.7)
    first = draw_frames(SourceSpec(0.9), 7, [(np.random.default_rng(42), ch, 3)])
    second = draw_frames(SourceSpec(0.9), 7, [(np.random.default_rng(42), ch, 3)])
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("errors", [0, 1, 3])
@pytest.mark.parametrize("sigmas", [(0.0, 0.0, 0.0), (0.7, 0.7, 0.7), (0.0, 0.3, 2.0)])
def test_stacked_draw_equals_its_parts_drawn_alone(errors, sigmas):
    # Ragged parts, as a sweep's stack holds them: each part's frames are
    # the ones its own generator and channel give in a call of their own.
    sizes = (256, 256, 4)

    def parts():
        return [(np.random.default_rng((9, i)), ChannelSpec(errors, sigma), frames)
                for i, (sigma, frames) in enumerate(zip(sigmas, sizes))]

    stacked = draw_frames(SourceSpec(0.9), 15, parts())
    alone = [draw_frames(SourceSpec(0.9), 15, [part]) for part in parts()]
    for got, want in zip(stacked, zip(*alone)):
        np.testing.assert_array_equal(got, np.concatenate(want))
        assert got.flags.c_contiguous


class _TiedKeys:
    """A generator whose keys take only three values, so rows tie."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.keys = None

    def standard_normal(self, out):
        return self._rng.standard_normal(out=out)

    def random(self, out):
        # draw_frames masks the keys it is given, so keep a copy of them
        self.keys = np.floor(3 * self._rng.random(out.shape)) / 3
        out[...] = self.keys
        return out

    def normal(self, loc, scale, shape):
        return self._rng.normal(loc, scale, shape)


def test_single_error_position_is_the_first_stable_argsort_entry():
    # The j-th of E errors lands where the j-th stable-argsort entry of its
    # frame's keys points, with ties at the minimum and past it.
    for errors in (1, 2, 3):
        gen = _TiedKeys(3)
        x, y, hit = draw_frames(SourceSpec(0.9), 7, [(gen, ChannelSpec(errors, 1.0), 500)])
        first = np.argsort(gen.keys, axis=1, kind="stable")[:, :errors]
        assert (np.sum(gen.keys == gen.keys.min(axis=1, keepdims=True), axis=1) > errors).any()
        np.testing.assert_array_equal(hit.nonzero()[1], np.sort(first, axis=1).ravel())
        replay = np.random.default_rng(3)  # past the innovations and keys
        replay.standard_normal((500, 7))
        replay.random((500, 7))
        np.testing.assert_allclose(
            np.take_along_axis(y - x, first, axis=1),
            replay.normal(0.0, 1.0, (500, errors)), rtol=0, atol=1e-12,
        )


def test_stacked_parts_must_share_errors_per_frame(rng):
    with pytest.raises(ValueError, match="errors_per_frame"):
        draw_frames(SourceSpec(0.9), 7, [(rng, ChannelSpec(1), 4), (rng, ChannelSpec(2), 4)])


def test_no_parts_draw_no_frames(rng):
    # As a part of no frames does: x, y and the mask, each (0, length).
    for parts in ([], [(rng, ChannelSpec(2, 1.0), 0)]):
        x, y, hit = draw_frames(SourceSpec(0.9), 7, parts)
        assert x.shape == y.shape == hit.shape == (0, 7)
        assert hit.dtype == bool


# sha256 of x, y and hit bytes, concatenated, of the three-part draw below,
# recorded when the recursion still ran on a transposed copy of the stack.
DRAW_DIGESTS = {
    (1, 5): "7bbd02b0a9bff9734b6e33d52cf36d391be262556f5323e59f85545ec89e8748",
    (1, 7): "3586a96ee6bc9d8b144003e82b6a064551679ab0691152306ecb9e003568f08b",
    (1, 15): "12ff5881183848bd1ff286a1089cd484c98c3ff343bb5636ddfcb62ebcaa8105",
    (2, 5): "d127a75fff03a422c213fa722051730c12f095a33010ccd464bf267c0330a16f",
    (2, 7): "18c263707807033539406d2dc87da1e940bbf2ba95ba16efd43a386ef1a6f152",
    (2, 15): "518d780aa2724b6fdb7809ef3ac4c537731b5dfd4ea0ed70b2f201e0030b0ed8",
}


@pytest.mark.parametrize("errors, length", sorted(DRAW_DIGESTS))
def test_draw_is_bit_for_bit_the_recorded_one(errors, length):
    # Parts of 3, 5 and 1 frames, the first with sigma_e = 0 so that its
    # hits are left out of the mask: a layout or scatter change that
    # moves one bit of x, y or the mask changes the digest.
    parts = [(np.random.default_rng((23, errors, length, i)), ChannelSpec(errors, sigma), frames)
             for i, (sigma, frames) in enumerate(((0.0, 3), (0.7, 5), (2.0, 1)))]
    x, y, hit = draw_frames(SourceSpec(0.9), length, parts)
    digest = hashlib.sha256(x.tobytes() + y.tobytes() + hit.tobytes()).hexdigest()
    assert digest == DRAW_DIGESTS[errors, length]
    assert hit[:3].sum() == 0 and hit[3:].sum(axis=1).tolist() == [errors] * 6
