"""Block drawing and decoding: a block's frames drawn from one
generator have the source's and the channel's statistics, a block of
frames decodes exactly as each of its frames decodes on its own, and the
sweep reproduces the committed golden CSVs."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dftwz.codes import build_code
from dftwz.harness import SweepConfig, sweep, write_csv
from dftwz.pgz import decode_block, pgz_decode
from dftwz.quantize import QuantizerSpec
from dftwz.sources import ChannelSpec, SourceSpec, draw_frames
from dftwz.wyner_ziv import APPROACHES, decode, encode, encode_block, frame_length
from dftwz.wyner_ziv import decode_block as wz_decode_block

C75 = build_code(7, 5)
C159 = build_code(15, 9)
# (15,9) runs finer syndrome quantization than the default 6 bits, under
# which PGZ counts the single-error anchor below as 2 or 3 errors.
Q_SY = {7: QuantizerSpec(6, -1.0, 1.0), 15: QuantizerSpec(12, -1.0, 1.0)}
Q_PA = {7: QuantizerSpec(6, -4.75, 4.75), 15: QuantizerSpec(12, -300.0, 300.0)}

# Error positions that every block carries, all below k so that they are
# message indices of the parity frames too: a clean frame and, on the
# syndrome pipeline, frames PGZ counts as 1, 2 and 3 errors.
ANCHORS = {7: [(), (3,)], 15: [(), (4,), (1, 6), (0, 4, 8)]}

GOLDEN = Path(__file__).parent / "data"


def _block(code, counts, seed):
    """Frames x, side information y with the ANCHORS' errors and then
    ``counts[i]`` errors of random size at random positions, in shuffled
    order."""
    rng = np.random.default_rng(seed)
    anchors = ANCHORS[code.n]
    supports = anchors + [tuple(rng.choice(code.k, size=c, replace=False)) for c in counts]
    sizes = [2.0] * len(anchors) + list(rng.choice([0.05, 0.5, 3.0], len(counts)))
    x = draw_frames(SourceSpec(0.9), code.n, [(rng, ChannelSpec(0), len(supports))])[0]
    y = x.copy()
    for row, support, size in zip(y, supports, sizes):
        row[list(support)] += size * rng.choice([-1.0, 1.0], len(support))
    order = rng.permutation(len(supports))
    return x[order], y[order]


def _assert_same(block, frame, i, parity=()):
    assert frame.error_estimate.count == block.pgz.count[i]
    assert frame.error_estimate.locations == tuple(np.flatnonzero(block.support[i]))
    # Bitwise: the sweep decodes frames of many grid points in one call,
    # so a frame's result must not depend on the frames beside it.
    np.testing.assert_array_equal(frame.x_hat, block.x_hat[i])
    assert np.all(block.pgz.support[i, list(parity)] == 0)


@pytest.mark.parametrize("code", [C75, C159], ids=["7-5", "15-9"])
@given(
    counts=st.lists(st.integers(0, 3), max_size=10),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_decodes_as_its_frames(code, counts, seed):
    counts = [min(c, code.t) for c in counts]
    x, y = _block(code, counts, seed)
    q = {"syndrome": Q_SY[code.n], "parity": Q_PA[code.n]}
    for approach in APPROACHES:
        length = frame_length(code, approach)
        values, _ = encode_block(code, approach, x[:, :length], q[approach])
        block = wz_decode_block(code, approach, values, q[approach], y[:, :length])
        if approach == "syndrome":  # gated and every nu-hat
            assert set(block.pgz.count.tolist()) >= set(range(code.t + 1))
        for i in range(len(x)):
            msg = encode(code, approach, x[i, :length], q[approach])
            np.testing.assert_array_equal(msg.values, values[i])
            parity = () if approach == "syndrome" else code.parity
            _assert_same(block, decode(code, msg, y[i, :length]), i, parity)


@given(
    locations=st.lists(st.sets(st.integers(0, 14), max_size=3), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    rel_tol=st.sampled_from((1e-2, 1e-15)),
)
def test_pgz_block_decodes_as_its_syndromes(locations, seed, rel_tol):
    # The first row is the retry-ladder case of test_pgz: one exact error
    # plus a tiny perturbation, whose count rel_tol = 1e-15 inflates to t.
    rng = np.random.default_rng(seed)
    e = np.zeros((len(locations) + 1, 15))
    e[0, 6] = 1.0
    for row, locs in zip(e[1:], locations):
        row[list(locs)] = rng.choice([-1.0, 1.0], len(locs)) * rng.uniform(0.5, 2.0, len(locs))
    s = e @ C159.H.T + rng.normal(0.0, 1e-3, (len(e), 6)) * (rel_tol > 1e-3)
    s[0] = C159.H @ e[0] + 1e-13
    block = decode_block(C159, s, rel_tol=rel_tol, noise_floor=1e-9)
    for i, row in enumerate(s):
        est = pgz_decode(C159, row, rel_tol=rel_tol, noise_floor=1e-9)
        assert est.count == block.count[i]
        assert est.locations == tuple(np.flatnonzero(block.support[i]))
        assert est.diagnostics.retries == block.retries[i]
    if rel_tol == 1e-15:
        assert block.count[0] == 1 and block.retries[0] >= 1


# 0.999 quantiles of the chi-square law with 14 and 104 degrees of freedom.
CHI2_999 = {14: 36.123, 104: 154.314}


def test_draw_frames_block_statistics():
    frames, length, errors, sigma_e, rho = 20_000, 15, 2, 0.7, 0.9
    ch = ChannelSpec(errors, sigma_e)
    x, y, hit = draw_frames(SourceSpec(rho), length, [(np.random.default_rng(11), ch, frames)])
    again = draw_frames(SourceSpec(rho), length, [(np.random.default_rng(11), ch, frames)])
    for a, b in zip((x, y, hit), again):
        np.testing.assert_array_equal(a, b)

    np.testing.assert_array_equal(hit, y != x)
    assert np.all(hit.sum(axis=1) == errors)
    # Each position, and each pair of positions, is hit equally often.
    counts = hit.sum(axis=0)
    expected = frames * errors / length
    assert np.sum((counts - expected) ** 2 / expected) < CHI2_999[length - 1]
    i, j = np.triu_indices(length, 1)
    pairs = (hit[:, i] & hit[:, j]).sum(axis=0)
    expected = frames / len(i)
    assert np.sum((pairs - expected) ** 2 / expected) < CHI2_999[len(i) - 1]

    mags = (y - x)[hit]
    assert abs(mags.mean()) < 4 * sigma_e / np.sqrt(mags.size)
    assert mags.var() == pytest.approx(sigma_e**2, rel=0.03)

    assert np.var(x, axis=0) == pytest.approx(np.ones(length), abs=0.05)
    lag1 = np.corrcoef(x[:, :-1].ravel(), x[:, 1:].ravel())[0, 1]
    assert lag1 == pytest.approx(rho, abs=0.005)


# Written by this package with one generator per point's block; a sweep
# must reproduce them byte for byte with any worker count. (21,13), at 256
# frames per point, also has the bytes of one generator per 256-frame
# sub-block, which the package used before.
GOLDEN_CONFIGS = {
    "golden_7_5.csv": dict(ceqnr_db=(-math.inf, 0.0, 30.0), frames=2000),
    # t = 2: the 2x2 Hankel count
    "golden_11_7.csv": dict(
        n=11, k=7, errors_per_frame=2, ceqnr_db=(20.0, 40.0), frames=512
    ),
    "golden_15_9.csv": dict(
        n=15, k=9, errors_per_frame=2, ceqnr_db=(20.0, 30.0, 40.0), frames=512
    ),
    # nu = 1 rows of a t = 3 code, located over 15 and 9 candidates
    "golden_15_9_e1.csv": dict(
        n=15, k=9, errors_per_frame=1, ceqnr_db=(0.0, 20.0, 40.0), frames=512
    ),
    # t = 4: 4x4 locator solves and three-position cores
    "golden_21_13.csv": dict(
        n=21, k=13, errors_per_frame=4, ceqnr_db=(20.0, 40.0), frames=256
    ),
    # 31 candidates: two-position cores with 29 supports each
    "golden_31_25.csv": dict(
        n=31, k=25, errors_per_frame=3, ceqnr_db=(20.0, 40.0), frames=512
    ),
    # t = 5: 5x5 locator solves and cores of up to four positions
    "golden_31_21.csv": dict(
        n=31, k=21, errors_per_frame=5, ceqnr_db=(20.0, 40.0), frames=256
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_sweep_reproduces_golden_csv(tmp_path, name, workers):
    path = tmp_path / name
    write_csv(sweep(SweepConfig(**GOLDEN_CONFIGS[name], seed=1, workers=workers)), str(path))
    assert path.read_bytes() == (GOLDEN / name).read_bytes()
