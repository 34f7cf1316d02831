"""Goodness of fit of the pixel streams themselves and of `qis_forward`'s
composite law, beyond moments.

Every test has a fixed seed and asserts a p-value above ALPHA, so a stream
with the law it claims fails each one with probability ALPHA: that is each
test's false-alarm rate. Cells are cut so that each expects at least 5 draws.
"""

import numpy as np
import pytest
from scipy import stats

from quantaflow import (BracketSpec, ExposureMap, QisParams, SensorConfig, generate_burst,
                        qis_forward, rng, sample_frame)

ALPHA = 1e-4  # the false-alarm rate of every test in this module
EDGES = np.arange(1, 32) / 32  # 32 cells of [0, 1)


def _masses(edges):
    return np.diff(np.concatenate([[0.0], edges, [1.0]]))


def _pair_p(a, pa, b, pb):
    """p of the 2-D chi-square of the cell pairs (a, b) against the product of
    the cell masses pa and pb: uniform marginals and independence at once."""
    observed = np.bincount(a * pb.size + b, minlength=pa.size * pb.size)
    expected = a.size * np.outer(pa, pb).ravel()
    assert expected.min() >= 5
    return stats.chisquare(observed, expected).pvalue


def _threshold_cells(frames_at):
    """The cell among EDGES of each pixel's uniform, for each frame that
    frames_at(theta) draws at a constant exposure theta. With q <= 1 and
    sigma_r = 0 a pixel fires iff u >= exp(-theta), so summing the bits at
    theta = -log(e) over the edges e counts the edges at or below u."""
    return sum(np.array([f.to_array().ravel() for f in frames_at(-np.log(e))], dtype=np.int64)
               for e in EDGES)


def test_uniforms_chi_square():
    # 2**20 uniforms over 1024 equal cells: 1024 expected in each.
    u = rng.uniforms(range(2 ** 20), 2024, rng.PHOTON)
    observed = np.bincount((u * 1024).astype(np.int64), minlength=1024)
    assert stats.chisquare(observed).pvalue > ALPHA


def test_adjacent_pixels_chi_square():
    # Pixels 2i and 2i + 1 of one frame, 2**16 pairs: 64 expected per cell.
    cells = (rng.uniforms(range(2 ** 17), 99, rng.PHOTON) * 32).astype(np.int64)
    mass = _masses(EDGES)
    assert _pair_p(cells[0::2], mass, cells[1::2], mass) > ALPHA


def test_photon_and_qis_photon_streams_chi_square():
    # The same pixel under two purposes at one seed, 2**16 pixels.
    idx = range(2 ** 16)
    a = (rng.uniforms(idx, 31337, rng.PHOTON) * 32).astype(np.int64)
    b = (rng.uniforms(idx, 31337, rng.QIS_PHOTON) * 32).astype(np.int64)
    mass = _masses(EDGES)
    assert _pair_p(a, mass, b, mass) > ALPHA


def test_purposes_do_not_alias_across_seeds():
    # Up to 0.6.x a stream's base was seed ^ purpose * P, so these two streams
    # drew the same uniforms, pixel for pixel.
    idx = range(4096)
    a = rng.uniforms(idx, 7, rng.PHOTON)
    assert not np.any(a == rng.uniforms(idx, 16927359002936088773, rng.QIS_PHOTON))


def test_frames_zero_and_one_chi_square():
    # The same pixel of `sample_frame` frames 0 and 1, 2**15 pixels.
    cfg = SensorConfig(0.5, 0.0, 4242)
    a, b = _threshold_cells(lambda theta: [sample_frame(ExposureMap.constant(256, 128, theta),
                                                        cfg, frame=f) for f in (0, 1)])
    mass = _masses(EDGES)
    assert _pair_p(a, mass, b, mass) > ALPHA


def test_burst_frames_chi_square():
    # The two frames of a burst (frames 1 and 2 of the stream), 2**15 pixels.
    # Frame 2 is drawn at theta / 2, so its edges are sqrt(EDGES).
    spec, cfg = BracketSpec((1.0, 2.0)), SensorConfig(0.5, 0.0, 777)
    a, b = _threshold_cells(lambda theta: generate_burst(ExposureMap.constant(256, 128, theta),
                                                         spec, cfg).frames)
    assert _pair_p(a, _masses(EDGES), b, _masses(np.sqrt(EDGES))) > ALPHA


def _params(gain, clip_max=float(2 ** 14 - 1), adc_bits=14, sigma=0.0):
    # Unit exposure time and efficiency, no dark signal: the rate is the photon count.
    return QisParams(gain_ratio=gain, quantum_efficiency=1.0, exposure_time=1.0,
                     clip_max=clip_max, adc_bits=adc_bits, sigma_real_noise=sigma)


def _levels(rate, p):
    """The noiseless output levels of `qis_forward` at a constant Poisson rate
    and the mass of each, summed from the Poisson pmf: each count is scaled
    by the gain, clipped, and rounded half up to the ADC step. The counts
    outside the 1e-14 quantiles fold into the first and last level."""
    dist = stats.poisson(rate)
    k = np.arange(dist.ppf(1e-14), dist.isf(1e-14) + 1)
    mass = dist.pmf(k)
    mass[0] += dist.cdf(k[0] - 1)
    mass[-1] += dist.sf(k[-1])
    step = p.clip_max / (2 ** p.adc_bits - 1)
    v = np.clip(p.gain_ratio * k, 0.0, p.clip_max)
    levels, which = np.unique(np.floor(v / step + 0.5) * step, return_inverse=True)
    return levels, np.bincount(which, weights=mass)


def _pooled(observed, expected, least=5.0):
    """Adjacent cells merged, from the left, until each expects at least `least`."""
    starts, acc = [0], 0.0
    for i, e in enumerate(expected[:-1]):
        acc += e
        if acc >= least:
            starts.append(i + 1)
            acc = 0.0
    if expected[starts[-1]:].sum() < least and len(starts) > 1:
        starts.pop()  # a short last group joins the one before
    return np.add.reduceat(observed, starts), np.add.reduceat(expected, starts)


N_QIS = 2 ** 16


@pytest.mark.parametrize("rate, params", [
    (0.7, _params(1.0)),
    (25.0, _params(0.5)),                               # two counts a level
    (51.0, _params(3.0, clip_max=150.0, adc_bits=4)),   # step 10, about half clipped
    (1e6, _params(1e-3, clip_max=1001.0, adc_bits=10)),  # Temme's CDF decides; 16% clipped
])
def test_qis_forward_levels_chi_square(rate, params):
    out = qis_forward(np.full(N_QIS, rate), params, 2718).ravel()
    levels, mass = _levels(rate, params)
    assert np.all(np.isin(out, levels))
    observed = np.bincount(np.searchsorted(levels, out), minlength=levels.size)
    assert stats.chisquare(*_pooled(observed, N_QIS * mass)).pvalue > ALPHA


@pytest.mark.parametrize("rate, params", [
    (4.0, _params(1.0, sigma=1.5)),
    (51.0, _params(3.0, clip_max=150.0, adc_bits=4, sigma=4.0)),
])
def test_qis_forward_with_noise_ks(rate, params):
    # Levels plus independent N(0, sigma^2) noise: a mixture of normals.
    out = qis_forward(np.full(N_QIS, rate), params, 1618).ravel()
    levels, mass = _levels(rate, params)

    def cdf(x):
        return stats.norm.cdf((np.asarray(x)[:, None] - levels) / params.sigma_real_noise) @ mass

    assert stats.kstest(out, cdf).pvalue > ALPHA
