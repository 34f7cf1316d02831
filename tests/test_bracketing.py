import math

import numpy as np
import pytest

from quantaflow import (BracketSpec, DEFAULT_ALPHAS, DomainError, ExposureBurst,
                        ExposureMap, SensorConfig, ShapeError, bracket,
                        burst_mse, extract_exposure, generate_burst,
                        mean_bit_density)
from quantaflow.bracketing import default_labels
from quantaflow.sensor import BinaryFrame

EXPECTED_ALPHAS = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0,
                   5.5, 6.0, 6.5, 7.0, 7.5, 8.0)
EXPECTED_LABELS = (0.0625, 0.125, 0.1875, 0.25, 0.3125, 0.375, 0.4375, 0.5,
                   0.5625, 0.625, 0.6875, 0.75, 0.8125, 0.875, 0.9375)


def test_default_divisor_set():
    assert BracketSpec().alphas == EXPECTED_ALPHAS


def test_default_labels_match_published_table():
    assert default_labels(15) == pytest.approx(EXPECTED_LABELS, abs=0)


@pytest.mark.parametrize("alphas", [(), (0.0, 1.0), (2.0, 1.0), (1.0, 1.0),
                                    (1.0, math.nan), (1.0, math.inf)])
def test_bad_alpha_sets_rejected(alphas):
    with pytest.raises(DomainError):
        BracketSpec(alphas)


class TestExtractExposure:
    def test_all_zero(self):
        emap = extract_exposure(np.zeros((4, 6)))
        assert np.all(emap.theta == 0.0)

    def test_constant_one_hits_theta_max(self):
        emap = extract_exposure(np.ones((4, 4)), theta_max=25.0)
        assert np.all(emap.theta == 25.0)

    def test_gamma(self):
        emap = extract_exposure(np.full((2, 2), 0.5), theta_max=25.0, gamma=2.0)
        assert np.all(emap.theta == pytest.approx(6.25))

    def test_rgb_reduced_by_luma(self):
        rgb = np.zeros((2, 2, 3))
        rgb[..., 1] = 1.0  # pure green
        emap = extract_exposure(rgb, theta_max=1.0)
        assert np.all(emap.theta == pytest.approx(0.587))

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            extract_exposure(np.full((2, 2), 1.5))


class TestBracket:
    def test_divide_by_one_is_identity(self):
        emap = ExposureMap.constant(3, 3, 7.0)
        (out,) = bracket(emap, BracketSpec((1.0,)))
        assert np.array_equal(out.theta, emap.theta)

    def test_divide_by_two(self):
        emap = ExposureMap.constant(3, 3, 8.0)
        maps = bracket(emap, BracketSpec((1.0, 2.0)))
        assert np.all(maps[1].theta == 4.0)

    def test_default_divisor_endpoints(self):
        emap = ExposureMap.constant(2, 2, 8.0)
        maps = bracket(emap, BracketSpec())
        assert len(maps) == 15
        assert np.array_equal(maps[0].theta, emap.theta)
        assert np.all(maps[-1].theta == 1.0)

    def test_scaling_commutes(self):
        gen = np.random.default_rng(4)
        emap = ExposureMap(gen.uniform(0, 5, (8, 8)))
        spec = BracketSpec((1.0, 2.5, 4.0))
        direct = bracket(emap.scaled(3.0), spec)
        scaled = [m.scaled(3.0) for m in bracket(emap, spec)]
        for a, b in zip(direct, scaled):
            assert np.allclose(a.theta, b.theta, rtol=1e-15)


class TestGenerateBurst:
    def test_all_zero_map(self):
        burst = generate_burst(ExposureMap.constant(8, 8, 0.0), BracketSpec(),
                               SensorConfig(0.5, 0.0, 5))
        assert all(mean_bit_density(f) == 0.0 for f in burst.frames)

    def test_labels(self):
        burst = generate_burst(ExposureMap.constant(4, 4, 1.0), BracketSpec(),
                               SensorConfig(0.5, 0.0, 5))
        assert burst.theta_tilde == pytest.approx(EXPECTED_LABELS, abs=0)

    def test_density_ordering_statistical(self):
        # 128x128 smoke version of the acceptance check
        burst = generate_burst(ExposureMap.constant(128, 128, 16.0),
                               BracketSpec(), SensorConfig(0.5, 0.0, 11))
        n = 128 * 128
        for frame, alpha in zip(burst.frames, burst.alphas):
            p = 1.0 - math.exp(-16.0 / alpha)
            se = math.sqrt(p * (1 - p) / n)
            assert abs(mean_bit_density(frame) - p) < 4 * se

    def test_deterministic(self):
        emap = ExposureMap.constant(16, 16, 2.0)
        cfg = SensorConfig(0.5, 0.25, 77)
        b1 = generate_burst(emap, BracketSpec(), cfg)
        b2 = generate_burst(emap, BracketSpec(), cfg)
        for f1, f2 in zip(b1.frames, b2.frames):
            assert np.array_equal(f1.bits, f2.bits)

    def test_frames_are_independent_draws(self):
        emap = ExposureMap.constant(64, 64, 1.0)
        burst = generate_burst(emap, BracketSpec((1.0, 1.0 + 1e-12)),
                               SensorConfig(0.5, 0.0, 3))
        assert not np.array_equal(burst.frames[0].bits, burst.frames[1].bits)


class TestBurstMse:
    def _single(self, bits):
        frame = BinaryFrame.from_array(bits)
        return ExposureBurst((frame,), (1.0,), (0.5,))

    def test_identical_zero(self):
        b = self._single(np.eye(4))
        assert burst_mse(b, b) == 0.0

    def test_opposite_one(self):
        a = self._single(np.zeros((4, 4)))
        b = self._single(np.ones((4, 4)))
        assert burst_mse(a, b) == 1.0

    def test_half_differ(self):
        a = self._single(np.zeros((2, 4)))
        bits = np.zeros((2, 4))
        bits[0] = 1
        assert burst_mse(a, self._single(bits)) == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            burst_mse(self._single(np.zeros((2, 2))), self._single(np.zeros((3, 3))))


def test_burst_invariants():
    frame = BinaryFrame.from_array(np.zeros((2, 2)))
    with pytest.raises(DomainError):
        ExposureBurst((frame, frame), (1.0, 2.0), (0.5, 0.25))  # not increasing
    with pytest.raises(DomainError):
        ExposureBurst((frame,), (1.0,), (1.5,))  # label outside (0,1)
    with pytest.raises(ShapeError):
        ExposureBurst((frame,), (1.0, 2.0), (0.5,))
