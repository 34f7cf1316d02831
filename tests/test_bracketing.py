import math

import numpy as np
import pytest

from quantaflow import (BracketSpec, DEFAULT_ALPHAS, DomainError, ExposureBurst,
                        ExposureMap, SensorConfig, ShapeError, generate_burst,
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


def test_burst_invariants():
    frame = BinaryFrame.from_array(np.zeros((2, 2)))
    with pytest.raises(DomainError):
        ExposureBurst((frame, frame), (1.0, 2.0), (0.5, 0.25))  # not increasing
    with pytest.raises(DomainError):
        ExposureBurst((frame,), (1.0,), (1.5,))  # label outside (0,1)
    with pytest.raises(ShapeError):
        ExposureBurst((frame,), (1.0, 2.0), (0.5,))
