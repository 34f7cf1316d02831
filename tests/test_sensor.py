import math

import mpmath
import numpy as np
import pytest
from scipy.stats import chi2

from quantaflow import (BinaryFrame, DomainError, ExposureMap, NeighborhoodSpec,
                        SensorConfig, UnidentifiableError, bit_probability,
                        invert_bit_density, local_bit_density, mean_bit_density,
                        sample_frame)
from quantaflow.sensor import neighborhood_l2_norm, neighborhood_ones, noise_floor

# Frozen 50-digit-arithmetic reference values (mpmath: ncdf, and the
# probability series summed to k = 60).
PHI_TABLE = {
    -3.0: 0.00134989803163009453,
    -2.0: 0.0227501319481792072,
    -1.5: 0.066807201268858066,
    -1.0: 0.158655253931457051,
    -0.5: 0.308537538725986896,
    0.0: 0.5,
    0.5: 0.691462461274013104,
    1.0: 0.841344746068542949,
    2.0: 0.977249868051820793,
    2.5: 0.993790334674223865,
    3.0: 0.998650101968369905,
}
P_THETA1_Q05_SR025 = 0.63212055864708502264


class TestBitProbability:
    def test_zero_exposure_ideal(self):
        assert bit_probability(0.0, 0.5, 0.0) == 0.0

    def test_ideal_half_density_at_ln2(self):
        assert bit_probability(math.log(2), 0.5, 0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.1, 0.693147, 1.0, 2.0, 5.0])
    def test_ideal_closed_form(self, theta):
        assert bit_probability(theta, 0.5, 0.0) == pytest.approx(
            1.0 - math.exp(-theta), abs=1e-12)

    def test_pure_read_noise(self):
        # theta = 0: only the k = 0 term survives, giving Phi(-q/sigma).
        assert bit_probability(0.0, 0.5, 0.5) == pytest.approx(
            PHI_TABLE[-1.0], abs=1e-12)

    def test_series_against_high_precision_oracle(self):
        assert bit_probability(1.0, 0.5, 0.25) == pytest.approx(
            P_THETA1_Q05_SR025, abs=1e-12)

    def test_phi_against_table(self):
        from quantaflow.sensor import _phi
        for z, val in PHI_TABLE.items():
            assert _phi(z) == pytest.approx(val, abs=1e-9)

    def test_integer_threshold_ties_fire(self):
        # q = 1 exactly: k = 1 crosses, so p = P(Poisson >= 1) = 1 - e^-theta.
        assert bit_probability(2.0, 1.0, 0.0) == pytest.approx(
            1.0 - math.exp(-2.0), abs=1e-12)

    def test_monotone_in_theta_and_q(self):
        thetas = np.linspace(0.01, 8.0, 40)
        for q in (0.5, 1.5):
            for sr in (0.0, 0.25, 0.5):
                vals = [bit_probability(t, q, sr) for t in thetas]
                assert all(b > a for a, b in zip(vals, vals[1:]))
        for sr in (0.0, 0.25, 0.5):
            assert bit_probability(1.0, 1.5, sr) < bit_probability(1.0, 0.5, sr)

    @pytest.mark.parametrize("theta", [745.0, 750.0, 1e3, 1e6])
    @pytest.mark.parametrize("sigma_r", [0.0, 0.25])
    def test_large_exposure_saturates(self, theta, sigma_r):
        # exp(-theta) underflows from theta ~ 745 on; the bit must still fire.
        assert bit_probability(theta, 0.5, sigma_r) >= 1.0 - 1e-12

    @pytest.mark.parametrize("q, sigma_r", [(0.5, 0.0), (1.5, 0.0), (0.5, 0.25),
                                            (1.5, 0.5), (2.7, 1.0)])
    def test_series_against_mpmath(self, q, sigma_r):
        # Reference: the upward series sum_k Poisson(k; theta) Phi((k - q) / sigma_r)
        # in 40-digit arithmetic, summed to k = 200 (far past theta = 64).
        with mpmath.workdps(40):
            mq, ms = mpmath.mpf(q), mpmath.mpf(sigma_r)
            weights = [mpmath.ncdf((k - mq) / ms) if sigma_r else int(k >= q)
                       for k in range(200)]
            for theta in np.linspace(0.0, 64.0, 97):
                pmf, ref = mpmath.exp(-mpmath.mpf(theta)), mpmath.mpf(0)
                for k, w in enumerate(weights):
                    ref += pmf * w
                    pmf *= mpmath.mpf(theta) / (k + 1)
                assert abs(bit_probability(theta, q, sigma_r) - float(ref)) <= 1e-14

    @pytest.mark.parametrize("theta", [-1.0, math.nan, math.inf])
    def test_bad_theta_rejected(self, theta):
        with pytest.raises(DomainError):
            bit_probability(theta, 0.5, 0.25)


class TestSampleFrame:
    def test_all_zero_map(self):
        emap = ExposureMap.constant(32, 16, 0.0)
        frame = sample_frame(emap, SensorConfig(0.5, 0.0, 1))
        assert mean_bit_density(frame) == 0.0

    def test_huge_exposure_saturates(self):
        emap = ExposureMap.constant(256, 256, 1e6)
        frame = sample_frame(emap, SensorConfig(0.5, 0.0, 2))
        assert mean_bit_density(frame) > 0.9999

    def test_unit_exposure_matches_analytic(self):
        n = 1024 * 1024
        emap = ExposureMap.constant(1024, 1024, 1.0)
        frame = sample_frame(emap, SensorConfig(0.5, 0.0, 3))
        p = 1.0 - math.exp(-1.0)
        assert abs(mean_bit_density(frame) - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_deterministic(self):
        emap = ExposureMap.constant(64, 64, 1.3)
        cfg = SensorConfig(0.5, 0.25, 99)
        f1 = sample_frame(emap, cfg)
        f2 = sample_frame(emap, cfg)
        assert np.array_equal(f1.bits, f2.bits)

    def test_seed_changes_frame(self):
        emap = ExposureMap.constant(64, 64, 1.3)
        f1 = sample_frame(emap, SensorConfig(0.5, 0.25, 1))
        f2 = sample_frame(emap, SensorConfig(0.5, 0.25, 2))
        assert not np.array_equal(f1.bits, f2.bits)

    @pytest.mark.parametrize("q", [0.5, 1.5])
    @pytest.mark.parametrize("sigma_r", [0.0, 0.25])
    def test_level_counts_chi_square(self, q, sigma_r):
        # 16 exposure levels of 65536 pixels each: the ones per level are
        # Binomial(n, bit_probability(theta_l)) if the sampler has its law.
        levels, n = 0.25 * np.arange(1, 17), 65536
        emap = ExposureMap(1024, 1024, np.repeat(levels, n).reshape(1024, 1024))
        frame = sample_frame(emap, SensorConfig(q, sigma_r, 2024))
        ones = frame.to_array().reshape(16, n).sum(axis=1)
        p = np.array([bit_probability(t, q, sigma_r) for t in levels])
        stat = np.sum((ones - n * p) ** 2 / (n * p * (1.0 - p)))
        assert chi2.sf(stat, df=16) > 1e-4

    def test_bit_depends_only_on_own_exposure(self):
        gen = np.random.default_rng(5)
        theta, other = gen.uniform(0.0, 4.0, size=(2, 64, 96))
        keep = gen.random((64, 96)) < 0.5
        cfg = SensorConfig(0.5, 0.25, 17)
        a = sample_frame(ExposureMap(96, 64, theta), cfg).to_array()
        b = sample_frame(ExposureMap(96, 64, np.where(keep, theta, other)), cfg).to_array()
        assert np.array_equal(a[keep], b[keep])
        assert not np.array_equal(a[~keep], b[~keep])


class TestDensity:
    def test_mean_density_counts(self):
        frame = BinaryFrame.from_array(np.array([[1, 0], [0, 1]]))
        assert mean_bit_density(frame) == 0.5
        assert mean_bit_density(BinaryFrame.from_array(np.zeros((3, 9)))) == 0.0
        assert mean_bit_density(BinaryFrame.from_array(np.ones((3, 9)))) == 1.0

    def test_local_density_all_ones_zero_pad(self):
        frame = BinaryFrame.from_array(np.ones((5, 5)))
        mu = local_bit_density(frame, NeighborhoodSpec(1, "zero-pad")).mu
        assert mu[2, 2] == 1.0
        assert mu[0, 0] == pytest.approx(4 / 9)

    def test_local_density_all_ones_clamp(self):
        frame = BinaryFrame.from_array(np.ones((5, 5)))
        mu = local_bit_density(frame, NeighborhoodSpec(1, "clamp")).mu
        assert np.all(mu == 1.0)

    def test_local_density_single_one(self):
        bits = np.zeros((5, 5))
        bits[2, 2] = 1
        frame = BinaryFrame.from_array(bits)
        mu = local_bit_density(frame, NeighborhoodSpec(1)).mu
        hits = (np.abs(np.arange(5) - 2)[:, None] <= 1) & \
               (np.abs(np.arange(5) - 2)[None, :] <= 1)
        assert np.all(mu[hits] == pytest.approx(1 / 9))
        assert np.all(mu[~hits] == 0.0)

    def test_norm_identity_exact(self):
        gen = np.random.default_rng(0)
        frame = BinaryFrame.from_array(gen.integers(0, 2, size=(17, 23)))
        nb = NeighborhoodSpec(2)
        counts = neighborhood_ones(frame, nb)
        # brute-force window sum of Y^2 (Y binary, so Y^2 = Y)
        arr = frame.to_array().astype(np.int64)
        padded = np.pad(arr, nb.radius)
        brute = sum(padded[dy:dy + 17, dx:dx + 23] ** 2
                    for dy in range(5) for dx in range(5))
        assert np.array_equal(counts, brute)
        norms = neighborhood_l2_norm(frame, nb)
        assert np.allclose(norms ** 2, counts, atol=1e-9)
        mu = local_bit_density(frame, nb).mu
        assert np.array_equal(np.rint(mu * nb.size).astype(np.int64), counts)


class TestInversion:
    def test_closed_form_examples(self):
        assert invert_bit_density(1 - math.exp(-1), 0.5, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert invert_bit_density(0.5, 0.5, 0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_round_trip_through_series(self):
        mu = bit_probability(2.0, 0.5, 0.25)
        assert invert_bit_density(mu, 0.5, 0.25) == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("q", [0.5, 1.5])
    @pytest.mark.parametrize("sigma_r", [0.0, 0.25, 0.5])
    def test_round_trip_grid(self, q, sigma_r):
        for theta in np.geomspace(0.05, 5.0, 12):
            mu = bit_probability(theta, q, sigma_r)
            that = invert_bit_density(mu, q, sigma_r)
            assert abs(that - theta) / theta <= 1e-6

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.2, 1.5])
    def test_saturated_rejected(self, mu):
        with pytest.raises(DomainError):
            invert_bit_density(mu, 0.5, 0.0)

    def test_below_noise_floor_unidentifiable(self):
        floor = noise_floor(0.5, 0.5)
        with pytest.raises(UnidentifiableError):
            invert_bit_density(floor * 0.5, 0.5, 0.5)


class TestTypes:
    def test_negative_exposure_rejected(self):
        with pytest.raises(DomainError):
            ExposureMap(2, 2, np.array([[0.0, 1.0], [-0.1, 2.0]]))

    def test_nonzero_padding_rejected(self):
        bits = np.full((2, 1), 0xFF, dtype=np.uint8)  # width 5 -> 3 pad bits set
        with pytest.raises(DomainError):
            BinaryFrame(5, 2, bits)
        # width 13 -> 3 pad bits in each row's last byte; only the last row's
        # lowest bit is set
        bits = np.zeros((3, 2), dtype=np.uint8)
        bits[-1, -1] = 0x01
        with pytest.raises(DomainError):
            BinaryFrame(13, 3, bits)
        bits[-1, -1] = 0x08  # a pixel bit, not padding
        assert BinaryFrame(13, 3, bits).to_array()[-1, -1] == 1

    def test_bad_config_rejected(self):
        with pytest.raises(DomainError):
            SensorConfig(q=0.0)
        with pytest.raises(DomainError):
            SensorConfig(sigma_r=-1.0)

    def test_pack_round_trip(self):
        gen = np.random.default_rng(1)
        arr = gen.integers(0, 2, size=(11, 13)).astype(np.uint8)
        assert np.array_equal(BinaryFrame.from_array(arr).to_array(), arr)
