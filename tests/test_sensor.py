import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.stats import chi2

from quantaflow import (BinaryFrame, DomainError, ExposureMap, NeighborhoodSpec,
                        SensorConfig, UnidentifiableError, bit_probability,
                        invert_bit_density, local_bit_density, mean_bit_density,
                        sample_frame)
from quantaflow.sensor import (BINS, SERIES_CAP, THETA_CAP, _brackets, _complement, _fires,
                               _series_terms, neighborhood_ones, noise_floor)


def _brute_force_counts(bits, r, boundary):
    """Window counts in int64 as L_h @ bits @ L_w.T, where L_n[i, y] counts the
    offsets d in [-r, r] whose row i + d lands on row y under the boundary rule:
    clamped into [0, n), or dropped outside it."""
    def landings(n):
        m = np.zeros((n, n), dtype=np.int64)
        i = np.arange(n)
        for d in range(-r, r + 1):
            j = i + d
            if boundary == "clamp":
                m[i, np.clip(j, 0, n - 1)] += 1
            else:
                inside = (j >= 0) & (j < n)
                m[i[inside], j[inside]] += 1
        return m

    h, w = bits.shape[-2:]
    return landings(h) @ bits.astype(np.int64) @ landings(w).T


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

    # The last six would sum a complement series past SERIES_CAP terms: without
    # the cap, 1e300 overflowed and the others ran for seconds or more.
    @pytest.mark.parametrize("q, sigma_r, match", [
        (0.0, 0.25, "ADC threshold q"), (math.nan, 0.25, "ADC threshold q"),
        (0.5, -1.0, "read-noise sigma_r"), (0.5, math.inf, "read-noise sigma_r"),
        *((q, sigma_r, "q \\+ 9 sigma_r must be <= 255") for q, sigma_r in [
            (1e300, 0.0), (0.5, 1e5), (1e9, 0.0), (1e7, 0.25), (0.5, 1e300),
            (math.nextafter(SERIES_CAP - 1, math.inf), 0.0)])])
    def test_bad_sensor_parameters_follow_sensor_config(self, q, sigma_r, match):
        with pytest.raises(DomainError, match=match):
            bit_probability(1.0, q, sigma_r)


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
        emap = ExposureMap(np.repeat(levels, n).reshape(1024, 1024))
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
        a = sample_frame(ExposureMap(theta), cfg).to_array()
        b = sample_frame(ExposureMap(np.where(keep, theta, other)), cfg).to_array()
        assert np.array_equal(a[keep], b[keep])
        assert not np.array_equal(a[~keep], b[~keep])

    def test_large_frame_memory_is_bounded_by_the_tile(self):
        # 16 Mpx: the bits and the packed frame, not frame-sized temporaries.
        emap = ExposureMap.constant(4096, 4096, 1.0)
        tracemalloc.start()
        try:
            frame = sample_frame(emap, SensorConfig(0.5, 0.25, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2 ** 20
        assert frame.width == frame.height == 4096


# (q, sigma_r) of the squeeze tests: the defaults, no read noise at a
# fractional, an integer and a subnormal q, and q + 9 sigma_r = 255, the
# longest series, with and without read noise.
SQUEEZE_SETTINGS = [(0.5, 0.25), (0.5, 0.0), (1.0, 0.0), (5e-324, 0.0), (3.0, 1.0),
                    (200.0, 5.0), (111.0, 16.0), (255.0, 0.0)]
GRID = 2.0 ** -53  # the spacing of the uniforms


def _top(q, sigma_r):
    """theta of the last table edge: the last bin is [top, inf)."""
    return (_brackets(q, sigma_r)[1].size - 1) / BINS


def _squeeze_thetas(q, sigma_r):
    top = _top(q, sigma_r)
    edge = st.integers(0, int(top * BINS)).map(lambda j: j / BINS)
    return st.one_of(
        st.just(0.0), st.floats(5e-324, 2.2250738585072014e-308),  # subnormals
        edge, edge.map(lambda t: math.nextafter(t, math.inf)),
        edge.map(lambda t: math.nextafter(t, 0.0)),
        st.just(top), st.just(1e308), st.floats(0.0, top + 1.0), st.floats(0.0, 1e308))


def _grid_around(v):
    """The 2^-53 grid points next to each v: below, at or below, and above."""
    g = np.floor(v / GRID) * GRID
    return np.clip(np.stack([g - GRID, g, g + GRID]), 0.0, 1.0 - GRID)


class TestSqueeze:
    """`_fires` decides u >= _complement(theta) by the table of `_brackets`."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(setting=st.sampled_from(SQUEEZE_SETTINGS), data=st.data())
    def test_decision_is_the_series_comparison(self, setting, data):
        q, sigma_r = setting
        theta = np.array(data.draw(st.lists(_squeeze_thetas(q, sigma_r), min_size=1,
                                            max_size=8)))
        lo, hi = _brackets(q, sigma_r)
        j = (np.minimum(theta, _top(q, sigma_r)) * BINS).astype(np.intp)
        c = _complement(theta, q, sigma_r)
        # u at 0 and next to the complement and to each end of its bracket
        u = np.concatenate([np.zeros((1, theta.size)), _grid_around(c),
                            _grid_around(lo[j]), _grid_around(hi[j])])
        theta = np.broadcast_to(theta, u.shape).ravel()
        u = u.ravel()
        assert np.array_equal(_fires(u, theta, q, sigma_r),
                              u >= _complement(theta, q, sigma_r))

    @pytest.mark.parametrize("q, sigma_r", SQUEEZE_SETTINGS)
    def test_each_bracket_holds_the_complement_in_its_bin(self, q, sigma_r):
        lo, hi = _brackets(q, sigma_r)
        top, gen = hi.size - 1, np.random.default_rng(11)
        edge = np.arange(top) / BINS
        # In each bin: its edge and the float above it, the float below the
        # next edge, and two random points.
        theta = np.concatenate([edge, np.nextafter(edge, np.inf),
                                np.nextafter(edge + 1.0 / BINS, 0.0),
                                edge + gen.random(top) / BINS, edge + gen.random(top) / BINS])
        j = np.tile(np.arange(top), 5)
        c = _complement(theta, q, sigma_r)
        assert np.all(lo[j] <= c) and np.all(c <= hi[j])
        # The last bin: lo = 0, and hi is above the complement at any theta past the top.
        far = np.concatenate([[top / BINS, math.nextafter(top / BINS, math.inf), 1e308],
                              top / BINS * np.exp(gen.uniform(0.0, 700.0, 1000))])
        assert lo[top] == 0.0 and np.all(_complement(far, q, sigma_r) <= hi[top])

    @pytest.mark.parametrize("q, sigma_r", SQUEEZE_SETTINGS)
    def test_past_the_top_only_a_zero_uniform_is_undecided(self, q, sigma_r):
        assert _brackets(q, sigma_r)[1][-1] < GRID

    @pytest.mark.parametrize("q, sigma_r", [(111.0, 16.0), (255.0, 0.0)])
    def test_table_at_the_series_cap_is_small_and_quick(self, q, sigma_r):
        _brackets.cache_clear()
        start = time.perf_counter()
        lo, hi = _brackets(q, sigma_r)
        assert time.perf_counter() - start < 1.0  # about 20 ms on a 2-core Xeon
        assert lo.nbytes + hi.nbytes <= 2 ** 20  # 29121 edges: 0.45 MiB

    def test_scaled_frame_is_the_frame_of_the_scaled_map(self):
        emap = ExposureMap(np.random.default_rng(6).uniform(0.0, 9.0, size=(48, 80)))
        cfg = SensorConfig(0.5, 0.25, 21)
        for scale in (0.4, 1.0 / 3.0, 5e-324, 7.0):
            assert np.array_equal(sample_frame(emap, cfg, 3, scale).bits,
                                  sample_frame(ExposureMap(emap.theta * scale), cfg, 3).bits)

    @pytest.mark.parametrize("scale, match", [(1e300, "exposure entries must be finite"),
                                              (math.inf, "exposure entries must be finite"),
                                              (math.nan, "exposure scale"),
                                              (-1.0, "exposure scale")])
    def test_a_scale_out_of_range_is_refused(self, scale, match):
        emap = ExposureMap(np.array([[0.0, 3e38]]))
        with pytest.raises(DomainError, match=match):
            sample_frame(emap, SensorConfig(), 1, scale)


class TestDensity:
    def test_mean_density_counts(self):
        frame = BinaryFrame.from_array(np.array([[1, 0], [0, 1]]))
        assert mean_bit_density(frame) == 0.5
        assert mean_bit_density(BinaryFrame.from_array(np.zeros((3, 9)))) == 0.0
        assert mean_bit_density(BinaryFrame.from_array(np.ones((3, 9)))) == 1.0

    @pytest.mark.parametrize("width", range(1, 18))
    def test_mean_density_counts_packed_bytes(self, width):
        # Widths that are not a multiple of 8 leave padding bits in each row.
        bits = np.random.default_rng(width).integers(0, 2, size=(5, width))
        frame = BinaryFrame.from_array(bits)
        assert mean_bit_density(frame) == int(frame.to_array().sum()) / (5 * width)

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
        arr = frame.to_array().astype(np.int64)
        # Radii inside the frame, at its height and width, and beyond both.
        for radius in (2, 3, 5, 17, 20, 23, 100):
            for boundary in ("zero-pad", "clamp"):
                nb = NeighborhoodSpec(radius, boundary)
                counts = neighborhood_ones(frame, nb)
                # brute-force window sum of Y^2 (Y binary, so Y^2 = Y)
                padded = np.pad(arr, radius, mode=nb.pad_mode)
                size = 2 * radius + 1
                brute = np.array([[(padded[i:i + size, j:j + size] ** 2).sum()
                                   for j in range(23)] for i in range(17)])
                assert np.array_equal(counts, brute), (radius, boundary)
                mu = local_bit_density(frame, nb).mu
                assert np.array_equal(np.rint(mu * nb.size).astype(np.int64), counts)

    @pytest.mark.parametrize("boundary", ["zero-pad", "clamp"])
    def test_radius_past_frame_needs_no_padded_copy(self, boundary):
        frame = BinaryFrame.from_array(np.eye(2))
        tracemalloc.start()
        try:
            mu = local_bit_density(frame, NeighborhoodSpec(1000, boundary)).mu
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        # Under clamp, each pixel sees 1001 or 1000 copies of each line.
        counts = {"zero-pad": [[2, 2], [2, 2]],
                  "clamp": [[2002001, 2002000], [2002000, 2002001]]}[boundary]
        assert np.array_equal(mu, np.array(counts) / 2001 ** 2)

    def test_largest_radius_counts_exactly_in_int64(self):
        # (2r+1)^2 <= 2^63 - 1 first fails at r = 1518500250.
        r = 1518500249
        nb = NeighborhoodSpec(r, "clamp")
        assert nb.size <= np.iinfo(np.int64).max
        ones = neighborhood_ones(BinaryFrame.from_array(np.ones((2, 2))), nb)
        assert np.array_equal(ones, np.full((2, 2), (2 * r + 1) ** 2))
        # Each pixel sees r + 1 copies of its own line and r of the other.
        eye = neighborhood_ones(BinaryFrame.from_array(np.eye(2)), nb)
        same, cross = (r + 1) ** 2 + r ** 2, 2 * r * (r + 1)
        assert eye.tolist() == [[same, cross], [cross, same]]
        with pytest.raises(DomainError, match="int64"):
            NeighborhoodSpec(r + 1, "clamp")

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(r=st.one_of(st.integers(0, 12), st.integers(0, 300)),
           boundary=st.sampled_from(["zero-pad", "clamp"]),
           shape=st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_box_sum_equals_brute_force_int64_counts(self, r, boundary, shape, seed):
        bits = np.random.default_rng(seed).integers(0, 2, shape, dtype=np.uint8)
        counts = neighborhood_ones(bits, NeighborhoodSpec(r, boundary))
        assert np.array_equal(counts, _brute_force_counts(bits, r, boundary))

    @pytest.mark.parametrize("boundary", ["zero-pad", "clamp"])
    @pytest.mark.parametrize("r", [1, 100, 127, 128])
    def test_box_sum_is_exact_where_its_cumulative_sums_wrap(self, boundary, r):
        # A 300 x 300 frame of ones carries its row sums past 2**16 at r = 127.
        bits = np.ones((300, 300), dtype=np.uint8)
        bits[::7, ::3] = 0
        counts = neighborhood_ones(bits, NeighborhoodSpec(r, boundary))
        assert np.array_equal(counts, _brute_force_counts(bits, r, boundary))

    @pytest.mark.parametrize("r, dtype", [(0, np.uint16), (127, np.uint16), (128, np.uint32),
                                          (32767, np.uint32), (32768, np.uint64)])
    def test_counts_take_the_narrowest_dtype_whose_modulus_exceeds_the_window(self, r, dtype):
        counts = neighborhood_ones(np.ones((2, 3), dtype=np.uint8), NeighborhoodSpec(r, "clamp"))
        assert counts.dtype == dtype
        assert counts.tolist() == [[(2 * r + 1) ** 2] * 3] * 2


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

    # Every sensor bisects, the ideal one (sigma_r = 0, q <= 1) included.
    BISECTED = [(q, sigma_r) for q in (0.5, 1.5, 3.7) for sigma_r in (0.0, 0.25, 1.0)]

    @pytest.mark.parametrize("q, sigma_r", BISECTED)
    def test_bisection_brackets_exactly(self, q, sigma_r):
        # theta-hat reaches mu and the float below it does not, from one ulp
        # above the noise floor up to the largest density below 1.
        floor = noise_floor(q, sigma_r)
        top = min(bit_probability(THETA_CAP, q, sigma_r), math.nextafter(1.0, 0.0))
        one_ulp = math.nextafter(floor, 1.0)
        for mu in [one_ulp, math.nextafter(one_ulp, 1.0),
                   *np.linspace(floor, top, 23)[1:-1], top]:
            that = invert_bit_density(mu, q, sigma_r)
            assert 0.0 < that <= THETA_CAP
            below = math.nextafter(that, 0.0)
            assert bit_probability(below, q, sigma_r) < mu <= bit_probability(that, q, sigma_r)

    @pytest.mark.parametrize("q, sigma_r", BISECTED)
    def test_bisection_matches_brentq(self, q, sigma_r):
        floor = noise_floor(q, sigma_r)
        top = bit_probability(THETA_CAP, q, sigma_r)
        # Interior densities only: next to the floor the forward map is flat
        # to float precision, and any theta in the flat run is a root.
        for mu in np.linspace(floor, top, 41)[1:-1]:
            ref = brentq(lambda t: bit_probability(t, q, sigma_r) - mu, 0.0, THETA_CAP,
                         xtol=1e-14, rtol=8.9e-16, maxiter=200)
            assert invert_bit_density(mu, q, sigma_r) == pytest.approx(ref, rel=1e-12)

    def test_above_cap_rejected(self):
        with pytest.raises(DomainError, match="above cap"):
            invert_bit_density(0.5 * (1.0 + bit_probability(THETA_CAP, 60.0, 1.0)),
                               60.0, 1.0)


class TestTypes:
    def test_negative_exposure_rejected(self):
        with pytest.raises(DomainError):
            ExposureMap(np.array([[0.0, 1.0], [-0.1, 2.0]]))

    def test_nonzero_padding_rejected(self):
        bits = np.full((2, 1), 0xFF, dtype=np.uint8)  # width 5 -> 3 pad bits set
        with pytest.raises(DomainError):
            BinaryFrame(5, bits)
        # width 13 -> 3 pad bits in each row's last byte; only the last row's
        # lowest bit is set
        bits = np.zeros((3, 2), dtype=np.uint8)
        bits[-1, -1] = 0x01
        with pytest.raises(DomainError):
            BinaryFrame(13, bits)
        bits[-1, -1] = 0x08  # a pixel bit, not padding
        assert BinaryFrame(13, bits).to_array()[-1, -1] == 1

    def test_bad_config_rejected(self):
        with pytest.raises(DomainError):
            SensorConfig(q=0.0)
        with pytest.raises(DomainError):
            SensorConfig(sigma_r=-1.0)

    @pytest.mark.parametrize("q, sigma_r", [(SERIES_CAP - 1, 0.0), (SERIES_CAP - 10, 1.0),
                                            (3.0, (SERIES_CAP - 4) / 9)])
    def test_series_at_cap_accepted(self, q, sigma_r):
        SensorConfig(q, sigma_r)
        assert len(_series_terms(q, sigma_r)) <= SERIES_CAP
        assert 0.0 <= bit_probability(q, q, sigma_r) <= 1.0

    def test_pack_round_trip(self):
        gen = np.random.default_rng(1)
        arr = gen.integers(0, 2, size=(11, 13)).astype(np.uint8)
        assert np.array_equal(BinaryFrame.from_array(arr).to_array(), arr)
