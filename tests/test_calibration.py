import math

import numpy as np
import pytest

from quantaflow import (CmosParams, DomainError, QisParams, formats,
                        cmos_gray_to_photons, qis_forward)
from quantaflow.calibration import ADC_BITS_MAX
from quantaflow.rng import RATE_CAP


class TestCmos:
    def test_zero(self):
        assert cmos_gray_to_photons(0.0) == 0.0

    def test_datasheet_values(self):
        p = CmosParams(gain_ratio=1.0, quantum_efficiency=0.68)
        assert cmos_gray_to_photons(68.0, p) == pytest.approx(100.0, abs=1e-12)
        assert cmos_gray_to_photons(100.0, p) == pytest.approx(100.0 / 0.68, abs=1e-10)

    def test_linear_and_round_trip(self):
        p = CmosParams(gain_ratio=2.0, quantum_efficiency=0.5)
        x = np.array([0.0, 1.0, 10.0, 250.0])
        photons = cmos_gray_to_photons(x, p)
        assert np.allclose(photons, 2.0 * x / 0.5)
        # I = QE * X / G inverts exactly
        gray = p.quantum_efficiency * photons / p.gain_ratio
        assert np.allclose(cmos_gray_to_photons(gray, p), photons, rtol=0, atol=0)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            cmos_gray_to_photons(-1.0)

    def test_bad_params(self):
        with pytest.raises(DomainError):
            CmosParams(gain_ratio=0.0)
        with pytest.raises(DomainError):
            CmosParams(quantum_efficiency=1.2)

    @pytest.mark.parametrize("field", ["gain_ratio", "quantum_efficiency"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            CmosParams(**{field: value})

    @pytest.mark.parametrize("field", ["gain_ratio", "quantum_efficiency"])
    def test_bool_params_rejected(self, field):
        with pytest.raises(DomainError, match=f"{field} must be a number, not a bool"):
            CmosParams(**{field: True})


class TestQisForward:
    def test_dark_and_noise_free_zero_input(self):
        p = QisParams(exposure_time=1.0, dark_signal=0.0, sigma_real_noise=0.0)
        out = qis_forward(np.zeros((8, 8)), p, seed=1)
        assert np.all(out == 0.0)

    def test_poisson_mean(self):
        # ET * QE * X = 4; unit ADC step preserves the counts exactly
        p = QisParams(gain_ratio=1.0, quantum_efficiency=0.5, exposure_time=1.0,
                      adc_bits=14, clip_max=float(2 ** 14 - 1))
        n = 200_000
        x = np.full(n, 8.0)
        out = qis_forward(x, p, seed=2)
        assert abs(out.mean() - 4.0) < 4 * np.sqrt(4.0 / n)

    def test_crf_gain_halves_needed_photons(self):
        p1 = QisParams(quantum_efficiency=1.0, exposure_time=1.0, crf=1.0)
        p2 = QisParams(quantum_efficiency=1.0, exposure_time=1.0, crf=2.0)
        n = 100_000
        m1 = qis_forward(np.full(n, 8.0), p1, seed=3).mean()
        m2 = qis_forward(np.full(n, 4.0), p2, seed=3).mean()
        assert abs(m1 - m2) < 4 * np.sqrt(2 * 8.0 / n)

    def test_clipping_saturates(self):
        p = QisParams(quantum_efficiency=1.0, exposure_time=1.0,
                      adc_bits=4, clip_max=15.0, sigma_real_noise=0.0)
        out = qis_forward(np.full(10_000, 100.0), p, seed=4)
        assert out.max() <= 15.0
        assert out.min() >= 0.0

    def test_noise_added_after_quantization(self):
        p0 = QisParams(quantum_efficiency=1.0, exposure_time=1.0,
                       sigma_real_noise=0.0)
        p1 = QisParams(quantum_efficiency=1.0, exposure_time=1.0,
                       sigma_real_noise=0.5)
        x = np.full(1000, 5.0)
        quiet = qis_forward(x, p0, seed=5)
        noisy = qis_forward(x, p1, seed=5)
        # same photon substream, so the difference is pure Gaussian noise
        diff = noisy - quiet
        assert not np.all(diff == 0.0)
        assert abs(diff.mean()) < 0.1

    def test_deterministic(self):
        p = QisParams(exposure_time=1.0)
        x = np.random.default_rng(0).uniform(0, 50, size=(32, 32))
        assert np.array_equal(qis_forward(x, p, seed=9), qis_forward(x, p, seed=9))

    def test_dark_signal_floor(self):
        p = QisParams(quantum_efficiency=1.0, exposure_time=1.0,
                      dark_signal=4.0, sigma_real_noise=0.0)
        n = 100_000
        out = qis_forward(np.zeros(n), p, seed=6)
        assert abs(out.mean() - 4.0) < 4 * np.sqrt(4.0 / n)

    @pytest.mark.parametrize("field", ["gain_ratio", "quantum_efficiency", "exposure_time",
                                       "dark_signal", "sigma_real_noise", "adc_bits",
                                       "clip_max", "crf"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            QisParams(**{field: value})

    @pytest.mark.parametrize("field", ["gain_ratio", "quantum_efficiency", "exposure_time",
                                       "dark_signal", "sigma_real_noise", "adc_bits",
                                       "clip_max", "crf"])
    @pytest.mark.parametrize("value", [True, False, np.True_, np.ones((2, 2), dtype=bool),
                                       [[1.5, True], [1.0, 1.0]]])
    def test_bool_params_rejected(self, field, value):
        # JSON true would otherwise run as 1: no range check tells it apart.
        with pytest.raises(DomainError, match=f"{field} must be a number, not a bool"):
            QisParams(**{field: value})

    def test_non_finite_crf_entry_rejected(self):
        crf = np.ones((4, 4))
        crf[3, 2] = math.nan
        with pytest.raises(DomainError, match="crf must be finite"):
            QisParams(crf=crf)

    def test_shape_mismatch_crf(self):
        p = QisParams(crf=np.ones((2, 2)))
        with pytest.raises(Exception):
            qis_forward(np.zeros((3, 3)), p, seed=0)

    def test_bad_params(self):
        with pytest.raises(DomainError):
            QisParams(exposure_time=0.0)
        with pytest.raises(DomainError):
            QisParams(crf=np.array([[1.0, -1.0]]))

    @pytest.mark.parametrize("bits", [0, ADC_BITS_MAX + 1, 2000])
    def test_adc_bits_out_of_range_rejected(self, bits):
        with pytest.raises(DomainError, match="adc_bits"):
            QisParams(adc_bits=bits)

    def test_adc_bits_at_bound_accepted(self):
        p = QisParams(adc_bits=ADC_BITS_MAX, clip_max=1.0)
        out = qis_forward(np.full(64, 10.0), p, seed=1)
        assert np.all(np.isfinite(out)) and np.all((out >= 0) & (out <= 1.0))

    @pytest.mark.parametrize("exposure_time", [1e300, 1.5e308])
    def test_rate_above_cap_rejected(self, exposure_time):
        p = QisParams(exposure_time=exposure_time)
        with pytest.raises(DomainError, match="exceeds the cap"):
            qis_forward(np.full((2, 3), 2.0), p, seed=0)

    def test_rate_cap_is_per_pixel(self):
        # One pixel over the cap rejects the map; a map at the cap is drawn.
        x = np.zeros(8)
        p = QisParams(exposure_time=1.0, quantum_efficiency=1.0, clip_max=1e13)
        x[5] = RATE_CAP
        assert qis_forward(x, p, seed=2)[5] > 0
        x[5] = np.nextafter(RATE_CAP, np.inf)
        with pytest.raises(DomainError, match="exceeds the cap"):
            qis_forward(x, p, seed=2)


class TestFloat32Maps:
    """A float32 map, as `formats.read_float_map` returns it, gives the
    float64 path's result on its float64 copy cast to float32 once, bit for
    bit, and a float64 map still gives float64."""

    SHAPE = (3, 30011)  # 90033 pixels: two tiles, the second one short

    @staticmethod
    def _map(high, shape=SHAPE):
        return np.random.default_rng(31).uniform(0.0, high, size=shape).astype(np.float32)

    @staticmethod
    def _same_bits(a, b):
        return a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("gain, qe", [(1.0, 0.68), (0.3, 0.7), (2.5, 0.9)])
    def test_cmos(self, gain, qe):
        # float32 * 0.3 would round in float32: each tile becomes float64 first.
        m, p = self._map(255.0), CmosParams(gain, qe)
        wide = cmos_gray_to_photons(m.astype(np.float64), p)
        assert wide.dtype == np.float64
        assert self._same_bits(cmos_gray_to_photons(m, p), wide.astype(np.float32))

    @pytest.mark.parametrize("params", [
        dict(exposure_time=1.0),
        dict(exposure_time=1.0, gain_ratio=1.3, dark_signal=0.5, adc_bits=10,
             sigma_real_noise=0.7),
        dict(exposure_time=1.5, quantum_efficiency=0.9, adc_bits=12, clip_max=150.0,
             sigma_real_noise=3.25, crf="map"),
    ], ids=["plain", "noise", "noise-crf"])
    def test_qis_forward(self, params):
        # Rates 0..120: both count-sampler branches. With noise, a float32
        # store before the noise is added would round twice.
        m = self._map(120.0)
        if params.get("crf") == "map":
            params = {**params, "crf": np.random.default_rng(5).uniform(0.5, 1.5, self.SHAPE)}
        p = QisParams(**params)
        wide = qis_forward(m.astype(np.float64), p, seed=77)
        assert wide.dtype == np.float64
        assert self._same_bits(qis_forward(m, p, seed=77), wide.astype(np.float32))

    def test_export_pgm_map(self, tmp_path):
        m = self._map(1000.0)
        m[1, 7], m[2, -1] = -3.5, 1234.25  # the extremes in two tiles
        formats.export_pgm_map(tmp_path / "a.pgm", m)
        formats.export_pgm_map(tmp_path / "b.pgm", m.astype(np.float64))
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    @pytest.mark.parametrize("make", [
        lambda m: cmos_gray_to_photons(m, CmosParams(gain_ratio=1e37)),
        lambda m: qis_forward(m, QisParams(exposure_time=1.0, sigma_real_noise=1e39), seed=3),
    ], ids=["cmos-gain", "qis-noise"])
    def test_float32_overflow_is_refused_by_the_writer(self, tmp_path, make):
        # The float64 values are finite but beyond float32: both maps are
        # refused with the writer's message, and no file is made.
        m = self._map(120.0)
        narrow, wide = make(m), make(m.astype(np.float64))
        assert np.isfinite(wide).all() and np.isinf(narrow).any()
        for out in (narrow, wide):
            with pytest.raises(DomainError, match="float map must be finite in float32"):
                formats.write_float_map(tmp_path / "out.qex", out)
            assert not (tmp_path / "out.qex").exists()

    def test_a_float32_scalar_is_computed_as_before(self):
        p = CmosParams(0.3, 0.7)
        for gray in (np.float32(0.1), np.array(np.float32(0.1))):
            got = cmos_gray_to_photons(gray, p)
            assert got == 0.3 * float(np.float32(0.1)) / 0.7 and np.asarray(got).dtype == np.float64

    def test_float64_overflow_is_refused_as_before(self):
        m = self._map(120.0)
        for x in (m, m.astype(np.float64)):
            with pytest.raises(DomainError, match="photon counts overflow a float64"):
                cmos_gray_to_photons(x, CmosParams(gain_ratio=1e307))

    def test_a_read_map_is_taken_as_it_is(self, tmp_path):
        m = self._map(255.0)
        formats.write_float_map(tmp_path / "m.qex", m)
        back = formats.read_float_map(tmp_path / "m.qex")
        assert back.dtype == np.dtype("<f4") and not back.flags.writeable
        assert self._same_bits(cmos_gray_to_photons(back), cmos_gray_to_photons(m))
