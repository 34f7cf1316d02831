"""The array value types take their array and derive every dimension from
its shape; one rule checks axes, finite entries and freezes the array."""

import numpy as np
import pytest

from quantaflow import (BinaryFrame, Coefficients, DensityMap, DomainError,
                        EaclConfig, ExposureBurst, ExposureMap, FeatureMap, FilterAtoms,
                        SensorConfig, ShapeError, formats, mean_bit_density, sample_frame)

# (constructor from an array, array shape, expected dimensions). Every
# shape has distinct axis lengths, so a swapped pair of dimensions shows.
FLOAT_TYPES = {
    "exposure": (ExposureMap, "theta", (3, 5), {"height": 3, "width": 5}),
    "density": (DensityMap, "mu", (3, 5), {"height": 3, "width": 5}),
    "atoms": (FilterAtoms, "data", (2, 3, 3), {"m": 2, "k": 3}),
    "coefficients": (Coefficients, "data", (2, 3, 5), {"c_out": 2, "c_in": 3, "m": 5}),
    "features": (FeatureMap, "data", (2, 3, 5), {"channels": 2, "height": 3, "width": 5}),
    "bias": (EaclConfig, "bias", (4,), {}),
}


def _valid(shape):
    return np.full(shape, 0.5)


@pytest.mark.parametrize("name", FLOAT_TYPES)
class TestFloatArrayTypes:
    def test_dimensions_come_from_the_array(self, name):
        cls, attr, shape, dims = FLOAT_TYPES[name]
        obj = cls(_valid(shape))
        assert getattr(obj, attr).shape == shape
        assert {d: getattr(obj, d) for d in dims} == dims

    def test_wrong_ndim_is_shape_error(self, name):
        cls, _, shape, _ = FLOAT_TYPES[name]
        for bad in (shape[1:], shape + (2,)):
            with pytest.raises(ShapeError):
                cls(_valid(bad))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_domain_error(self, name, value):
        cls, _, shape, _ = FLOAT_TYPES[name]
        arr = _valid(shape)
        arr.flat[-1] = value
        with pytest.raises(DomainError, match="finite"):
            cls(arr)

    def test_stored_array_is_read_only_float64(self, name):
        cls, attr, shape, _ = FLOAT_TYPES[name]
        stored = getattr(cls(np.ones(shape, dtype=np.float32) / 2), attr)
        assert stored.dtype == np.float64
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[(0,) * len(shape)] = 0.25


class TestBinaryFrame:
    def test_height_comes_from_the_rows(self):
        frame = BinaryFrame(13, np.zeros((3, 2), dtype=np.uint8))
        assert (frame.width, frame.height) == (13, 3)
        assert frame.to_array().shape == (3, 13)

    @pytest.mark.parametrize("width, shape", [(13, (2,)), (13, (3, 1)), (13, (3, 3)),
                                              (13, (1, 3, 2)), (-3, (2, 0))])
    def test_wrong_shape_is_shape_error(self, width, shape):
        with pytest.raises(ShapeError):
            BinaryFrame(width, np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("make", [
        lambda p: mean_bit_density(BinaryFrame.from_array(np.zeros((3, 0)))),
        lambda p: BinaryFrame(8, np.zeros((0, 1), dtype=np.uint8)),
        lambda p: sample_frame(ExposureMap(np.zeros((0, 4))), SensorConfig()),
        lambda p: formats.write_burst(p, ExposureBurst((), (), ())),
    ], ids=["width-0", "height-0", "sampled-height-0", "burst-of-0-frames"])
    def test_empty_frame_or_burst_is_domain_error(self, tmp_path, make):
        # The readers refuse these sizes; the types refuse them as well.
        with pytest.raises(DomainError):
            make(tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_stored_bits_are_read_only(self):
        frame = BinaryFrame.from_array(np.eye(3))
        assert not frame.bits.flags.writeable
        with pytest.raises(ValueError):
            frame.bits[0, 0] = 0


class TestRanges:
    @pytest.mark.parametrize("mu", [-1e-300, 1.0 + 1e-15])
    def test_density_outside_unit_interval(self, mu):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            DensityMap(np.array([[0.5, mu]]))

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 0)])
    def test_empty_atoms(self, shape):
        with pytest.raises(DomainError, match=">= 1"):
            FilterAtoms(np.zeros(shape))

    def test_non_square_atoms(self):
        with pytest.raises(ShapeError):
            FilterAtoms(np.zeros((2, 3, 5)))

    def test_constant_exposure_map(self):
        emap = ExposureMap.constant(5, 3, 2.0)
        assert (emap.width, emap.height) == (5, 3)
        assert np.all(emap.theta == 2.0)
