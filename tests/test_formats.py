import struct

import numpy as np
import pytest

from quantaflow import (AtomVectorField, BinaryFrame, DecodeError, ExposureBurst,
                        ExposureMap, formats)
from quantaflow.bracketing import default_labels


def _rt_bytes(tmp_path, writer, obj, name):
    p1 = tmp_path / f"a_{name}"
    p2 = tmp_path / f"b_{name}"
    writer(p1, obj)
    return p1, p2


class TestFloatMapRoundTrip:
    def test_byte_identical(self, tmp_path):
        gen = np.random.default_rng(0)
        arr = gen.uniform(0, 9, size=(37, 41)).astype(np.float32).astype(np.float64)
        p1 = tmp_path / "a.qex"
        p2 = tmp_path / "b.qex"
        formats.write_float_map(p1, arr)
        formats.write_float_map(p2, formats.read_float_map(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_exposure_map_wrapper(self, tmp_path):
        emap = ExposureMap.constant(5, 3, 2.5)
        p = tmp_path / "m.qex"
        formats.write_exposure_map(p, emap)
        back = formats.read_exposure_map(p)
        assert (back.width, back.height) == (5, 3)
        assert np.array_equal(back.theta, emap.theta)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.qex"
        p.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(DecodeError):
            formats.read_float_map(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.qex"
        p.write_bytes(b"QEX1" + struct.pack("<II", 4, 4) + b"\0" * 10)
        with pytest.raises(DecodeError) as ei:
            formats.read_float_map(p)
        assert ei.value.offset is not None

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "t.qex"
        p.write_bytes(b"QEX1" + struct.pack("<II", 1, 1) + b"\0" * 4 + b"x")
        with pytest.raises(DecodeError):
            formats.read_float_map(p)

    def test_dim_overflow_rejected(self, tmp_path):
        p = tmp_path / "big.qex"
        p.write_bytes(b"QEX1" + struct.pack("<II", 1 << 16, 1 << 16))
        with pytest.raises(DecodeError):
            formats.read_float_map(p)


class TestFrameRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_byte_identical(self, seed, tmp_path):
        gen = np.random.default_rng(seed)
        w, h = int(gen.integers(1, 41)), int(gen.integers(1, 21))
        frame = BinaryFrame.from_array(gen.integers(0, 2, size=(h, w)))
        p1, p2 = tmp_path / "a.qbf", tmp_path / "b.qbf"
        formats.write_frame(p1, frame)
        formats.write_frame(p2, formats.read_frame(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_nonzero_padding_rejected(self, tmp_path):
        # width 5 means 3 padding bits per row byte
        p = tmp_path / "pad.qbf"
        p.write_bytes(b"QBF1" + struct.pack("<II", 5, 1) + bytes([0xFF]))
        with pytest.raises((DecodeError, Exception)):
            formats.read_frame(p)
        # width 13, 3 rows: only the last row's lowest padding bit is set
        p.write_bytes(b"QBF1" + struct.pack("<II", 13, 3) + bytes(5) + bytes([0x01]))
        with pytest.raises(DecodeError):
            formats.read_frame(p)


class TestBurstRoundTrip:
    def _burst(self, seed=0, k=4, w=11, h=7):
        gen = np.random.default_rng(seed)
        frames = tuple(BinaryFrame.from_array(gen.integers(0, 2, size=(h, w)))
                       for _ in range(k))
        alphas = tuple(1.0 + 0.5 * i for i in range(k))
        return ExposureBurst(frames, alphas, default_labels(k))

    def test_byte_identical(self, tmp_path):
        burst = self._burst()
        p1, p2 = tmp_path / "a.qbb", tmp_path / "b.qbb"
        formats.write_burst(p1, burst)
        formats.write_burst(p2, formats.read_burst(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_names_missing_frame(self, tmp_path):
        burst = self._burst(k=3)
        p1 = tmp_path / "a.qbb"
        formats.write_burst(p1, burst)
        data = p1.read_bytes()
        frame_bytes = 2 * 7  # ceil(11/8)=2 bytes per row, 7 rows
        truncated = tmp_path / "trunc.qbb"
        truncated.write_bytes(data[:len(data) - 3])  # partial last frame
        with pytest.raises(DecodeError) as ei:
            formats.read_burst(truncated)
        assert "frame 2" in str(ei.value)


class TestTensorRoundTrip:
    @pytest.mark.parametrize("shape", [(3,), (2, 5), (3, 3, 3), (2, 1, 4, 4)])
    def test_byte_identical(self, tmp_path, shape):
        arr = np.random.default_rng(1).standard_normal(shape)
        arr = arr.astype(np.float32).astype(np.float64)
        p1, p2 = tmp_path / "a.qtn", tmp_path / "b.qtn"
        formats.write_tensor(p1, arr)
        back = formats.read_tensor(p1)
        assert np.array_equal(back, arr)
        formats.write_tensor(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_rank_rejected(self, tmp_path):
        p = tmp_path / "z.qtn"
        p.write_bytes(b"QTN1" + struct.pack("<I", 0))
        with pytest.raises(DecodeError):
            formats.read_tensor(p)


class TestFieldRoundTrip:
    def test_byte_identical(self, tmp_path):
        field = AtomVectorField.seeded(2, 3, seed=5)
        p1, p2 = tmp_path / "a.qvf", tmp_path / "b.qvf"
        formats.write_field(p1, field)
        back = formats.read_field(p1)
        formats.write_field(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_stage_count(self, tmp_path):
        p = tmp_path / "s.qvf"
        p.write_bytes(b"QVF1" + struct.pack("<III", 2, 3, 5))
        with pytest.raises(DecodeError):
            formats.read_field(p)


class TestPgm:
    def test_frame_export(self, tmp_path):
        frame = BinaryFrame.from_array(np.array([[1, 0], [0, 1]]))
        p = tmp_path / "f.pgm"
        formats.export_pgm_frame(p, frame)
        data = p.read_bytes()
        assert data.startswith(b"P5\n")
        assert data.endswith(bytes([255, 0, 0, 255]))

    def test_map_export_records_scale(self, tmp_path):
        p = tmp_path / "m.pgm"
        formats.export_pgm_map(p, np.array([[0.0, 2.0], [1.0, 4.0]]))
        data = p.read_bytes()
        header = data.split(b"\n255\n")[0].decode()
        assert "min-max scaled" in header and "4.0" in header
        assert data.endswith(bytes([0, 128, 64, 255]))
