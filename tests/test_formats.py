import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from quantaflow import (AtomVectorField, BinaryFrame, DecodeError, DomainError,
                        ExposureBurst, ExposureMap, FilterAtoms, QuantaError, formats)
from quantaflow.bracketing import default_labels

# QTN1 dims whose element count wraps to 671371 in int64 arithmetic.
WRAPPING_DIMS = (3104227921, 3731840169, 236817699)


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
        formats.write_float_map(p, emap.theta)
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

    def test_frame_of_a_strided_view(self, tmp_path):
        # The writer streams the frame's bits, which the frame keeps contiguous.
        packed = np.arange(6, dtype=np.uint8).reshape(3, 2)
        p = tmp_path / "v.qbf"
        formats.write_frame(p, BinaryFrame(8, packed[:, ::2]))
        assert formats.read_frame(p).bits.tolist() == [[0], [2], [4]]

    def test_nonzero_padding_rejected(self, tmp_path):
        # width 5 means 3 padding bits per row byte
        p = tmp_path / "pad.qbf"
        p.write_bytes(b"QBF1" + struct.pack("<II", 5, 1) + bytes([0xFF]))
        with pytest.raises(DecodeError):
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

    def test_element_count_past_cap_rejected(self, tmp_path):
        # The product of these dims wraps to 671371 in int64; the data is
        # there, so only an exact element count refuses the header.
        p = tmp_path / "w.qtn"
        p.write_bytes(b"QTN1" + struct.pack("<4I", 3, *WRAPPING_DIMS) + bytes(4 * 671371))
        with pytest.raises(DecodeError, match="element count"):
            formats.read_tensor(p)


class TestFieldRoundTrip:
    def test_byte_identical(self, tmp_path):
        field = AtomVectorField.seeded(2, 3, seed=5)
        p1, p2 = tmp_path / "a.qvf", tmp_path / "b.qvf"
        formats.write_field(p1, field)
        back = formats.read_field(p1)
        formats.write_field(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_state_past_cap_rejected(self, tmp_path):
        # m*k*k = 9000 > MAX_STATE: the header alone is refused.
        p = tmp_path / "big.qvf"
        p.write_bytes(b"QVF1" + struct.pack("<III", 1000, 3, 6))
        with pytest.raises(DecodeError, match="exceeds"):
            formats.read_field(p)

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


def _field_with_stage0(value):
    field = AtomVectorField.seeded(1, 2, seed=3)
    weights = (np.full_like(field.stage_weights[0], value), *field.stage_weights[1:])
    return AtomVectorField(weights, field.lambda_init)


def _burst_with_alphas(alphas):
    gen = np.random.default_rng(0)
    frames = tuple(BinaryFrame.from_array(gen.integers(0, 2, size=(3, 5)))
                   for _ in alphas)
    return ExposureBurst(frames, alphas, default_labels(len(alphas)))


class TestWritersRefuseBadPayload:
    """A writer refuses a payload it cannot write, one not finite in
    float32 or one of a size the reader refuses, before it opens the file."""

    @pytest.mark.parametrize("writer, obj", [
        (formats.write_float_map, np.array([[1.0, np.nan]])),
        (formats.write_float_map, np.array([[1.0, -np.inf]])),
        (formats.write_float_map, np.array([[1.0, 1e39]])),
        (formats.write_float_map, np.zeros((0, 5))),
        (formats.write_burst, _burst_with_alphas((1.0, 1e39))),
        (formats.write_burst, _burst_with_alphas((1.0, float("inf")))),
        (formats.write_tensor, np.array([0.0, np.nan, 1.0])),
        (formats.write_tensor, np.full((2, 2), -1e39)),
        (formats.write_tensor, np.broadcast_to(0.0, (2 ** 31 + 1,))),  # a view: no copy
        (formats.write_tensor, np.zeros((0, 3))),
        (formats.write_tensor, np.array(1.0)),
        (formats.write_field, _field_with_stage0(1e39)),
        (formats.write_field, AtomVectorField.zero(1, 2, FilterAtoms(np.full((1, 2, 2), 4e38)))),
        (formats.export_pgm_map, np.array([[0.0, np.nan]])),
        (formats.export_pgm_map, np.array([[np.inf, 1.0]])),
    ], ids=["map-nan", "map-neg-inf", "map-1e39", "map-empty", "burst-alpha-1e39", "burst-alpha-inf",
            "tensor-nan", "tensor-neg-1e39", "tensor-past-cap", "tensor-empty", "tensor-rank-0",
            "field-stage-1e39", "field-init-4e38",
            "pgm-map-nan", "pgm-map-inf"])
    def test_refused_without_file(self, tmp_path, writer, obj):
        p = tmp_path / "out"
        with pytest.raises(DomainError):
            writer(p, obj)
        assert not p.exists()


# One small valid value per container, with its writer and reader.
_GEN = np.random.default_rng(12)
FUZZ = {
    "QEX1": (formats.write_float_map, formats.read_float_map,
             _GEN.uniform(0, 9, size=(3, 4))),
    "QBF1": (formats.write_frame, formats.read_frame,
             BinaryFrame.from_array(_GEN.integers(0, 2, size=(3, 11)))),
    "QBB1": (formats.write_burst, formats.read_burst, _burst_with_alphas((1.0, 2.0))),
    "QTN1": (formats.write_tensor, formats.read_tensor, _GEN.standard_normal((2, 3, 3))),
    "QVF1": (formats.write_field, formats.read_field, AtomVectorField.seeded(1, 2, seed=3)),
}


def _header_offsets(data: bytes) -> list:
    """Offsets of the u32 header fields: after the magic up to the first
    payload byte, and those of an embedded QTN1 (rank 3 here)."""
    lead = {b"QEX1": 3, b"QBF1": 3, b"QBB1": 4, b"QTN1": 5, b"QVF1": 4}[data[:4]]
    offsets = [4 * i for i in range(1, lead)]
    if data[:4] == b"QVF1":
        start = data.index(b"QTN1", 16)
        offsets += [start + 4 * i for i in range(1, 5)]
    return offsets


def _zero_field(magic: str, data: bytes) -> tuple:
    """The valid FUZZ file `data` of `magic` with one size field of its
    header set to 0 and the payload cut to the length that header then
    declares, with the message and offset of that field's own check."""
    zero = struct.pack("<I", 0)
    if magic in ("QEX1", "QBF1"):                   # width
        return data[:4] + zero + data[8:12], "dimensions 0x3 out of range", 4
    if magic == "QBB1":                             # frame count
        return data[:12] + zero, "zero frames", 12
    if magic == "QTN1":                             # dims (2, 0, 3)
        return data[:12] + zero + data[16:20], "element count 0 out of range", 20
    start = data.index(b"QTN1", 16)                 # QVF1 m: init of shape (0, 2, 2)
    init = data[start:start + 8] + zero + data[start + 12:start + 20]
    return data[:4] + zero + data[8:16] + init, "invalid field dims", 4


@pytest.mark.parametrize("magic", FUZZ)
def test_zero_size_field_meets_its_own_check(tmp_path, magic):
    writer, reader, value = FUZZ[magic]
    path = tmp_path / "zero"
    writer(path, value)
    data, message, offset = _zero_field(magic, path.read_bytes())
    path.write_bytes(data)
    with pytest.raises(DecodeError, match=message) as exc:
        reader(path)
    assert exc.value.offset == offset


class TestFuzz:
    """A mutated container either reads to a value that its writer writes
    back byte for byte, or raises QuantaError: never another exception and,
    as pytest turns RuntimeWarning into an error, never a warning."""

    @pytest.mark.parametrize("magic", FUZZ)
    @settings(max_examples=150, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_file_reads_or_raises_quanta_error(self, tmp_path, magic, data):
        writer, reader, value = FUZZ[magic]
        path = tmp_path / "mutated"
        writer(path, value)
        blob = bytearray(path.read_bytes())
        kind = data.draw(st.sampled_from(["flip", "truncate", "header", "f32"]), label="kind")
        if kind == "flip":
            for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1,
                                          max_size=4), label="positions"):
                blob[pos] ^= data.draw(st.integers(1, 255), label="mask")
        elif kind == "truncate":
            del blob[data.draw(st.integers(0, len(blob) - 1), label="length"):]
        elif kind == "header":  # a small count half the time, any u32 otherwise
            pos = data.draw(st.sampled_from(_header_offsets(bytes(blob))), label="offset")
            value = data.draw(st.integers(0, 16) | st.integers(0, 2 ** 32 - 1), label="u32")
            blob[pos:pos + 4] = struct.pack("<I", value)
        else:  # a float32 over any word, its exponent from each class: zero or
            # subnormal, normal, the largest, and infinity or NaN
            pos = 4 * data.draw(st.integers(1, len(blob) // 4 - 1), label="word")
            exponent = data.draw(st.sampled_from([0, 1, 127, 254, 255]), label="exponent")
            bits = exponent << 23 | data.draw(st.integers(0, 2 ** 23 - 1), label="mantissa")
            blob[pos:pos + 4] = struct.pack("<I", bits | data.draw(st.booleans()) << 31)
        path.write_bytes(blob)
        try:
            back = reader(path)
        except QuantaError:
            return
        writer(tmp_path / "again", back)
        assert (tmp_path / "again").read_bytes() == bytes(blob)
