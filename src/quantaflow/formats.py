"""Binary file codecs. All formats are little-endian, magic-tagged, and
reject both truncated and oversized payloads.

QEX1  float map (exposure, density, pixel values): u32 w, h; f32 data
QBF1  bit-packed binary frame: u32 w, h; MSB-first bytes, rows byte-aligned
QBB1  exposure burst: u32 w, h, K; K f32 alphas; K f32 labels; K QBF1 payloads
QTN1  tensor: u32 rank; rank u32 dims; f32 data
QVF1  vector field: u32 m, k, stages; stage f32 blocks; embedded QTN1 init
PGM   P5 export for visualization only (no reader)
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .bracketing import ExposureBurst
from .errors import DecodeError, DomainError
from .filters import FilterAtoms
from .ode import STAGE_COUNT, AtomVectorField
from .sensor import BinaryFrame, ExposureMap

MAX_PIXELS = 2 ** 31


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError(f"truncated file: expected {n} bytes for {what}",
                              offset=self.pos)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def magic(self, expected: bytes):
        got = self.take(4, "magic")
        if got != expected:
            raise DecodeError(f"bad magic {got!r}, expected {expected!r}", offset=0)

    def done(self):
        if self.pos != len(self.data):
            raise DecodeError(
                f"{len(self.data) - self.pos} trailing bytes beyond declared payload",
                offset=self.pos)


def _check_dims(width: int, height: int):
    if width <= 0 or height <= 0 or width * height > MAX_PIXELS:
        raise DecodeError(f"dimensions {width}x{height} out of range", offset=4)


# --- QEX1 float maps ---------------------------------------------------------

def write_float_map(path, arr: np.ndarray):
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise DomainError("float map must be 2-D")
    h, w = arr.shape
    _check_dims(w, h)
    with open(path, "wb") as f:
        f.write(b"QEX1" + struct.pack("<II", w, h))
        f.write(arr.astype("<f4").tobytes())


def read_float_map(path) -> np.ndarray:
    r = _Reader(Path(path).read_bytes())
    r.magic(b"QEX1")
    w = r.u32("width")
    h = r.u32("height")
    _check_dims(w, h)
    data = np.frombuffer(r.take(4 * w * h, "pixel data"), dtype="<f4")
    r.done()
    return data.reshape(h, w).astype(np.float64)


def write_exposure_map(path, emap: ExposureMap):
    write_float_map(path, emap.theta)


def read_exposure_map(path) -> ExposureMap:
    arr = read_float_map(path)
    return ExposureMap(arr.shape[1], arr.shape[0], arr)


# --- QBF1 binary frames ------------------------------------------------------

def _frame_payload(frame: BinaryFrame) -> bytes:
    return frame.bits.tobytes()


def _decode_frame_payload(r: _Reader, w: int, h: int, what: str) -> BinaryFrame:
    row_bytes = (w + 7) // 8
    raw = np.frombuffer(r.take(row_bytes * h, what), dtype=np.uint8)
    bits = raw.reshape(h, row_bytes)
    pad = 8 * row_bytes - w
    if pad and np.any(bits[:, -1] & ((1 << pad) - 1)):
        raise DecodeError(f"nonzero padding bits in {what}", offset=r.pos - len(raw))
    return BinaryFrame(w, h, bits)


def write_frame(path, frame: BinaryFrame):
    _check_dims(frame.width, frame.height)
    with open(path, "wb") as f:
        f.write(b"QBF1" + struct.pack("<II", frame.width, frame.height))
        f.write(_frame_payload(frame))


def read_frame(path) -> BinaryFrame:
    r = _Reader(Path(path).read_bytes())
    r.magic(b"QBF1")
    w = r.u32("width")
    h = r.u32("height")
    _check_dims(w, h)
    frame = _decode_frame_payload(r, w, h, "frame payload")
    r.done()
    return frame


# --- QBB1 bursts -------------------------------------------------------------

def write_burst(path, burst: ExposureBurst):
    _check_dims(burst.width, burst.height)
    k = len(burst)
    with open(path, "wb") as f:
        f.write(b"QBB1" + struct.pack("<III", burst.width, burst.height, k))
        f.write(np.asarray(burst.alphas, dtype="<f4").tobytes())
        f.write(np.asarray(burst.theta_tilde, dtype="<f4").tobytes())
        for frame in burst.frames:
            f.write(_frame_payload(frame))


def read_burst(path) -> ExposureBurst:
    r = _Reader(Path(path).read_bytes())
    r.magic(b"QBB1")
    w = r.u32("width")
    h = r.u32("height")
    k = r.u32("frame count")
    _check_dims(w, h)
    if k == 0:
        raise DecodeError("burst with zero frames", offset=12)
    alphas = np.frombuffer(r.take(4 * k, "alpha table"), dtype="<f4")
    labels = np.frombuffer(r.take(4 * k, "theta_tilde table"), dtype="<f4")
    frames = []
    for tau in range(k):
        frames.append(_decode_frame_payload(r, w, h, f"burst frame {tau}"))
    r.done()
    return ExposureBurst(tuple(frames), tuple(float(a) for a in alphas),
                         tuple(float(t) for t in labels))


# --- QTN1 tensors ------------------------------------------------------------

def write_tensor(path, arr: np.ndarray):
    with open(path, "wb") as f:
        f.write(_tensor_bytes(np.asarray(arr)))


def _tensor_bytes(arr: np.ndarray) -> bytes:
    if arr.size > MAX_PIXELS:
        raise DomainError("tensor too large")
    dims = struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
    return b"QTN1" + dims + arr.astype("<f4").tobytes()


def _decode_tensor(r: _Reader) -> np.ndarray:
    r.magic(b"QTN1")
    rank = r.u32("rank")
    if rank == 0 or rank > 8:
        raise DecodeError(f"unsupported tensor rank {rank}", offset=r.pos - 4)
    dims = [r.u32(f"dim {i}") for i in range(rank)]
    count = int(np.prod(dims))
    if count <= 0 or count > MAX_PIXELS:
        raise DecodeError(f"tensor element count {count} out of range", offset=r.pos)
    data = np.frombuffer(r.take(4 * count, "tensor data"), dtype="<f4")
    return data.reshape(dims).astype(np.float64)


def read_tensor(path) -> np.ndarray:
    r = _Reader(Path(path).read_bytes())
    arr = _decode_tensor(r)
    r.done()
    return arr


# --- QVF1 vector fields ------------------------------------------------------

def write_field(path, field_: AtomVectorField):
    m, k = field_.m, field_.k
    with open(path, "wb") as f:
        f.write(b"QVF1" + struct.pack("<III", m, k, len(field_.stage_weights)))
        for w in field_.stage_weights:
            f.write(w.astype("<f4").tobytes())
        f.write(_tensor_bytes(field_.lambda_init.data))


def read_field(path) -> AtomVectorField:
    r = _Reader(Path(path).read_bytes())
    r.magic(b"QVF1")
    m = r.u32("atom count")
    k = r.u32("spatial size")
    stages = r.u32("stage count")
    if m < 1 or k < 1:
        raise DecodeError(f"invalid field dims m={m} k={k}", offset=4)
    if stages != STAGE_COUNT:
        raise DecodeError(f"stage count {stages} != {STAGE_COUNT}", offset=12)
    n = m * k * k
    weights = []
    for s in range(stages):
        block = np.frombuffer(r.take(4 * n * (n + 1), f"stage {s} weights"),
                              dtype="<f4")
        weights.append(block.reshape(n, n + 1).astype(np.float64))
    init = _decode_tensor(r)
    if init.shape != (m, k, k):
        raise DecodeError(f"initial atoms shape {init.shape} != ({m}, {k}, {k})",
                          offset=r.pos)
    r.done()
    return AtomVectorField(tuple(weights), FilterAtoms(m, k, init))


# --- PGM P5 export -----------------------------------------------------------

def export_pgm_frame(path, frame: BinaryFrame):
    """Binary frame as 8-bit PGM: {0,1} -> {0,255}."""
    arr = frame.to_array().astype(np.uint8) * 255
    _write_pgm(path, arr, comment="binary frame, 1 -> 255")


def export_pgm_map(path, arr: np.ndarray):
    """Float map as 8-bit PGM, min-max scaled; scale kept in the comment."""
    arr = np.asarray(arr, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    span = hi - lo if hi > lo else 1.0
    scaled = np.round((arr - lo) / span * 255.0).astype(np.uint8)
    _write_pgm(path, scaled, comment=f"min-max scaled from [{lo!r}, {hi!r}]")


def _write_pgm(path, arr: np.ndarray, comment: str):
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n# {comment}\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())
