"""Binary file codecs. All formats are little-endian, magic-tagged, and
reject both truncated and oversized payloads. Writers check the whole
payload before they open the file: an f32 payload must stay finite in
float32, and readers refuse one that is not.

QEX1  float map (exposure, density, pixel values): u32 w, h; f32 data
QBF1  bit-packed binary frame: u32 w, h; MSB-first bytes, rows byte-aligned
QBB1  exposure burst: u32 w, h, K; K f32 alphas; K f32 labels; K QBF1 payloads
QTN1  tensor: u32 rank; rank u32 dims; f32 data
QVF1  vector field: u32 m, k, stages; stage f32 blocks; embedded QTN1 init
PGM   P5 export for visualization only (no reader)
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import rng
from .errors import DecodeError, DomainError
from .sensor import BinaryFrame, ExposureMap

MAX_PIXELS = 2 ** 31


class _Reader:
    """Reads a file's bytes in order; each `take` is a read-only view, not a copy."""

    def __init__(self, path):
        self.data = memoryview(np.fromfile(path, dtype=np.uint8)).toreadonly()
        self.pos = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.pos + n > len(self.data):
            raise DecodeError(f"truncated file: expected {n} bytes for {what}",
                              offset=self.pos)
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def header(self, magic: bytes, *fields: str) -> list:
        """Check the magic, then read one u32 per named header field."""
        got = bytes(self.take(4, "magic"))
        if got != magic:
            raise DecodeError(f"bad magic {got!r}, expected {magic!r}", offset=self.pos - 4)
        return [self.u32(name) for name in fields]

    def f32(self, count: int, what: str) -> np.ndarray:
        """Finite float32 values, as every writer writes them: a read-only view."""
        start = self.pos
        data = np.frombuffer(self.take(4 * count, what), dtype="<f4")
        bad = _nonfinite(data)
        if bad is not None:
            raise DecodeError(f"non-finite value in {what}", offset=start + 4 * bad)
        return data

    def done(self):
        if self.pos != len(self.data):
            raise DecodeError(
                f"{len(self.data) - self.pos} trailing bytes beyond declared payload",
                offset=self.pos)


def _open(path, magic: bytes, *fields: str) -> list:
    """[reader, *header fields] of the file at `path`."""
    r = _Reader(path)
    return [r, *r.header(magic, *fields)]


def _header(magic: bytes, *fields: int) -> bytes:
    return magic + struct.pack(f"<{len(fields)}I", *fields)


def _nonfinite(data: np.ndarray) -> int | None:
    """Flat index of the first non-finite value of `data` (one tile at a time), or None."""
    flat = data.reshape(-1)
    for s in range(0, flat.size, rng.TILE):
        finite = np.isfinite(flat[s:s + rng.TILE])
        if not finite.all():
            return s + int(np.argmin(finite))
    return None


def _f32(arr, what: str) -> np.ndarray:
    """`arr` as little-endian float32 (no copy if it is one): DomainError unless all finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(arr).astype("<f4", order="C", copy=False)
    if _nonfinite(out) is not None:
        raise DomainError(f"{what} must be finite in float32")
    return out


def _save(path, *chunks):
    """Write the checked chunks (bytes or C-contiguous arrays) in turn."""
    with open(path, "wb") as f:
        f.writelines(chunks)


def _check_dims(width: int, height: int, offset: int | None = None):
    """Refuse the dimensions no reader accepts: a DecodeError at the header's
    `offset` when reading, a DomainError when writing."""
    if width <= 0 or height <= 0 or width * height > MAX_PIXELS:
        msg = f"dimensions {width}x{height} out of range"
        raise DomainError(msg) if offset is None else DecodeError(msg, offset=offset)


# --- QEX1 float maps ---------------------------------------------------------

def write_float_map(path, arr: np.ndarray):
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise DomainError("float map must be 2-D")
    h, w = arr.shape
    _check_dims(w, h)
    _save(path, _header(b"QEX1", w, h), _f32(arr, "float map"))


def read_float_map(path) -> np.ndarray:
    r, w, h = _open(path, b"QEX1", "width", "height")
    _check_dims(w, h, offset=4)
    data = r.f32(w * h, "pixel data")
    r.done()
    return data.reshape(h, w)


def read_exposure_map(path) -> ExposureMap:
    return ExposureMap(read_float_map(path))


# --- QBF1 binary frames ------------------------------------------------------

def _decode_frame_payload(r: _Reader, w: int, h: int, what: str) -> BinaryFrame:
    row_bytes = (w + 7) // 8
    start = r.pos
    bits = np.frombuffer(r.take(row_bytes * h, what), dtype=np.uint8).reshape(h, row_bytes)
    try:
        return BinaryFrame(w, bits)
    except DomainError:  # the frame's own padding-bit rule
        raise DecodeError(f"nonzero padding bits in {what}", offset=start) from None


def write_frame(path, frame: BinaryFrame):
    _check_dims(frame.width, frame.height)
    _save(path, _header(b"QBF1", frame.width, frame.height), frame.bits)


def read_frame(path) -> BinaryFrame:
    r, w, h = _open(path, b"QBF1", "width", "height")
    _check_dims(w, h, offset=4)
    frame = _decode_frame_payload(r, w, h, "frame payload")
    r.done()
    return frame


# --- QBB1 bursts -------------------------------------------------------------

def write_burst(path, burst: ExposureBurst):
    _check_dims(burst.width, burst.height)
    _save(path, _header(b"QBB1", burst.width, burst.height, len(burst)),
          _f32(burst.alphas, "alpha table"), _f32(burst.theta_tilde, "theta_tilde table"),
          *(frame.bits for frame in burst.frames))


def read_burst(path) -> ExposureBurst:
    from .bracketing import ExposureBurst
    r, w, h, k = _open(path, b"QBB1", "width", "height", "frame count")
    _check_dims(w, h, offset=4)
    if k == 0:
        raise DecodeError("burst with zero frames", offset=12)
    alphas = r.f32(k, "alpha table")
    labels = r.f32(k, "theta_tilde table")
    frames = tuple(_decode_frame_payload(r, w, h, f"burst frame {tau}") for tau in range(k))
    r.done()
    return ExposureBurst(frames, tuple(alphas.tolist()), tuple(labels.tolist()))


# --- QTN1 tensors ------------------------------------------------------------

def _tensor_chunks(arr) -> tuple:
    arr = np.asarray(arr)
    if not (0 < arr.ndim <= 8 and 0 < arr.size <= MAX_PIXELS):  # what the reader accepts
        raise DomainError(f"tensor of shape {arr.shape} out of range")
    return _header(b"QTN1", arr.ndim, *arr.shape), _f32(arr, "tensor data")


def write_tensor(path, arr: np.ndarray):
    _save(path, *_tensor_chunks(arr))


def _decode_tensor(r: _Reader) -> np.ndarray:
    rank, = r.header(b"QTN1", "rank")
    if rank == 0 or rank > 8:
        raise DecodeError(f"unsupported tensor rank {rank}", offset=r.pos - 4)
    dims = [r.u32(f"dim {i}") for i in range(rank)]
    count = math.prod(dims)
    if count <= 0 or count > MAX_PIXELS:
        raise DecodeError(f"tensor element count {count} out of range", offset=r.pos)
    return r.f32(count, "tensor data").reshape(dims)


def read_tensor(path) -> np.ndarray:
    r = _Reader(path)
    arr = _decode_tensor(r)
    r.done()
    return arr.astype(np.float64)


# --- QVF1 vector fields ------------------------------------------------------

def write_field(path, field_: AtomVectorField):
    _save(path, _header(b"QVF1", field_.m, field_.k, len(field_.stage_weights)),
          *(_f32(w, f"stage {s} weights") for s, w in enumerate(field_.stage_weights)),
          *_tensor_chunks(field_.lambda_init.data))


def read_field(path) -> AtomVectorField:
    from .filters import FilterAtoms
    from .ode import STAGE_COUNT, AtomVectorField, _state_size
    r, m, k, stages = _open(path, b"QVF1", "atom count", "spatial size", "stage count")
    try:
        n = _state_size(m, k)
    except DomainError as exc:
        raise DecodeError(f"invalid field dims: {exc}", offset=4) from None
    if stages != STAGE_COUNT:
        raise DecodeError(f"stage count {stages} != {STAGE_COUNT}", offset=12)
    weights = tuple(r.f32(n * (n + 1), f"stage {s} weights").reshape(n, n + 1)
                    for s in range(stages))
    init = _decode_tensor(r)
    if init.shape != (m, k, k):
        raise DecodeError(f"initial atoms shape {init.shape} != ({m}, {k}, {k})",
                          offset=r.pos)
    r.done()
    return AtomVectorField(weights, FilterAtoms(init))


# --- PGM P5 export -----------------------------------------------------------

def export_pgm(path, infile):
    """A QBF1 frame or a QEX1 map, chosen by the magic of `infile`, as PGM."""
    with open(infile, "rb") as f:
        magic = f.read(4)
    if magic == b"QBF1":
        export_pgm_frame(path, read_frame(infile))
    elif magic == b"QEX1":
        export_pgm_map(path, read_float_map(infile))
    else:
        raise DomainError(f"cannot export {magic!r} files as PGM")


def export_pgm_frame(path, frame: BinaryFrame):
    """Binary frame as 8-bit PGM: {0,1} -> {0,255}."""
    arr = frame.to_array().astype(np.uint8) * 255
    _write_pgm(path, arr, comment="binary frame, 1 -> 255")


def export_pgm_map(path, arr: np.ndarray):
    """Float map as 8-bit PGM, min-max scaled; scale kept in the comment.
    Each tile is scaled in float64, so a float32 map needs no float64 copy."""
    arr = np.asarray(arr)
    lo, hi = float(arr.min()), float(arr.max())  # NaN if any value is NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("cannot export a map with non-finite values as PGM")
    span = hi - lo if hi > lo else 1.0
    flat, out = arr.reshape(-1), np.empty(arr.size, dtype=np.uint8)
    for s in range(0, flat.size, rng.TILE):
        t = slice(s, s + rng.TILE)
        out[t] = np.round((flat[t].astype(np.float64) - lo) / span * 255.0)
    _write_pgm(path, out.reshape(arr.shape), comment=f"min-max scaled from [{lo!r}, {hi!r}]")


def _write_pgm(path, arr: np.ndarray, comment: str):
    h, w = arr.shape
    _save(path, f"P5\n# {comment}\n{w} {h}\n255\n".encode("ascii"), arr)
