"""Real-camera conversions: CMOS gray level to photon count, and the
forward pixel model of a photon-counting camera with gain, quantum
efficiency, exposure time, dark current, and per-pixel response gain."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import rng
from .errors import DomainError, ShapeError

#: Largest ADC bit depth, already more than a float32 QEX1 map resolves (24
#: significant bits). Uncapped, the step clip_max / (2 ** adc_bits - 1)
#: fails to convert to a float from 1024 bits on.
ADC_BITS_MAX = 32


def _require_finite(params) -> None:
    # NaN fails no ordered comparison, so the range checks alone let it by.
    for f in fields(params):
        if not np.all(np.isfinite(getattr(params, f.name))):
            raise DomainError(f"{f.name} must be finite")


@dataclass(frozen=True)
class CmosParams:
    gain_ratio: float = 1.0
    quantum_efficiency: float = 0.68

    def __post_init__(self):
        _require_finite(self)
        if self.gain_ratio <= 0:
            raise DomainError("gain ratio must be > 0")
        if not (0.0 < self.quantum_efficiency <= 1.0):
            raise DomainError("quantum efficiency must lie in (0, 1]")


def _nonnegative_map(values, what: str) -> np.ndarray:
    """`values` as a float32 map or else a float64 array: DomainError unless
    every entry is finite and >= 0, checked without a copy (NaN propagates)."""
    x = np.asarray(values)
    if x.dtype != np.float32 or x.ndim == 0:
        x = x.astype(np.float64, copy=False)
    if not (x.min(initial=0.0) >= 0 and x.max(initial=0.0) < np.inf):
        raise DomainError(f"{what} must be finite and >= 0")
    return x


def cmos_gray_to_photons(gray, p: CmosParams = CmosParams()):
    """Photons per pixel from a gray level: X = G * I / QE, in float64 per tile,
    stored once in the input's float dtype (a float32 overflow is inf)."""
    x = _nonnegative_map(gray, "gray levels")
    xs, out = x.reshape(-1), np.empty(x.size, dtype=x.dtype)
    with np.errstate(over="ignore"):
        for s in range(0, xs.size, rng.TILE):
            v = p.gain_ratio * xs[s:s + rng.TILE].astype(np.float64) / p.quantum_efficiency
            if not np.isfinite(np.max(v, initial=0.0)):  # v >= 0: finite iff its max is
                raise DomainError("photon counts overflow a float64")
            out[s:s + rng.TILE] = v
    return float(out[0]) if np.isscalar(gray) else out.reshape(x.shape)


@dataclass(frozen=True)
class QisParams:
    gain_ratio: float = 1.0
    quantum_efficiency: float = 0.68
    exposure_time: float = 74e-6       # seconds
    dark_signal: float = 0.0           # photons per exposure
    crf: np.ndarray | float = 1.0      # per-pixel response gain, > 0
    sigma_real_noise: float = 0.0
    adc_bits: int = 14
    clip_max: float = float(2 ** 14 - 1)

    def __post_init__(self):
        crf = self.crf
        if not np.isscalar(crf):
            crf = np.asarray(crf, dtype=np.float64)
            crf.setflags(write=False)
            object.__setattr__(self, "crf", crf)
        _require_finite(self)
        if self.gain_ratio <= 0 or self.exposure_time <= 0 or self.clip_max <= 0:
            raise DomainError("gain, exposure time and clip_max must be > 0")
        if not (0.0 < self.quantum_efficiency <= 1.0):
            raise DomainError("quantum efficiency must lie in (0, 1]")
        if self.dark_signal < 0 or self.sigma_real_noise < 0:
            raise DomainError("dark signal and noise sigma must be >= 0")
        if isinstance(self.adc_bits, bool) or not isinstance(self.adc_bits, (int, np.integer)):
            raise DomainError(f"adc_bits {self.adc_bits!r} is not an integer")
        if not 1 <= self.adc_bits <= ADC_BITS_MAX:
            raise DomainError(f"adc_bits must lie in [1, {ADC_BITS_MAX}]")
        if not self.step > 0:
            raise DomainError("the quantizer step clip_max / (2**adc_bits - 1) underflows to 0")
        if np.any(np.asarray(crf) <= 0):
            raise DomainError("response gain entries must be > 0")

    @property
    def step(self) -> float:
        """The quantizer step clip_max / (2**adc_bits - 1)."""
        return self.clip_max / (2 ** self.adc_bits - 1)


def qis_forward(photons: np.ndarray, p: QisParams, seed: int) -> np.ndarray:
    """Pixel values from a photon map.

    Per pixel: Poisson(ET * QE * (CRF * X + dark)), scaled by the gain,
    clipped, quantized (uniform over [0, clip_max], round half up), then
    Gaussian noise added last, matching the printed model order.
    `rng.each_tile` draws each tile from its rates, computed once there, so
    no frame-sized rate map is held; a tile is computed in float64 and
    stored once in the input's dtype, as in `cmos_gray_to_photons`. A tile
    is drawn under its own `np.errstate`, so a value that overflows becomes
    inf without a warning: `rng.poissons` refuses a rate above
    `rng.RATE_CAP`, and with it the map; a scaled count clips to clip_max;
    an inf noise is returned as it is, and a QEX1 writer refuses it.
    """
    x = _nonnegative_map(photons, "photon counts")
    crf = p.crf
    if not np.isscalar(crf) and np.asarray(crf).shape != x.shape:
        raise ShapeError("response gain map shape must match the photon map")

    xs = x.reshape(-1)
    gains = np.broadcast_to(crf, x.shape).reshape(-1)  # a view, also of a scalar
    scale = p.exposure_time * p.quantum_efficiency
    out = np.empty(xs.size, dtype=x.dtype)
    step = p.step
    rng._count_table()  # built once here, not by each worker in its first tile

    def draw(t, idx):
        with np.errstate(over="ignore"):  # per thread, as it does not reach the pool
            rates = scale * (gains[t] * xs[t].astype(np.float64) + p.dark_signal)
            counts = rng.poissons(rates, rng.uniforms(idx, seed, rng.QIS_PHOTON))
            v = np.clip(p.gain_ratio * counts.astype(np.float64), 0.0, p.clip_max)
            v = np.floor(v / step + 0.5) * step
            if p.sigma_real_noise > 0:
                z = rng.standard_normals(rng.uniforms(idx, seed, rng.QIS_NOISE))
                v += p.sigma_real_noise * z
            out[t] = v  # the one store: noise is added in float64

    rng.each_tile(xs.size, draw)
    return out.reshape(x.shape)
