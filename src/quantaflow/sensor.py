"""1-bit sensor forward model: Poisson arrivals, Gaussian read noise,
threshold ADC, bit-density statistics, and exposure inversion."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import rng
from .errors import DomainError, ShapeError, UnidentifiableError

_STREAM_PHOTON = 1

# Exposure cap for bracketing during inversion; far above anything a
# bit density below 1 can demand in this application.
THETA_CAP = 64.0


@dataclass(frozen=True)
class ExposureMap:
    """Per-pixel expected photon count per exposure period."""

    width: int
    height: int
    theta: np.ndarray  # (height, width) float64

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=np.float64)
        if t.shape != (self.height, self.width):
            raise ShapeError(f"theta shape {t.shape} != ({self.height}, {self.width})")
        if not np.all(np.isfinite(t)) or np.any(t < 0):
            raise DomainError("exposure values must be finite and >= 0")
        object.__setattr__(self, "theta", t)
        t.setflags(write=False)

    @classmethod
    def constant(cls, width: int, height: int, value: float) -> "ExposureMap":
        return cls(width, height, np.full((height, width), value, dtype=np.float64))

    def scaled(self, factor: float) -> "ExposureMap":
        return ExposureMap(self.width, self.height, self.theta * factor)


@dataclass(frozen=True)
class SensorConfig:
    q: float = 0.5
    sigma_r: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q > 0):
            raise DomainError("ADC threshold q must be finite and > 0")
        if not (math.isfinite(self.sigma_r) and self.sigma_r >= 0):
            raise DomainError("read-noise sigma_r must be finite and >= 0")


@dataclass(frozen=True)
class BinaryFrame:
    """Bit-packed 1-bit frame, MSB-first within each byte, rows byte-aligned."""

    width: int
    height: int
    bits: np.ndarray = field(repr=False)  # (height, ceil(width/8)) uint8

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=np.uint8)
        row_bytes = (self.width + 7) // 8
        if b.shape != (self.height, row_bytes):
            raise ShapeError(f"packed shape {b.shape} != ({self.height}, {row_bytes})")
        pad = 8 * row_bytes - self.width
        if pad and np.any(b[:, -1] & ((1 << pad) - 1)):
            raise DomainError("padding bits must be zero")
        object.__setattr__(self, "bits", b)
        b.setflags(write=False)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BinaryFrame":
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ShapeError("bit array must be 2-D")
        h, w = arr.shape
        return cls(w, h, np.packbits(arr.astype(bool), axis=1))

    def to_array(self) -> np.ndarray:
        """Unpacked (height, width) uint8 array of 0/1."""
        return np.unpackbits(self.bits, axis=1, count=self.width)


@dataclass(frozen=True)
class DensityMap:
    width: int
    height: int
    mu: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mu, dtype=np.float64)
        if m.shape != (self.height, self.width):
            raise ShapeError(f"mu shape {m.shape} != ({self.height}, {self.width})")
        if np.any(m < 0) or np.any(m > 1):
            raise DomainError("densities must lie in [0, 1]")
        object.__setattr__(self, "mu", m)
        m.setflags(write=False)


@dataclass(frozen=True)
class NeighborhoodSpec:
    """(2r+1) x (2r+1) window centered on each pixel."""

    radius: int = 1
    boundary: str = "zero-pad"  # or "clamp"

    def __post_init__(self):
        if self.radius < 0:
            raise DomainError("radius must be >= 0")
        if self.boundary not in ("zero-pad", "clamp"):
            raise DomainError(f"unknown boundary rule {self.boundary!r}")

    @property
    def size(self) -> int:
        return (2 * self.radius + 1) ** 2

    @property
    def pad_mode(self) -> str:
        """`np.pad` mode that extends a frame past its border by this rule."""
        return "constant" if self.boundary == "zero-pad" else "edge"


def _phi(z: float) -> float:
    # Standard normal CDF; erfc keeps full relative precision in the lower
    # tail, where the weights Phi((q - k) / sigma_r) get small.
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@lru_cache(maxsize=64)
def _series_terms(q: float, sigma_r: float) -> tuple:
    """(k, log(w_k / k!)) for each k with a nonzero weight w_k =
    Phi((q - k) / sigma_r), the chance that k photons stay below q.

    With sigma_r > 0 the terms stop at k = ceil(q + 9 sigma_r): later
    weights are below Phi(-9) ~ 1e-19. With sigma_r = 0, w_k is a unit
    step, 1 for k <= ceil(q) - 1, so ties at k = q fire.
    """
    if sigma_r == 0.0:
        weights = [1.0] * math.ceil(q)
    else:
        weights = [_phi((q - k) / sigma_r) for k in range(math.ceil(q + 9.0 * sigma_r) + 1)]
    return tuple((k, math.log(w) - math.lgamma(k + 1.0))
                 for k, w in enumerate(weights) if w > 0.0)


def _complement(theta: np.ndarray, q: float, sigma_r: float) -> np.ndarray:
    """1 - P(Y = 1), elementwise: the sum over k of
    exp(-theta) theta^k / k! * Phi((q - k) / sigma_r).

    Each term is the exp of its logarithm, so none underflows before its
    true value does, however large theta is.
    """
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_theta = np.log(theta)  # -inf at theta = 0 zeroes every k >= 1 term
    (_, log_c0), *rest = _series_terms(q, sigma_r)  # k = 0 leads: w_0 >= 1/2
    total = np.exp(log_c0 - theta)
    term = np.empty_like(theta)
    for k, log_c in rest:
        np.multiply(log_theta, k, out=term)
        term -= theta
        term += log_c
        np.exp(term, out=term)
        total += term
    return total


def bit_probability(theta: float, q: float, sigma_r: float) -> float:
    """P(Y = 1) for a pixel with quanta exposure theta: the sum over k of
    exp(-theta) theta^k / k! * Phi((k - q) / sigma_r), taken as one minus
    the complement series that `sample_frame` draws against. With
    sigma_r = 0, Phi is a unit step and ties at k = q fire.
    """
    if not (math.isfinite(theta) and theta >= 0):
        raise DomainError("theta must be finite and >= 0")
    if not (math.isfinite(q) and q > 0):
        raise DomainError("q must be finite and > 0")
    if not (math.isfinite(sigma_r) and sigma_r >= 0):
        raise DomainError("sigma_r must be finite and >= 0")
    return min(max(1.0 - float(_complement(theta, q, sigma_r)), 0.0), 1.0)


def noise_floor(q: float, sigma_r: float) -> float:
    """Bit probability at zero exposure (read noise alone)."""
    return bit_probability(0.0, q, sigma_r)


def sample_frame(emap: ExposureMap, cfg: SensorConfig) -> BinaryFrame:
    """Draw one binary frame: each pixel is Bernoulli(bit_probability(theta)).

    That is the law of Poisson(theta) photons plus Gaussian read noise
    against the threshold q. Each pixel draws the one uniform u of its
    own counter-based substream and fires iff u >= 1 - p(theta), so
    a bit depends only on (cfg.seed, pixel index, theta at that pixel),
    never on execution order or on the other pixels.
    """
    theta = emap.theta.ravel()
    keys = rng.substream_keys(cfg.seed, np.arange(theta.size, dtype=np.uint64), _STREAM_PHOTON)
    u = rng.uniforms(keys)
    bits = u >= _complement(theta, cfg.q, cfg.sigma_r)
    return BinaryFrame.from_array(bits.reshape(emap.height, emap.width))


def mean_bit_density(frame: BinaryFrame) -> float:
    """Fraction of 1-bits over the whole frame."""
    return int(frame.to_array().sum()) / (frame.width * frame.height)


def neighborhood_ones(bits, nb: NeighborhoodSpec) -> np.ndarray:
    """Integer count of 1-bits in each pixel's neighborhood (exact): a box
    sum, as cumulative sums along each axis minus themselves shifted by the
    window size. `bits` is a BinaryFrame or a 0/1 array (..., h, w) whose
    leading axes index frames."""
    if isinstance(bits, BinaryFrame):
        bits = bits.to_array()
    size = 2 * nb.radius + 1
    pad = [(0, 0)] * (bits.ndim - 2) + [(nb.radius, nb.radius)] * 2
    c = np.cumsum(np.pad(bits, pad, mode=nb.pad_mode), axis=-2, dtype=np.int64)
    c[..., size:, :] -= c[..., :-size, :]
    c = np.cumsum(c[..., size - 1:, :], axis=-1)
    c[..., size:] -= c[..., :-size]
    return c[..., size - 1:]


def local_bit_density(frame: BinaryFrame, nb: NeighborhoodSpec) -> DensityMap:
    """Fraction of ones in each pixel's (2r+1)^2 neighborhood."""
    counts = neighborhood_ones(frame, nb)
    return DensityMap(frame.width, frame.height, counts / nb.size)


def invert_bit_density(mu: float, q: float, sigma_r: float) -> float:
    """Exposure theta-hat with bit_probability(theta-hat) = mu.

    Closed form -ln(1 - mu) when sigma_r = 0 and q in (0, 1]; otherwise
    bisection over [0, THETA_CAP], where the forward map rises
    monotonically in theta. The bracket keeps
    bit_probability(lo) < mu <= bit_probability(hi) and halves until lo
    and hi are adjacent floats, the only case in which the midpoint rounds
    to an end. theta-hat is hi: it reaches mu and the float below it does
    not.
    """
    if not (0.0 < mu < 1.0):
        raise DomainError("mu must lie strictly inside (0, 1); 0 and 1 are saturated")
    floor = noise_floor(q, sigma_r)
    if mu <= floor:
        raise UnidentifiableError(
            f"bit density {mu} at or below the read-noise floor {floor}"
        )
    if sigma_r == 0.0 and 0.0 < q <= 1.0:
        return -math.log(1.0 - mu)

    lo, hi = 0.0, THETA_CAP
    if bit_probability(hi, q, sigma_r) < mu:
        raise DomainError(f"bit density {mu} requires exposure above cap {THETA_CAP}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if bit_probability(mid, q, sigma_r) < mu:
            lo = mid
        else:
            hi = mid
