"""1-bit sensor forward model: Poisson arrivals, Gaussian read noise,
threshold ADC, bit-density statistics, and exposure inversion.

Each value type is its array: `ExposureMap` its theta, `DensityMap` its
mu, `BinaryFrame` its packed bits. Width and height are derived from the
array's shape; only `BinaryFrame` takes its width, which byte padding
hides."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import rng
from .errors import DomainError, ShapeError, UnidentifiableError, frozen_array

# Exposure cap for bracketing during inversion; far above anything a
# bit density below 1 can demand in this application.
THETA_CAP = 64.0
# Most terms of the complement series `_series_terms`, one exp pass each over
# the pixels that the squeeze of `_fires` leaves undecided: at most about
# 1/BINS of them, as a bracket spans the complement's fall over one bin and
# the complement falls at a rate below 1. At the cap, a 1 Mpx frame of 256
# levels in [0, 500] takes 25 ms on one worker of a 2-core Xeon (0.56 s when
# every pixel summed the series), and its table 14 ms, once per (q, sigma_r).
SERIES_CAP = 256
# Bins per unit theta of the squeeze table `_brackets`: a power of two, so
# theta * BINS and its floor, the bin index, are exact.
BINS = 64
# Relative widening of each table value into a bracket: far above the
# series' rounding error, which stays below 1e-12 up to SERIES_CAP terms.
SLACK = 2.0 ** -20


@dataclass(frozen=True)
class ExposureMap:
    """Per-pixel expected photon count per exposure period."""

    theta: np.ndarray  # (height, width) float64, finite and >= 0
    height = property(lambda self: self.theta.shape[0])
    width = property(lambda self: self.theta.shape[1])

    def __post_init__(self):
        if np.any(frozen_array(self, "theta", 2, "exposure") < 0):
            raise DomainError("exposure values must be >= 0")

    @classmethod
    def constant(cls, width: int, height: int, value: float) -> "ExposureMap":
        return cls(np.full((height, width), value, dtype=np.float64))


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
        if self.q + 9.0 * self.sigma_r > SERIES_CAP - 1:  # terms up to ceil(q + 9 sigma_r)
            raise DomainError(f"q + 9 sigma_r must be <= {SERIES_CAP - 1}")


@dataclass(frozen=True)
class BinaryFrame:
    """Bit-packed 1-bit frame, MSB-first within each byte, rows byte-aligned.
    `width` is given because the padding bits hide it."""

    width: int
    bits: np.ndarray = field(repr=False)  # (height, ceil(width/8)) uint8
    height = property(lambda self: self.bits.shape[0])

    def __post_init__(self):
        b = np.ascontiguousarray(self.bits, dtype=np.uint8)
        row_bytes = (self.width + 7) // 8
        if self.width < 0 or b.ndim != 2 or b.shape[1] != row_bytes:
            raise ShapeError(f"packed shape {b.shape} cannot hold rows of width {self.width}")
        if self.width < 1 or b.shape[0] < 1:
            raise DomainError(f"frame {self.width}x{b.shape[0]} is empty")
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
        return cls(arr.shape[1], np.packbits(arr.astype(bool, copy=False), axis=1))

    def to_array(self) -> np.ndarray:
        """Unpacked (height, width) uint8 array of 0/1."""
        return np.unpackbits(self.bits, axis=1, count=self.width)


@dataclass(frozen=True)
class DensityMap:
    mu: np.ndarray  # (height, width) float64 in [0, 1]
    height = property(lambda self: self.mu.shape[0])
    width = property(lambda self: self.mu.shape[1])

    def __post_init__(self):
        m = frozen_array(self, "mu", 2, "density")
        if np.any(m < 0) or np.any(m > 1):
            raise DomainError("densities must lie in [0, 1]")


@dataclass(frozen=True)
class NeighborhoodSpec:
    """(2r+1) x (2r+1) window centered on each pixel."""

    radius: int = 1
    boundary: str = "zero-pad"  # or "clamp"

    def __post_init__(self):
        if self.radius < 0:
            raise DomainError("radius must be >= 0")
        if self.size > np.iinfo(np.int64).max:  # neighborhood_ones counts below 2**64
            raise DomainError(f"radius {self.radius}: (2r+1)^2 overflows an int64 count")
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


@lru_cache(maxsize=64)
def _brackets(q: float, sigma_r: float) -> tuple:
    """(lo, hi), the squeeze table of `_fires`: lo[j] <= _complement(theta)
    <= hi[j] for every theta of bin j, [j, j + 1) / BINS, the last bin
    [top / BINS, inf) having lo = 0.

    The values are `_complement` at the edges j / BINS, widened by SLACK:
    as the true complement falls strictly in theta, the edges of a bin
    bracket it there to the series' rounding error. With k the last term
    of the series, the complement is at most P(Poisson(theta) <= k), which
    at top / BINS = ceil(k + 10 sqrt(k) + 40) is below 2**-54 for every k
    up to SERIES_CAP: past the top only u = 0 is left undecided.
    """
    k = _series_terms(q, sigma_r)[-1][0]
    top = math.ceil(k + 10.0 * math.sqrt(k) + 40.0) * BINS
    c = _complement(np.arange(top + 1) / BINS, q, sigma_r)
    table = np.append(c[1:] * (1.0 - SLACK), 0.0), c * (1.0 + SLACK)
    for a in table:
        a.setflags(write=False)  # one table serves every caller and worker
    return table


def _fires(u: np.ndarray, theta: np.ndarray, q: float, sigma_r: float,
           scale: float = 1.0) -> np.ndarray:
    """u >= _complement(theta * scale, q, sigma_r), elementwise, by the
    squeeze test (Devroye 1986, II.5): a pixel fires where u >= hi of its
    bin and stays 0 where u < lo, and `rng._settle` sums the series only on
    the pixels in between."""
    lo, hi = _brackets(q, sigma_r)
    bound = np.multiply(theta, scale)
    np.minimum(bound, (hi.size - 1) / BINS, out=bound)
    bound *= BINS  # exact, as BINS is a power of two
    j = bound.astype(np.intp)  # the bin, whose ends then take the buffer in turn
    fires = u >= np.take(hi, j, out=bound, mode="clip")
    unsure = np.flatnonzero((u >= np.take(lo, j, out=bound, mode="clip")) ^ fires)
    return rng._settle(fires, unsure, lambda u, theta: u >= _complement(theta * scale, q, sigma_r),
                       u, theta)


def bit_probability(theta: float, q: float, sigma_r: float) -> float:
    """P(Y = 1) for a pixel with quanta exposure theta: the sum over k of
    exp(-theta) theta^k / k! * Phi((k - q) / sigma_r), taken as one minus
    the complement series that `sample_frame` draws against. With
    sigma_r = 0, Phi is a unit step and ties at k = q fire.
    """
    if not (math.isfinite(theta) and theta >= 0):
        raise DomainError("theta must be finite and >= 0")
    SensorConfig(q, sigma_r)  # its rule for q and sigma_r
    return min(max(1.0 - float(_complement(theta, q, sigma_r)), 0.0), 1.0)


def noise_floor(q: float, sigma_r: float) -> float:
    """Bit probability at zero exposure (read noise alone)."""
    return bit_probability(0.0, q, sigma_r)


def sample_frame(emap: ExposureMap, cfg: SensorConfig, frame: int = 0,
                 scale: float = 1.0) -> BinaryFrame:
    """Draw one binary frame of the exposure theta * scale: each pixel is
    Bernoulli(bit_probability(theta * scale)).

    That is the law of Poisson(theta) photons plus Gaussian read noise
    against the threshold q. Each pixel draws the uniform u of its counter
    (frame, pixel index) in the PHOTON stream and fires iff u >= 1 - p(theta),
    so a bit depends only on (cfg.seed, frame, pixel index, theta there),
    never on execution order or on the other pixels. The comparison is the
    squeeze of `_fires`: a table of brackets per (q, sigma_r) decides almost
    every pixel, and 1 - p is summed only where u falls inside its bracket.
    The pixels are drawn by `rng.each_tile`, each tile scaled on its own, so
    memory beyond the bits is bounded by the tiles in flight.
    """
    theta = emap.theta.ravel()
    if not scale >= 0:
        raise DomainError(f"exposure scale {scale} must be >= 0")
    if not math.isfinite(scale * float(theta.max(initial=0.0))):
        raise DomainError("exposure entries must be finite")
    _brackets(cfg.q, cfg.sigma_r)  # built once here, not by each worker in its first tile
    bits = np.empty(theta.size, dtype=bool)

    def draw(t, idx):
        u = rng.uniforms(idx, cfg.seed, rng.PHOTON, frame)
        bits[t] = _fires(u, theta[t], cfg.q, cfg.sigma_r, scale)

    rng.each_tile(theta.size, draw)
    return BinaryFrame.from_array(bits.reshape(emap.theta.shape))


def mean_bit_density(frame: BinaryFrame) -> float:
    """Fraction of 1-bits over the whole frame, counted in the packed bytes
    (exact: the padding bits are zero)."""
    return int(np.bitwise_count(frame.bits).sum(dtype=np.int64)) / (frame.width * frame.height)


def neighborhood_ones(bits, nb: NeighborhoodSpec) -> np.ndarray:
    """Integer count of 1-bits in each pixel's neighborhood (exact): a box
    sum, as cumulative sums along each axis minus themselves shifted by the
    window size. `bits` is a BinaryFrame or a 0/1 array (..., h, w) whose
    leading axes index frames.

    A radius r past a frame length n is clipped to n on that axis, so memory
    stays O(h * w): beyond n, zero-pad adds nothing and clamp adds r - n more
    copies of the first and of the last line.

    The sums wrap in the narrowest unsigned dtype whose modulus exceeds
    nb.size (uint16 up to r = 127), which is also the dtype returned: a
    count is at most nb.size, so its wrapped differences give it exactly."""
    if isinstance(bits, BinaryFrame):
        bits = bits.to_array()
    r, (h, w) = nb.radius, bits.shape[-2:]
    rh, rw = min(r, h), min(r, w)
    clamp = nb.boundary == "clamp"
    k = next(k for k in (16, 32, 64) if nb.size < 1 << k)  # the sums wrap modulo 2**k
    dt, mod = np.dtype(f"uint{k}"), 1 << k  # NumPy refuses a Python int factor of 2**k or more
    padded = np.pad(bits, [(0, 0)] * (bits.ndim - 2) + [(rh, rh), (rw, rw)], mode=nb.pad_mode)
    c = np.cumsum(padded, axis=-2, dtype=dt)
    c[..., 2 * rh + 1:, :] -= c[..., :-2 * rh - 1, :]
    c = c[..., 2 * rh:, :]
    if clamp and r > h:
        rows = padded[..., [rh, rh + h - 1], :]        # first and last row
        c += (r - h) % mod * rows.sum(axis=-2, dtype=dt, keepdims=True)
    edges = c[..., [rw, rw + w - 1]].sum(axis=-1, dtype=dt, keepdims=True)  # before c is replaced
    c = np.cumsum(c, axis=-1, dtype=dt)
    c[..., 2 * rw + 1:] -= c[..., :-2 * rw - 1]
    c = c[..., 2 * rw:]
    if clamp and r > w:
        c += (r - w) % mod * edges
    return c


def local_bit_density(frame: BinaryFrame, nb: NeighborhoodSpec) -> DensityMap:
    """Fraction of ones in each pixel's (2r+1)^2 neighborhood."""
    counts = neighborhood_ones(frame, nb)
    return DensityMap(counts / nb.size)


def invert_bit_density(mu: float, q: float, sigma_r: float) -> float:
    """Exposure theta-hat with bit_probability(theta-hat) = mu.

    Bisection over [0, THETA_CAP], where the forward map rises
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
