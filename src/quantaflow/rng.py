"""Counter-based random streams with one independent substream per pixel.

Every draw is a pure function of (seed, stream tag, pixel index), so
sampling is reproducible bit-for-bit no matter how work is split across
threads. The mixer is the splitmix64 finalizer applied twice, vectorized
over uint64 numpy arrays. SciPy is imported only inside the two
quantile samplers that use it, so importing this module loads NumPy alone.
"""

from __future__ import annotations

import numpy as np

_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_TAG_PRIME = np.uint64(0xD6E8FEB86659FD93)
_IDX_PRIME = np.uint64(0xC2B2AE3D27D4EB4F)


def _mix64(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer (Steele et al. output mix)
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= _MUL1
    x ^= x >> np.uint64(27)
    x *= _MUL2
    x ^= x >> np.uint64(31)
    return x


def substream_keys(seed: int, indices: np.ndarray, tag: int) -> np.ndarray:
    """One uint64 key per pixel index for the given (seed, tag) stream."""
    mixed = (seed ^ (tag * int(_TAG_PRIME))) & 0xFFFFFFFFFFFFFFFF
    base = _mix64(np.asarray([mixed], dtype=np.uint64))[0]
    keys = np.asarray(indices, dtype=np.uint64) * _IDX_PRIME
    keys ^= base
    return _mix64(keys)


def uniforms(keys: np.ndarray) -> np.ndarray:
    """Uniform floats in [0, 1) on the 2^-53 grid, one per key."""
    bits = _mix64(_mix64(keys))
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def _normal_quantiles(u: np.ndarray) -> np.ndarray:
    """Phi^-1(u + 2^-54) for uniforms u on the 2^-53 grid of [0, 1).

    The half step keeps every argument inside (0, 1). Above 1/2 the
    offset uniform has no float64 value, so it is taken from the upper
    tail as -Phi^-1((1 - u) - 2^-54); both forms are exact.
    """
    from scipy.special import ndtri

    upper = u >= 0.5
    z = ndtri(np.where(upper, (1.0 - u) - 2.0 ** -54, u + 2.0 ** -54))
    return np.where(upper, -z, z)


def standard_normals(keys: np.ndarray) -> np.ndarray:
    """One standard normal per key, by inversion of the key's uniform."""
    return _normal_quantiles(uniforms(keys))


def poissons(theta: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Poisson draws, one per pixel: the smallest k with u < F(k; theta)
    for the uniform u of the pixel's substream (inversion, Giles 2016).
    theta = 0 draws 0.

    A Cornish-Fisher guess from Phi^-1(u) starts each pixel within a few
    steps of its count; F and the pmf are evaluated there once and then
    stepped down or up by the pmf recurrence.
    """
    from scipy.special import gammaln, pdtr

    theta = np.asarray(theta, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.uint64)
    live = np.flatnonzero(theta > 0)
    th = theta.ravel()[live]
    u = uniforms(keys.ravel()[live])
    z = _normal_quantiles(u)
    k = np.floor(np.maximum(0.0, th + np.sqrt(th) * z + (z * z - 1.0) / 6.0))
    cdf = pdtr(k, th)
    pmf = np.exp(k * np.log(th) - th - gammaln(k + 1.0))
    # Down while u < F(k - 1) = F(k) - pmf(k).
    idx = np.flatnonzero((k > 0) & (u < cdf - pmf))
    while idx.size:
        cdf[idx] -= pmf[idx]
        pmf[idx] = pmf[idx] * k[idx] / th[idx]
        k[idx] -= 1
        idx = idx[(k[idx] > 0) & (u[idx] < cdf[idx] - pmf[idx])]
    # Up while u >= F(k). A step that no longer changes F ends the climb:
    # the mass left above k is below F's rounding.
    idx = np.flatnonzero(u >= cdf)
    while idx.size:
        k[idx] += 1
        pmf[idx] = pmf[idx] * th[idx] / k[idx]
        grown = cdf[idx] + pmf[idx]
        moving = grown > cdf[idx]
        cdf[idx] = grown
        idx = idx[moving & (u[idx] >= grown)]
    out = np.zeros(theta.size, dtype=np.int64)
    out[live] = k
    return out.reshape(theta.shape)


def frame_seed(seed: int, frame_index: int) -> int:
    """Per-frame seed for burst sampling: independent yet reproducible."""
    return (seed ^ (frame_index << 32)) & 0xFFFFFFFFFFFFFFFF
