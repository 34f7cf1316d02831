"""Every random draw of quantaflow, keyed by (seed, purpose) in this module:

    FIELD       0  AtomVectorField.seeded    CONTINUITY  3  continuity input and phi
    PHOTON      1  sample_frame's uniforms   DENSITY     4  verifier density frames
    LAYER       2  layer-bound instances     QIS_PHOTON 11, QIS_NOISE 12  qis_forward

Pixel draws are counter-based (Salmon et al., SC 2011): `substream_keys` keys
(seed, tag) and counts frame << 32 | pixel, injective as a frame holds at most
formats.MAX_PIXELS = 2**31 pixels, so `tiles` of TILE pixels draw the bits of
any split with memory bounded by the tile. The mixer is the splitmix64
finalizer, in place over uint64 arrays. Array draws use `generator`, seeded
with the fixed-width words (seed mod 2**32, seed >> 32, purpose); SeedSequence
ignores trailing zero words, so FIELD is `default_rng(seed)`. SciPy is imported
only inside the two quantile samplers, so importing this module loads NumPy alone.
"""

from __future__ import annotations

import numpy as np

_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_TAG_PRIME = np.uint64(0xD6E8FEB86659FD93)
_IDX_PRIME = np.uint64(0xC2B2AE3D27D4EB4F)

FIELD, PHOTON, LAYER, CONTINUITY, DENSITY, QIS_PHOTON, QIS_NOISE = 0, 1, 2, 3, 4, 11, 12
TILE = 1 << 16  # pixels per tile: a tile's temporaries stay in cache


def tiles(n: int):
    """(slice, uint64 pixel indices) of each run of TILE pixels in range(n)."""
    for s in range(0, n, TILE):
        yield slice(s, s + TILE), np.arange(s, min(s + TILE, n), dtype=np.uint64)


def _mix64(x: np.ndarray, rounds: int = 1) -> np.ndarray:
    # splitmix64 finalizer (Steele et al. output mix), `rounds` times over one
    # copy of x, in place, with one scratch buffer for the shifts
    x = x.astype(np.uint64, copy=True)
    t = np.empty_like(x)
    for _ in range(rounds):
        x ^= np.right_shift(x, np.uint64(30), out=t)
        x *= _MUL1
        x ^= np.right_shift(x, np.uint64(27), out=t)
        x *= _MUL2
        x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def substream_keys(seed: int, indices: np.ndarray, tag: int, frame: int = 0) -> np.ndarray:
    """One uint64 key per pixel index of `frame` in the (seed, tag) stream."""
    mixed = (seed ^ (tag * int(_TAG_PRIME))) & 0xFFFFFFFFFFFFFFFF
    base = _mix64(np.asarray([mixed], dtype=np.uint64))[0]
    keys = (np.asarray(indices, dtype=np.uint64) | np.uint64(frame << 32)) * _IDX_PRIME
    keys ^= base
    return _mix64(keys)


def generator(seed: int, purpose: int) -> np.random.Generator:
    """The NumPy Generator of the (seed, purpose) array stream."""
    return np.random.default_rng([seed & 0xFFFFFFFF, seed >> 32, purpose])


def uniforms(keys: np.ndarray) -> np.ndarray:
    """Uniform floats in [0, 1) on the 2^-53 grid, one per key."""
    bits = _mix64(keys, rounds=2)
    bits >>= np.uint64(11)
    return bits.astype(np.float64) * (2.0 ** -53)


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
