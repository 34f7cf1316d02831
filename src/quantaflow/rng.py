"""Every random draw of quantaflow, keyed by (seed, purpose) in this module:

    FIELD       0  AtomVectorField.seeded    CONTINUITY  3  continuity input and phi
    PHOTON      1  sample_frame's uniforms   DENSITY     4  verifier density frames
    LAYER       2  layer-bound instances     QIS_PHOTON 11, QIS_NOISE 12  qis_forward

Every stream is seeded by the words (seed mod 2**32, seed >> 32, purpose),
which name each stream once only for an integer seed in [0, 2**64): `_seeds`
refuses any other seed with a DomainError, so no caller checks it.
Array draws use `generator`, the NumPy Generator of their SeedSequence, which
ignores trailing zero words, so FIELD is `default_rng(seed)`. Pixel draws are
counter-based (Salmon et al., SC 2011): `uniforms` is SplitMix64 (Steele, Lea
and Flood, OOPSLA 2014), one finalizer over base + c * _GAMMA, base being the
first uint64 of the SeedSequence and c = frame << 32 | pixel, injective as
`uniforms` takes a pixel range and frame in [0, 2**32). Two streams share draws
only if their bases differ by _GAMMA times a difference of counters in use:
such pairs exist by counting, but as the base is a hash only a search finds
one. Tiles of TILE pixels draw the bits of any split with memory bounded by
the tile, and `each_tile` is the one tile pass: it draws the tiles on W
workers, W being the CPUs of the process's affinity but at most MAX_WORKERS,
the caller being worker 0 and tile i going to worker i mod W, beside which
W - 1 pool threads are started on first use. A draw is handed its tile's
slice and pixel range and writes only that slice of the output, so no byte
depends on W or TILE. The samplers are pure
functions of their uniforms and import SciPy inside, so importing this module
loads NumPy alone: `ndtri` for both quantiles, and `pdtr`, `pdtrc` and `ndtr`
for the tail CDF of the few Poisson pixels whose quantile lies near an integer.
`poissons` refuses a rate that is not at most RATE_CAP, inf and NaN included.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from .errors import DomainError

_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's Weyl increment, 2**64 / golden ratio

FIELD, PHOTON, LAYER, CONTINUITY, DENSITY, QIS_PHOTON, QIS_NOISE = 0, 1, 2, 3, 4, 11, 12
TILE = 1 << 16  # pixels per tile: a tile's temporaries stay in cache

#: Largest Poisson rate `poissons` accepts. A draw takes the same time at
#: any rate, but its count is floor(x) for a float64 quantile x near the
#: rate: at the cap the rounding margin kept around integers is 1e-3, and
#: from 2**52 on, where ulp(x) = 1, x keeps no fraction to floor. The
#: sampler's counts are checked against mpmath up to the cap.
RATE_CAP = 1e12


def _cpus() -> int:
    """The CPUs this process may run on: its affinity where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The most workers of a pass: each holds one tile's temporaries (4.5 MiB for
# `poissons`), so memory grows with W. Two against one worker on a 2-core
# Xeon, medians of 6 alternations in process: a 15 x 512^2 `generate_burst`
# 63 -> 43 ms, a 1 Mpx `qis_forward` 171-189 -> 112-116 ms, and a 1 Mpx
# `sample_frame` 17 -> 11 ms, inside the spread of its runs. Raise it only
# with paired runs from a machine with more cores.
MAX_WORKERS = 2
_pool = None  # the threads beside the caller, started by the first pass that needs them


def each_tile(n: int, draw) -> None:
    """draw(t, pixels) for each tile of TILE pixels in range(n), in order:
    t its slice and pixels its range. Tile i goes to worker i mod W of W =
    the CPUs of the process's affinity, but no more than MAX_WORKERS or the
    tiles; the caller is worker 0. A worker whose draw raises stops,
    and the others stop before their next tile. Once every worker has
    stopped, the caller's error is raised, else the error of the
    lowest-numbered failing worker. A draw must not call each_tile itself:
    the pool threads it would wait for are busy with its own pass."""
    global _pool
    workers = max(1, min(_cpus(), MAX_WORKERS, -(-n // TILE)))
    failed = []  # nonempty once a draw has raised: the other workers stop

    def share(w):
        try:
            for s in range(w * TILE, n, workers * TILE):
                if failed:
                    return
                draw(slice(s, s + TILE), range(s, min(s + TILE, n)))
        except BaseException:
            failed.append(w)
            raise

    if workers < 2:
        return share(0)
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor  # off the import path
        _pool = ThreadPoolExecutor(MAX_WORKERS - 1, thread_name_prefix="qflow-tile")
    others = [_pool.submit(share, w) for w in range(1, workers)]
    try:
        share(0)
    finally:
        errors = [f.exception() for f in others]  # waits for each worker
    for e in errors:
        if e is not None:
            raise e


def _mix64(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer (Steele et al. output mix) over uint64 x, in place,
    # with one scratch buffer for the shifts
    t = np.empty_like(x)
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= _MUL1
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= _MUL2
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def _seeds(seed: int, purpose: int) -> np.random.SeedSequence:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise DomainError(f"seed {seed!r} is not an integer")
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed {seed} lies outside [0, 2**64)")
    return np.random.SeedSequence([seed & 0xFFFFFFFF, seed >> 32, purpose])


def generator(seed: int, purpose: int) -> np.random.Generator:
    """The NumPy Generator of the (seed, purpose) array stream."""
    return np.random.default_rng(_seeds(seed, purpose))


@lru_cache(maxsize=8, typed=True)  # typed: True is refused, not seed 1's entry
def _base(seed: int, purpose: int) -> int:
    """The first uint64 of the (seed, purpose) SeedSequence: hashed once per
    stream, not once per tile, as a command draws from one or two streams."""
    return int(_seeds(seed, purpose).generate_state(1, np.uint64)[0])


def uniforms(pixels: range, seed: int, purpose: int, frame: int = 0) -> np.ndarray:
    """Uniform floats in [0, 1) on the 2^-53 grid, one per pixel of `frame`
    in the (seed, purpose) stream: the top 53 bits of
    splitmix64(base + (frame << 32 | pixel) * _GAMMA). `pixels` must be a
    step-1 range inside [0, 2**32)."""
    if not 0 <= frame < 1 << 32:
        raise DomainError(f"frame {frame} lies outside [0, 2**32)")
    if not (isinstance(pixels, range) and pixels.step == 1
            and 0 <= pixels.start and pixels.stop <= 1 << 32):
        raise DomainError(f"pixels {pixels!r} are not a step-1 range inside [0, 2**32)")
    # The counter of pixel start + i is that of start plus i: no carry reaches the frame.
    first = (_base(seed, purpose) + (int(frame) << 32 | pixels.start) * int(_GAMMA)) % (1 << 64)
    x = np.arange(len(pixels), dtype=np.uint64)
    x *= _GAMMA
    x += np.uint64(first)
    _mix64(x)
    x >>= np.uint64(11)
    return np.multiply(x, 2.0 ** -53, dtype=np.float64)


def standard_normals(u: np.ndarray, step: float = 2.0 ** -54) -> np.ndarray:
    """Phi^-1(u + step), one standard normal per uniform u on the 2^-53 grid
    of [0, 1) (inversion).

    The default half step keeps every argument inside (0, 1). Above 1/2
    the offset uniform has no float64 value, so it is taken from the upper
    tail as -Phi^-1((1 - u) - step); both forms are exact. On the grid the
    smaller argument is always the one of u's side of 1/2, so the minimum
    selects it, and the sign flips by a multiply by -1.
    """
    from scipy.special import ndtri

    z = ndtri(np.minimum((1.0 - u) - step, u + step))
    z *= 1.0 - 2.0 * (u >= 0.5)
    return z


# Poisson counts (Giles 2016, ACM TOMS 42(1), Alg. 955, "poissinv"). Below
# _SEARCH_BELOW, in rate or in count, the pmf is summed up from k = 0.
_SEARCH_BELOW = 10.0
# Above it the count is floor(x) for the inverse x of Temme's uniform
# expansion of the incomplete gamma function, measured off by at most
# 0.05 / theta there; x within _MARGIN / theta + 1e-15 * x (the second term
# covers the rounding of theta + theta * d) of an integer m is decided
# between m - 1 and m by one CDF evaluation.
_MARGIN = 0.6
# From this rate that CDF is Temme's expansion itself: SciPy's pdtrc sums at
# most 2000 series terms and loses the upper tail from about 2e5 on.
_TEMME_FROM = 1e5
# For |s| < _SERIES, d = r - 1 and the term c = x - theta r come from their
# series in s and in d; above, from Newton and the direct forms. _H_OF_D,
# _C0_OF_D and _C1_OF_D are series in d of h = f / d**2 and of Temme's C0, C1.
_SERIES = 0.05
_D_OF_S = (0.0, 1.0, 1 / 6, -1 / 72, 1 / 270, -23 / 17280, 19 / 34020, -11237 / 43545600)
_C_OF_D = (1 / 3, -1 / 36, 43 / 3240, -1 / 120, 403 / 68040)
_H_OF_D = tuple((-1.0) ** k / ((k + 1) * (k + 2)) for k in range(10))
_C0_OF_D = (-1 / 3, -1 / 12, 11 / 270, -329 / 12960, 269 / 15120, -72803 / 5443200)
_C1_OF_D = (-1 / 540, 1 / 288, 1 / 3024, -767 / 1088640)


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _h(d: np.ndarray, log_r: np.ndarray) -> np.ndarray:
    """f(r) / d**2 for f(r) = 1 - r + r ln r and d = r - 1, in the direct
    form: its cancellation costs a relative 4 eps / |d|, 2e-14 at _SERIES."""
    h = np.multiply(1.0 + d, log_r)
    h -= d
    h /= d
    h /= d
    return h


def _count_quantiles(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    """x with floor(x) the Poisson count of normal quantile z at rate theta.

    s = z / sqrt(theta) and r solves f(r) = s**2 / 2 with sign(r - 1) =
    sign(s), by Newton on g(r) = d sqrt(2 h) = s, g' = ln r / g, from the
    series d(s); then x = theta r + ln(sqrt(r) g / (r - 1)) / ln r. For
    s < -1.3, which occurs only below theta = 40 as |z| < 8.3 on the 2^-53
    grid, s is raised to -1.3 and x stays below _SEARCH_BELOW. z is
    overwritten by s: each array that a tile draw holds at once costs
    memory per worker.
    """
    s = z
    s /= np.sqrt(theta)
    np.maximum(s, -1.3, out=s)
    d = _horner(_D_OF_S, s)
    far = np.abs(s) >= _SERIES
    sf, df = s[far], d[far]
    for _ in range(2):  # from the series, two steps leave x within 1e-5 / theta
        log_r = np.log1p(df)
        g = np.sqrt(2.0 * _h(df, log_r))
        g *= df
        step = g - sf
        step *= g
        step /= log_r
        df -= step
    log_r = np.log1p(df)
    cf = np.log(2.0 * _h(df, log_r))
    cf /= 2.0 * log_r
    cf += 0.5
    d[far] = df
    c = _horner(_C_OF_D, d)  # the series c(d) where |s| < _SERIES
    c[far] = cf
    d *= theta
    d += c
    d += theta
    return d


def _temme(m: np.ndarray, theta: np.ndarray):
    """(F(m - 1), 1 - F(m - 1)) of Poisson(theta), from Temme's expansion
    of Q(m, theta) with terms C0 and C1. From _TEMME_FROM on, a count m lies
    within 0.03 theta of theta, where the series in d stay exact."""
    from scipy.special import ndtr

    d = (m - theta) / theta
    w = d * np.sqrt(2.0 * _horner(_H_OF_D, d) * theta)
    r = np.exp(-0.5 * w * w) / np.sqrt(2.0 * np.pi * m)
    r *= _horner(_C0_OF_D, d) + _horner(_C1_OF_D, d) / m
    return ndtr(w) + r, ndtr(-w) - r


def _below_cdf(u: np.ndarray, k: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """u < F(k; theta), compared in the tail on u's side of 1/2: F there,
    1 - F (against the exact 1 - u) above, each to its own relative error."""
    from scipy.special import pdtr, pdtrc

    low = u < 0.5
    tail = np.empty_like(u)
    big = theta >= _TEMME_FROM
    for sel, cdf in ((low & ~big, pdtr), (~low & ~big, pdtrc)):
        tail[sel] = cdf(k[sel], theta[sel])
    lower, upper = _temme(k[big] + 1.0, theta[big])
    tail[big] = np.where(low[big], lower, upper)
    return np.where(low, u < tail, 1.0 - u > tail)


def _search(theta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The smallest k with u < F(k; theta), summing the pmf up from k = 0.
    A step that no longer changes F ends the climb: the mass left above k
    is below F's rounding."""
    k = np.zeros(theta.size, dtype=np.int64)
    p = np.exp(-theta)
    cdf = p.copy()
    climbing = u >= cdf
    step = 0
    while climbing.any():
        step += 1
        k += climbing
        p *= theta
        p /= step
        grown = cdf + p
        climbing &= (grown > cdf) & (u >= grown)
        cdf = grown
    return k


def poissons(theta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Poisson draws, one per uniform u on the 2^-53 grid: the smallest k
    with u < F(k; theta) (inversion). theta = 0 draws 0, and a rate that
    is not at most RATE_CAP (inf and NaN included) is refused.

    Rates below _SEARCH_BELOW sum the pmf from k = 0. Above, the count is
    floor(x) for the quantile x of Giles's asymptotic inversion, taken from
    Phi^-1(u) itself; the few pixels with x near an integer m take m - 1 or
    m by one CDF evaluation, and those with x below _SEARCH_BELOW are summed.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all(theta <= RATE_CAP):
        raise DomainError(f"a Poisson rate exceeds the cap {RATE_CAP:g} or is NaN")
    th = theta.ravel()
    u = np.asarray(u, dtype=np.float64).ravel()
    big = np.flatnonzero(th >= _SEARCH_BELOW)
    tb = th[big]
    x = _count_quantiles(tb, standard_normals(u[big], 0.0))
    m = np.rint(x)
    margin = _MARGIN / tb
    margin += 1e-15 * x
    near = np.flatnonzero(np.abs(x - m) < margin)
    np.floor(x, out=x)
    x[near] = m[near] - _below_cdf(u[big[near]], m[near] - 1.0, tb[near])
    out = np.zeros(th.size, dtype=np.int64)
    out[big] = x
    small = np.flatnonzero(th < _SEARCH_BELOW)
    small = np.concatenate([small, big[x < _SEARCH_BELOW]])
    out[small] = _search(th[small], u[small])
    return out.reshape(theta.shape)
