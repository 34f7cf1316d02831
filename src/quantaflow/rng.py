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
depends on W or TILE. `poissons` is a squeeze in two stages: below rate 64
a count table, built once per process from `math.lgamma`, gives the count
of every pixel whose (rate bin, uniform cell) decides it, about 91% of a
`calib` frame; a cell that allows two counts names the lower, and F of that
count interpolated across the rate bin decides all but 0.3% of the frame.
`_settle`, the last step of this squeeze and of `sensor._fires`, has the
exact inversion draw the rest, every rate from 64 on included. The samplers
are pure functions of their uniforms and import SciPy inside, so importing
this module loads NumPy alone:
`ndtri` for both quantiles, and `pdtr`, `pdtrc` and `ndtr` for the tail CDF
of the few unsure Poisson pixels whose quantile lies near an integer.
`uniforms` refuses a frame that is not an integer, `poissons` a negative
rate and one that is not at most RATE_CAP, inf and NaN included, and both
samplers a uniform outside [0, 1), NaN included.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

from .errors import DomainError, ShapeError

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


# The most workers of a pass: each holds one tile's temporaries (for
# `poissons`, 2.0 MiB at `calib` rates and 7.0 MiB where every rate is
# past the count table), so memory grows with W. Two against one worker on
# a 2-core Xeon, medians of 6 alternations in process: a 15 x 512^2
# `generate_burst` 63 -> 43 ms, a 1 Mpx `qis_forward` (rates 0-51)
# 95-111 -> 62-71 ms in five runs of six (one read 91 -> 107 ms), and a
# 1 Mpx `sample_frame` 17 -> 11 ms, inside the spread of its runs. Raise it
# only with paired runs from a machine with more cores.
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


def _unsigned(name: str, value, bits: int) -> None:
    """Refuses a bool, a non-integer and an integer outside [0, 2**bits)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} {value!r} is not an integer")
    if not 0 <= value < 1 << bits:
        raise DomainError(f"{name} {value} lies outside [0, 2**{bits})")


def _seeds(seed: int, purpose: int) -> np.random.SeedSequence:
    _unsigned("seed", seed, 64)
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
    splitmix64(base + (frame << 32 | pixel) * _GAMMA). `frame` must be an
    integer and `pixels` a step-1 range, both inside [0, 2**32)."""
    _unsigned("frame", frame, 32)
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


def _uniform01(u) -> np.ndarray:
    """u as float64, refused unless every entry lies in [0, 1): NaN fails
    both comparisons, and an empty u passes."""
    u = np.asarray(u, dtype=np.float64)
    if not (u.min(initial=0.0) >= 0.0 and u.max(initial=0.0) < 1.0):
        raise DomainError("a uniform lies outside [0, 1) or is NaN")
    return u


def standard_normals(u: np.ndarray, step: float = 2.0 ** -54) -> np.ndarray:
    """Phi^-1(u + step), one standard normal per uniform u on the 2^-53 grid
    of [0, 1) (inversion); a u outside [0, 1), NaN included, is refused.

    The default half step keeps every argument inside (0, 1). Above 1/2
    the offset uniform has no float64 value, so it is taken from the upper
    tail as -Phi^-1((1 - u) - step); both forms are exact. On the grid the
    smaller argument is always the one of u's side of 1/2, so the minimum
    selects it, and the sign flips by a multiply by -1.
    """
    from scipy.special import ndtri

    u = _uniform01(u)
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


def _inverted(th: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The smallest k with u < F(k; th) of each flat pair, computed in
    full: the path of every pixel that the count table leaves unsure.

    Rates below _SEARCH_BELOW sum the pmf from k = 0. Above, the count is
    floor(x) for the quantile x of Giles's asymptotic inversion, taken from
    Phi^-1(u) itself; the few pixels with x near an integer m take m - 1 or
    m by one CDF evaluation, and those with x below _SEARCH_BELOW are summed.
    """
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
    return out


# The count table of `poissons` (a squeeze, Devroye 1986, II.5, indexed as
# a guide table, III.2.4): row j holds the rates [j, j + 1) / _RATE_BINS,
# column i the uniforms [i, i + 1) / _CELLS, both powers of two, so the
# scaled rate and uniform and their floors are exact. A row leaves unsure
# the uniforms that the F(k) sweep across its bin, 1 / _RATE_BINS of them
# in all as the pmf sums to 1, and about one cell per count of the pmf's
# bulk: 9.2% of a `calib` frame (rates 0-51). The table takes 1 MiB; 32
# bins would leave 6.1% unsure, 2048 cells 7.8%, each for 2 MiB. Most
# unsure cells lie between the cells of two counts, and a second stage,
# F(k) interpolated across the bin, settles all but 0.3% of a `calib` frame.
_RATE_BINS = 16
_CELLS = 1024
# Rates from here on read the all-unsure last row: every `calib` rate lies below.
_TABLE_TOP = 64
# Margin kept between a sure cell and the F(k) around it: far above the
# error of the table's F, below 3e-14 against mpmath, and of the exact
# path's decisions, which are those of F to within its rounding. No
# F(k; j / _RATE_BINS) lies within 1.4e-8 of a cell edge, so the margin
# moves no entry of this table.
_TABLE_SLACK = 1e-9
# Counts held: k has a sure cell only if F(k - 1; a) <= 1 - 2 / _CELLS,
# which below _TABLE_TOP fails from k = 89 on.
_TABLE_COUNTS = 96
# An entry _BETWEEN + k: every rate of the row and uniform of the cell
# draws k or k + 1, and `_between_counts` tells which.
_BETWEEN = 128
_UNSURE = 255  # an entry that names no count: the exact path decides
# Rows built at once. On a 2-core Xeon the table's build takes 4.6-6.4 ms
# and a tracemalloc peak of 1.37 MiB, the table's 1 MiB included, from F
# rows already built (`_edge_cdfs`: 1.2-1.6 ms, 0.91 MiB, its 0.77 MiB
# included); 128 rows take 5.2-7.4 ms and 1.67 MiB, 32 rows 4.9-5.1 ms
# and 1.19 MiB.
_BUILD_ROWS = 64
# `_settle` runs the exact path of a squeeze on the unsure pixels of a tile in
# whole blocks of this many, repeating them to fill the last, so its arrays
# take a few sizes only. Freed arrays of each small size stay cached by NumPy
# (below 1 KiB) and by malloc, scattered over the heap: with a size per unsure
# count, the heap grew by 1 MiB a `sim` benchmark round for five rounds.
_UNSURE_BLOCK = 256


def _settle(out: np.ndarray, unsure: np.ndarray, exact, *inputs) -> np.ndarray:
    """out, with out[unsure] = exact(*(a[unsure] for a in inputs)): the last
    step of a squeeze, `exact` taking its unsure pixels in whole blocks."""
    block = np.resize(unsure, -(-unsure.size // _UNSURE_BLOCK) * _UNSURE_BLOCK)
    out[unsure] = exact(*(a[block] for a in inputs))[:unsure.size]
    return out


def _cdfs(rates: np.ndarray) -> np.ndarray:
    """F(k; rate) for each k below _TABLE_COUNTS, a row per rate: the
    cumulative sums of exp(k ln rate - rate - ln k!), ln k! by math.lgamma."""
    k = np.arange(_TABLE_COUNTS)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = np.multiply.outer(np.log(rates), k)  # NaN at rate 0 and k = 0
    log_pmf[:, 0] = 0.0
    log_pmf -= rates[:, None]
    log_pmf -= [math.lgamma(j + 1.0) for j in range(_TABLE_COUNTS)]
    return np.cumsum(np.exp(log_pmf, out=log_pmf), axis=1)


@lru_cache(maxsize=1)
def _edge_cdfs() -> np.ndarray:
    """The read-only (rows + 1, _TABLE_COUNTS + 2) float64 F of the count
    table's bin edges: entry (j, k + 2) is F(k; j / _RATE_BINS), and the
    first two columns, F(-2) and F(-1), are 0, so the pmfs of a count and
    of the count below are differences within its row. Built a band of rows
    at a time, so no temporary is larger than a band."""
    edges = _TABLE_TOP * _RATE_BINS + 1
    cdf = np.zeros((edges, _TABLE_COUNTS + 2))
    for r in range(0, edges, _BUILD_ROWS):
        rates = np.arange(r, min(r + _BUILD_ROWS, edges)) / _RATE_BINS
        cdf[r:r + rates.size, 2:] = _cdfs(rates)
    cdf.setflags(write=False)  # one table serves every caller and worker
    return cdf


@lru_cache(maxsize=1)
def _count_table() -> np.ndarray:
    """The read-only (rows + 1, _CELLS) uint8 count table of `poissons`.

    Row j holds the rates of [a, b), a = j / _RATE_BINS and b = a + 1 /
    _RATE_BINS, and cell i the uniforms of [i, i + 1) / _CELLS. As F falls
    in the rate, each of them draws at least the largest k with i / _CELLS
    >= F(k - 1; a) + S, S = _TABLE_SLACK and F(-1) = -inf, and at most the
    smallest k with (i + 1) / _CELLS <= F(k; b) - S. Entry (j, i) holds k
    where both bounds are k, _BETWEEN + k where they are k and k + 1, and
    _UNSURE where they lie further apart, where the upper bound passes the
    counts held, and on the last row, which serves the rates from
    _TABLE_TOP on. Each bound is a step function of the cell, one
    `np.repeat` per band of rows, over the F of `_edge_cdfs`.
    """
    cdf = _edge_cdfs()[:, 2:]
    rows = _TABLE_TOP * _RATE_BINS
    table = np.full((rows + 1, _CELLS), _UNSURE, dtype=np.uint8)
    counts = np.append(np.arange(_TABLE_COUNTS, dtype=np.uint8), np.uint8(_UNSURE))
    counts = np.tile(counts, _BUILD_ROWS)  # 0, 1, ..., _TABLE_COUNTS - 1, unsure: per row
    bounds = np.zeros((_BUILD_ROWS, _TABLE_COUNTS + 2))
    bounds[:, -1] = _CELLS

    def steps(edges):
        """Per cell of each row, the count of the row's edges at or below it."""
        np.clip(edges, 0.0, _CELLS, out=bounds[:, 1:-1])
        return np.repeat(counts, np.diff(bounds).astype(np.intp).ravel())

    for r in range(0, rows, _BUILD_ROWS):
        least = steps(np.ceil((cdf[r:r + _BUILD_ROWS] + _TABLE_SLACK) * _CELLS))
        most = steps(np.floor((cdf[r + 1:r + _BUILD_ROWS + 1] - _TABLE_SLACK) * _CELLS))
        most -= least  # 0: sure, 1: k or k + 1, more (or a wrapped unsure): unsure
        least[most == 1] += _BETWEEN
        least[most > 1] = _UNSURE
        table[r:r + _BUILD_ROWS] = least.reshape(_BUILD_ROWS, _CELLS)
    table.setflags(write=False)  # one table serves every caller and worker
    return table


def _table_counts(th: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The `_count_table` entry of each flat pair: the row of the rate's bin,
    the last from _TABLE_TOP on, and the uniform's cell. Its index arrays
    are freed on return, before the exact path takes its own."""
    row = np.multiply(th, _RATE_BINS)
    np.minimum(row, _TABLE_TOP * _RATE_BINS, out=row)
    entry = row.astype(np.intp)
    entry *= _CELLS
    entry += (u * _CELLS).astype(np.intp)
    return np.take(_count_table(), entry)


def _interpolated_cdf(th: np.ndarray, k: np.ndarray) -> tuple:
    """(L, E) for each rate th below _TABLE_TOP and count k below
    _TABLE_COUNTS: L is F(k; th) interpolated linearly across the rate's
    bin, and E bounds |F(k; th) - L|.

    With a and b the edges of the bin and w = (th - a) / (b - a), exact,
    L = F(k; a) + w (F(k; b) - F(k; a)) lies within (b - a)**2 / 8 times
    the largest |F''| over the bin of F(k; th). F'' = pmf(k) - pmf(k - 1)
    in th, so |F''| <= max(pmf(k), pmf(k - 1)), and each pmf peaks at an
    integer rate, never inside a bin, so its largest value in the bin is at
    an edge. E is that bound plus _TABLE_SLACK for the rounding of the
    table's F and of L.
    """
    cdf = _edge_cdfs()
    w = th * _RATE_BINS
    j = w.astype(np.intp)
    w -= j  # exact: w and the bin j lie within 1 of each other
    ia = j * cdf.shape[1] + k + 2  # the flat index of F(k; a)
    ib = ia + cdf.shape[1]  # and of F(k; b)
    cdf = cdf.ravel()
    fa, fb, below_a, below_b = cdf[ia], cdf[ib], cdf[ia - 1], cdf[ib - 1]
    err = np.maximum(np.maximum(fa - below_a, below_a - cdf[ia - 2]),  # pmf(k), pmf(k - 1) at a
                     np.maximum(fb - below_b, below_b - cdf[ib - 2]))  # and at b
    return fa + w * (fb - fa), err / (8 * _RATE_BINS ** 2) + _TABLE_SLACK


def _between_counts(out: np.ndarray, th: np.ndarray, u: np.ndarray) -> np.ndarray:
    """out, the uint8 entries of `_table_counts`, with each _BETWEEN + k
    set to k or k + 1 where F(k; th) is decided by `_interpolated_cdf`, else
    to _UNSURE: the second stage of the squeeze of `poissons`. The entry's
    cell allows k or k + 1 only, so u < L - E draws k and u >= L + E draws
    k + 1, as `_inverted` does."""
    at = np.flatnonzero(out - np.uint8(_BETWEEN) < _UNSURE - _BETWEEN)  # wraps below _BETWEEN
    k = out[at] - np.uint8(_BETWEEN)
    low, err = _interpolated_cdf(th[at], k)
    v = u[at]
    above = v >= low + err
    k += above
    k[above != (v >= low - err)] = _UNSURE  # u within E of L: the exact path decides
    out[at] = k
    return out


def poissons(theta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Poisson draws, one per uniform u on the 2^-53 grid: the smallest k
    with u < F(k; theta) (inversion). theta = 0 draws 0; a negative rate,
    one that is not at most RATE_CAP (inf and NaN included), a u outside
    [0, 1) and a u of another shape than theta are refused.

    Each count is one gather from `_count_table` at its (rate bin, uniform
    cell); `_between_counts` decides most cells that lie between two counts,
    and `_settle` has `_inverted`, whose counts both stages equal, draw the
    rest, every rate from _TABLE_TOP on too.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if not np.all(theta <= RATE_CAP):
        raise DomainError(f"a Poisson rate exceeds the cap {RATE_CAP:g} or is NaN")
    if np.any(theta < 0):
        raise DomainError("a Poisson rate is negative")
    u = _uniform01(u)
    if u.shape != theta.shape:
        raise ShapeError(f"uniforms of shape {u.shape} for rates of shape {theta.shape}")
    th, u = theta.ravel(), u.ravel()
    out = _between_counts(_table_counts(th, u), th, u).astype(np.int64)
    return _settle(out, np.flatnonzero(out == _UNSURE), _inverted, th, u).reshape(theta.shape)
