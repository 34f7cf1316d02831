import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from quantaflow import rng


def _poisson_search(theta, keys):
    """Reference: inversion by sequential search from k = 0 over the same
    uniform, the sampler used below theta = 30 up to version 0.2.0."""
    u = rng.uniforms(keys)
    p = np.exp(-theta)
    cum = p.copy()
    k = np.zeros(theta.shape, dtype=np.int64)
    active = u > cum
    step = 0
    while np.any(active):
        step += 1
        p = np.where(active, p * theta / float(step), p)
        cum = np.where(active, cum + p, cum)
        k[active] += 1
        active &= u > cum
    return k


def _chi_square_p(observed, expected):
    observed = np.asarray(observed, dtype=np.float64)
    stat = np.sum((observed - expected) ** 2 / expected)
    return stats.chi2.sf(stat, observed.size - 1)


def test_uniforms_deterministic_and_in_range():
    keys = rng.substream_keys(42, np.arange(1000), tag=1)
    u1 = rng.uniforms(keys)
    u2 = rng.uniforms(keys)
    assert np.array_equal(u1, u2)
    assert np.all((u1 >= 0) & (u1 < 1))


def test_substreams_differ_by_seed_tag_and_index():
    idx = np.arange(100)
    a = rng.uniforms(rng.substream_keys(1, idx, 1))
    b = rng.uniforms(rng.substream_keys(2, idx, 1))
    c = rng.uniforms(rng.substream_keys(1, idx, 2))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_moments():
    keys = rng.substream_keys(7, np.arange(200_000), tag=3)
    u = rng.uniforms(keys)
    # mean 1/2, var 1/12; 5 sigma bands
    assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / u.size)
    assert abs(u.var() - 1 / 12) < 5e-3


def test_standard_normals_moments():
    keys = rng.substream_keys(11, np.arange(200_000), tag=4)
    z = rng.standard_normals(keys)
    n = z.size
    assert abs(z.mean()) < 5 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / n)
    assert abs((z ** 3).mean()) < 5 * np.sqrt(15 / n)


@pytest.mark.parametrize("theta", [0.25, 1.0, 4.0, 50.0, 200.0])
def test_poisson_moments(theta):
    n = 100_000
    keys = rng.substream_keys(5, np.arange(n), tag=1)
    k = rng.poissons(np.full(n, theta), keys)
    assert np.all(k >= 0)
    assert abs(k.mean() - theta) < 5 * np.sqrt(theta / n)
    assert abs(k.var() - theta) < 5 * theta * np.sqrt(3 / n) + 0.05 * theta


def test_poisson_zero_theta():
    keys = rng.substream_keys(9, np.arange(100), tag=1)
    assert np.all(rng.poissons(np.zeros(100), keys) == 0)


def test_poisson_mixed_regimes_deterministic():
    theta = np.array([0.5, 10.0, 100.0, 1000.0])
    keys = rng.substream_keys(3, np.arange(4), tag=1)
    assert np.array_equal(rng.poissons(theta, keys), rng.poissons(theta, keys))


def test_result_independent_of_batch_split():
    # Per-pixel substreams: drawing pixels in two halves must match one batch.
    theta = np.linspace(0.1, 5.0, 64)
    keys = rng.substream_keys(21, np.arange(64), tag=1)
    whole = rng.poissons(theta, keys)
    halves = np.concatenate([rng.poissons(theta[:32], keys[:32]),
                             rng.poissons(theta[32:], keys[32:])])
    assert np.array_equal(whole, halves)


def test_frame_seed_distinct():
    seeds = {rng.frame_seed(123, i) for i in range(15)}
    assert len(seeds) == 15
    assert rng.frame_seed(123, 0) == 123


@pytest.mark.parametrize("theta", [0.25, 4.0, 29.5, 30.0, 40.0, 100.0])
def test_poisson_chi_square(theta):
    n = 400_000
    keys = rng.substream_keys(31, np.arange(n), tag=1)
    k = rng.poissons(np.full(n, theta), keys)
    # Cells lo..hi; the two end cells hold the tails, each of mass at
    # least 20/n, and every cell expects more than 10 counts.
    dist = stats.poisson(theta)
    lo, hi = int(dist.ppf(20 / n)), int(dist.isf(20 / n))
    cells = np.arange(lo, hi + 1)
    expected = n * np.concatenate([[dist.cdf(lo)], dist.pmf(cells[1:-1]),
                                   [dist.sf(hi - 1)]])
    observed = np.bincount(np.clip(k, lo, hi) - lo, minlength=cells.size)
    assert _chi_square_p(observed, expected) > 1e-4


def test_standard_normals_chi_square():
    n, bins = 400_000, 100
    keys = rng.substream_keys(37, np.arange(n), tag=4)
    z = rng.standard_normals(keys)
    edges = ndtri(np.arange(1, bins) / bins)
    observed = np.bincount(np.searchsorted(edges, z), minlength=bins)
    assert _chi_square_p(observed, np.full(bins, n / bins)) > 1e-4


def test_normal_quantiles_finite_and_symmetric():
    u = np.array([0.0, 2.0 ** -53, 0.5 - 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53])
    z = rng._normal_quantiles(u)
    assert np.all(np.isfinite(z))
    assert z[0] == -z[-1] and z[2] == -z[3]
    assert np.all(np.diff(z) > 0)


@pytest.mark.parametrize("seed", [1, 2])
def test_poisson_matches_search_below_30(seed):
    theta = np.linspace(0.0, 29.99, 150_000)
    keys = rng.substream_keys(seed, np.arange(theta.size), tag=1)
    assert np.array_equal(rng.poissons(theta, keys), _poisson_search(theta, keys))


def test_poisson_matches_search_in_the_tails():
    # Pixels whose uniform lies in an outer 1e-3 tail, at small rates where
    # the starting guess is furthest off, so both step loops walk far.
    keys = rng.substream_keys(3, np.arange(2_000_000), tag=1)
    u = rng.uniforms(keys)
    keys = keys[(u < 1e-3) | (u > 1.0 - 1e-3)]
    theta = np.geomspace(1e-4, 29.0, keys.size)
    assert np.array_equal(rng.poissons(theta, keys), _poisson_search(theta, keys))


@pytest.mark.parametrize("theta", [0.0, 1e-300, 745.0, 800.0, 1e6])
def test_poisson_extreme_theta(theta):
    n = 100_000
    keys = rng.substream_keys(41, np.arange(n), tag=1)
    k = rng.poissons(np.full(n, theta), keys)
    assert np.all(k >= 0)
    assert abs(k.mean() - theta) <= 5 * np.sqrt(theta / n)
