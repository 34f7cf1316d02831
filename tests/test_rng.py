import ast
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from quantaflow import (BracketSpec, ExposureMap, SensorConfig, generate_burst, rng,
                        sample_frame, verifier)
from quantaflow.calibration import RATE_CAP
from quantaflow.verifier import continuity_instance, run_density_suite


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


PURPOSES = (rng.FIELD, rng.PHOTON, rng.LAYER, rng.CONTINUITY, rng.DENSITY,
            rng.QIS_PHOTON, rng.QIS_NOISE)


@pytest.mark.parametrize("seed", [0, 123, 2 ** 64 - 1])
def test_frame_counter_does_not_alias_the_seed(seed):
    # Up to 0.5.0 burst frame tau drew the uniforms of frame 0 at seed
    # seed ^ (tau << 32).
    idx = np.arange(4096)
    for tau in range(1, 16):
        frame = rng.uniforms(rng.substream_keys(seed, idx, rng.PHOTON, frame=tau))
        moved = rng.uniforms(rng.substream_keys(seed ^ (tau << 32), idx, rng.PHOTON))
        assert not np.any(frame == moved)


def test_frame_zero_is_the_plain_counter():
    idx = np.arange(1000, dtype=np.uint64)
    keys = rng.substream_keys(77, idx, rng.PHOTON)
    assert np.array_equal(keys, rng.substream_keys(77, idx, rng.PHOTON, frame=0))
    assert not np.any(keys == rng.substream_keys(77, idx, rng.PHOTON, frame=1))
    assert idx.tolist() == list(range(1000))  # the indices are left as they were


def test_burst_frames_are_not_the_simulated_frame():
    emap = ExposureMap.constant(64, 64, 0.7)  # bit probability about 1/2
    cfg = SensorConfig(0.5, 0.0, 12345)
    spec = BracketSpec(tuple(1.0 + 1e-9 * i for i in range(15)))
    burst = generate_burst(emap, spec, cfg)
    frames = [sample_frame(emap, cfg).to_array()] + [f.to_array() for f in burst.frames]
    for tau, f in enumerate(burst.frames):
        assert f.bits.tobytes() == sample_frame(emap.scaled(1 / spec.alphas[tau]), cfg,
                                                frame=tau + 1).bits.tobytes()
    # Independent frames of p = 1/2 agree on about half their pixels.
    agree = [np.mean(a == b) for i, a in enumerate(frames) for b in frames[i + 1:]]
    assert max(agree) < 0.55


@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
def test_field_stream_is_the_plain_seed(seed):
    assert (rng.generator(seed, rng.FIELD).bit_generator.state
            == np.random.default_rng(seed).bit_generator.state)


def test_seed_and_purpose_never_collide():
    seeds = {s + p * 2 ** 32 for s in (0, 1, 2 ** 32 - 1, 2 ** 40 + 3) for p in PURPOSES}
    seeds |= {2 ** 63, 2 ** 64 - 1}
    states = {rng.generator(s, p).bit_generator.state["state"]["state"]
              for s in seeds for p in PURPOSES}
    assert len(states) == len(seeds) * len(PURPOSES)


@pytest.mark.parametrize("seed", [0, 12345, 2053297607])
def test_continuity_input_is_not_the_field_weights(seed):
    # Up to 0.5.0 the input was an affine copy of the first stage weights.
    field_, _, inp, _ = continuity_instance(seed)
    x = inp.data.ravel()
    w = field_.stage_weights[0].ravel()[:x.size]
    assert abs(np.corrcoef(x, w)[0, 1]) < 0.2


@pytest.mark.parametrize("seed", [0, 2053297607, 2 ** 64 - 1])
def test_density_row_redraws_from_its_instance_seed(monkeypatch, seed):
    seen = []
    block = verifier._density_block

    def recording(bits, nb):
        if nb.radius == 0:
            seen.extend(bits)
        return block(bits, nb)

    monkeypatch.setattr(verifier, "_density_block", recording)
    start = max(seed - 20, 0)
    rows = run_density_suite(40, start)
    frame = seen[seed - start]
    seen.clear()
    assert run_density_suite(1, seed) == [r for r in rows if r["instance_seed"] == seed]
    assert len(seen) == 1 and np.array_equal(seen[0], frame)


def _tag_violations(source: str) -> list:
    """Lines of `source` that call np.random.* or pass a literal tag to
    `substream_keys`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy.random"):
            found.append(node.lineno)
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        chain = []
        while isinstance(fn, ast.Attribute):
            chain.append(fn.attr)
            fn = fn.value
        if isinstance(fn, ast.Name):
            chain.append(fn.id)
        chain.reverse()
        if chain[:2] in (["np", "random"], ["numpy", "random"]):
            found.append(node.lineno)
        if chain and chain[-1] == "substream_keys":
            tags = node.args[2:3] + [k.value for k in node.keywords if k.arg == "tag"]
            if any(isinstance(t, ast.Constant) for t in tags):
                found.append(node.lineno)
    return found


def test_tag_guard_sees_each_form():
    source = ("import numpy as np\nfrom numpy.random import default_rng\n"
              "a = np.random.default_rng(1)\nb = numpy.random.normal()\n"
              "c = rng.substream_keys(1, idx, 3)\nd = substream_keys(1, idx, tag=3)\n"
              "e = rng.substream_keys(1, idx, rng.PHOTON)\n")
    assert _tag_violations(source) == [2, 3, 4, 5, 6]


def test_only_rng_keys_a_draw():
    # `rng` is the one module that names a stream or seeds a generator.
    src = Path(rng.__file__).parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "rng.py")
    assert len(modules) > 5
    assert {p.name: _tag_violations(p.read_text()) for p in modules} == \
        {p.name: [] for p in modules}


@pytest.mark.parametrize("theta", [0.25, 4.0, 9.9, 10.1, 29.5, 30.0, 40.0, 100.0])
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


def test_poisson_chi_square_at_a_large_rate():
    # At theta = 1e6 one count holds at most 4e-4 of the mass, so cells cut
    # at the 0.1% quantiles each expect about 400 of the n draws.
    n, theta = 400_000, 1e6
    keys = rng.substream_keys(31, np.arange(n), tag=1)
    k = rng.poissons(np.full(n, theta), keys)
    dist = stats.poisson(theta)
    edges = np.unique(dist.ppf(np.arange(1, 1000) / 1000))
    expected = n * np.diff(np.concatenate([[0.0], dist.cdf(edges), [1.0]]))
    observed = np.bincount(np.searchsorted(edges, k), minlength=edges.size + 1)
    assert expected.min() > 10
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


# Indices of the (3, QIS_PHOTON) stream whose uniform lies in an outer 1e-6
# tail (three each side) or within 1e-7 of 1/2 (two).
TAIL_INDICES = (18163644, 1555908, 14794838, 28517045, 14202106, 12496717, 7350678, 8631595)


def _in_count_interval(theta, u, k):
    """F(k - 1) <= u < F(k) for Poisson(theta), in 30-digit mpmath."""
    with mpmath.workdps(30):
        def cdf(j):
            return mpmath.gammainc(j + 1, theta, mpmath.inf, regularized=True) if j >= 0 else 0
        return cdf(k - 1) <= mpmath.mpf(u) < cdf(k)


def _draw(seed, indices, theta):
    keys = rng.substream_keys(seed, np.array(indices), rng.QIS_PHOTON)
    return rng.uniforms(keys), rng.poissons(np.full(len(indices), theta), keys)


@pytest.mark.parametrize("theta", [np.nextafter(rng._SEARCH_BELOW, 0.0), rng._SEARCH_BELOW,
                                   51.0, 1e3, 1e6])
def test_poisson_matches_mpmath_in_the_tails(theta):
    u, k = _draw(3, TAIL_INDICES, theta)
    assert all(_in_count_interval(theta, float(a), int(b)) for a, b in zip(u, k))


@pytest.mark.parametrize("seed, index, theta, count", [
    (3, 99016, 1e8, 100047178),  # the walk up to 0.6.0 stopped at 100046538
    (18, 258393, 7193633.485994692, 7206965),  # and here at 7206956
])
def test_poisson_upper_tail_at_large_rates(seed, index, theta, count):
    u, k = _draw(seed, [index], theta)
    assert k[0] == count and _in_count_interval(theta, float(u[0]), count)


@pytest.mark.parametrize("theta", [1e5, 1e6, 7193633.485994692, 1e8])
@pytest.mark.parametrize("z", [-6.0, 6.0])
def test_near_integer_decision_in_the_far_tails(theta, z):
    # SciPy's pdtrc is off by a relative 1e-5 at theta = 1e6 and z = 5, and
    # by 35% at 1e8; Temme's C0 term alone by 5e-10 at 1e5. Uniforms a
    # relative 1e-12 below 1/2, or 1e-6 above (1 - u is on the 2^-53 grid),
    # of the tail from F(k) must fall on their side of it.
    k = np.floor(theta + z * np.sqrt(theta))
    with mpmath.workdps(30):
        cdf = mpmath.gammainc(k + 1, theta, mpmath.inf, regularized=True)
        tail = float(cdf if z < 0 else 1 - cdf)
        rel = 1e-12 if z < 0 else 1e-6
        u = np.array([tail * f if z < 0 else 1.0 - tail * f for f in (1 - rel, 1 + rel)])
        expected = [mpmath.mpf(v) < cdf for v in u]
    assert sorted(expected) == [False, True]
    got = rng._below_cdf(u, np.full(2, k), np.full(2, theta))
    assert got.tolist() == expected


@pytest.mark.parametrize("theta", [51.0, 1e6])
def test_near_integer_decision_above_the_median_uses_the_tail(theta):
    # Above 1/2, u and F(k) share the 2^-53 grid: where the tail S = 1 - F(k)
    # rounds up onto 1 - u, u lies below F(k) and equals its float.
    k = np.floor(theta + 5 * np.sqrt(theta))
    with mpmath.workdps(30):
        while True:
            q = (1 - mpmath.gammainc(k + 1, theta, mpmath.inf, regularized=True)) * 2 ** 53
            if q - mpmath.floor(q) > 0.5:
                break
            k += 1
        u = 1.0 - float(mpmath.ceil(q)) * 2.0 ** -53
        assert mpmath.mpf(u) < 1 - q * 2.0 ** -53
    assert rng._below_cdf(np.array([u]), np.array([k]), np.array([theta])).tolist() == [True]


# At RATE_CAP one mpmath evaluation takes seconds, so these counts are frozen;
# each met F(k - 1) <= u < F(k) in _in_count_interval.
CAP_COUNTS = {18163644: 999994571845, 1555908: 999994712177, 14794838: 999994758544,
              28517045: 1000005374962, 14202106: 1000005324849, 12496717: 1000005159953,
              7350678: 1000000000000, 8631595: 1000000000000,
              99016: 1000004717485,  # the walk up to 0.6.0 stopped at 1000004575281
              29867: 999999485297}  # x rounds to 999999485298.0: the CDF decides


def test_poisson_counts_at_the_rate_cap():
    _, k = _draw(3, list(CAP_COUNTS), RATE_CAP)
    assert dict(zip(CAP_COUNTS, k.tolist())) == CAP_COUNTS
