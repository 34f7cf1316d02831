import ast
import math
import time
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import ndtri, pdtr

from quantaflow import (AtomVectorField, BracketSpec, DomainError, ExposureMap, QisParams,
                        SensorConfig, ShapeError, generate_burst, qis_forward, rng,
                        sample_frame, verifier)
from quantaflow.rng import RATE_CAP
from quantaflow.verifier import run_density_suite


def _poisson_search(theta, u):
    """Reference: inversion by sequential search from k = 0 over the same
    uniform, the sampler used below theta = 30 up to version 0.2.0."""
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
    u1 = rng.uniforms(range(1000), 42, 1)
    u2 = rng.uniforms(range(1000), 42, 1)
    assert np.array_equal(u1, u2)
    assert np.all((u1 >= 0) & (u1 < 1))


def test_substreams_differ_by_seed_tag_and_index():
    idx = range(100)
    a = rng.uniforms(idx, 1, 1)
    b = rng.uniforms(idx, 2, 1)
    c = rng.uniforms(idx, 1, 2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_moments():
    u = rng.uniforms(range(200_000), 7, 3)
    # mean 1/2, var 1/12; 5 sigma bands
    assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / u.size)
    assert abs(u.var() - 1 / 12) < 5e-3


def test_standard_normals_moments():
    z = rng.standard_normals(rng.uniforms(range(200_000), 11, 4))
    n = z.size
    assert abs(z.mean()) < 5 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / n)
    assert abs((z ** 3).mean()) < 5 * np.sqrt(15 / n)


@pytest.mark.parametrize("theta", [0.25, 1.0, 4.0, 50.0, 200.0])
def test_poisson_moments(theta):
    n = 100_000
    k = rng.poissons(np.full(n, theta), rng.uniforms(range(n), 5, 1))
    assert np.all(k >= 0)
    assert abs(k.mean() - theta) < 5 * np.sqrt(theta / n)
    assert abs(k.var() - theta) < 5 * theta * np.sqrt(3 / n) + 0.05 * theta


def test_poisson_zero_theta():
    assert np.all(rng.poissons(np.zeros(100), rng.uniforms(range(100), 9, 1)) == 0)


def test_poisson_mixed_regimes_deterministic():
    theta = np.array([0.5, 10.0, 100.0, 1000.0])
    u = rng.uniforms(range(4), 3, 1)
    assert np.array_equal(rng.poissons(theta, u), rng.poissons(theta, u))


def test_result_independent_of_batch_split():
    # Per-pixel substreams: drawing pixels in two halves must match one batch.
    theta = np.linspace(0.1, 5.0, 64)
    u = rng.uniforms(range(64), 21, 1)
    whole = rng.poissons(theta, u)
    halves = np.concatenate([rng.poissons(theta[:32], u[:32]),
                             rng.poissons(theta[32:], u[32:])])
    assert np.array_equal(whole, halves)


PURPOSES = (rng.FIELD, rng.PHOTON, rng.LAYER, rng.CONTINUITY, rng.DENSITY,
            rng.QIS_PHOTON, rng.QIS_NOISE)


@pytest.mark.parametrize("seed", [0, 123, 2 ** 64 - 1])
def test_frame_counter_does_not_alias_the_seed(seed):
    # Up to 0.5.0 burst frame tau drew the uniforms of frame 0 at seed
    # seed ^ (tau << 32).
    idx = range(4096)
    for tau in range(1, 16):
        frame = rng.uniforms(idx, seed, rng.PHOTON, frame=tau)
        moved = rng.uniforms(idx, seed ^ (tau << 32), rng.PHOTON)
        assert not np.any(frame == moved)


def test_frame_zero_is_the_plain_counter():
    idx = range(1000)
    u = rng.uniforms(idx, 77, rng.PHOTON)
    assert np.array_equal(u, rng.uniforms(idx, 77, rng.PHOTON, frame=0))
    assert not np.any(u == rng.uniforms(idx, 77, rng.PHOTON, frame=1))


@pytest.mark.parametrize("frame", [-1, 2 ** 32])
def test_a_frame_outside_32_bits_is_a_domain_error(frame):
    with pytest.raises(DomainError, match="frame"):
        rng.uniforms(range(4), 1, rng.PHOTON, frame)
    with pytest.raises(DomainError, match="frame"):
        sample_frame(ExposureMap.constant(4, 4, 1.0), SensorConfig(0.5, 0.0, 1), frame=frame)
    assert rng.uniforms(range(4), 1, rng.PHOTON, 2 ** 32 - 1).shape == (4,)


@pytest.mark.parametrize("frame", [1.5, True, 1.0, np.float64(1.0)],
                         ids=["1.5", "True", "1.0", "float64"])
def test_a_frame_that_is_not_an_integer_is_a_domain_error(frame):
    # Each of these once drew the uniforms of frame 1.
    with pytest.raises(DomainError, match="frame .* is not an integer"):
        rng.uniforms(range(4), 5, rng.PHOTON, frame)
    with pytest.raises(DomainError, match="frame .* is not an integer"):
        sample_frame(ExposureMap.constant(4, 4, 1.0), SensorConfig(0.5, 0.0, 1), frame=frame)
    one = rng.uniforms(range(4), 5, rng.PHOTON, 1)
    for integer in (np.int64(1), np.uint32(1)):  # NumPy integers still draw
        assert np.array_equal(rng.uniforms(range(4), 5, rng.PHOTON, integer), one)


@pytest.mark.parametrize("index", [-1, 2 ** 32])
def test_a_pixel_index_outside_32_bits_is_a_domain_error(index):
    with pytest.raises(DomainError, match="pixels"):
        rng.uniforms(range(index, index + 1), 1, rng.PHOTON)
    assert rng.uniforms(range(2 ** 32 - 1, 2 ** 32), 1, rng.PHOTON).shape == (1,)
    assert rng.uniforms(range(5, 3), 1, rng.PHOTON).shape == (0,)  # empty, as range(5, 3) is


def test_the_first_pixel_past_32_bits_is_refused_not_aliased():
    # Cast to uint64, its counter 0 << 32 | 2**32 is that of pixel 0 of frame 1.
    assert np.uint64(2 ** 32) | np.uint64(0) << np.uint64(32) == np.uint64(1) << np.uint64(32)
    assert rng.uniforms(range(1), 5, rng.PHOTON, frame=1).tolist() == [pytest.approx(0.56299956)]
    with pytest.raises(DomainError, match="pixels"):
        rng.uniforms(range(2 ** 32, 2 ** 32 + 1), 5, rng.PHOTON, frame=0)


@pytest.mark.parametrize("pixels", [[1], [1.5], [True], np.arange(4), np.arange(4, dtype=np.uint64),
                                    range(0, 4, 2), range(-1, 2), range(0, 2 ** 32 + 1)],
                         ids=["list", "float", "bool", "ndarray", "uint64", "step 2",
                              "from -1", "to 2**32 + 1"])
def test_pixels_other_than_a_step_1_range_in_32_bits_are_a_domain_error(pixels):
    # Up to 0.7.0 an array was cast to uint64: [1.5], [True] and [1] all drew pixel 1.
    with pytest.raises(DomainError, match="pixels"):
        rng.uniforms(pixels, 5, rng.PHOTON)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, True])
@pytest.mark.parametrize("draw", [
    lambda s: rng.generator(s, rng.FIELD),
    lambda s: rng.uniforms(range(4), s, rng.PHOTON),
    lambda s: sample_frame(ExposureMap.constant(4, 4, 1.0), SensorConfig(seed=s)),
    lambda s: qis_forward(np.full((2, 3), 2.0), QisParams(), seed=s),
    lambda s: AtomVectorField.seeded(2, 3, s)],
    ids=["generator", "uniforms", "sample_frame", "qis_forward", "field"])
def test_a_seed_outside_64_bits_is_a_domain_error(draw, seed):
    with pytest.raises(DomainError, match="seed"):
        draw(seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2 ** 64 - 1)])
def test_a_numpy_integer_seed_draws_as_its_int(seed):
    emap = ExposureMap.constant(4, 4, 1.0)
    assert (sample_frame(emap, SensorConfig(seed=seed)).bits.tobytes()
            == sample_frame(emap, SensorConfig(seed=int(seed))).bits.tobytes())


def test_the_first_seed_past_64_bits_is_refused_not_aliased():
    # Its words (0, 2**32, FIELD) enter SeedSequence as the words of (0, PHOTON).
    assert (np.random.SeedSequence([0, 2 ** 32, rng.FIELD]).generate_state(4).tolist()
            == np.random.SeedSequence([0, 0, rng.PHOTON]).generate_state(4).tolist())
    with pytest.raises(DomainError, match="seed"):
        rng.generator(2 ** 64, rng.FIELD)


def _unshift(y, s):
    """The x with x ^ (x >> s) = y, for s >= 22."""
    x = y
    for _ in range(3):
        x = y ^ (x >> s)
    return x


def _frame_and_pixel(seed, purpose, word):
    """The (frame, pixel) of the (seed, purpose) stream whose splitmix64 output
    is `word`: the finalizer, then the step base + c * gamma, inverted."""
    x = _unshift(word, 31) * pow(0x94D049BB133111EB, -1, 2 ** 64) % 2 ** 64
    x = _unshift(x, 27) * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64) % 2 ** 64
    base = int(np.random.SeedSequence([seed % 2 ** 32, seed >> 32, purpose])
               .generate_state(1, np.uint64)[0])
    c = (_unshift(x, 30) - base) * pow(0x9E3779B97F4A7C15, -1, 2 ** 64) % 2 ** 64
    return c >> 32, c & 0xFFFFFFFF


def test_a_zero_uniform_fires_at_complement_zero():
    # Every output word below 2**11 draws u = 0. At seed 516, word 1177 falls
    # on pixel 897 of a frame: inside a 32 x 32 map. There theta = 1000 has
    # the complement exp(-1000) = 0, and the pixel fires on u >= 0.
    frame, pixel = _frame_and_pixel(516, rng.PHOTON, 1177)
    assert (frame, pixel) == (2572678244, 897)
    assert rng.uniforms(range(pixel, pixel + 1), 516, rng.PHOTON, frame).tolist() == [0.0]
    theta = np.zeros(32 * 32)  # complement 1 elsewhere: no other pixel fires
    theta[pixel] = 1000.0
    bits = sample_frame(ExposureMap(theta.reshape(32, 32)), SensorConfig(1.0, 0.0, 516), frame)
    assert np.flatnonzero(bits.to_array()).tolist() == [pixel]


def test_burst_frames_are_not_the_simulated_frame():
    emap = ExposureMap.constant(64, 64, 0.7)  # bit probability about 1/2
    cfg = SensorConfig(0.5, 0.0, 12345)
    spec = BracketSpec(tuple(1.0 + 1e-9 * i for i in range(15)))
    burst = generate_burst(emap, spec, cfg)
    frames = [sample_frame(emap, cfg).to_array()] + [f.to_array() for f in burst.frames]
    for tau, f in enumerate(burst.frames):
        scaled = ExposureMap(emap.theta * (1 / spec.alphas[tau]))
        assert f.bits.tobytes() == sample_frame(scaled, cfg, frame=tau + 1).bits.tobytes()
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
    field_ = AtomVectorField.seeded(3, 3, seed)
    _, inp = verifier._continuity_layer(seed)
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
    start = min(max(seed - 20, 0), 2 ** 64 - 40)  # the 40 instance seeds stay below 2**64
    rows = run_density_suite(40, start)
    frame = seen[seed - start]
    seen.clear()
    assert run_density_suite(1, seed) == [r for r in rows if r["instance_seed"] == seed]
    assert len(seen) == 1 and np.array_equal(seen[0], frame)


def _tag_violations(source: str) -> list:
    """Lines of `source` that call np.random.* or pass a literal purpose to
    `uniforms`."""
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
        if chain and chain[-1] == "uniforms":
            purposes = node.args[2:3] + [k.value for k in node.keywords if k.arg == "purpose"]
            if any(isinstance(t, ast.Constant) for t in purposes):
                found.append(node.lineno)
    return found


def test_tag_guard_sees_each_form():
    source = ("import numpy as np\nfrom numpy.random import default_rng\n"
              "a = np.random.default_rng(1)\nb = numpy.random.normal()\n"
              "c = rng.uniforms(idx, 1, 3)\nd = uniforms(idx, 1, purpose=3)\n"
              "e = rng.uniforms(idx, 1, rng.PHOTON)\n")
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
    k = rng.poissons(np.full(n, theta), rng.uniforms(range(n), 31, 1))
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
    k = rng.poissons(np.full(n, theta), rng.uniforms(range(n), 31, 1))
    dist = stats.poisson(theta)
    edges = np.unique(dist.ppf(np.arange(1, 1000) / 1000))
    expected = n * np.diff(np.concatenate([[0.0], dist.cdf(edges), [1.0]]))
    observed = np.bincount(np.searchsorted(edges, k), minlength=edges.size + 1)
    assert expected.min() > 10
    assert _chi_square_p(observed, expected) > 1e-4


def test_standard_normals_chi_square():
    n, bins = 400_000, 100
    z = rng.standard_normals(rng.uniforms(range(n), 37, 4))
    edges = ndtri(np.arange(1, bins) / bins)
    observed = np.bincount(np.searchsorted(edges, z), minlength=bins)
    assert _chi_square_p(observed, np.full(bins, n / bins)) > 1e-4


EDGE_UNIFORMS = [0.0, 2.0 ** -53, 0.25, 0.5 - 2.0 ** -53, 0.5, 0.5 + 2.0 ** -53, 0.75,
                 1.0 - 2.0 ** -53]


@pytest.mark.parametrize("step", [2.0 ** -54, 0.0])
def test_standard_normals_select_as_np_where_bit_for_bit(step):
    # Up to 0.7.0 the argument and the sign were picked by np.where on u >= 1/2.
    u = np.concatenate([EDGE_UNIFORMS, rng.uniforms(range(1 << 16), 43, rng.QIS_NOISE)])
    upper = u >= 0.5
    z = ndtri(np.where(upper, (1.0 - u) - step, u + step))
    expected = np.where(upper, -z, z)
    assert rng.standard_normals(u, step).view(np.uint64).tolist() == \
        expected.view(np.uint64).tolist()  # signed zeros and infinities included


def test_normal_quantiles_finite_and_symmetric():
    u = np.array([0.0, 2.0 ** -53, 0.5 - 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53])
    z = rng.standard_normals(u)
    assert np.all(np.isfinite(z))
    assert z[0] == -z[-1] and z[2] == -z[3]
    assert np.all(np.diff(z) > 0)


@pytest.mark.parametrize("seed", [1, 2])
def test_poisson_matches_search_below_30(seed):
    theta = np.linspace(0.0, 29.99, 150_000)
    u = rng.uniforms(range(theta.size), seed, 1)
    assert np.array_equal(rng.poissons(theta, u), _poisson_search(theta, u))


def test_poisson_matches_search_in_the_tails():
    # Pixels whose uniform lies in an outer 1e-3 tail, at small rates where
    # the starting guess is furthest off, so both step loops walk far.
    u = rng.uniforms(range(2_000_000), 3, 1)
    u = u[(u < 1e-3) | (u > 1.0 - 1e-3)]
    theta = np.geomspace(1e-4, 29.0, u.size)
    assert np.array_equal(rng.poissons(theta, u), _poisson_search(theta, u))


@pytest.mark.parametrize("theta", [0.0, 1e-300, 745.0, 800.0, 1e6])
def test_poisson_extreme_theta(theta):
    n = 100_000
    k = rng.poissons(np.full(n, theta), rng.uniforms(range(n), 41, 1))
    assert np.all(k >= 0)
    assert abs(k.mean() - theta) <= 5 * np.sqrt(theta / n)


# Uniforms k * 2**-53, given by k, in an outer 1e-6 tail (three each side)
# or within 1e-7 of 1/2 (two): up to 0.6.x, those of pixels 18163644,
# 1555908, 14794838, 28517045, 14202106, 12496717, 7350678 and 8631595 of the
# (3, QIS_PHOTON) stream.
TAIL_UNIFORMS = (256425812, 557446329, 717472541, 9007198909761499, 9007198799698846,
                 9007198142271462, 4503599951809074, 4503599355518073)


def _in_count_interval(theta, u, k):
    """F(k - 1) <= u < F(k) for Poisson(theta), in 30-digit mpmath."""
    with mpmath.workdps(30):
        def cdf(j):
            return mpmath.gammainc(j + 1, theta, mpmath.inf, regularized=True) if j >= 0 else 0
        return cdf(k - 1) <= mpmath.mpf(u) < cdf(k)


def _draw(ks, theta):
    """The uniforms k * 2**-53 and their counts at rate theta."""
    u = np.array(ks, dtype=np.float64) * 2.0 ** -53
    return u, rng.poissons(np.full(len(ks), theta), u)


@pytest.mark.parametrize("theta", [np.nextafter(rng._SEARCH_BELOW, 0.0), rng._SEARCH_BELOW,
                                   51.0, 1e3, 1e6])
def test_poisson_matches_mpmath_in_the_tails(theta):
    u, k = _draw(TAIL_UNIFORMS, theta)
    assert all(_in_count_interval(theta, float(a), int(b)) for a, b in zip(u, k))


# The uniforms of pixel 99016 at seed 3 and of pixel 258393 at seed 18 of the
# QIS_PHOTON stream up to 0.6.x.
@pytest.mark.parametrize("k53, theta, count", [
    (9007188500946239, 1e8, 100047178),  # the walk up to 0.6.0 stopped at 100046538
    (9007196224398255, 7193633.485994692, 7206965),  # and here at 7206956
])
def test_poisson_upper_tail_at_large_rates(k53, theta, count):
    u, k = _draw([k53], theta)
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
# each met F(k - 1) <= u < F(k) in _in_count_interval. Keys are k of
# u = k * 2**-53: TAIL_UNIFORMS, then the uniforms of pixels 99016 and 29867
# of the (3, QIS_PHOTON) stream up to 0.6.x.
CAP_COUNTS = {256425812: 999994571845, 557446329: 999994712177,
              717472541: 999994758544, 9007198909761499: 1000005374962,
              9007198799698846: 1000005324849, 9007198142271462: 1000005159953,
              4503599951809074: 1000000000000, 4503599355518073: 1000000000000,
              9007188500946239: 1000004717485,  # the walk up to 0.6.0 stopped at 1000004575281
              2732608666695334: 999999485297}  # x rounds to 999999485298.0: the CDF decides


def test_poisson_counts_at_the_rate_cap():
    _, k = _draw(list(CAP_COUNTS), RATE_CAP)
    assert dict(zip(CAP_COUNTS, k.tolist())) == CAP_COUNTS


@pytest.mark.parametrize("theta", [np.nextafter(RATE_CAP, np.inf), np.inf, np.nan])
def test_a_rate_above_the_cap_is_refused(theta):
    with pytest.raises(DomainError, match="exceeds the cap"):
        rng.poissons(np.array([1.0, theta]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("theta", [-5e-324, -1.0, -np.inf])
def test_a_negative_rate_is_refused(theta):
    # A negative rate once drew 0, and -inf let an overflow warning out of `_search`.
    with pytest.raises(DomainError, match="a Poisson rate is negative"):
        rng.poissons(np.array([1.0, theta]), np.array([0.5, 0.5]))
    assert rng.poissons(np.array([-0.0]), np.array([0.999])).tolist() == [0]


@pytest.mark.parametrize("u", [1.0, 2.0, -0.1, -5e-324, np.nan, np.inf])
@pytest.mark.parametrize("theta", [0.5, 63.99, 100.0])
def test_a_uniform_outside_the_unit_interval_is_refused(theta, u):
    # u = 1.0 at rate 0.5 once read cell 0 of the next table row and drew 0,
    # u = -0.1 drew 1, and NaN ended in an IndexError.
    with pytest.raises(DomainError, match="uniform"):
        rng.poissons(np.array([1.0, theta]), np.array([0.5, u]))
    with pytest.raises(DomainError, match="uniform"):
        rng.standard_normals(np.array([0.5, u]))


@pytest.mark.parametrize("theta", [0.5, 63.99, 100.0])
def test_the_uniform_check_ends_at_the_ends_of_the_grid(theta):
    # The first and last uniforms of the grid draw as the exact paths; the
    # floats just past them are refused.
    u = np.array([0.0, 1.0 - 2.0 ** -53])
    th = np.full(2, theta)
    assert rng.poissons(th, u).tolist() == rng._inverted(th, u).tolist()
    assert rng.standard_normals(u).tolist() == [ndtri(2.0 ** -54), -ndtri(2.0 ** -54)]
    for past in (-5e-324, 1.0):
        with pytest.raises(DomainError, match="uniform"):
            rng.poissons(th[:1], np.array([past]))
        with pytest.raises(DomainError, match="uniform"):
            rng.standard_normals(np.array([past]))


def test_uniforms_of_another_shape_than_the_rates_are_refused():
    # One uniform once broadcast to all five rates.
    with pytest.raises(ShapeError):
        rng.poissons(np.full(5, 2.0), np.array([0.3]))
    with pytest.raises(ShapeError):
        rng.poissons(np.full((2, 3), 2.0), np.full(6, 0.3))


@pytest.mark.parametrize("size", [0, 1, 1023, 1024, 1025, 3000])
def test_settle_sets_the_unsure_pixels_in_whole_blocks(size):
    gen = np.random.default_rng(size)
    a, b = gen.uniform(size=5000), gen.uniform(size=5000)
    unsure = np.sort(gen.choice(5000, size, replace=False))
    out = np.full(5000, -1.0)
    seen = []

    def exact(x, y):
        seen.append(x.size)
        return x * y

    assert rng._settle(out, unsure, exact, a, b) is out
    assert all(n % rng._UNSURE_BLOCK == 0 for n in seen)
    assert np.array_equal(out[unsure], a[unsure] * b[unsure])
    assert np.all(np.delete(out, unsure) == -1.0)


# The squeeze of `poissons`: each count the table gives is the count of the
# exact inversion `_inverted`, which draws every pixel the table leaves unsure.
BINS, CELLS, TOP = rng._RATE_BINS, rng._CELLS, rng._TABLE_TOP
GRID = 2.0 ** -53  # the spacing of the uniforms


def _squeeze_rates():
    edge = st.integers(0, TOP * BINS + 2).map(lambda j: j / BINS)
    return st.one_of(
        st.just(0.0), st.floats(5e-324, 2.2250738585072014e-308),  # subnormals
        edge, edge.map(lambda t: math.nextafter(t, math.inf)),
        edge.filter(bool).map(lambda t: math.nextafter(t, -math.inf)),  # not below 0: refused
        st.just(math.nextafter(TOP, 0.0)), st.just(float(TOP)), st.floats(TOP, 1e3),
        st.floats(0.0, TOP))


def _grid_around(v):
    """The 2^-53 grid points next to each v: below, at or below, and above."""
    g = np.floor(np.asarray(v) / GRID) * GRID
    return np.clip(np.stack([g - GRID, g, g + GRID]), 0.0, 1.0 - GRID).ravel()


def _squeezed_and_exact(theta, u):
    """Both draws of every (theta, u) pair."""
    theta, u = (a.ravel() for a in np.meshgrid(theta, u))
    return rng.poissons(theta, u), rng._inverted(theta, u)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_squeeze_is_the_exact_inversion(data):
    theta = np.array(data.draw(st.lists(_squeeze_rates(), min_size=1, max_size=4)))
    cells = np.array(data.draw(st.lists(st.integers(0, CELLS), min_size=1, max_size=4)))
    counts = np.array(data.draw(st.lists(st.integers(0, 95), min_size=1, max_size=4)))
    # The edges of each rate's bin, where the table's F(k) are taken.
    edges = np.floor(np.clip(theta, 0.0, TOP) * BINS) / BINS
    cdf = pdtr(counts[:, None], np.concatenate([edges, edges + 1.0 / BINS])[None, :])
    u = np.concatenate([[0.0, 1.0 - GRID], _grid_around(cells / CELLS), _grid_around(cdf)])
    squeezed, exact = _squeezed_and_exact(theta, u)
    assert np.array_equal(squeezed, exact)


def test_squeeze_is_the_exact_inversion_at_every_bin_edge():
    edge = np.arange(TOP * BINS + 2) / BINS
    theta = np.concatenate([edge, np.nextafter(edge, np.inf), np.nextafter(edge[1:], -np.inf)])
    for seed in range(3):
        u = rng.uniforms(range(64), seed, rng.QIS_PHOTON)
        squeezed, exact = _squeezed_and_exact(theta, u)
        assert np.array_equal(squeezed, exact)


def test_sure_cells_hold_their_count_by_mpmath():
    # Sampled sure cells, half of them at the ends of their runs, where the
    # margin is least: the cell lies _TABLE_SLACK inside [F(k - 1; a),
    # F(k; b)) at both edges of its bin, and the table's F is within a
    # thousandth of that margin of mpmath's.
    table, gen, slack = rng._count_table(), np.random.default_rng(29), rng._TABLE_SLACK
    sure = table[:-1] != rng._UNSURE
    ends = sure & (table[:-1] != np.roll(table[:-1], 1, axis=1))
    ends |= sure & (table[:-1] != np.roll(table[:-1], -1, axis=1))
    picks = [gen.choice(np.argwhere(ends), 30), gen.choice(np.argwhere(sure), 30)]
    with mpmath.workdps(30):
        def cdf(k, theta):
            if k < 0:
                return -mpmath.inf
            return mpmath.gammainc(k + 1, theta, mpmath.inf, regularized=True) if theta else 1
        for j, i in np.concatenate(picks).tolist():
            k, a, b = int(table[j, i]), j / BINS, (j + 1) / BINS
            assert cdf(k - 1, a) + slack <= mpmath.mpf(i) / CELLS
            assert mpmath.mpf(i + 1) / CELLS <= cdf(k, b) - slack
            built = rng._cdfs(np.array([a, b]))
            assert abs(built[1, k] - cdf(k, b)) <= slack / 1000
            if k:
                assert abs(built[0, k - 1] - cdf(k - 1, a)) <= slack / 1000


def test_count_table_is_read_only_small_and_quick():
    table = rng._count_table()
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0
    times = []
    for _ in range(3):
        rng._count_table.cache_clear()
        start = time.perf_counter()
        rng._count_table()
        times.append(time.perf_counter() - start)
    assert min(times) <= 0.015  # 6.6 ms on a 2-core Xeon
    rng._count_table.cache_clear()
    tracemalloc.start()
    try:
        rebuilt = rng._count_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20  # the 1 MiB table included: 1.46 MiB
    assert np.array_equal(rebuilt, table)
