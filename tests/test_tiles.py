"""Tiled sampling: the same bytes at every tile size and worker count, and
memory bounded by the tiles in flight rather than the frame."""

import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantaflow import (BracketSpec, DomainError, ExposureMap, QisParams, SensorConfig,
                        cli, formats, generate_burst, qis_forward, rng, sample_frame)
from quantaflow.sensor import _complement

H, W = 217, 301  # 65317 pixels: less than one default tile
# (frame, tile size): 1 and 7 pixels on 19 x 23 (tiny tiles are slow), 4097
# and more than the frame on 217 x 301. Tiles of 7 and 4097 leave a short last tile.
SPLITS = [((19, 23), 1), ((19, 23), 7), ((H, W), 4097), ((H, W), H * W + 1)]


def _whole_frame(emap, cfg):
    """Bits of `sample_frame` as drawn over the whole frame at once (0.5.0)."""
    theta = emap.theta.ravel()
    u = rng.uniforms(range(theta.size), cfg.seed, rng.PHOTON)
    bits = u >= _complement(theta, cfg.q, cfg.sigma_r)
    return np.packbits(bits.reshape(emap.theta.shape), axis=1)


def _outputs(shape, seed):
    gen = np.random.default_rng(3)
    theta, crf = gen.uniform(0.0, 6.0, size=shape), gen.uniform(0.5, 2.0, size=shape)
    emap, cfg = ExposureMap(theta), SensorConfig(0.5, 0.25, seed)
    burst = generate_burst(emap, BracketSpec((1.0, 2.5, 4.0)), cfg)
    # Photon maps with rates 0..55: every count regime, with and without noise.
    qis = [qis_forward(20.0 * theta, QisParams(), seed),
           qis_forward(20.0 * theta, QisParams(sigma_real_noise=0.7, crf=crf,
                                               dark_signal=1.5), seed)]
    return [sample_frame(emap, cfg).bits.tobytes(),
            *(f.bits.tobytes() for f in burst.frames), *(q.tobytes() for q in qis)]


@pytest.mark.parametrize("shape, tile", SPLITS)
@pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
def test_outputs_do_not_depend_on_the_tile_size(monkeypatch, shape, tile, seed):
    default = _outputs(shape, seed)
    monkeypatch.setattr(rng, "TILE", tile)
    assert _outputs(shape, seed) == default


@pytest.mark.parametrize("shape", [(H, W), (3, 5), (512, 300)])
@pytest.mark.parametrize("q, sigma_r", [(0.5, 0.25), (1.5, 0.0)])
def test_tiled_frame_matches_whole_frame_reference(shape, q, sigma_r):
    emap = ExposureMap(np.random.default_rng(8).uniform(0.0, 8.0, size=shape))
    cfg = SensorConfig(q, sigma_r, 77)
    assert np.array_equal(sample_frame(emap, cfg).bits, _whole_frame(emap, cfg))


@pytest.fixture
def workers(monkeypatch):
    """Sets the worker count W of `rng.each_tile`, as on a machine with `cpus`
    CPUs and a cap of `cap` workers (by default `cpus`), on a pool of its own."""
    monkeypatch.setattr(rng, "_pool", None)

    def set_workers(cpus, cap=None):
        monkeypatch.setattr(rng, "_cpus", lambda: cpus)
        monkeypatch.setattr(rng, "MAX_WORKERS", cpus if cap is None else cap)

    yield set_workers
    if rng._pool is not None:
        rng._pool.shutdown()


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("shape, tile", SPLITS)
def test_outputs_do_not_depend_on_the_worker_count(workers, monkeypatch, shape, tile, w):
    default = _outputs(shape, 12345)
    monkeypatch.setattr(rng, "TILE", tile)
    workers(w)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads trade the interpreter lock often
    try:
        assert _outputs(shape, 12345) == default
    finally:
        sys.setswitchinterval(interval)


def test_each_tile_deals_tile_i_to_worker_i_mod_w(workers, monkeypatch):
    monkeypatch.setattr(rng, "TILE", 4)
    workers(3)
    seen = {}
    first_tiles = threading.Barrier(3, timeout=10)  # so three threads hold a share each

    def draw(t, idx):
        if t.start < 12:
            first_tiles.wait()
        seen.setdefault(threading.get_ident(), []).append(t.start)

    rng.each_tile(30, draw)
    shares = sorted(sorted(starts) for starts in seen.values())
    assert shares == [[0, 12, 24], [4, 16, 28], [8, 20]]
    assert sorted(seen[threading.get_ident()]) == [0, 12, 24]  # the caller is worker 0


def test_each_tile_uses_no_more_than_max_workers(workers, monkeypatch):
    monkeypatch.setattr(rng, "TILE", 4)
    workers(64, cap=rng.MAX_WORKERS)  # as on a machine with 64 CPUs
    seen = {}

    def draw(t, idx):
        seen.setdefault(threading.get_ident(), []).append(t.start // 4)
        time.sleep(0.001)

    rng.each_tile(4 * 128, draw)
    assert len(seen) <= rng.MAX_WORKERS == 2
    assert seen[threading.get_ident()] == list(range(0, 128, 2))  # W = 2 deals the tiles


@pytest.mark.parametrize("failing", [0, 2])  # a tile of the caller, of a pool thread
def test_a_failing_draw_stops_every_worker_before_it_raises(workers, monkeypatch, failing):
    monkeypatch.setattr(rng, "TILE", 4)
    workers(3)
    drawn = []

    def draw(t, idx):
        tile = t.start // 4
        if tile == failing:
            raise ValueError(f"tile {tile}")
        time.sleep(0.02)
        drawn.append(tile)

    with pytest.raises(ValueError, match=f"tile {failing}"):
        rng.each_tile(4 * 60, draw)  # 20 tiles a worker
    stopped = sorted(drawn)  # what had been drawn when the error reached the caller
    time.sleep(0.2)
    assert stopped == sorted(drawn)  # no worker was still drawing
    # The failing worker draws none of its later tiles, and the others stop
    # long before the 40 tiles of their shares.
    assert not [i for i in drawn if i % 3 == failing]
    assert len(drawn) < 10
    out = np.zeros(40, dtype=np.uint64)
    rng.each_tile(40, lambda t, pixels: out.__setitem__(t, pixels))  # the pool still serves
    assert out.tolist() == list(range(40))


@pytest.mark.parametrize("first", [1, 2])  # the worker that fails first
def test_the_error_of_the_lowest_failing_worker_is_raised(workers, monkeypatch, first):
    monkeypatch.setattr(rng, "TILE", 4)
    workers(3)

    def draw(t, idx):
        tile = t.start // 4
        if tile == 0:
            time.sleep(0.05)  # the caller's tile: both pool threads fail meanwhile
        else:
            time.sleep(0.01 if tile == first else 0.03)
            raise ValueError(f"tile {tile}")

    with pytest.raises(ValueError, match="tile 1"):  # whichever worker failed first
        rng.each_tile(12, draw)


def test_tiles_cover_range_in_order(workers, monkeypatch):
    monkeypatch.setattr(rng, "TILE", 4)
    workers(1)
    runs = []
    rng.each_tile(10, lambda t, pixels: runs.append((t, pixels)))
    assert [pixels for _, pixels in runs] == [range(0, 4), range(4, 8), range(8, 10)]
    assert all(list(range(10)[t]) == list(pixels) for t, pixels in runs)
    runs.clear()
    rng.each_tile(0, lambda t, pixels: runs.append((t, pixels)))
    assert runs == []


def test_an_overflow_in_a_pool_thread_tile_fails_the_cap(workers, monkeypatch):
    monkeypatch.setattr(rng, "TILE", 4)
    workers(2)
    x = np.ones(12)
    x[5] = 1e308  # in tile 1, drawn by worker 1: its rate 10 * 1e308 overflows to inf
    with pytest.raises(DomainError, match="exceeds the cap"):
        qis_forward(x, QisParams(crf=np.full(12, 10.0)), seed=3)


def test_an_over_cap_pixel_in_the_last_tile_is_refused(workers, monkeypatch):
    monkeypatch.setattr(rng, "TILE", 4)
    workers(2)
    p = QisParams(exposure_time=1.0, quantum_efficiency=1.0, clip_max=1e13)
    x = np.full(10, 3.0)
    drawn = qis_forward(x, p, seed=4)
    x[9] = np.nextafter(rng.RATE_CAP, np.inf)
    with pytest.raises(DomainError, match="exceeds the cap"):
        qis_forward(x, p, seed=4)
    x[9] = 3.0
    assert np.array_equal(qis_forward(x, p, seed=4), drawn)  # the pool still serves


def _splitmix64(x):
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & (2 ** 64 - 1)
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & (2 ** 64 - 1)
    return x ^ (x >> 31)


def test_in_place_mixer_is_splitmix64():
    values = [0, 1, 2 ** 63, 2 ** 64 - 1, 0x123456789ABCDEF]
    x = np.array(values, dtype=np.uint64)
    assert rng._mix64(x) is x
    assert x.tolist() == [_splitmix64(v) for v in values]
    # uniforms: the top 53 bits of splitmix64(base + (frame << 32 | pixel) * gamma),
    # base the first word of the stream's SeedSequence
    seed, frame, pixels = 2 ** 64 - 1, 5, [0, 1, 2 ** 31 - 1]
    base = int(np.random.SeedSequence([seed % 2 ** 32, seed >> 32, rng.QIS_NOISE])
               .generate_state(1, np.uint64)[0])
    words = [_splitmix64((base + (frame << 32 | i) * 0x9E3779B97F4A7C15) % 2 ** 64)
             for i in pixels]
    u = [rng.uniforms(range(i, i + 1), seed, rng.QIS_NOISE, frame)[0] for i in pixels]
    assert u == [(w >> 11) * 2.0 ** -53 for w in words]


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 64 - 1), purpose=st.integers(0, 15),
       frame=st.one_of(st.just(0), st.just(2 ** 32 - 1), st.integers(0, 2 ** 32 - 1)),
       start=st.one_of(st.integers(0, 2 ** 32), st.integers(2 ** 32 - 64, 2 ** 32)),
       length=st.integers(0, 64))
def test_uniforms_of_a_range_are_the_splitmix64_formula(seed, purpose, frame, start, length):
    stop = min(start + length, 2 ** 32)  # the second start draws ranges that end at 2**32
    base = int(np.random.SeedSequence([seed % 2 ** 32, seed >> 32, purpose])
               .generate_state(1, np.uint64)[0])
    words = [_splitmix64((base + (frame << 32 | i) * 0x9E3779B97F4A7C15) % 2 ** 64)
             for i in range(start, stop)]
    u = rng.uniforms(range(start, stop), seed, purpose, frame)
    assert u.tolist() == [(w >> 11) * 2.0 ** -53 for w in words]


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_sample_frame_memory_is_bounded_by_the_tile():
    emap = ExposureMap(np.random.default_rng(1).uniform(0.0, 25.0, size=(1024, 1024)))
    assert _peak_mib(lambda: sample_frame(emap, SensorConfig(0.5, 0.25, 1))) <= 8


def test_burst_memory_is_bounded_by_the_tiles():
    # 15 brackets, each tile scaled as it is drawn: the bound of one frame,
    # which a scaled 1024 x 1024 map (8 MiB) alone would reach.
    emap = ExposureMap(np.random.default_rng(2).uniform(0.0, 25.0, size=(1024, 1024)))
    assert _peak_mib(lambda: generate_burst(emap, BracketSpec(), SensorConfig(0.5, 0.25, 1))) <= 8


def test_qis_forward_memory_is_bounded():
    params = QisParams(sigma_real_noise=0.5)
    gen = np.random.default_rng(3)
    photons = gen.uniform(0.0, 50.0, size=(1024, 1024))
    rates = gen.uniform(64.0, 115.0, size=(1024, 1024))  # where the count table decides none
    for x in (photons, rates / (params.exposure_time * params.quantum_efficiency)):
        assert _peak_mib(lambda: qis_forward(x, params, 1)) <= 48


# The QEX1 commands at 2048 x 2048, each input made by the command before.
MAP_COMMANDS = {
    "cmos": ["calibrate", "cmos", "--in", "gray.qex", "--gain", "0.3", "--out", "photons.qex"],
    "qis-forward": ["calibrate", "qis-forward", "--in", "photons.qex", "--params", "qis.json",
                    "--seed", "3", "--out", "pixels.qex"],
    "export-pgm": ["export-pgm", "--in", "pixels.qex", "--out", "pixels.pgm"],
}
MAP_SIDE = 2048


@pytest.fixture(scope="module")
def map_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("maps")
    gray = np.random.default_rng(4).integers(0, 256, size=(MAP_SIDE, MAP_SIDE))
    formats.write_float_map(d / "gray.qex", gray.astype(np.float64))
    (d / "qis.json").write_text('{"exposure_time": 0.5, "sigma_real_noise": 0.5}')
    cwd = os.getcwd()
    os.chdir(d)
    try:
        for argv in MAP_COMMANDS.values():
            assert cli.main(argv) == 0
    finally:
        os.chdir(cwd)
    return d


@pytest.mark.parametrize("command", MAP_COMMANDS)
def test_map_commands_hold_no_float64_map(map_inputs, monkeypatch, command):
    # The float32 input, the output and the tiles in flight: a float64 copy
    # of the map alone would take 8 bytes per pixel more (21, 21 and 17 B/px
    # in all when each map was read as float64).
    monkeypatch.chdir(map_inputs)
    peak = _peak_mib(lambda: cli.main(MAP_COMMANDS[command])) * 2 ** 20
    assert peak / MAP_SIDE ** 2 < 12


MEMORY_BOUNDS = [test_sample_frame_memory_is_bounded_by_the_tile,
                 test_burst_memory_is_bounded_by_the_tiles,
                 test_qis_forward_memory_is_bounded]


@pytest.mark.parametrize("bounded", MEMORY_BOUNDS)
def test_memory_bounds_hold_with_max_workers_tiles_in_flight(workers, bounded):
    workers(64, cap=rng.MAX_WORKERS)  # W = MAX_WORKERS, whatever CPUs this machine has
    bounded()


@pytest.mark.parametrize("bounded", MEMORY_BOUNDS)
def test_memory_bounds_hold_with_one_worker(workers, bounded):
    workers(1)
    bounded()
