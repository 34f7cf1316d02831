"""Tests of the benchmark itself: self-time arithmetic, the output checks,
seeded inputs and the tracer's patching."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402


class Tree:
    """Builds spans with explicit times; events sort in creation order."""

    def __init__(self):
        self.spans, self.seq = [], 0

    def span(self, name, thread, start, end, parent=None):
        s = Span(name, parent, thread, start, self.seq)
        s.end, s.seq1 = end, self.seq + 1000
        self.seq += 1
        self.spans.append(s)
        return s


def test_self_time_nested_on_one_thread():
    t = Tree()
    root = t.span("round", "A", 0.0, 10.0)
    a = t.span("x.a", "A", 1.0, 4.0, root)
    b = t.span("x.b", "A", 2.0, 3.0, a)
    st = self_times(t.spans)
    assert st[root] == pytest.approx(7.0)
    assert st[a] == pytest.approx(2.0)
    assert st[b] == pytest.approx(1.0)


def test_self_time_overlapping_children_on_two_threads():
    t = Tree()
    root = t.span("round", "A", 0.0, 10.0)
    suite = t.span("v.suite", "A", 4.0, 9.5, root)
    w1 = t.span("v.inst", "B", 4.0, 8.0, suite)
    g = t.span("k.corr", "B", 6.0, 7.0, w1)
    w2 = t.span("v.inst", "C", 5.0, 9.0, suite)
    st = self_times(t.spans)
    # The suite waits while any worker span is open; it runs alone in 9..9.5.
    assert st[suite] == pytest.approx(0.5)
    # 4..5 w1 alone; 5..6 and 7..8 shared with w2; 6..7 g shares with w2.
    assert st[w1] == pytest.approx(1.0 + 0.5 + 0.5)
    assert st[g] == pytest.approx(0.5)
    assert st[w2] == pytest.approx(0.5 + 0.5 + 0.5 + 1.0)
    assert st[root] == pytest.approx(4.0 + 0.5)
    # No instant is counted twice: self times add up to the round.
    assert sum(st.values()) == pytest.approx(10.0)


def _bits(p, gen):
    return (gen.random(p.shape) < p).astype(np.uint8)


def test_frame_check_rejects_flipped_bits(tmp_path):
    from quantaflow import formats
    from quantaflow.sensor import BinaryFrame
    gen = np.random.default_rng(0)
    levels = workloads.gray_levels(0, 512)
    theta = workloads._scene_theta()
    ref = workloads.DensityRef(workloads.level_counts(levels), theta)
    bits = _bits(workloads.bit_probability(theta)[levels], gen)
    path = tmp_path / "frame.qbf"
    formats.write_frame(path, BinaryFrame.from_array(bits))
    (density,) = workloads.frame_densities(path)
    assert density == bits.mean()
    assert ref.holds(density)
    flip = gen.random(bits.shape) < 0.02
    formats.write_frame(path, BinaryFrame.from_array(bits ^ flip))
    assert not ref.holds(workloads.frame_densities(path)[0])


def test_burst_check_rejects_flipped_frame():
    gen = np.random.default_rng(1)
    levels = workloads.gray_levels(1, 128)
    theta = workloads._scene_theta()
    refs = [workloads.DensityRef(workloads.level_counts(levels), theta, a)
            for a in workloads.ALPHAS]
    densities = [_bits(workloads.bit_probability(theta * (1.0 / a))[levels], gen).mean()
                 for a in workloads.ALPHAS]
    assert workloads.check_burst(densities, refs) == []
    densities[7] = 1.0 - densities[7]
    assert workloads.check_burst(densities, refs)
    assert workloads.check_burst(densities[:-1], refs)


def test_estimate_check():
    mu = float(workloads.bit_probability(2.5))
    good = f"mu = {mu:.9f}\ntheta-hat = {2.5:.9f}\n"
    assert workloads.check_estimate(good, mu) == []
    assert workloads.check_estimate(f"mu = {mu:.9f}\ntheta-hat = 2.6\n", mu)
    assert workloads.check_estimate("", mu)


def _report(continuity_distances=(0.3, 0.2, 0.1)):
    def suite(reps):
        return {"all_hold": all(r["holds"] for r in reps), "reports": reps}
    decreasing = all(b < a for a, b in zip(continuity_distances, continuity_distances[1:]))
    continuity = [{"instance_seed": i, "output_distances": list(continuity_distances),
                   "bound_holds": [True] * 3, "decreasing": decreasing,
                   "holds": decreasing} for i in range(100)]
    suites = {"layer-bound": suite([{"holds": True}] * 300),
              "density": suite([{"holds": True}] * 300),
              "continuity": suite(continuity)}
    return {"all_hold": all(s["all_hold"] for s in suites.values()), "suites": suites}


def test_report_check_rejects_one_failed_check():
    report = _report()
    assert workloads.check_report(report, 0, 700) == []
    assert workloads.check_report(report, 1, 700)
    report["suites"]["density"]["reports"][5] = {"holds": False}
    assert workloads.check_report(report, 0, 700)
    report = _report()
    report["suites"]["continuity"]["reports"][3]["holds"] = False
    assert workloads.check_report(report, 0, 700)
    report = _report()
    report["suites"]["layer-bound"]["reports"] = [{"holds": True}] * 299
    assert workloads.check_report(report, 0, 700)


def test_report_check_accepts_a_true_continuity_failure():
    # Equal distances at the two largest offsets: the verifier is right to
    # say the check fails, and to exit with code 1.
    report = _report((0.0046, 0.0046, 0.0014))
    assert report["all_hold"] is False
    assert workloads.check_report(report, 1, 700) == []
    assert workloads.check_report(report, 0, 700)
    report["all_hold"] = True
    assert workloads.check_report(report, 1, 700)


def test_level_mean_check_rejects_shifted_map(tmp_path):
    calib = workloads.Calib(tmp_path, 3)
    gen = np.random.default_rng(3)
    rate = calib.expected[calib.levels] / workloads.QIS_PARAMS["gain_ratio"]
    pixels = (workloads.QIS_PARAMS["gain_ratio"] * gen.poisson(rate)
              + workloads.QIS_PARAMS["sigma_real_noise"] * gen.standard_normal(rate.shape))
    assert workloads.check_level_means(pixels, calib) == []
    assert workloads.check_level_means(pixels + 1.0, calib)
    assert workloads.check_level_means(np.roll(pixels, 1, axis=1), calib)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        workloads.Sim(d, seed)
        workloads.Calib(d, seed)
    for name in ("scene512.qex", "scene1024.qex", "gray.qex", "qis.json"):
        a, b, c = ((d / name).read_bytes() for d in dirs)
        assert a == b
        assert name == "qis.json" or a != c
    assert workloads.round_seed(5, 0) == workloads.round_seed(5, 0)
    assert len({workloads.round_seed(s, r) for s in (5, 6) for r in (0, 1)}) == 4


def test_tracer_patches_every_binding_and_restores_them():
    import quantaflow.bracketing as bracketing
    import quantaflow.sensor as sensor
    from quantaflow.bracketing import BracketSpec
    from quantaflow.sensor import ExposureMap, SensorConfig
    original = sensor.sample_frame
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.open("round")
        burst = bracketing.generate_burst(ExposureMap.constant(8, 4, 2.0),
                                          BracketSpec((1.0, 2.0)), SensorConfig(0.5, 0.25, 1))
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert bracketing.sample_frame is original and sensor.sample_frame is original
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert [s.parent.name for s in by_name["sensor.sample_frame"]] == \
        ["bracketing.generate_burst"] * 2
    assert all(s.parent.name == "sensor.sample_frame" for s in by_name["sensor.pack"])
    m = layer_metrics([(tracer.spans, root.duration)], [root.duration])
    assert m["bracketing.frames"] == len(burst) == 2
    assert m["sensor.pixels"] == 64
    assert m["rng.uniforms_per_px"] > 0
    shares = sum(m[f"{layer}.share"] for layer in (*tracing.LAYERS, "kernel", "cli"))
    assert 0.0 < shares <= 1.0


def test_layer_map_covers_every_per_layer_metric():
    import json
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = [m for layer in layer_map["layers"].values() for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"])
    assert set(layer_map["workloads"]) == {w["name"] for w in bench["workloads"]}
