import json
import time
import tracemalloc

import numpy as np
import pytest

from quantaflow import (AtomVectorField, BinaryFrame, Coefficients, DomainError,
                        EaclConfig, FeatureMap, FilterAtoms, NeighborhoodSpec,
                        ShapeError, SolverConfig, integrate_atoms, verify_density_identity,
                        verify_exposure_continuity, verify_layer_bound)
from quantaflow import rng, verifier
from quantaflow.verifier import (BOUND_ACTIVATIONS, CONTINUITY_BLOCK, CONTINUITY_DELTAS,
                                 CONTINUITY_THETA0, DENSITY_BLOCK, DENSITY_RADII,
                                 DENSITY_SIDE, LAYER_BOUND_BLOCK, SLACK,
                                 continuity_instance, random_layer_instance,
                                 run_continuity_suite, run_density_suite,
                                 run_layer_bound_suite)


def _bound_constant(phi, inp, k=3):
    # ||phi||_2 * max_u ||x||_{2,N_u} * sqrt(|U|), window by window.
    r = k // 2
    x = np.pad(inp.data, [(0, 0), (r, r), (r, r)])
    nb_max = max(np.sqrt((x[:, i:i + k, j:j + k] ** 2).sum())
                 for i in range(inp.height) for j in range(inp.width))
    return phi.norm() * nb_max * np.sqrt(inp.height * inp.width)


class TestLayerBound:
    def test_equal_atoms_zero_both_sides(self):
        inp, phi, atoms, _, cfg = random_layer_instance(0)
        report = verify_layer_bound(inp, phi, atoms, atoms, cfg)
        assert report["lhs"] == 0.0 and report["rhs"] == 0.0 and report["holds"]

    def test_zero_coefficients(self):
        inp, _, a1, a2, cfg = random_layer_instance(1)
        phi = Coefficients(np.zeros((4, 4, 3)))
        report = verify_layer_bound(inp, phi, a1, a2, cfg)
        assert report["lhs"] == 0.0 and report["rhs"] == 0.0 and report["holds"]

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    def test_randomized_instances_hold(self, activation):
        reports = [r for r in run_layer_bound_suite(100, seed=7)
                   if r["activation"] == activation]
        assert all(r["holds"] for r in reports)
        assert all(r["lhs"] <= r["rhs"] + SLACK for r in reports)

    def test_rhs_is_bound_constant_times_atom_distance(self):
        inp, phi, a1, a2, cfg = random_layer_instance(5)
        report = verify_layer_bound(inp, phi, a1, a2, cfg)
        assert report["rhs"] == pytest.approx(_bound_constant(phi, inp) * a1.distance(a2),
                                           rel=1e-12)

    def test_stage_checks_reported(self):
        inp, phi, a1, a2, cfg = random_layer_instance(3)
        report = verify_layer_bound(inp, phi, a1, a2, cfg)
        inter = report["intermediate"]
        assert inter["holder"]["holds"] and inter["cauchy_schwarz"]["holds"]

    def test_sigmoid_rejected(self):
        inp, phi, a1, a2, _ = random_layer_instance(4)
        cfg = EaclConfig(bias=np.zeros(4), activation="sigmoid")
        with pytest.raises(DomainError):
            verify_layer_bound(inp, phi, a1, a2, cfg)

    def test_atoms_of_different_shapes_rejected(self):
        inp, phi, a1, _, cfg = random_layer_instance(6)
        a2 = FilterAtoms(np.zeros((3, 5, 5)))
        with pytest.raises(ShapeError):
            verify_layer_bound(inp, phi, a1, a2, cfg)

    def test_atom_count_must_match_phi(self):
        inp, phi, _, _, cfg = random_layer_instance(6)
        a = FilterAtoms(np.ones((2, 3, 3)))
        with pytest.raises(ShapeError):
            verify_layer_bound(inp, phi, a, a, cfg)

    def test_input_channels_must_match_phi(self):
        inp, phi, a1, a2, cfg = random_layer_instance(6)
        with pytest.raises(ShapeError):
            verify_layer_bound(FeatureMap(inp.data[:3]), phi, a1, a2, cfg)

    def test_even_atoms_rejected(self):
        # eacl_forward has no centered padding for even k; neither does the check.
        inp, phi, _, _, cfg = random_layer_instance(6)
        a = FilterAtoms(np.ones((3, 2, 2)))
        with pytest.raises(DomainError):
            verify_layer_bound(inp, phi, a, FilterAtoms(2 * a.data), cfg)

    def test_reports_repeat_across_runs(self):
        first, second = (run_layer_bound_suite(20, seed=9) for _ in range(2))
        assert list(dict.fromkeys(r["activation"] for r in first)) == list(BOUND_ACTIVATIONS)
        assert first == second


#: Instance counts one under and one over each suite's block: every suite
#: runs at each, so each suite's rows are seen cut at every block size.
AROUND_BLOCKS = sorted({block + d for block in (LAYER_BOUND_BLOCK, DENSITY_BLOCK,
                                                CONTINUITY_BLOCK) for d in (-1, 1)})


@pytest.mark.parametrize("instances", AROUND_BLOCKS)
def test_layer_bound_suite_equals_single_calls(instances):
    assert verifier.SUITES["layer-bound"](instances, 40) == _single_rows("layer-bound",
                                                                         instances, 40)


def test_layer_bound_suite_draws_each_instance_once(monkeypatch):
    # One draw per seed serves all three activations.
    seeds = []
    draw = verifier.random_layer_instance

    def recording(seed, *args, **kwargs):
        seeds.append(seed)
        return draw(seed, *args, **kwargs)

    monkeypatch.setattr(verifier, "random_layer_instance", recording)
    rows = verifier.SUITES["layer-bound"](LAYER_BOUND_BLOCK + 3, 5)
    assert seeds == list(range(5, 5 + LAYER_BOUND_BLOCK + 3))
    assert len(rows) == len(BOUND_ACTIVATIONS) * (LAYER_BOUND_BLOCK + 3)


@pytest.mark.parametrize("instances", AROUND_BLOCKS)
def test_continuity_suite_equals_single_calls(instances):
    assert run_continuity_suite(instances, seed=60) == _single_rows("continuity", instances, 60)


def _density_frames(instances, seed):
    """One frame per instance seed, from that seed's own DENSITY stream."""
    return [rng.generator(s, rng.DENSITY).integers(0, 2, size=(DENSITY_SIDE, DENSITY_SIDE))
            for s in range(seed, seed + instances)]


@pytest.mark.parametrize("instances", AROUND_BLOCKS)
def test_density_suite_equals_single_calls(instances):
    suite = run_density_suite(instances, seed=80)
    assert suite == _single_rows("density", instances, 80)
    assert all(row["holds"] is True for row in suite)


@pytest.mark.parametrize("instances", AROUND_BLOCKS)
@pytest.mark.parametrize("radius", DENSITY_RADII)
def test_clamped_density_block_equals_single_calls(instances, radius):
    frames = _density_frames(instances, 81)
    nb = NeighborhoodSpec(radius, "clamp")
    block = verifier._density_block(np.stack(frames), nb)
    single = [verify_density_identity(BinaryFrame.from_array(bits), nb) for bits in frames]
    assert block == single == [True] * instances


@pytest.mark.parametrize("seed", [0, 7, 2053297607])
def test_density_suite_draws_per_frame_frames(monkeypatch, seed):
    # The suite draws a block of frames at once; they are the frames that
    # each instance seed draws alone.
    seen = []
    block = verifier._density_block

    def recording(bits, nb):
        if nb.radius == 0:
            seen.extend(bits)
        return block(bits, nb)

    monkeypatch.setattr(verifier, "_density_block", recording)
    run_density_suite(2 * DENSITY_BLOCK + 3, seed)
    assert np.array_equal(seen, _density_frames(2 * DENSITY_BLOCK + 3, seed))


def test_density_suite_fails_only_the_broken_frame(monkeypatch):
    # A box sum off by one at one pixel of one frame in the first block.
    box_sum = verifier.neighborhood_ones

    def off_by_one(bits, nb):
        counts = box_sum(bits, nb)
        if nb.radius == 1 and len(counts) == DENSITY_BLOCK:
            counts[5, 3, 17] += 1
        return counts

    monkeypatch.setattr(verifier, "neighborhood_ones", off_by_one)
    rows = run_density_suite(DENSITY_BLOCK + 3, seed=3)
    failed = [(row["instance_seed"], row["radius"]) for row in rows if not row["holds"]]
    assert failed == [(3 + 5, 1)]


def _single_rows(name, instances, seed):
    """The rows of a suite, built from its one-instance check."""
    if name == "layer-bound":
        return [verify_layer_bound(*random_layer_instance(s, activation=a), instance_seed=s)
                for a in BOUND_ACTIVATIONS for s in range(seed, seed + instances)]
    if name == "density":
        return [{"instance_seed": seed + i, "radius": r,
                 "holds": verify_density_identity(BinaryFrame.from_array(bits),
                                                  NeighborhoodSpec(r))}
                for i, bits in enumerate(_density_frames(instances, seed))
                for r in DENSITY_RADII]
    return [verify_exposure_continuity(field, phi, inp, CONTINUITY_THETA0,
                                       CONTINUITY_DELTAS, cfg) | {"instance_seed": s}
            for s in range(seed, seed + instances)
            for field, phi, inp, cfg in [continuity_instance(s)]]


def _dicts(value):
    if isinstance(value, dict):
        yield value
        for item in value.values():
            yield from _dicts(item)
    elif isinstance(value, list):
        for item in value:
            yield from _dicts(item)


@pytest.mark.parametrize("instances", AROUND_BLOCKS)
@pytest.mark.parametrize("name", list(verifier.SUITES))
def test_suite_rows_are_plain_json_and_single_check_rows(name, instances):
    # Each suite, cut at every block size, writes plain JSON rows, none shared.
    # That they are the rows of its one-instance check is asserted once, in
    # test_{layer_bound,continuity,density}_suite_equals_single_calls.
    rows = verifier.SUITES[name](instances, 30)
    assert json.loads(json.dumps(rows)) == rows
    dicts = list(_dicts(rows))
    assert all(type(d["holds"]) is bool for d in dicts if "holds" in d)
    assert len({id(d) for d in dicts}) == len(dicts)


SUITE_BLOCKS = {"layer-bound": "LAYER_BOUND_BLOCK", "density": "DENSITY_BLOCK",
                "continuity": "CONTINUITY_BLOCK"}


@pytest.mark.parametrize("name", list(SUITE_BLOCKS))
def test_suite_rows_do_not_depend_on_the_block_size(monkeypatch, name):
    # Rows never mix: a block of one, blocks that leave a remainder and one
    # block for all instances give the same rows.
    instances = 20
    rows = []
    for block in (1, 7, instances):
        monkeypatch.setattr(verifier, SUITE_BLOCKS[name], block)
        rows.append(verifier.SUITES[name](instances, 90))
    assert rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize("name, mib", [("layer-bound", 3.5), ("density", 2),
                                       ("continuity", 3.5)])
def test_suite_memory_is_bounded_by_its_block(name, mib):
    # The bound in the comment of the suite's block constant.
    tracemalloc.start()
    try:
        verifier.SUITES[name](100, 7)
        peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    assert peak <= mib


def test_suites_call_the_module_run_functions(monkeypatch):
    # A tracer wraps the module attributes; SUITES must call the wrappers.
    calls = []
    for run in ("run_layer_bound_suite", "run_density_suite", "run_continuity_suite"):
        monkeypatch.setattr(verifier, run,
                            lambda instances, seed, run=run: calls.append(run) or [run])
    assert [verifier.SUITES[name](1, 0) for name in verifier.SUITES] == [
        ["run_layer_bound_suite"], ["run_density_suite"], ["run_continuity_suite"]]
    assert calls == ["run_layer_bound_suite", "run_density_suite", "run_continuity_suite"]


def test_suites_table_rows():
    assert list(verifier.SUITES) == ["layer-bound", "density", "continuity"]
    rows = verifier.SUITES["continuity"](2, 60)
    assert [row["instance_seed"] for row in rows] == [60, 61]
    assert rows[1] == run_continuity_suite(2, 60)[1]
    rows = verifier.SUITES["layer-bound"](2, 40)
    assert [(row["activation"], row["instance_seed"]) for row in rows] == [
        (a, s) for a in ("relu", "tanh", "identity") for s in (40, 41)]


class TestDensityIdentity:
    def test_all_ones(self):
        frame = BinaryFrame.from_array(np.ones((6, 6)))
        assert verify_density_identity(frame, NeighborhoodSpec(1))

    def test_all_zeros(self):
        frame = BinaryFrame.from_array(np.zeros((6, 6)))
        assert verify_density_identity(frame, NeighborhoodSpec(2))

    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 5, 20])
    @pytest.mark.parametrize("boundary", ["zero-pad", "clamp"])
    def test_random_frames(self, radius, boundary):
        gen = np.random.default_rng(radius * 10 + len(boundary))
        # Wide and tall frames, and frames no wider or taller than the
        # radius, where the window covers the whole frame and more.
        for shape in ((15, 21), (21, 15), (2, 3), (1, 4)):
            for _ in range(5):
                frame = BinaryFrame.from_array(gen.integers(0, 2, size=shape))
                assert verify_density_identity(frame, NeighborhoodSpec(radius, boundary))

    @pytest.mark.parametrize("boundary", ["zero-pad", "clamp"])
    def test_wide_radius_costs_the_radius_per_pixel(self, boundary):
        # Radius 100 pads a 2 x 2 frame to 202 x 202; a k x k window norm
        # summed offset by offset took 2.5 s there.
        frame = BinaryFrame.from_array(np.random.default_rng(5).integers(0, 2, size=(2, 2)))
        start = time.perf_counter()
        assert verify_density_identity(frame, NeighborhoodSpec(100, boundary))
        assert time.perf_counter() - start < 1.0


class TestContinuity:
    def _setup(self, seed):
        gen = np.random.default_rng(seed)
        field = AtomVectorField.seeded(3, 3, seed)
        inp = FeatureMap(gen.uniform(0, 1, size=(1, 12, 12)))
        phi = Coefficients(gen.standard_normal((1, 1, 3)))
        cfg = EaclConfig(bias=np.zeros(1), activation="relu")
        return field, phi, inp, cfg

    def test_zero_field_all_zero(self):
        field = AtomVectorField.zero(3, 3)
        _, phi, inp, cfg = self._setup(0)
        report = verify_exposure_continuity(field, phi, inp, 0.3,
                                            [1e-1, 1e-2], cfg)
        assert all(d == 0.0 for d in report["output_distances"])
        assert all(a == 0.0 for a in report["atom_distances"])
        assert all(report["bound_holds"])

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_fields_decrease_and_hold(self, seed):
        field, phi, inp, cfg = self._setup(seed)
        report = verify_exposure_continuity(field, phi, inp, 0.3,
                                            [1e-1, 1e-2, 1e-3], cfg)
        assert report["holds"]
        d = report["output_distances"]
        assert d[2] < d[1] < d[0]

    def test_bad_deltas_rejected(self):
        field, phi, inp, cfg = self._setup(1)
        with pytest.raises(DomainError):
            verify_exposure_continuity(field, phi, inp, 0.3, [1e-2, 1e-1], cfg)

    def test_bound_constant_shared_with_layer_bound(self):
        # At each offset the continuity row is the layer-bound row of the
        # base atoms against the atoms integrated to that offset.
        deltas = [1e-1, 1e-2, 1e-3]
        for seed in range(5):
            field, phi, inp, cfg = self._setup(seed)
            report = verify_exposure_continuity(field, phi, inp, 0.3, deltas, cfg)
            for i, delta in enumerate(deltas):
                moved = integrate_atoms(field, 0.3, 0.3 + delta)
                row = verify_layer_bound(inp, phi, field.lambda_init, moved, cfg)
                assert report["output_distances"][i] == row["lhs"]
                assert report["atom_distances"][i] == field.lambda_init.distance(moved)
                assert row["rhs"] / report["atom_distances"][i] == pytest.approx(
                    _bound_constant(phi, inp), rel=1e-12)

    def test_empty_deltas_rejected(self):
        field, phi, inp, cfg = self._setup(1)
        with pytest.raises(DomainError):
            verify_exposure_continuity(field, phi, inp, 0.3, [], cfg)

    def test_input_channels_must_match_phi(self):
        # eacl_forward refuses this layer; so does the check.
        field, phi, _, cfg = continuity_instance(3)
        inp = FeatureMap(np.random.default_rng(3).uniform(0, 1, size=(2, 16, 16)))
        with pytest.raises(ShapeError):
            verify_exposure_continuity(field, phi, inp, 0.3, [1e-1, 1e-2], cfg)

    def test_activation_rule_shared_with_layer_bound(self):
        field, phi, inp, _ = self._setup(3)
        with pytest.raises(DomainError) as continuity:
            verify_exposure_continuity(field, phi, inp, 0.3, [1e-1], EaclConfig(
                bias=np.zeros(1), activation="sigmoid"))
        inp, phi, a1, a2, _ = random_layer_instance(4)
        with pytest.raises(DomainError) as layer:
            verify_layer_bound(inp, phi, a1, a2, EaclConfig(
                bias=np.zeros(4), activation="sigmoid"))
        assert str(continuity.value) == str(layer.value)

    def test_solver_config_respected(self):
        field, phi, inp, cfg = self._setup(2)
        report = verify_exposure_continuity(
            field, phi, inp, 0.3, [1e-1, 1e-2], cfg,
            SolverConfig(method="rk4-fixed", fixed_steps=32))
        assert report["holds"]
