import numpy as np
import pytest

from quantaflow import (AtomVectorField, BinaryFrame, Coefficients, DomainError,
                        EaclConfig, FeatureMap, FilterAtoms, NeighborhoodSpec,
                        SolverConfig, verify_density_identity,
                        verify_exposure_continuity, verify_layer_bound)
from quantaflow.verifier import (BLOCK, CONTINUITY_DELTAS, CONTINUITY_THETA0,
                                 SLACK, continuity_instance, random_layer_instance,
                                 run_continuity_suite, run_layer_bound_suite)


class TestLayerBound:
    def test_equal_atoms_zero_both_sides(self):
        inp, phi, atoms, _, cfg = random_layer_instance(0)
        report = verify_layer_bound(inp, phi, atoms, atoms, cfg)
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.holds

    def test_zero_coefficients(self):
        inp, _, a1, a2, cfg = random_layer_instance(1)
        phi = Coefficients.from_array(np.zeros((4, 4, 3)))
        report = verify_layer_bound(inp, phi, a1, a2, cfg)
        assert report.lhs == 0.0 and report.rhs == 0.0 and report.holds

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    def test_randomized_instances_hold(self, activation):
        reports = run_layer_bound_suite(100, seed=7, activation=activation)
        assert all(r.holds for r in reports)
        assert all(r.lhs <= r.rhs + SLACK for r in reports)

    def test_stage_checks_reported(self):
        inp, phi, a1, a2, cfg = random_layer_instance(3)
        report = verify_layer_bound(inp, phi, a1, a2, cfg)
        inter = report.intermediate
        assert inter["holder"].holds and inter["cauchy_schwarz"].holds
        d = report.to_dict()
        assert d["intermediate"]["holder"]["lhs"] == inter["holder"].lhs

    def test_sigmoid_rejected(self):
        inp, phi, a1, a2, _ = random_layer_instance(4)
        cfg = EaclConfig(bias=np.zeros(4), activation="sigmoid")
        with pytest.raises(DomainError):
            verify_layer_bound(inp, phi, a1, a2, cfg)

    def test_reports_deterministic_under_thread_env(self, monkeypatch):
        monkeypatch.setenv("QF_THREADS", "4")
        parallel = run_layer_bound_suite(20, seed=9)
        monkeypatch.setenv("QF_THREADS", "1")
        serial = run_layer_bound_suite(20, seed=9)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]


@pytest.mark.parametrize("instances", [BLOCK - 1, BLOCK + 1])
def test_layer_bound_suite_equals_single_calls(instances):
    suite = run_layer_bound_suite(instances, seed=40, activation="tanh")
    single = [verify_layer_bound(*random_layer_instance(s, activation="tanh"),
                                 instance_seed=s)
              for s in range(40, 40 + instances)]
    assert [r.to_dict() for r in suite] == [r.to_dict() for r in single]


@pytest.mark.parametrize("instances", [BLOCK - 1, BLOCK + 1])
def test_continuity_suite_equals_single_calls(instances):
    suite = run_continuity_suite(instances, seed=60)
    single = [verify_exposure_continuity(field, phi, inp, CONTINUITY_THETA0,
                                         CONTINUITY_DELTAS, cfg)
              for field, phi, inp, cfg in map(continuity_instance,
                                              range(60, 60 + instances))]
    assert suite == single


class TestDensityIdentity:
    def test_all_ones(self):
        frame = BinaryFrame.from_array(np.ones((6, 6)))
        assert verify_density_identity(frame, NeighborhoodSpec(1))

    def test_all_zeros(self):
        frame = BinaryFrame.from_array(np.zeros((6, 6)))
        assert verify_density_identity(frame, NeighborhoodSpec(2))

    @pytest.mark.parametrize("radius", [0, 1, 2])
    @pytest.mark.parametrize("boundary", ["zero-pad", "clamp"])
    def test_random_frames(self, radius, boundary):
        gen = np.random.default_rng(radius * 10 + len(boundary))
        # Wide and tall frames, and frames no wider or taller than the
        # radius, where the window covers the whole frame and more.
        for shape in ((15, 21), (21, 15), (2, 3), (1, 4)):
            for _ in range(5):
                frame = BinaryFrame.from_array(gen.integers(0, 2, size=shape))
                assert verify_density_identity(frame, NeighborhoodSpec(radius, boundary))


class TestContinuity:
    def _setup(self, seed):
        gen = np.random.default_rng(seed)
        field = AtomVectorField.seeded(3, 3, seed)
        inp = FeatureMap.from_array(gen.uniform(0, 1, size=(1, 12, 12)))
        phi = Coefficients.from_array(gen.standard_normal((1, 1, 3)))
        cfg = EaclConfig(bias=np.zeros(1), activation="relu")
        return field, phi, inp, cfg

    def test_zero_field_all_zero(self):
        field = AtomVectorField.zero(3, 3)
        _, phi, inp, cfg = self._setup(0)
        report = verify_exposure_continuity(field, phi, inp, 0.3,
                                            [1e-1, 1e-2], cfg)
        assert all(d == 0.0 for d in report.output_distances)
        assert all(a == 0.0 for a in report.atom_distances)
        assert all(report.bound_holds)

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_fields_decrease_and_hold(self, seed):
        field, phi, inp, cfg = self._setup(seed)
        report = verify_exposure_continuity(field, phi, inp, 0.3,
                                            [1e-1, 1e-2, 1e-3], cfg)
        assert report.holds
        d = report.output_distances
        assert d[2] < d[1] < d[0]

    def test_bad_deltas_rejected(self):
        field, phi, inp, cfg = self._setup(1)
        with pytest.raises(DomainError):
            verify_exposure_continuity(field, phi, inp, 0.3, [1e-2, 1e-1], cfg)

    def test_solver_config_respected(self):
        field, phi, inp, cfg = self._setup(2)
        report = verify_exposure_continuity(
            field, phi, inp, 0.3, [1e-1, 1e-2], cfg,
            SolverConfig(method="rk4-fixed", fixed_steps=32))
        assert report.holds
