import math

import numpy as np
import pytest

from quantaflow import (AtomVectorField, DomainError, FilterAtoms,
                        IntegrationError, ShapeError, SolverConfig, compose_filters,
                        integrate_atoms)
from quantaflow import ode, rng
from quantaflow.filters import Coefficients
from quantaflow.ode import (_DP_A, _DP_B4, _DP_B5, _DP_C, FieldStack,
                            _dopri45, _rk4_fixed, integrate_stack)


class ConstantField:
    """Reference field whose derivative is a fixed tensor."""

    def __init__(self, value, lambda_init):
        self.value, self.lambda_init = value, lambda_init

    def derivative(self, theta_tilde, state):
        return np.broadcast_to(np.asarray(self.value, dtype=np.float64), np.shape(state))


class DecayField:
    """dLambda/dtheta = -Lambda; solution Lambda_init * exp(-(t - t0))."""

    def __init__(self, lambda_init):
        self.lambda_init = lambda_init

    def derivative(self, theta_tilde, state):
        return -np.asarray(state)


def _init(seed=0, m=3, k=3):
    gen = np.random.default_rng(seed)
    return FilterAtoms(gen.standard_normal((m, k, k)))


class TestFieldSize:
    @pytest.mark.parametrize("m, k", [(-1, 3), (0, 3), (3, 0), (100000, 3), (3, 100000)])
    def test_bad_or_oversized_rejected_before_drawing(self, m, k):
        with pytest.raises(DomainError):
            AtomVectorField.seeded(m, k, seed=1)
        with pytest.raises(DomainError):
            FieldStack.seeded(m, k, [1])
        with pytest.raises(DomainError):
            AtomVectorField.zero(m, k)

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STATE", 36)
        assert AtomVectorField.seeded(4, 3, seed=1).stage_weights[0].shape == (36, 37)
        assert AtomVectorField.zero(4, 3).m == 4
        built = AtomVectorField(tuple(np.zeros((36, 37)) for _ in range(6)),
                                FilterAtoms(np.zeros((4, 3, 3))))
        assert built.stage_weights[5].shape == (36, 37)
        monkeypatch.setattr(ode, "MAX_STATE", 35)
        with pytest.raises(DomainError, match="exceeds"):
            AtomVectorField.seeded(4, 3, seed=1)
        with pytest.raises(DomainError, match="exceeds"):
            AtomVectorField(built.stage_weights, built.lambda_init)

    def test_direct_construction_past_cap_rejected(self):
        # n = 2 * 23 * 23 = 1058: a field that the QVF1 reader refuses.
        weights = tuple(np.broadcast_to(0.0, (1058, 1059)) for _ in range(6))
        with pytest.raises(DomainError, match="exceeds MAX_STATE"):
            AtomVectorField(weights, FilterAtoms(np.zeros((2, 23, 23))))


class TestEvalField:
    """The field evaluated at one exposure and atom state."""

    def test_zero_parameters_give_zero_field(self):
        init = _init()
        field = AtomVectorField.zero(3, 3, init)
        out = field.derivative(0.5, init.data)
        assert np.all(out == 0.0)

    def test_deterministic(self):
        field = AtomVectorField.seeded(3, 3, 42)
        a = field.derivative(0.3, field.lambda_init.data)
        b = field.derivative(0.3, field.lambda_init.data)
        assert np.array_equal(a, b)

    def test_lipschitz_in_state(self):
        # The field is a composition of affine maps, tanh, and per-atom
        # normalization; its product of stage operator norms bounds the
        # state sensitivity. Normalization and tanh are both bounded-slope,
        # so a crude norm product still dominates.
        field = AtomVectorField.seeded(3, 3, 7)
        gen = np.random.default_rng(1)
        s1 = field.lambda_init.data
        delta = 1e-6 * gen.standard_normal(s1.shape)
        d1 = field.derivative(0.4, s1)
        d2 = field.derivative(0.4, s1 + delta)
        norm_product = np.prod([np.linalg.norm(w[:, :-1], 2)
                                for w in field.stage_weights])
        # normalization raises the local slope by at most 1/sqrt(eps)
        slope_cap = norm_product * (1.0 / math.sqrt(1e-5)) ** 6
        assert np.linalg.norm(d2 - d1) <= slope_cap * np.linalg.norm(delta)

    def test_dim_mismatch(self):
        field = AtomVectorField.seeded(3, 3, 1)
        with pytest.raises(ShapeError):
            field.derivative(0.5, _init(m=2).data)


class TestIntegrate:
    def test_zero_field_returns_init(self):
        init = _init(1)
        field = AtomVectorField.zero(3, 3, init)
        for method in ("dopri45", "rk4-fixed"):
            out = integrate_atoms(field, 0.2, 0.8, SolverConfig(method=method))
            assert np.array_equal(out.data, init.data)

    def test_constant_field_exact(self):
        init = _init(2)
        c = np.full(init.data.shape, 0.37)
        field = ConstantField(c, init)
        for method in ("dopri45", "rk4-fixed"):
            out = integrate_atoms(field, 0.1, 0.9, SolverConfig(method=method))
            assert np.allclose(out.data, init.data + 0.8 * c, atol=1e-12)

    def test_backward_constant_field(self):
        init = _init(3)
        c = np.ones(init.data.shape)
        out = integrate_atoms(ConstantField(c, init), 0.9, 0.1)
        assert np.allclose(out.data, init.data - 0.8 * c, atol=1e-12)

    def test_exponential_decay_dopri(self):
        init = _init(4)
        out = integrate_atoms(DecayField(init), 0.1, 0.9,
                              SolverConfig(method="dopri45", rtol=1e-3, atol=1e-3))
        exact = init.data * math.exp(-0.8)
        rel = np.max(np.abs(out.data - exact)) / np.max(np.abs(exact))
        assert rel <= 5e-3

    def test_exponential_decay_rk4(self):
        init = _init(4)
        out = integrate_atoms(DecayField(init), 0.1, 0.9,
                              SolverConfig(method="rk4-fixed", fixed_steps=64))
        exact = init.data * math.exp(-0.8)
        rel = np.max(np.abs(out.data - exact)) / np.max(np.abs(exact))
        assert rel <= 1e-8

    def test_empty_interval(self):
        field = AtomVectorField.seeded(3, 3, 5)
        out = integrate_atoms(field, 0.4, 0.4)
        assert np.array_equal(out.data, field.lambda_init.data)

    def test_step_cap_raises(self):
        field = AtomVectorField.seeded(3, 3, 6)
        with pytest.raises(IntegrationError) as ei:
            integrate_atoms(field, 0.1, 0.9,
                            SolverConfig(method="dopri45", max_steps=2))
        assert 0.1 <= ei.value.last_theta <= 0.9

    @pytest.mark.parametrize("tol", [{"rtol": math.nan}, {"atol": math.nan},
                                     {"rtol": math.inf}, {"atol": math.inf},
                                     {"rtol": 0.0}, {"atol": -1e-3}],
                             ids=["rtol-nan", "atol-nan", "rtol-inf", "atol-inf",
                                  "rtol-zero", "atol-negative"])
    def test_tolerances_must_be_finite_and_positive(self, tol):
        with pytest.raises(DomainError):
            SolverConfig(**tol)

    def test_interval_outside_unit_rejected(self):
        field = AtomVectorField.seeded(3, 3, 6)
        with pytest.raises(DomainError):
            integrate_atoms(field, 0.0, 0.5)

    @pytest.mark.parametrize("seed", range(8))
    def test_solver_agreement(self, seed):
        field = AtomVectorField.seeded(3, 3, seed)
        cfg = SolverConfig(method="dopri45")
        a = integrate_atoms(field, 0.15, 0.85, cfg)
        b = integrate_atoms(field, 0.15, 0.85,
                            SolverConfig(method="rk4-fixed", fixed_steps=256))
        tol = 10 * (cfg.atol + cfg.rtol * b.norm())
        assert a.distance(b) <= tol

    @pytest.mark.parametrize("seed", range(8))
    def test_semigroup(self, seed):
        field = AtomVectorField.seeded(3, 3, 100 + seed)
        cfg = SolverConfig()
        direct = integrate_atoms(field, 0.2, 0.8, cfg)
        mid = integrate_atoms(field, 0.2, 0.5, cfg)
        resumed = integrate_atoms(
            AtomVectorField(field.stage_weights, mid), 0.5, 0.8, cfg)
        tol = 10 * 2 * (cfg.atol + cfg.rtol * direct.norm())
        assert direct.distance(resumed) <= tol

    @pytest.mark.parametrize("seed", range(8))
    def test_reversibility(self, seed):
        field = AtomVectorField.seeded(3, 3, 200 + seed)
        cfg = SolverConfig()
        fwd = integrate_atoms(field, 0.2, 0.8, cfg)
        back = integrate_atoms(
            AtomVectorField(field.stage_weights, fwd), 0.8, 0.2, cfg)
        tol = 10 * 2 * (cfg.atol + cfg.rtol * field.lambda_init.norm())
        assert back.distance(field.lambda_init) <= tol


def _filters_for_pair(field, theta_in, theta_target, phi, solver=SolverConfig()):
    return compose_filters(phi, integrate_atoms(field, theta_in, theta_target, solver))


class TestAtomsForPair:
    """Filters for an exposure pair: the atoms integrated along the field,
    mixed by the coefficients."""

    def test_zero_field_broadcast(self):
        init = _init(7, m=1)
        field = AtomVectorField.zero(1, 3, init)
        phi = Coefficients(np.ones((2, 2, 1)))
        filters = _filters_for_pair(field, 0.2, 0.7, phi)
        for o in range(2):
            for i in range(2):
                assert np.array_equal(filters[o, i], init.data[0])

    def test_empty_interval_uses_init(self):
        field = AtomVectorField.seeded(2, 3, 8)
        phi = Coefficients(np.random.default_rng(0).standard_normal((1, 1, 2)))
        filters = _filters_for_pair(field, 0.33, 0.33, phi)
        expected = np.einsum("oij,jxy->oixy", phi.data, field.lambda_init.data)
        assert np.array_equal(filters, expected)

    def test_chained_equals_direct(self):
        field = AtomVectorField.seeded(3, 3, 9)
        phi = Coefficients(np.ones((1, 1, 3)))
        cfg = SolverConfig()
        direct = _filters_for_pair(field, 0.25, 0.75, phi, cfg)
        mid = integrate_atoms(field, 0.25, 0.5, cfg)
        chained = _filters_for_pair(AtomVectorField(field.stage_weights, mid),
                                    0.5, 0.75, phi, cfg)
        tol = 10 * (cfg.atol + cfg.rtol * np.linalg.norm(direct))
        assert np.linalg.norm(direct - chained) <= tol


class TestSpeedBound:
    """M = ||W_6||_2 * sqrt(n + 1) bounds the field, and kappa * M the
    solvers' own atoms per unit of exposure."""

    def test_zero_field(self):
        assert AtomVectorField.zero(2, 3).speed_bound() == 0.0

    def test_known_last_stage(self):
        field = AtomVectorField.zero(1, 2)           # n = 4
        w6 = np.zeros((4, 5))
        w6[0, 0], w6[1, 4], w6[3, 2] = 3.0, -4.0, 2.0  # singular values 4, 3, 2
        field = AtomVectorField((*field.stage_weights[:5], w6), field.lambda_init)
        assert field.speed_bound() == pytest.approx(4.0 * math.sqrt(5.0), rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    def test_derivative_within_bound(self, scale, theta):
        for seed, (m, k) in enumerate([(1, 2), (3, 3), (2, 4)]):
            field = AtomVectorField.seeded(m, k, 50 + seed)
            states = scale * np.random.default_rng(seed).standard_normal((8, m, k, k))
            norms = np.linalg.norm(field.derivative(theta, states).reshape(8, -1), axis=1)
            assert norms.max() <= field.speed_bound()

    @pytest.mark.parametrize("method", ["dopri45", "rk4-fixed"])
    @pytest.mark.parametrize("m, k", [(1, 2), (3, 3), (2, 4)])
    def test_solver_moves_at_most_kappa_m(self, method, m, k):
        kappa = float(np.abs(_DP_B5).sum()) if method == "dopri45" else 1.0
        fields = [AtomVectorField.seeded(m, k, 70 + i) for i in range(4)]
        theta0 = 0.4
        targets = [0.9, 0.5, 0.41, 0.401, 0.399, 0.3, 0.05]   # forward and backward
        init = np.stack([f.lambda_init.data for f in fields])
        out = integrate_stack(FieldStack.of(fields), init, theta0, targets,
                              SolverConfig(method=method, fixed_steps=16))
        for field, start, moved in zip(fields, init, out):
            bound = kappa * field.speed_bound()
            for target, atoms in zip(targets, moved):
                dist = np.linalg.norm((atoms - start).ravel())
                assert dist <= bound * abs(target - theta0) + 1e-12 * np.linalg.norm(start)


# One-row references: the scalar-time loops that the batched solvers
# replace, with the field's stages written out with np.mean and np.var.

def _reference_derivative(field, theta, state):
    x = state
    for w in field.stage_weights:
        atoms = x.reshape(field.m, -1)
        centered = atoms - atoms.mean(axis=1, keepdims=True)
        scale = np.sqrt(atoms.var(axis=1, keepdims=True) + 1e-5)
        x = w @ np.concatenate([np.tanh(centered / scale).ravel(), [theta]])
    return x


def _reference_dopri45(rhs, t0, t1, y0, rtol, atol, max_steps):
    span = t1 - t0
    if span == 0.0:
        return y0.copy()
    direction = 1.0 if span > 0 else -1.0
    h = span / 100.0
    t, y = t0, y0.copy()
    for _ in range(max_steps):
        if direction * (t1 - t) <= 0:
            return y
        if direction * (t + h - t1) > 0:
            h = t1 - t
        k = [rhs(t, y)]
        for i in range(1, 7):
            yi = y + h * sum(a * kk for a, kk in zip(_DP_A[i], k))
            k.append(rhs(t + _DP_C[i] * h, yi))
        y5 = y + h * sum(b * kk for b, kk in zip(_DP_B5, k))
        y4 = y + h * sum(b * kk for b, kk in zip(_DP_B4, k))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        norm = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
        if norm <= 1.0:
            t, y = t + h, y5
        factor = 5.0 if norm == 0.0 else 0.9 * norm ** -0.2
        h *= min(max(factor, 0.2), 5.0)
        if direction * (t1 - t) <= 0:
            return y
    raise IntegrationError("cap", last_theta=t)


def _reference_rk4(rhs, t0, t1, y0, steps):
    h = (t1 - t0) / steps
    y = y0
    for i in range(steps):
        t = t0 + i * h
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


# Forward, zero, backward, short and long spans, in one batch.
SPANS = [(0.2, 0.8), (0.5, 0.5), (0.9, 0.1), (0.3, 0.301), (0.05, 0.95), (0.7, 0.6)]


class TestBatchedSolver:
    def test_derivative_rows_equal_reference(self):
        field = AtomVectorField.seeded(3, 3, 21)
        gen = np.random.default_rng(0)
        states = gen.standard_normal((4, 5, 3, 3, 3))
        thetas = gen.uniform(0, 1, size=(4, 5))
        out = field.derivative(thetas, states)
        for b in range(4):
            for d in range(5):
                ref = _reference_derivative(field, thetas[b, d], states[b, d].ravel())
                assert out[b, d].ravel().tobytes() == ref.tobytes()

    @pytest.mark.parametrize("method", ["dopri45", "rk4-fixed"])
    def test_rows_equal_one_row_references(self, method):
        field = AtomVectorField.seeded(3, 3, 22)
        gen = np.random.default_rng(1)
        y0 = gen.standard_normal((len(SPANS), 27))
        t0, t1 = (np.array(v) for v in zip(*SPANS))
        rhs = lambda t, y: field.derivative(t, y.reshape(-1, 3, 3, 3)).reshape(y.shape)
        one = lambda t, y: _reference_derivative(field, t, y)
        if method == "dopri45":
            batch = _dopri45(rhs, t0, t1, y0, 1e-3, 1e-3, 10000)
            refs = [_reference_dopri45(one, a, b, y, 1e-3, 1e-3, 10000)
                    for a, b, y in zip(t0, t1, y0)]
        else:
            batch = _rk4_fixed(rhs, t0, t1, y0, 16)
            refs = [y if a == b else _reference_rk4(one, a, b, y, 16)
                    for a, b, y in zip(t0, t1, y0)]
        for row, ref in zip(batch, refs):
            assert row.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m, k", [(1, 2), (3, 3), (2, 4)])
    def test_seeded_stack_is_the_stack_of_seeded_fields(self, m, k):
        # Each field's draw: six uniform(-s, s) stages, then normal atoms.
        seeds, n = [0, 7, 2 ** 64 - 1], m * k * k
        gens = [rng.generator(seed, rng.FIELD) for seed in seeds]
        s = 1.0 / np.sqrt(n + 1)
        stages = [[g.uniform(-s, s, size=(n, n + 1)) for _ in range(6)] for g in gens]
        ref = [np.stack([w[i] for w in stages])[:, None] for i in range(6)]
        ref_init = np.stack([g.standard_normal((m, k, k)) for g in gens])
        fields = [AtomVectorField.seeded(m, k, seed) for seed in seeds]
        stack, init = FieldStack.seeded(m, k, seeds)
        for stacked in (stack.stage_weights, FieldStack.of(fields).stage_weights):
            assert [w.shape for w in stacked] == [w.shape for w in ref]
            assert [w.tobytes() for w in stacked] == [w.tobytes() for w in ref]
        for atoms in (init, np.stack([f.lambda_init.data for f in fields])):
            assert atoms.shape == ref_init.shape and atoms.tobytes() == ref_init.tobytes()

    @pytest.mark.parametrize("method", ["dopri45", "rk4-fixed"])
    def test_stack_equals_integrate_atoms(self, method):
        fields = [AtomVectorField.seeded(3, 3, 30 + i) for i in range(3)]
        init = np.stack([f.lambda_init.data for f in fields])
        targets = [0.9, 0.4, 0.1, 0.41]        # forward, zero, backward, short
        cfg = SolverConfig(method=method, fixed_steps=16)
        out = integrate_stack(FieldStack.of(fields), init, 0.4, targets, cfg)
        for b, field in enumerate(fields):
            for d, target in enumerate(targets):
                alone = integrate_atoms(field, 0.4, target, cfg).data
                assert out[b, d].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("method", ["dopri45", "rk4-fixed"])
    def test_nothing_to_integrate_rejected(self, method):
        # Zero targets or zero initial states leave no row to check.
        field = AtomVectorField.seeded(3, 3, 31)
        init = field.lambda_init.data[None]
        cfg = SolverConfig(method=method)
        with pytest.raises(DomainError):
            integrate_stack(field, init, 0.4, [], cfg)
        with pytest.raises(DomainError):
            integrate_stack(field, init[:0], 0.4, [0.5], cfg)

    def test_step_cap_reports_failing_row(self):
        field = AtomVectorField.seeded(3, 3, 23)
        rhs = lambda t, y: field.derivative(t, y.reshape(-1, 3, 3, 3)).reshape(y.shape)
        one = lambda t, y: _reference_derivative(field, t, y)
        y0 = np.tile(field.lambda_init.data.ravel(), (3, 1))
        t0, t1 = np.array([0.5, 0.5, 0.2]), np.array([0.5, 0.9, 0.8])
        with pytest.raises(IntegrationError) as batch:
            _dopri45(rhs, t0, t1, y0, 1e-3, 1e-3, 2)
        with pytest.raises(IntegrationError) as alone:
            _reference_dopri45(one, 0.5, 0.9, y0[1], 1e-3, 1e-3, 2)
        assert batch.value.last_theta == alone.value.last_theta
        assert 0.5 < batch.value.last_theta < 0.9
