"""Filter-atom evolution along the continuous exposure variable.

The vector field is a 6-stage network over the flattened atom state
(normalize per atom -> tanh -> linear mix augmented with the scalar
exposure); integration uses fixed-step RK4 or adaptive Dormand-Prince 4(5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError, ShapeError
from .filters import Coefficients, FilterAtoms, compose_filters

STAGE_COUNT = 6
_NORM_EPS = 1e-5


@dataclass(frozen=True)
class SolverConfig:
    method: str = "dopri45"  # or "rk4-fixed"
    rtol: float = 1e-3
    atol: float = 1e-3
    fixed_steps: int = 64
    max_steps: int = 10000

    def __post_init__(self):
        if self.method not in ("dopri45", "rk4-fixed"):
            raise DomainError(f"unknown solver method {self.method!r}")
        if self.rtol <= 0 or self.atol <= 0:
            raise DomainError("tolerances must be > 0")
        if self.fixed_steps < 1 or self.max_steps < 1:
            raise DomainError("step counts must be >= 1")


@dataclass(frozen=True)
class AtomVectorField:
    """dLambda/dtheta as a stack of normalize -> tanh -> linear stages.

    Each stage weight has shape (n, n+1) with n = m*k*k; the extra column
    multiplies the scalar exposure input.
    """

    stage_weights: tuple  # STAGE_COUNT arrays of shape (n, n+1)
    lambda_init: FilterAtoms

    def __post_init__(self):
        n = self.lambda_init.m * self.lambda_init.k ** 2
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.stage_weights)
        if len(ws) != STAGE_COUNT:
            raise ShapeError(f"expected {STAGE_COUNT} stages, got {len(ws)}")
        for w in ws:
            if w.shape != (n, n + 1):
                raise ShapeError(f"stage weight shape {w.shape} != ({n}, {n + 1})")
            if not np.all(np.isfinite(w)):
                raise DomainError("stage weights must be finite")
        object.__setattr__(self, "stage_weights", ws)

    @property
    def m(self):
        return self.lambda_init.m

    @property
    def k(self):
        return self.lambda_init.k

    @classmethod
    def seeded(cls, m: int, k: int, seed: int,
               init_scale: float = 1.0) -> "AtomVectorField":
        """Deterministic random field: uniform(-s, s) with s = 1/sqrt(fan_in)."""
        gen = np.random.default_rng(seed)
        n = m * k * k
        s = 1.0 / np.sqrt(n + 1)
        weights = tuple(gen.uniform(-s, s, size=(n, n + 1)) for _ in range(STAGE_COUNT))
        init = FilterAtoms(m, k, init_scale * gen.standard_normal((m, k, k)))
        return cls(weights, init)

    @classmethod
    def zero(cls, m: int, k: int, lambda_init: FilterAtoms | None = None) -> "AtomVectorField":
        n = m * k * k
        init = lambda_init or FilterAtoms(m, k, np.zeros((m, k, k)))
        return cls(tuple(np.zeros((n, n + 1)) for _ in range(STAGE_COUNT)), init)

    def derivative(self, theta_tilde, state: np.ndarray) -> np.ndarray:
        """Evaluate the field at (theta_tilde, state); state is (m, k, k)
        or a batch (..., m, k, k) with theta_tilde broadcasting over its
        leading axes."""
        x = np.asarray(state, dtype=np.float64)
        if x.shape[-3:] != self.lambda_init.data.shape:
            raise ShapeError(f"state shape {x.shape} != (..., {self.m}, {self.k}, {self.k})")
        return _field_rhs(self.stage_weights, theta_tilde, x)


@dataclass(frozen=True)
class FieldStack:
    """B AtomVectorFields of one (m, k) as one field over states of shape
    (B, D, m, k, k): the D states of index b follow field b."""

    stage_weights: tuple  # STAGE_COUNT arrays of shape (B, 1, n, n+1)

    @classmethod
    def of(cls, fields) -> "FieldStack":
        return cls(tuple(np.stack([f.stage_weights[s] for f in fields])[:, None]
                         for s in range(STAGE_COUNT)))

    def derivative(self, theta_tilde, state: np.ndarray) -> np.ndarray:
        return _field_rhs(self.stage_weights, theta_tilde, state)


def _field_rhs(stage_weights, theta_tilde, x: np.ndarray) -> np.ndarray:
    # Each stage: per-atom normalization, tanh, then the linear mix of the
    # flattened atoms and the exposure. The weights broadcast against the
    # leading axes of x, one matrix-vector product per row.
    shape = x.shape
    lead = shape[:-3]
    theta = np.broadcast_to(np.asarray(theta_tilde, dtype=np.float64), lead)[..., None]
    for w in stage_weights:
        atoms = x.reshape(lead + (shape[-3], -1))
        # np.mean and np.var's own arithmetic, with the mean computed once.
        size = atoms.shape[-1]
        centered = atoms - np.add.reduce(atoms, axis=-1, keepdims=True) / size
        var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / size
        # Zero-variance atoms stay at zero mean; epsilon keeps the
        # division finite without inflating them.
        x = np.tanh(centered / np.sqrt(var + _NORM_EPS)).reshape(lead + (-1,))
        x = (w @ np.concatenate([x, theta], axis=-1)[..., None])[..., 0]
    return x.reshape(shape)


def eval_field(field_: AtomVectorField, theta_tilde: float,
               state: FilterAtoms) -> FilterAtoms:
    """dLambda/dtheta at the given exposure and atom state."""
    out = field_.derivative(float(theta_tilde), state.data)
    return FilterAtoms(state.m, state.k, out)


@dataclass(frozen=True)
class ConstantField:
    """Test/reference field whose derivative is a fixed tensor."""

    value: np.ndarray
    lambda_init: FilterAtoms

    def derivative(self, theta_tilde, state):
        return np.broadcast_to(np.asarray(self.value, dtype=np.float64), np.shape(state))


# The solvers integrate rows: y0 is (B, n), t0 and t1 are (B,), and
# rhs(t, y) maps (B,) times and (B, n) states to (B, n) derivatives. Rows
# never mix, so each row gives the bits of a solve of that row alone.

def _rk4_fixed(rhs, t0, t1, y0: np.ndarray, steps: int) -> np.ndarray:
    h = (t1 - t0) / steps
    y = y0
    for i in range(steps):
        t = t0 + i * h
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + (h / 2)[:, None] * k1)
        k3 = rhs(t + h / 2, y + (h / 2)[:, None] * k2)
        k4 = rhs(t + h, y + h[:, None] * k3)
        y = y + (h / 6)[:, None] * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.where((t1 == t0)[:, None], y0, y)

# Dormand-Prince 4(5) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])

_SAFETY = 0.9
_FACTOR_MIN = 0.2
_FACTOR_MAX = 5.0


def _step_factor(norm: float) -> float:
    factor = _FACTOR_MAX if norm == 0.0 else _SAFETY * norm ** -0.2
    return min(max(factor, _FACTOR_MIN), _FACTOR_MAX)


def _dopri45(rhs, t0, t1, y0: np.ndarray, rtol: float, atol: float,
             max_steps: int) -> np.ndarray:
    """Adaptive steps, each row with its own step size and accept/reject.
    Every attempt evaluates all rows; rows that are done keep their state.
    The last stage sits at the accepted point (first same as last), so it
    is the next step's first stage."""
    span = t1 - t0
    direction = np.where(span > 0, 1.0, -1.0)
    h = span / 100.0
    t, y = t0.copy(), y0.copy()
    active = span != 0.0
    k1 = rhs(t, y) if active.any() else None
    for _ in range(max_steps):
        if not active.any():
            return y
        h = np.where(active & (direction * (t + h - t1) > 0), t1 - t, h)
        k = [k1]
        for i in range(1, 7):
            yi = y + h[:, None] * sum(a * kk for a, kk in zip(_DP_A[i], k))
            k.append(rhs(t + _DP_C[i] * h, yi))
        y5 = y + h[:, None] * sum(b * kk for b, kk in zip(_DP_B5, k))
        y4 = y + h[:, None] * sum(b * kk for b, kk in zip(_DP_B4, k))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        norm = np.sqrt(np.mean(((y5 - y4) / scale) ** 2, axis=1))
        accept = active & (norm <= 1.0)
        t = np.where(accept, t + h, t)
        y = np.where(accept[:, None], y5, y)
        k1 = np.where(accept[:, None], k[6], k1)
        growth = np.array([_step_factor(v) for v in norm.tolist()])
        h = np.where(active, h * growth, h)
        active &= direction * (t1 - t) > 0
    if active.any():
        raise IntegrationError("adaptive step cap exceeded",
                               last_theta=float(t[np.argmax(active)]))
    return y


def integrate_atoms(field_, theta_in: float, theta_target: float,
                    solver: SolverConfig = SolverConfig()) -> FilterAtoms:
    """Atoms at theta_target: initial state lambda_init at theta_in,
    integrated along the field (backward when target < input)."""
    init = field_.lambda_init
    out = integrate_stack(field_, init.data[None], theta_in, [theta_target], solver)
    return FilterAtoms(init.m, init.k, out[0, 0])


def integrate_stack(field_, init: np.ndarray, theta_in: float, targets,
                    solver: SolverConfig = SolverConfig()) -> np.ndarray:
    """Atoms of B initial states init (B, m, k, k) at each target exposure,
    as (B, len(targets), m, k, k), integrated from theta_in in one batch.
    field_.derivative takes (B, D) exposures and (B, D, m, k, k) states: a
    FieldStack of B fields, or one field shared by all rows. Row (b, d)
    has the bits of integrate_atoms from state b to targets[d]."""
    targets = [float(v) for v in targets]
    for name, v in (("theta_in", theta_in), *(("theta_target", v) for v in targets)):
        if not (0.0 < v < 1.0):
            raise DomainError(f"{name} must lie in (0, 1), got {v}")
    shape = (init.shape[0], len(targets)) + init.shape[1:]
    rows = shape[0] * shape[1]

    def rhs(t, y):
        return field_.derivative(t.reshape(shape[:2]), y.reshape(shape)).reshape(y.shape)

    y0 = np.repeat(init.reshape(shape[0], 1, -1), shape[1], axis=1).reshape(rows, -1)
    t0 = np.full(rows, float(theta_in))
    t1 = np.tile(targets, shape[0])
    if solver.method == "rk4-fixed":
        out = _rk4_fixed(rhs, t0, t1, y0, solver.fixed_steps)
    else:
        out = _dopri45(rhs, t0, t1, y0, solver.rtol, solver.atol, solver.max_steps)
    return out.reshape(shape)


def atoms_for_pair(field_, theta_in: float, theta_target: float,
                   phi: Coefficients,
                   solver: SolverConfig = SolverConfig()) -> np.ndarray:
    """Composed (c_out, c_in, k, k) filters for an exposure pair."""
    return compose_filters(phi, integrate_atoms(field_, theta_in, theta_target, solver))


@dataclass(frozen=True)
class LipschitzEstimate:
    epsilon: float
    argmax_pair: tuple  # (theta_1, theta_2)


def estimate_lipschitz(field_, theta0: float, samples: int,
                       delta_grid, solver: SolverConfig = SolverConfig()) -> LipschitzEstimate:
    """Empirical continuity constant of the atom flow started at theta0.

    For each base point and offset delta, both endpoints are integrated
    from theta0 and the ratio ||Lambda_1 - Lambda_2|| / |delta| recorded.
    """
    if samples < 2:
        raise DomainError("need at least 2 sample points")
    deltas = [float(d) for d in delta_grid]
    if any(d <= 0 for d in deltas):
        raise DomainError("delta grid entries must be > 0")
    bases = np.linspace(0.02, 0.98, samples)
    pairs = [(float(t1), float(t1 + d), d) for t1 in bases for d in deltas
             if 0.0 < t1 + d < 1.0]
    targets = sorted({t for t1, t2, _ in pairs for t in (t1, t2)})
    row = {t: i for i, t in enumerate(targets)}
    atoms = integrate_stack(field_, field_.lambda_init.data[None], theta0,
                            targets, solver)[0] if pairs else None

    best = 0.0
    best_pair = (bases[0], bases[0])
    for t1, t2, d in pairs:
        dist = float(np.linalg.norm((atoms[row[t1]] - atoms[row[t2]]).ravel()))
        ratio = dist / d
        if ratio > best:
            best = ratio
            best_pair = (t1, t2)
    return LipschitzEstimate(best, best_pair)
