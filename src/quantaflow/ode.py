"""Filter-atom evolution along the continuous exposure variable.

The vector field is a 6-stage network over the flattened atom state
(normalize per atom -> tanh -> linear mix augmented with the scalar
exposure); integration uses fixed-step RK4 or adaptive Dormand-Prince 4(5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DomainError, IntegrationError, ShapeError
from .filters import FilterAtoms

STAGE_COUNT = 6
_NORM_EPS = 1e-5

#: Largest atom state n = m*k*k of any field, built or decoded: its
#: six n x (n+1) float64 stage matrices stay under 51 MiB.
MAX_STATE = 1024


def _state_size(m: int, k: int) -> int:
    """n = m*k*k, once m, k >= 1 and n <= MAX_STATE are checked."""
    if m < 1 or k < 1:
        raise DomainError(f"atom count m and spatial size k must be >= 1, got m={m}, k={k}")
    n = m * k * k
    if n > MAX_STATE:
        raise DomainError(f"atom state m*k*k = {n} exceeds MAX_STATE = {MAX_STATE}")
    return n


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
        if not all(np.isfinite(t) and t > 0 for t in (self.rtol, self.atol)):
            raise DomainError("tolerances must be finite and > 0")
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
    m = property(lambda self: self.lambda_init.m)
    k = property(lambda self: self.lambda_init.k)

    def __post_init__(self):
        n = _state_size(self.lambda_init.m, self.lambda_init.k)
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.stage_weights)
        if len(ws) != STAGE_COUNT:
            raise ShapeError(f"expected {STAGE_COUNT} stages, got {len(ws)}")
        for w in ws:
            if w.shape != (n, n + 1):
                raise ShapeError(f"stage weight shape {w.shape} != ({n}, {n + 1})")
            if not np.all(np.isfinite(w)):
                raise DomainError("stage weights must be finite")
        object.__setattr__(self, "stage_weights", ws)

    @classmethod
    def seeded(cls, m: int, k: int, seed: int) -> "AtomVectorField":
        """Deterministic random field: the one draw of `FieldStack.seeded`."""
        stack, init = FieldStack.seeded(m, k, [seed])
        return cls(tuple(w[0, 0] for w in stack.stage_weights), FilterAtoms(init[0]))

    @classmethod
    def zero(cls, m: int, k: int, lambda_init: FilterAtoms | None = None) -> "AtomVectorField":
        n = _state_size(m, k)
        init = lambda_init or FilterAtoms(np.zeros((m, k, k)))
        return cls(tuple(np.zeros((n, n + 1)) for _ in range(STAGE_COUNT)), init)

    def derivative(self, theta_tilde, state: np.ndarray) -> np.ndarray:
        """Evaluate the field at (theta_tilde, state); state is (m, k, k)
        or a batch (..., m, k, k) with theta_tilde broadcasting over its
        leading axes."""
        x = np.asarray(state, dtype=np.float64)
        if x.shape[-3:] != self.lambda_init.data.shape:
            raise ShapeError(f"state shape {x.shape} != (..., {self.m}, {self.k}, {self.k})")
        return _field_rhs(self.stage_weights, theta_tilde, x)

    def speed_bound(self) -> float:
        """M = ||W_6||_2 * sqrt(n + 1) >= ||dLambda/dtheta|| at every state and
        theta_tilde in [0, 1]: W_6 applies to n tanh outputs and theta_tilde.
        A solver step y + h * sum_i b_i k_i takes each k_i at a theta_tilde
        inside the step, so the solver's own atoms keep ||Lambda(theta) -
        Lambda(theta0)|| <= kappa * M * |theta - theta0|, kappa = sum_i |b_i|:
        1 for rk4-fixed, about 1.6448 for dopri45 (fifth-order weights)."""
        w6 = self.stage_weights[-1]
        return float(np.linalg.norm(w6, 2) * np.sqrt(w6.shape[0] + 1))


@dataclass(frozen=True)
class FieldStack:
    """B AtomVectorFields of one (m, k) as one field over states of shape
    (B, D, m, k, k): the D states of index b follow field b."""

    stage_weights: tuple  # STAGE_COUNT arrays of shape (B, 1, n, n+1)

    @classmethod
    def of(cls, fields) -> "FieldStack":
        return cls(tuple(np.stack([f.stage_weights[s] for f in fields])[:, None]
                         for s in range(STAGE_COUNT)))

    @classmethod
    def seeded(cls, m: int, k: int, seeds) -> tuple:
        """The seeded fields of `seeds` and their initial atoms (B, m, k, k).
        Each field draws its stage weights uniform(-s, s), s = 1/sqrt(fan_in),
        then its atoms standard normal, straight into the stacked arrays: no
        field is built, so no weight is held twice."""
        n = _state_size(m, k)
        weights = np.empty((STAGE_COUNT, len(seeds), 1, n, n + 1))
        init = np.empty((len(seeds), m, k, k))
        s = 1.0 / np.sqrt(n + 1)
        for b, seed in enumerate(seeds):
            gen = rng.generator(seed, rng.FIELD)
            for w in weights[:, b, 0]:
                w[...] = gen.uniform(-s, s, size=w.shape)
            init[b] = gen.standard_normal((m, k, k))
        return cls(tuple(weights)), init

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
    return FilterAtoms(out[0, 0])


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
    if not targets or len(init) == 0:
        raise DomainError("integrate_stack needs at least one target and one initial state")
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

