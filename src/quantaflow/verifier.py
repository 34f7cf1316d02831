"""Numerical checks of the layer-bound inequality chain and the
exposure-continuity claim on randomized instances.

For atoms Lambda_1, Lambda_2 driving the same layer, the bound checked is

    ||Y_1 - Y_2||_2 <= ||phi||_2 * max_u ||x||_{2,N_u} * sqrt(|U|)
                       * ||Lambda_1 - Lambda_2||_2

with the neighborhood factor taken as the max over pixels, the weakest
uniform constant that still dominates the per-pixel chain. Bias is zeroed
inside all checks.

The suites evaluate a block of instances as the rows of one array; the
one-instance checks run the same code on a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .filters import (Coefficients, EaclConfig, FeatureMap, FilterAtoms,
                      ACTIVATIONS, _correlate2d, _filter_responses, compose_filters)
from .ode import AtomVectorField, FieldStack, SolverConfig, integrate_stack
from .sensor import BinaryFrame, NeighborhoodSpec, local_bit_density, neighborhood_ones

#: Absolute slack absorbing floating-point accumulation in inequality checks.
SLACK = 1e-9

#: Activations admissible in bound checks (non-expansive with unit constant).
BOUND_ACTIVATIONS = ("relu", "tanh", "identity")

#: Instances evaluated together by a suite; it bounds the suites' memory.
BLOCK = 16


@dataclass(frozen=True)
class StageCheck:
    lhs: float
    rhs: float

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs + SLACK


@dataclass(frozen=True)
class BoundReport:
    lhs: float
    rhs: float
    holds: bool
    slack: float
    instance_seed: int
    intermediate: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "slack": self.slack,
            "instance_seed": self.instance_seed,
            "intermediate": {
                name: {"lhs": c.lhs, "rhs": c.rhs, "holds": c.holds}
                for name, c in self.intermediate.items()
            },
        }


def _neighborhood_sq_norms(x: np.ndarray, k: int) -> np.ndarray:
    """Per-channel squared window norms of inputs (..., c, h, w): sums of
    x^2 over the k x k neighborhood, zero-padded."""
    return _correlate2d(x * x, np.ones((k, k)))


def _stack(items):
    return np.stack([item.data for item in items])


def _argmax_check(lhs: np.ndarray, rhs: np.ndarray) -> "StageCheck":
    i = np.unravel_index(np.argmax(lhs - rhs), lhs.shape)
    return StageCheck(float(lhs[i]), float(rhs[i]))


def _layer_bound_block(instances, activation: str) -> list:
    """BoundReports for (input, phi, atoms1, atoms2, seed) tuples that share
    their shapes, with every correlation run once over the block."""
    if activation not in BOUND_ACTIVATIONS:
        raise DomainError(
            f"bound checks need a unit-constant non-expansive activation, "
            f"got {activation!r}")
    act = ACTIVATIONS[activation]
    inps, phis, atoms1, atoms2, _ = zip(*instances)
    x = _stack(inps)                                   # (B, c_in, h, w)
    a1, a2 = _stack(atoms1), _stack(atoms2)            # (B, m, k, k)
    delta = a1 - a2
    y1, y2 = (act(_filter_responses(x, np.stack(list(map(compose_filters, phis, atoms)))))
              for atoms in (atoms1, atoms2))
    sq = _neighborhood_sq_norms(x, a1.shape[-1])       # (B, c_in, h, w)
    nb_max = np.sqrt(sq.sum(axis=1)).max(axis=(1, 2))  # across channels
    # Inner stages. B[i,j](u) is the difference of the two atom responses
    # at pixel u for input channel i and atom j; (B, c_in, m, h, w).
    xs = x[:, :, None]
    b = _correlate2d(xs, a1[:, None]) - _correlate2d(xs, a2[:, None])
    cs_lhs = np.abs(_correlate2d(xs, delta[:, None]))
    nb_norms = np.sqrt(sq)[:, :, None]

    reports = []
    for n, (inp, phi, at1, at2, seed) in enumerate(instances):
        lhs = float(np.linalg.norm((y1[n] - y2[n]).ravel()))
        rhs = phi.norm() * float(nb_max[n]) * np.sqrt(inp.width * inp.height) \
            * at1.distance(at2)

        # Hoelder with p = q = 2: sum |phi_oij B_ij(u)| <= ||phi_o|| * ||B(u)||.
        holder_lhs = np.einsum("oij,ijhw->ohw", np.abs(phi.data), np.abs(b[n]))
        phi_row_norms = np.linalg.norm(phi.data.reshape(phi.c_out, -1), axis=1)
        b_norms = np.sqrt(np.einsum("ijhw->hw", b[n] * b[n]))
        holder = _argmax_check(holder_lhs, phi_row_norms[:, None, None] * b_norms[None])

        # Cauchy-Schwarz: |<x_i, dLambda_j>_{N_u}| <= ||x_i||_{2,N_u} ||dLambda_j||.
        atom_norms = np.linalg.norm(delta[n].reshape(phi.m, -1), axis=1)
        cauchy = _argmax_check(cs_lhs[n], nb_norms[n] * atom_norms[None, :, None, None])

        holds = bool(lhs <= rhs + SLACK and holder.holds and cauchy.holds)
        reports.append(BoundReport(lhs=lhs, rhs=rhs, holds=holds, slack=rhs - lhs,
                                   instance_seed=seed,
                                   intermediate={"holder": holder, "cauchy_schwarz": cauchy}))
    return reports


def verify_layer_bound(inp: FeatureMap, phi: Coefficients, atoms1: FilterAtoms,
                       atoms2: FilterAtoms, cfg: EaclConfig,
                       instance_seed: int = 0) -> BoundReport:
    """Evaluate both sides of the layer bound plus its two inner stages."""
    return _layer_bound_block([(inp, phi, atoms1, atoms2, instance_seed)],
                              cfg.activation)[0]


def _brute_window_sq_sum(bits: np.ndarray, nb: NeighborhoodSpec) -> np.ndarray:
    """Independent shift-and-add count of ones (= sum of squares) per window."""
    r = nb.radius
    mode = "constant" if nb.boundary == "zero-pad" else "edge"
    padded = np.pad(bits.astype(np.int64), r, mode=mode)
    h, w = bits.shape
    acc = np.zeros((h, w), dtype=np.int64)
    for dy in range(2 * r + 1):
        for dx in range(2 * r + 1):
            acc += padded[dy:dy + h, dx:dx + w] ** 2
    return acc


def verify_density_identity(frame: BinaryFrame, nb: NeighborhoodSpec) -> bool:
    """Exact identity ||Y||^2_{2,N_u} = (ones in N_u) = |N_u| * mu_local."""
    counts = neighborhood_ones(frame, nb)
    brute = _brute_window_sq_sum(frame.to_array(), nb)
    if not np.array_equal(counts, brute):
        return False
    # mu = counts / |N_u| loses at most one ulp; |N_u| * mu recovers the
    # integer count exactly after rounding.
    scaled = local_bit_density(frame, nb).mu * nb.size
    if np.max(np.abs(scaled - counts)) > 1e-6:
        return False
    return bool(np.array_equal(np.rint(scaled).astype(np.int64), counts))


@dataclass(frozen=True)
class ContinuityReport:
    deltas: tuple
    output_distances: tuple   # D(delta)
    atom_distances: tuple     # A(delta)
    bound_constant: float
    bound_holds: tuple
    decreasing: bool

    @property
    def holds(self) -> bool:
        return self.decreasing and all(self.bound_holds)


def _continuity_block(instances, theta0: float, deltas, act, solver: SolverConfig,
                      field_=None) -> list:
    """ContinuityReports for (field, phi, input) triples that share their
    shapes. All atoms at all offsets come from one batched solve, along the
    triples' fields stacked, or along `field_` when given."""
    fields, phis, inps = zip(*instances)
    base = _stack(f.lambda_init for f in fields)       # (B, m, k, k)
    moved = integrate_stack(FieldStack.of(fields) if field_ is None else field_,
                            base, theta0, [theta0 + d for d in deltas], solver)
    moved = [[FilterAtoms.from_array(a) for a in atoms] for atoms in moved]
    x = _stack(inps)                                   # (B, c_in, h, w)
    filters = np.stack([[compose_filters(p, a) for a in (f.lambda_init, *atoms)]
                        for p, f, atoms in zip(phis, fields, moved)])
    y = act(_filter_responses(x[:, None], filters))    # (B, 1 + D, c_out, h, w)
    nb_max = np.sqrt(_neighborhood_sq_norms(x, base.shape[-1]).sum(axis=1)).max(axis=(1, 2))

    reports = []
    for n, (field_n, phi, inp) in enumerate(instances):
        const = phi.norm() * float(nb_max[n]) * np.sqrt(inp.width * inp.height)
        d_vals, a_vals, ok = [], [], []
        for i in range(len(deltas)):
            dist = float(np.linalg.norm((y[n, 1 + i] - y[n, 0]).ravel()))
            a = field_n.lambda_init.distance(moved[n][i])
            d_vals.append(dist)
            a_vals.append(a)
            ok.append(bool(dist <= const * a + SLACK))
        decreasing = all(b < a or (a == 0.0 and b == 0.0)
                         for a, b in zip(d_vals, d_vals[1:]))
        reports.append(ContinuityReport(tuple(deltas), tuple(d_vals), tuple(a_vals),
                                        const, tuple(ok), decreasing))
    return reports


def verify_exposure_continuity(field_, phi: Coefficients, inp: FeatureMap,
                               theta0: float, deltas, cfg: EaclConfig,
                               solver: SolverConfig = SolverConfig()) -> ContinuityReport:
    """Shrinking the exposure offset shrinks the layer-output change,
    and each offset respects the layer bound."""
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas) or any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise DomainError("deltas must be positive and strictly decreasing")
    if cfg.activation not in BOUND_ACTIVATIONS:
        raise DomainError(f"continuity checks reject {cfg.activation!r}")
    return _continuity_block([(field_, phi, inp)], theta0, deltas,
                             ACTIVATIONS[cfg.activation], solver, field_)[0]


def random_layer_instance(seed: int, c: int = 4, m: int = 3, k: int = 3,
                          size: int = 16, activation: str = "relu"):
    """Seeded random (input, phi, atoms1, atoms2, cfg) tuple for bound checks."""
    gen = np.random.default_rng(seed)
    inp = FeatureMap.from_array(gen.uniform(0.0, 1.0, size=(c, size, size)))
    phi = Coefficients.from_array(gen.standard_normal((c, c, m)))
    atoms1 = FilterAtoms.from_array(gen.standard_normal((m, k, k)))
    atoms2 = FilterAtoms.from_array(atoms1.data + 0.1 * gen.standard_normal((m, k, k)))
    cfg = EaclConfig(bias=np.zeros(c), activation=activation)
    return inp, phi, atoms1, atoms2, cfg


def run_layer_bound_suite(instances: int, seed: int,
                          activation: str = "relu") -> list:
    """BoundReports for `instances` seeded random layer instances."""
    reports = []
    for start in range(0, instances, BLOCK):
        block = [(*random_layer_instance(s, activation=activation)[:4], s)
                 for s in range(seed + start, seed + min(start + BLOCK, instances))]
        reports += _layer_bound_block(block, activation)
    return reports


#: Exposure offsets and base exposure of the continuity suite.
CONTINUITY_DELTAS = (1e-1, 1e-2, 1e-3)
CONTINUITY_THETA0 = 0.3


def continuity_instance(seed: int):
    """Seeded random (field, phi, input, cfg) for a continuity check."""
    gen = np.random.default_rng(seed)
    field_ = AtomVectorField.seeded(3, 3, seed)
    inp = FeatureMap.from_array(gen.uniform(0, 1, size=(1, 16, 16)))
    phi = Coefficients.from_array(gen.standard_normal((1, 1, 3)))
    cfg = EaclConfig(bias=np.zeros(1), activation="relu")
    return field_, phi, inp, cfg


def run_continuity_suite(instances: int, seed: int) -> list:
    """ContinuityReports for `instances` seeded random fields and layers."""
    reports = []
    for start in range(0, instances, BLOCK):
        block = [continuity_instance(s)[:3]
                 for s in range(seed + start, seed + min(start + BLOCK, instances))]
        reports += _continuity_block(block, CONTINUITY_THETA0, CONTINUITY_DELTAS,
                                     ACTIVATIONS["relu"], SolverConfig())
    return reports
