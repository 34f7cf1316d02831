"""Numerical checks of the layer-bound inequality chain, the density
identity and the exposure-continuity claim on randomized instances.

For atoms Lambda_1, Lambda_2 driving the same layer, the bound checked is

    ||Y_1 - Y_2||_2 <= ||phi||_2 * max_u ||x||_{2,N_u} * sqrt(|U|)
                       * ||Lambda_1 - Lambda_2||_2

with the neighborhood factor taken as the max over pixels, the weakest
uniform constant that still dominates the per-pixel chain. Bias is zeroed
inside all checks.

Each certificate has one shape: a `_X_block` that evaluates a block of
instances as the rows of one array and a seeded `run_X_suite` over the seed
blocks of `_seed_blocks`, in blocks of the suite's own size. The layer bound
and continuity also have a one-instance check that is their block of one.
The continuity block takes the atoms of one batched solve of its fields.
Every check and suite returns the report rows that `qflow verify` writes:
plain dicts of floats, bools and lists, one per instance (and activation
or radius), each with its own `holds`. The layer-bound block serves all
activations in one pass: only the outputs depend on them.
`_bound_activation` is the one rule for which activations a bound admits,
and `_bound_constants` the one place its constant is computed. Every layer
output is the layer's own route, atom responses mixed by phi, and every
window norm goes through `filters._correlate2d`. `SUITES` maps each suite
name to its run function.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .errors import DomainError, ShapeError
from .filters import (Coefficients, EaclConfig, FeatureMap, FilterAtoms, ACTIVATIONS,
                      _atom_responses, _check_layer_shapes, _correlate2d, _mix)
from .ode import FieldStack, SolverConfig, integrate_stack
from .sensor import NeighborhoodSpec, neighborhood_ones

#: Absolute slack absorbing floating-point accumulation in inequality checks.
SLACK = 1e-9

#: Activations admissible in bound checks (non-expansive with unit constant).
BOUND_ACTIVATIONS = ("relu", "tanh", "identity")

#: Instances that each suite evaluates together, chosen by timing. A block
#: bounds its suite's memory: each comment bounds the tracemalloc peak of a
#: 100-instance suite. Layer-bound blocks are memory-bound, so larger ones
#: are slower. A density block of 100 is no faster than 50 and doubles the
#: peak. An adaptive continuity solve makes about 25 right-hand-side calls
#: whatever the block size; one block of 100 would save one solve, but its
#: atom responses raise a `verify` round's peak RSS 2.4 MiB above blocks
#: of 50.
LAYER_BOUND_BLOCK = 16   # 3.5 MiB
DENSITY_BLOCK = 50       # 2 MiB
CONTINUITY_BLOCK = 50    # 3.5 MiB


def _neighborhood_sq_norms(x: np.ndarray, k: int) -> np.ndarray:
    """Squared window norms of inputs (..., h, w): sums of x^2 over the
    k x k neighborhood, zero-padded."""
    return _correlate2d(x * x, np.ones((k, k)))


def _stack(items):
    return np.stack([item.data for item in items])


def _argmax_check(lhs: np.ndarray, rhs: np.ndarray) -> dict:
    """The stage entry {lhs, rhs, holds} where lhs - rhs is largest."""
    i = np.unravel_index(np.argmax(lhs - rhs), lhs.shape)
    lhs, rhs = float(lhs[i]), float(rhs[i])
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + SLACK}


def _bound_activation(name: str):
    """The activation `name`, if the bound checks admit it (non-expansive)."""
    if name not in BOUND_ACTIVATIONS:
        raise DomainError(f"bound checks need one of {BOUND_ACTIVATIONS}, got {name!r}")
    return ACTIVATIONS[name]


def _bound_constants(phis, sq: np.ndarray) -> list:
    """C = ||phi||_2 * max_u ||x||_{2,N_u} * sqrt(|U|) from x's window norms sq."""
    nb_max = np.sqrt(sq.sum(axis=1)).max(axis=(1, 2))  # across channels
    return [phi.norm() * float(m) * np.sqrt(sq[0, 0].size) for phi, m in zip(phis, nb_max)]


def _layer_bound_block(instances, activations) -> list:
    """Report rows for (input, phi, atoms1, atoms2, seed) tuples that share
    their shapes, by activation and then by instance; only the outputs are
    evaluated per activation."""
    acts = {name: _bound_activation(name) for name in activations}
    inps, phis, atoms1, atoms2, _ = zip(*instances)
    x, phi = _stack(inps), _stack(phis)                # (B, c_in, h, w), (B, c_out, c_in, m)
    a1, a2 = _stack(atoms1), _stack(atoms2)            # (B, m, k, k)
    # B[i,j](u) = r1 - r2 is the difference of the two atom responses at
    # pixel u for input channel i and atom j, (B, c_in, m, h, w): the one
    # quantity that the layer outputs mix and both inner stages bound.
    r1, r2 = _atom_responses(x, a1), _atom_responses(x, a2)
    b = r1 - r2
    pre1, pre2 = _mix(phi, r1), _mix(phi, r2)          # (B, c_out, h, w)
    dys = {name: act(pre1) - act(pre2) for name, act in acts.items()}
    sq = _neighborhood_sq_norms(x, a1.shape[-1])       # (B, c_in, h, w)
    consts = _bound_constants(phis, sq)

    # Hoelder with p = q = 2: sum |phi_oij B_ij(u)| <= ||phi_o|| * ||B(u)||.
    holder_lhs = _mix(np.abs(phi), np.abs(b))
    phi_row_norms = np.linalg.norm(phi.reshape(phi.shape[:2] + (-1,)), axis=2)
    b_norms = np.sqrt(np.einsum("bijhw->bhw", b * b))
    holder_rhs = phi_row_norms[..., None, None] * b_norms[:, None]
    # Cauchy-Schwarz: |B_ij(u)| = |<x_i, dLambda_j>_{N_u}| <= ||x_i||_{2,N_u} ||dLambda_j||.
    atom_norms = np.linalg.norm((a1 - a2).reshape(a1.shape[:2] + (-1,)), axis=2)
    cauchy_rhs = np.sqrt(sq)[:, :, None] * atom_norms[:, None, :, None, None]

    stages = [(_argmax_check(holder_lhs[n], holder_rhs[n]),
               _argmax_check(np.abs(b[n]), cauchy_rhs[n])) for n in range(len(instances))]
    rows = []
    for name, dy in dys.items():
        for n, (_, _, at1, at2, seed) in enumerate(instances):
            rhs = float(consts[n] * at1.distance(at2))
            lhs = float(np.linalg.norm(dy[n].ravel()))
            holder, cauchy = stages[n]
            rows.append({
                "lhs": lhs, "rhs": rhs,
                "holds": lhs <= rhs + SLACK and holder["holds"] and cauchy["holds"],
                "slack": rhs - lhs, "instance_seed": seed,
                "intermediate": {"holder": dict(holder), "cauchy_schwarz": dict(cauchy)},
                "activation": name})
    return rows


def verify_layer_bound(inp: FeatureMap, phi: Coefficients, atoms1: FilterAtoms,
                       atoms2: FilterAtoms, cfg: EaclConfig,
                       instance_seed: int = 0) -> dict:
    """The report row of both sides of the layer bound plus its two inner
    stages, for a layer that `eacl_forward` accepts."""
    if atoms1.data.shape != atoms2.data.shape:
        raise ShapeError(f"atom shapes differ: {atoms1.data.shape} != {atoms2.data.shape}")
    _check_layer_shapes(inp, phi, atoms1)
    return _layer_bound_block([(inp, phi, atoms1, atoms2, instance_seed)],
                              [cfg.activation])[0]


def _density_block(bits: np.ndarray, nb: NeighborhoodSpec) -> list:
    """Identity verdicts for 0/1 frames bits (B, h, w): the box sum of
    `neighborhood_ones` equals the squared window norm, taken over the frames
    extended past their border by the boundary rule. The window of side k is
    a (1, k) then a (k, 1) pass of `_correlate2d`, O(k) per pixel; its sums
    of 0/1 squares are exact integers."""
    r, (h, w) = nb.radius, bits.shape[-2:]
    padded = np.pad(bits, [(0, 0), (r, r), (r, r)], mode=nb.pad_mode)
    ones = np.ones(2 * r + 1)
    rows = _correlate2d(padded * padded, ones[None, :])
    sq = _correlate2d(rows, ones[:, None])[:, r:r + h, r:r + w]
    return (neighborhood_ones(bits, nb) == sq).all(axis=(1, 2)).tolist()


def _continuity_block(base: np.ndarray, moved: np.ndarray, instances, act) -> list:
    """Report rows for (phi, input, seed) tuples that share their shapes:
    the output distances D(delta) and atom distances A(delta) at each
    offset, from each tuple's field's initial atoms base (B, m, k, k) and
    its atoms at each offset moved (B, D, m, k, k)."""
    phis, inps, seeds = zip(*instances)
    x = _stack(inps)                                   # (B, c_in, h, w)
    atoms = np.concatenate([base[:, None], moved], axis=1)  # (B, 1 + D, m, k, k)
    # Outputs at the base atoms and at each offset: (B, 1 + D, c_out, h, w).
    y = act(_mix(_stack(phis)[:, None], _atom_responses(x[:, None], atoms)))
    consts = _bound_constants(phis, _neighborhood_sq_norms(x, base.shape[-1]))

    rows = []
    for n, (const, seed) in enumerate(zip(consts, seeds)):
        d_vals = [float(np.linalg.norm((y[n, 1 + i] - y[n, 0]).ravel()))
                  for i in range(moved.shape[1])]
        a_vals = [float(np.linalg.norm((base[n] - a).ravel())) for a in moved[n]]
        ok = [bool(d <= const * a + SLACK) for d, a in zip(d_vals, a_vals)]
        decreasing = all(b < a or (a == 0.0 and b == 0.0)
                         for a, b in zip(d_vals, d_vals[1:]))
        rows.append({"instance_seed": seed, "output_distances": d_vals,
                     "atom_distances": a_vals, "bound_holds": ok,
                     "decreasing": decreasing, "holds": decreasing and all(ok)})
    return rows


def verify_exposure_continuity(field_, phi: Coefficients, inp: FeatureMap,
                               theta0: float, deltas, cfg: EaclConfig,
                               solver: SolverConfig = SolverConfig()) -> dict:
    """The report row (`instance_seed` 0) of shrinking the exposure offset
    shrinking the layer-output change, with each offset respecting the
    layer bound, for a layer that `eacl_forward` accepts."""
    deltas = [float(d) for d in deltas]
    if not deltas or any(d <= 0 for d in deltas) or \
            any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise DomainError("deltas must be non-empty, positive and strictly decreasing")
    _check_layer_shapes(inp, phi, field_.lambda_init)
    act = _bound_activation(cfg.activation)
    base = field_.lambda_init.data[None]
    moved = integrate_stack(FieldStack.of([field_]), base, theta0,
                            [theta0 + d for d in deltas], solver)
    return _continuity_block(base, moved, [(phi, inp, 0)], act)[0]


def _seed_blocks(instances: int, seed: int, block: int):
    """The seeds of each block of a suite: `instances` seeds from `seed` on,
    in ranges of at most `block`."""
    for start in range(seed, seed + instances, block):
        yield range(start, min(start + block, seed + instances))


def random_layer_instance(seed: int, activation: str = "relu"):
    """Seeded random (input, phi, atoms1, atoms2, cfg) tuple for bound checks."""
    gen = rng.generator(seed, rng.LAYER)
    inp = FeatureMap(gen.uniform(0.0, 1.0, size=(4, 16, 16)))
    phi = Coefficients(gen.standard_normal((4, 4, 3)))
    atoms1 = FilterAtoms(gen.standard_normal((3, 3, 3)))
    atoms2 = FilterAtoms(atoms1.data + 0.1 * gen.standard_normal((3, 3, 3)))
    cfg = EaclConfig(bias=np.zeros(4), activation=activation)
    return inp, phi, atoms1, atoms2, cfg


def run_layer_bound_suite(instances: int, seed: int) -> list:
    """Report rows, by activation in BOUND_ACTIVATIONS order and then by
    seed, for `instances` seeded random layer instances, each drawn and
    evaluated once."""
    rows = [row for seeds in _seed_blocks(instances, seed, LAYER_BOUND_BLOCK)
            for row in _layer_bound_block([(*random_layer_instance(s)[:4], s) for s in seeds],
                                          BOUND_ACTIVATIONS)]
    # sorted is stable: each activation's rows stay in seed order.
    return sorted(rows, key=lambda row: BOUND_ACTIVATIONS.index(row["activation"]))


#: Exposure offsets and base exposure of the continuity suite.
CONTINUITY_DELTAS = (1e-1, 1e-2, 1e-3)
CONTINUITY_THETA0 = 0.3


def _continuity_layer(seed: int):
    """The seeded random (phi, input) of a continuity instance, from CONTINUITY."""
    gen = rng.generator(seed, rng.CONTINUITY)
    inp = FeatureMap(gen.uniform(0, 1, size=(1, 16, 16)))
    return Coefficients(gen.standard_normal((1, 1, 3))), inp


def run_continuity_suite(instances: int, seed: int) -> list:
    """Report rows for `instances` seeded random fields and layers: the
    fields of a block are drawn as one stack, and all its atoms at all
    offsets come from one batched solve."""
    targets = [CONTINUITY_THETA0 + d for d in CONTINUITY_DELTAS]
    rows = []
    for seeds in _seed_blocks(instances, seed, CONTINUITY_BLOCK):
        stack, base = FieldStack.seeded(3, 3, seeds)
        moved = integrate_stack(stack, base, CONTINUITY_THETA0, targets, SolverConfig())
        del stack  # the stage weights, the block's largest arrays, are done with
        rows += _continuity_block(base, moved, [(*_continuity_layer(s), s) for s in seeds],
                                  _bound_activation("relu"))
    return rows


#: Frame side and neighborhood radii of the density suite.
DENSITY_SIDE = 24
DENSITY_RADII = (0, 1, 2)


def run_density_suite(instances: int, seed: int) -> list:
    """Report rows, one per frame and radius, for `instances` random frames,
    each drawn from the DENSITY stream of its own instance seed."""
    rows = []
    for seeds in _seed_blocks(instances, seed, DENSITY_BLOCK):
        bits = np.stack([rng.generator(s, rng.DENSITY).integers(0, 2, (DENSITY_SIDE,) * 2)
                         for s in seeds])
        holds = [_density_block(bits, NeighborhoodSpec(r)) for r in DENSITY_RADII]
        rows += [{"instance_seed": s, "radius": r, "holds": ok[i]}
                 for i, s in enumerate(seeds) for r, ok in zip(DENSITY_RADII, holds)]
    return rows


#: Report rows of each `qflow verify` suite by name, from (instances, seed).
#: Each entry looks its run function up when called, so a module attribute
#: patched by a test or a tracer is the one that runs.
SUITES = {
    "layer-bound": lambda instances, seed: run_layer_bound_suite(instances, seed),
    "density": lambda instances, seed: run_density_suite(instances, seed),
    "continuity": lambda instances, seed: run_continuity_suite(instances, seed),
}
