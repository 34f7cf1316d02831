"""Top-level acceptance suite.

One test per release criterion; each prints a single PASS/FAIL line on the
real stdout (bypassing capture) so a `pytest -v` run shows the scoreboard.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from quantaflow import formats
from quantaflow.bracketing import BracketSpec, default_labels, generate_burst
from quantaflow.calibration import (CmosParams, QisParams,
                                    cmos_gray_to_photons, qis_forward)
from quantaflow.cli import main
from quantaflow.errors import DomainError, QuantaError
from quantaflow.filters import FilterAtoms
from quantaflow.ode import AtomVectorField, SolverConfig, integrate_atoms
from quantaflow.sensor import (BinaryFrame, ExposureMap, NeighborhoodSpec,
                               SensorConfig, bit_probability,
                               invert_bit_density, local_bit_density,
                               mean_bit_density, neighborhood_ones,
                               sample_frame)
from quantaflow.verifier import (random_layer_instance, verify_exposure_continuity,
                                 verify_layer_bound)

THETA_GRID = (0.25, 1.0, 4.0)
Q_GRID = (0.5, 1.5)
SIGMA_GRID = (0.0, 0.25, 0.5)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _scoreboard(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(label: str, ok: bool):
    with _CAPSYS.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
    assert ok, label


class DecayField:
    """dLambda/dtheta = -Lambda; exact solution is exponential decay."""

    def __init__(self, lambda_init):
        self.lambda_init = lambda_init

    def derivative(self, theta_tilde, state):
        return -np.asarray(state)


def test_criterion_01_forward_model_consistency():
    t0 = time.monotonic()
    ok = True
    for theta in THETA_GRID:
        for q in Q_GRID:
            for sigma in SIGMA_GRID:
                emap = ExposureMap.constant(1024, 1024, theta)
                cfg = SensorConfig(q=q, sigma_r=sigma, seed=1000)
                mu = mean_bit_density(sample_frame(emap, cfg))
                p = bit_probability(theta, q, sigma)
                se = math.sqrt(p * (1 - p) / (1024 * 1024))
                ok &= abs(mu - p) <= 4 * se
    elapsed = time.monotonic() - t0
    _report(f"1 sampled density matches analytic probability on the "
            f"3x2x3 grid, 1024x1024, in {elapsed:.1f}s (< 10s)",
            ok and elapsed < 10.0)


def test_criterion_02_ideal_sensor_closed_form():
    ok = all(abs(bit_probability(t, 0.5, 0.0) - (1 - math.exp(-t))) <= 1e-12
             for t in (0.1, 0.693147, 1.0, 2.0, 5.0))
    _report("2 ideal-sensor probability equals 1 - exp(-theta) to 1e-12", ok)


def test_criterion_03_inversion_round_trip():
    ok = True
    for theta in np.geomspace(0.05, 5.0, 9):
        for q in Q_GRID:
            for sigma in SIGMA_GRID:
                mu = bit_probability(theta, q, sigma)
                theta_hat = invert_bit_density(mu, q, sigma)
                ok &= abs(theta_hat - theta) / theta <= 1e-6
    for saturated in (0.0, 1.0):
        try:
            invert_bit_density(saturated, 0.5, 0.0)
            ok = False
        except QuantaError:
            pass
    _report("3 exposure inversion round-trips to 1e-6 relative; "
            "saturated densities rejected", ok)


def test_criterion_04_burst_generation():
    t0 = time.monotonic()
    labels = default_labels(15)
    expected = tuple((i + 1) / 16 for i in range(15))
    ok = len(labels) == 15 and labels == expected

    theta, q, sigma = 4.0, 0.5, 0.25
    spec = BracketSpec()
    analytic = [bit_probability(theta / a, q, sigma) for a in spec.alphas]
    ok &= all(b < a for a, b in zip(analytic, analytic[1:]))

    emap = ExposureMap.constant(512, 512, theta)
    burst = generate_burst(emap, spec, SensorConfig(q, sigma, seed=4))
    ok &= len(burst) == 15
    n = 512 * 512
    for frame, p in zip(burst.frames, analytic):
        se = math.sqrt(p * (1 - p) / n)
        ok &= abs(mean_bit_density(frame) - p) <= 4 * se
    elapsed = time.monotonic() - t0
    _report(f"4 default bracket yields 15 frames with exact labels and "
            f"4-sigma-consistent decreasing densities in {elapsed:.1f}s (< 30s)",
            ok and elapsed < 30.0)


def test_criterion_05_solver_accuracy():
    gen = np.random.default_rng(5)
    init = FilterAtoms(gen.standard_normal((3, 3, 3)))
    exact = init.data * math.exp(-0.8)

    out = integrate_atoms(DecayField(init), 0.1, 0.9,
                          SolverConfig(method="dopri45", rtol=1e-3, atol=1e-3))
    rel_adaptive = np.max(np.abs(out.data - exact)) / np.max(np.abs(exact))

    out = integrate_atoms(DecayField(init), 0.1, 0.9,
                          SolverConfig(method="rk4-fixed", fixed_steps=256))
    rel_fixed = np.max(np.abs(out.data - exact)) / np.max(np.abs(exact))

    solver = SolverConfig(method="dopri45", rtol=1e-3, atol=1e-3)
    tol = 10.0 * (solver.rtol + solver.atol)
    props = True
    for seed in range(50):
        field = AtomVectorField.seeded(3, 3, seed)
        mid = integrate_atoms(field, 0.1, 0.5, solver)
        via = integrate_atoms(dataclasses.replace(field, lambda_init=mid),
                              0.5, 0.9, solver)
        direct = integrate_atoms(field, 0.1, 0.9, solver)
        scale = max(1.0, float(np.linalg.norm(direct.data)))
        props &= np.linalg.norm(via.data - direct.data) <= tol * scale

        back = integrate_atoms(dataclasses.replace(field, lambda_init=direct),
                               0.9, 0.1, solver)
        scale = max(1.0, float(np.linalg.norm(field.lambda_init.data)))
        props &= np.linalg.norm(back.data - field.lambda_init.data) <= tol * scale
    _report(f"5 solvers hit exponential-decay reference "
            f"(adaptive {rel_adaptive:.1e} < 5e-3, 256-step fixed "
            f"{rel_fixed:.1e} < 1e-8); semigroup/reversibility on 50 fields",
            rel_adaptive <= 5e-3 and rel_fixed <= 1e-8 and props)


def test_criterion_06_layer_bound_and_continuity():
    t0 = time.monotonic()
    violations = 0
    for activation in ("relu", "tanh", "identity"):
        for i in range(1000):
            inp, phi, a1, a2, cfg = random_layer_instance(
                seed=60_000 + i, activation=activation)
            report = verify_layer_bound(inp, phi, a1, a2, cfg)
            if not report["holds"]:
                violations += 1

    from quantaflow.filters import Coefficients, EaclConfig, FeatureMap
    deltas = (1e-1, 1e-2, 1e-3)
    ordered = True
    for i in range(100):
        gen = np.random.default_rng(6000 + i)
        field = AtomVectorField.seeded(3, 3, 6000 + i)
        inp = FeatureMap(gen.uniform(0, 1, size=(1, 16, 16)))
        phi = Coefficients(gen.standard_normal((1, 1, 3)))
        # identity keeps the layer output a nondegenerate function of the
        # atoms; relu can zero the whole map and collapse the ordering
        cfg = EaclConfig(bias=np.zeros(1), activation="identity")
        rep = verify_exposure_continuity(field, phi, inp, 0.3, deltas, cfg)
        d = dict(zip(deltas, rep["output_distances"]))
        ordered &= d[1e-3] < d[1e-2] < d[1e-1] and rep["holds"]
    elapsed = time.monotonic() - t0
    _report(f"6 layer bound holds on 3000 random instances "
            f"({violations} violations) and output distance shrinks with "
            f"delta on 100 fields, in {elapsed:.0f}s (< 120s)",
            violations == 0 and ordered and elapsed < 120.0)


def test_criterion_07_binary_norm_identity():
    gen = np.random.default_rng(7)
    ok = True
    for _ in range(100):
        w, h = int(gen.integers(4, 40)), int(gen.integers(4, 40))
        frame = BinaryFrame.from_array(gen.integers(0, 2, size=(h, w)))
        bits = frame.to_array().astype(np.int64)
        for radius in (0, 1, 2):
            nb = NeighborhoodSpec(radius=radius)
            counts = neighborhood_ones(frame, nb)
            mu = local_bit_density(frame, nb).mu
            # squared neighborhood L2 norm of a binary frame is the
            # integer count of ones, which must equal |N_u| * mu exactly
            recovered = np.rint(mu * nb.size).astype(np.int64)
            brute = np.zeros_like(bits)
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    shifted = np.zeros_like(bits)
                    ys = slice(max(0, -dy), bits.shape[0] - max(0, dy))
                    xs = slice(max(0, -dx), bits.shape[1] - max(0, dx))
                    yd = slice(max(0, dy), bits.shape[0] - max(0, -dy))
                    xd = slice(max(0, dx), bits.shape[1] - max(0, -dx))
                    shifted[ys, xs] = bits[yd, xd]
                    brute += shifted
            ok &= np.array_equal(counts, brute)
            ok &= np.array_equal(recovered, brute)
    _report("7 squared local norm equals integer ones count times density, "
            "100 frames, radii 0/1/2", ok)


def test_criterion_08_calibration():
    photons = cmos_gray_to_photons(np.array([[68.0]]),
                                   CmosParams(gain_ratio=1.0,
                                              quantum_efficiency=0.68))
    # 68/0.68 has no exact binary64 representation; demand the correctly
    # rounded quotient, which is within one ulp of 100
    val = float(photons[0, 0])
    exact = val == 68.0 / 0.68 and abs(val - 100.0) <= np.spacing(100.0)

    params = QisParams(gain_ratio=1.0, quantum_efficiency=0.68,
                       exposure_time=1.0, dark_signal=0.0,
                       sigma_real_noise=0.0)
    field = np.full((1000, 1000), 50.0)
    out = qis_forward(field, params, seed=8)
    rate = 50.0 * 0.68
    se = math.sqrt(rate / field.size)
    mean_ok = abs(out.mean() - rate) <= 4 * se
    _report("8 gray-to-photon conversion correctly rounded (1 ulp of 100); "
            "forward pixel model mean within 4 sigma on 1e6 pixels",
            exact and mean_ok)


def test_criterion_09_cli_reproducibility(tmp_path):
    emap_path = tmp_path / "scene.qex"
    formats.write_float_map(str(emap_path), np.full((32, 32), 2.0))
    params_path = tmp_path / "p.json"
    params_path.write_text(json.dumps({"sigma_real_noise": 0.1,
                                       "exposure_time": 1.0}))
    photons_path = tmp_path / "photons.qex"
    formats.write_float_map(str(photons_path), np.full((32, 32), 40.0))

    commands = {
        "frame.qbf": lambda out: ["simulate", "--theta-const", "1.5",
                                  "--size", "64x64", "--seed", "9",
                                  "--out", out],
        "burst.qbb": lambda out: ["bracket", "--in", str(emap_path),
                                  "--seed", "9", "--out", out],
        "field.qvf": lambda out: ["atoms", "--new-field", out,
                                  "--seed", "9"],
        "pixels.qex": lambda out: ["calibrate", "qis-forward",
                                   "--in", str(photons_path),
                                   "--params", str(params_path),
                                   "--seed", "9", "--out", out],
        "report.json": lambda out: ["verify", "--suite", "layer-bound",
                                    "--instances", "5", "--seed", "9",
                                    "--report", out],
    }
    ok = True
    for name, argv in commands.items():
        outputs = []
        for rerun in ("1", "2", "3"):
            path = tmp_path / f"r{rerun}-{name}"
            ok &= main(argv(str(path))) == 0
            outputs.append(path.read_bytes())
        ok &= outputs[0] == outputs[1] == outputs[2]
    _report("9 every randomized command is byte-identical across three reruns", ok)


def test_criterion_10_format_round_trips(tmp_path):
    gen = np.random.default_rng(10)
    ok = True
    for trial in range(10):
        w, h = int(gen.integers(1, 30)), int(gen.integers(1, 30))

        a, b = tmp_path / "a.qex", tmp_path / "b.qex"
        formats.write_float_map(str(a), gen.uniform(0, 9, size=(h, w)))
        formats.write_float_map(str(b), formats.read_float_map(str(a)))
        ok &= a.read_bytes() == b.read_bytes()

        a, b = tmp_path / "a.qbf", tmp_path / "b.qbf"
        formats.write_frame(str(a), BinaryFrame.from_array(
            gen.integers(0, 2, size=(h, w))))
        formats.write_frame(str(b), formats.read_frame(str(a)))
        ok &= a.read_bytes() == b.read_bytes()

        a, b = tmp_path / "a.qbb", tmp_path / "b.qbb"
        emap = ExposureMap(gen.uniform(0.5, 4, size=(h, w)))
        burst = generate_burst(emap, BracketSpec(),
                               SensorConfig(seed=trial))
        formats.write_burst(str(a), burst)
        formats.write_burst(str(b), formats.read_burst(str(a)))
        ok &= a.read_bytes() == b.read_bytes()

        a, b = tmp_path / "a.qtn", tmp_path / "b.qtn"
        formats.write_tensor(str(a), gen.standard_normal((4, 3, 3)))
        formats.write_tensor(str(b), formats.read_tensor(str(a)))
        ok &= a.read_bytes() == b.read_bytes()

        a, b = tmp_path / "a.qvf", tmp_path / "b.qvf"
        formats.write_field(str(a), AtomVectorField.seeded(3, 3, trial))
        formats.write_field(str(b), formats.read_field(str(a)))
        ok &= a.read_bytes() == b.read_bytes()
    _report("10 all five binary formats round-trip byte-identically on "
            "randomized payloads", ok)
