"""The three benchmark workloads: seeded inputs, the qflow commands of one
round, and the checks that a round's outputs are correct.

Inputs and reference values are computed here from the workload seed, with
the benchmark's own file writers, parsers and probability series, so a
change to the program cannot move the yardstick it is checked against.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np
from scipy.special import gammaln, ndtr, xlogy

LEVELS = 256            # discrete gray levels of every generated scene
THETA_MAX = 25.0        # exposure of the brightest level
Q, SIGMA_R = 0.5, 0.25  # sensor threshold and read noise (qflow defaults)
ALPHAS = tuple(1.0 + 0.5 * i for i in range(15))  # qflow's default divisors
CMOS_GAIN, CMOS_QE = 0.2, 0.68
QIS_PARAMS = {"exposure_time": 1.0, "gain_ratio": 4.0, "sigma_real_noise": 2.0}

# Threshold for the statistical mean checks, in standard errors. A round of
# calib makes 256 of them and a round of sim 16; at 6 sigma the chance that
# any check of a correct round fails is below 1e-6, the two-sided 5-sigma
# rate, so a whole benchmark session of a few hundred rounds stays clean.
Z_LIMIT = 6.0

# The Poisson series is summed to this count; far past any exposure used.
_KMAX = 200


def bit_probability(theta) -> np.ndarray:
    """P(bit = 1) = sum_k Poisson(k; theta) * Phi((k - q) / sigma_r)."""
    theta = np.asarray(theta, dtype=np.float64)[..., None]
    k = np.arange(_KMAX, dtype=np.float64)
    pmf = np.exp(xlogy(k, theta) - theta - gammaln(k + 1.0))
    return pmf @ ndtr((k - Q) / SIGMA_R)


def round_seed(seed: int, r: int) -> int:
    """The qflow --seed of round r, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def gray_levels(seed: int, size: int) -> np.ndarray:
    """A size x size map of gray levels 0..255, uniform, from the seed."""
    gen = np.random.default_rng([seed, size])
    return gen.integers(0, LEVELS, size=(size, size), dtype=np.uint8)


def write_qex(path, arr) -> None:
    arr = np.asarray(arr)
    with open(path, "wb") as f:
        f.write(b"QEX1" + struct.pack("<II", arr.shape[1], arr.shape[0]))
        f.write(arr.astype("<f4").tobytes())


def read_qex(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != b"QEX1":
        raise ValueError(f"{path}: not a QEX1 file")
    w, h = struct.unpack("<II", data[4:12])
    return np.frombuffer(data, dtype="<f4", count=w * h, offset=12).reshape(h, w)


def frame_densities(path) -> list:
    """Mean bit density of each frame in a QBF1 frame or QBB1 burst file."""
    data = Path(path).read_bytes()
    if data[:4] == b"QBF1":
        (w, h), count, offset = struct.unpack("<II", data[4:12]), 1, 12
    elif data[:4] == b"QBB1":
        w, h, count = struct.unpack("<III", data[4:16])
        offset = 16 + 8 * count
    else:
        raise ValueError(f"{path}: not a QBF1 or QBB1 file")
    row_bytes = (w + 7) // 8
    packed = np.frombuffer(data, dtype=np.uint8, offset=offset,
                           count=count * h * row_bytes).reshape(count, h, row_bytes)
    ones = np.unpackbits(packed, axis=2)[:, :, :w].sum(axis=(1, 2))
    return [int(n) / (w * h) for n in ones]


def level_counts(levels: np.ndarray) -> np.ndarray:
    return np.bincount(levels.ravel(), minlength=LEVELS)


class DensityRef:
    """Expected mean bit density, and its standard error, of a frame drawn
    from a scene with the given level histogram at exposure theta / alpha."""

    def __init__(self, counts: np.ndarray, theta: np.ndarray, alpha: float = 1.0):
        # Same arithmetic as the program's bracketing: theta * (1 / alpha).
        p = bit_probability(theta * (1.0 / alpha))
        n = counts.sum()
        self.mean = float(counts @ p) / n
        self.se = math.sqrt(float(counts @ (p * (1.0 - p)))) / n

    def holds(self, density: float) -> bool:
        return abs(density - self.mean) <= Z_LIMIT * self.se


def _theta_levels(levels: np.ndarray) -> np.ndarray:
    return levels.astype(np.float64) * (THETA_MAX / (LEVELS - 1))


def _scene_theta() -> np.ndarray:
    # Exposure per level after the float32 round trip through a QEX1 file.
    return _theta_levels(np.arange(LEVELS)).astype("<f4").astype(np.float64)


class Workload:
    """One workload: `commands(r)` is round r, `check(r, results)` lists
    what is wrong with its outputs (empty when the round is correct)."""

    name = ""
    work_unit = ""       # what `work_per_round` counts
    rate_name = ""       # the name of work per second on this workload
    work_per_round = 0.0
    threads = None       # QF_THREADS value the workload runs with

    def __init__(self, workdir: Path, seed: int):
        self.dir = Path(workdir)
        self.seed = seed

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def commands(self, r: int) -> list:
        raise NotImplementedError

    def check(self, r: int, results: list) -> list:
        raise NotImplementedError


class Sim(Workload):
    name = "sim"
    work_unit = "Mpx sampled"
    rate_name = "mpx_per_s"
    work_per_round = (len(ALPHAS) * 512 * 512 + 1024 * 1024) / 1e6

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        theta = _scene_theta()
        small, large = gray_levels(seed, 512), gray_levels(seed, 1024)
        write_qex(self.path("scene512.qex"), _theta_levels(small))
        write_qex(self.path("scene1024.qex"), _theta_levels(large))
        self.frame_ref = DensityRef(level_counts(large), theta)
        self.burst_refs = [DensityRef(level_counts(small), theta, a) for a in ALPHAS]

    def commands(self, r):
        s = str(round_seed(self.seed, r))
        frame = self.path("frame.qbf")
        return [
            ["bracket", "--in", self.path("scene512.qex"), "--seed", s,
             "--out", self.path("burst.qbb")],
            ["simulate", "--in", self.path("scene1024.qex"), "--seed", s,
             "--out", frame],
            ["estimate", "--in", frame, "--sigma-r", str(SIGMA_R)],
            ["density", "--in", frame, "--radius", "2", "--out", self.path("density.qex")],
            ["export-pgm", "--in", frame, "--out", self.path("frame.pgm")],
        ]

    def check(self, r, results):
        problems = [f"{argv[0]} exited {rc}" for argv, (rc, _) in
                    zip(self.commands(r), results) if rc != 0]
        if problems:
            return problems
        problems += check_burst(frame_densities(self.path("burst.qbb")), self.burst_refs)
        (density,) = frame_densities(self.path("frame.qbf"))
        if not self.frame_ref.holds(density):
            problems.append(f"frame density {density} vs expected "
                            f"{self.frame_ref.mean} +- {self.frame_ref.se}")
        problems += check_estimate(results[2][1], density)
        return problems


def check_burst(densities: list, refs: list) -> list:
    problems = []
    if len(densities) != len(refs):
        return [f"burst has {len(densities)} frames, expected {len(refs)}"]
    for tau, (d, ref) in enumerate(zip(densities, refs)):
        if not ref.holds(d):
            problems.append(f"burst frame {tau} density {d} vs {ref.mean} +- {ref.se}")
    if any(b >= a for a, b in zip(densities, densities[1:])):
        problems.append("burst densities are not strictly decreasing")
    return problems


def check_estimate(stdout: str, density: float) -> list:
    """`estimate` prints mu and theta-hat: mu must be the frame's density and
    bit_probability(theta-hat) must give mu back."""
    values = dict(line.split(" = ") for line in stdout.splitlines() if " = " in line)
    try:
        mu, theta = float(values["mu"]), float(values["theta-hat"])
    except (KeyError, ValueError):
        return [f"estimate printed no mu/theta-hat: {stdout!r}"]
    problems = []
    if abs(mu - density) > 1e-9:
        problems.append(f"estimate mu {mu} != frame density {density}")
    # Both numbers are printed to 9 decimals; dP/dtheta stays below 1.
    if abs(float(bit_probability(theta)) - mu) > 1e-8:
        problems.append(f"bit_probability({theta}) != mu {mu}")
    return problems


class Verify(Workload):
    name = "verify"
    work_unit = "checks"
    rate_name = "checks_per_s"
    instances = 100
    # 3 activations x instances layer-bound, 3 radii x instances density,
    # instances continuity checks.
    work_per_round = float(7 * instances)

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.threads = str(len(os.sched_getaffinity(0)))

    def commands(self, r):
        return [["verify", "--suite", "all", "--instances", str(self.instances),
                 "--seed", str(round_seed(self.seed, r)),
                 "--report", self.path("report.json")]]

    def check(self, r, results):
        (rc, _), = results
        with open(self.path("report.json")) as f:
            return check_report(json.load(f), rc, int(self.work_per_round))


def _strictly_decreasing(distances) -> bool:
    # The verifier's rule: each output distance is smaller than the one
    # before, or both are exactly zero.
    return all(b < a or a == b == 0.0 for a, b in zip(distances, distances[1:]))


def check_report(report: dict, rc: int, expected_checks: int) -> list:
    """The report is complete and its verdicts are right.

    Layer-bound and density checks are a proven inequality and an exact
    identity, so each must hold. A continuity check also asks that output
    distances strictly decrease as the exposure offset shrinks; that can
    fail for a correct program (a ReLU layer whose output is zero at the
    two largest offsets gives equal distances), so its verdict must only
    agree with its own distances. The exit code must match all_hold.
    """
    suites = report.get("suites", {})
    reports = [rep for suite in suites.values() for rep in suite["reports"]]
    problems = []
    if len(reports) != expected_checks:
        problems.append(f"report has {len(reports)} checks, expected {expected_checks}")
    for name in ("layer-bound", "density"):
        failing = sum(rep["holds"] is not True for rep in suites.get(name, {}).get("reports", []))
        if failing:
            problems.append(f"{failing} {name} checks do not hold")
    for rep in suites.get("continuity", {}).get("reports", []):
        decreasing = _strictly_decreasing(rep["output_distances"])
        if rep["decreasing"] != decreasing or \
                rep["holds"] != (decreasing and all(rep["bound_holds"])):
            problems.append(f"continuity instance {rep['instance_seed']}: verdict "
                            f"{rep['holds']} does not match its distances")
        elif not all(rep["bound_holds"]):
            problems.append(f"continuity instance {rep['instance_seed']} breaks the layer bound")
    all_hold = all(rep["holds"] for rep in reports)
    if report.get("all_hold") != all_hold:
        problems.append(f"report all_hold is {report.get('all_hold')}, its checks say {all_hold}")
    if rc != (0 if all_hold else 1):
        problems.append(f"verify exited {rc} with all_hold {all_hold}")
    return problems


class Calib(Workload):
    name = "calib"
    work_unit = "Mpx sampled"
    rate_name = "mpx_per_s"
    work_per_round = 1024 * 1024 / 1e6

    def __init__(self, workdir, seed):
        super().__init__(workdir, seed)
        self.levels = gray_levels(seed, 1024)
        write_qex(self.path("gray.qex"), self.levels)
        with open(self.path("qis.json"), "w") as f:
            json.dump(QIS_PARAMS, f)
        photons = CMOS_GAIN * np.arange(LEVELS, dtype=np.float64) / CMOS_QE
        self.photons = photons.astype("<f4")  # as stored in the QEX1 output
        rate = QIS_PARAMS["exposure_time"] * CMOS_QE * self.photons.astype(np.float64)
        self.expected = QIS_PARAMS["gain_ratio"] * rate
        variance = QIS_PARAMS["gain_ratio"] ** 2 * rate + QIS_PARAMS["sigma_real_noise"] ** 2
        self.counts = level_counts(self.levels)
        self.se = np.sqrt(variance / np.maximum(self.counts, 1))

    def commands(self, r):
        photons, pixels = self.path("photons.qex"), self.path("pixels.qex")
        return [
            ["calibrate", "cmos", "--in", self.path("gray.qex"), "--gain", str(CMOS_GAIN),
             "--out", photons],
            ["calibrate", "qis-forward", "--in", photons, "--params", self.path("qis.json"),
             "--seed", str(round_seed(self.seed, r)), "--out", pixels],
            ["export-pgm", "--in", pixels, "--out", self.path("pixels.pgm")],
        ]

    def check(self, r, results):
        problems = [f"{' '.join(argv[:2])} exited {rc}" for argv, (rc, _) in
                    zip(self.commands(r), results) if rc != 0]
        if problems:
            return problems
        photons = read_qex(self.path("photons.qex"))
        if not np.array_equal(photons, self.photons[self.levels]):
            problems.append("cmos photon map differs from gain * gray / qe")
        return problems + check_level_means(read_qex(self.path("pixels.qex")), self)


def check_level_means(pixels: np.ndarray, calib: Calib) -> list:
    """Each gray level's mean pixel value is gain * rate within Z_LIMIT
    standard errors. This does not test the shape of the count
    distribution, so it passes the rounded-Gaussian counts drawn at
    rates of 30 and above."""
    if pixels.shape != calib.levels.shape:
        return [f"pixel map shape {pixels.shape} != {calib.levels.shape}"]
    sums = np.bincount(calib.levels.ravel(), weights=pixels.ravel().astype(np.float64),
                       minlength=LEVELS)
    means = sums / np.maximum(calib.counts, 1)
    z = np.abs(means - calib.expected) / calib.se
    bad = np.flatnonzero((calib.counts > 0) & (z > Z_LIMIT))
    return [f"gray level {lv}: mean {means[lv]} vs {calib.expected[lv]} "
            f"({z[lv]:.1f} standard errors)" for lv in bad]


WORKLOADS = {w.name: w for w in (Sim, Verify, Calib)}
