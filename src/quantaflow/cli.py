"""Command-line entry point (`qflow`).

Exit codes: 0 success, 1 domain/decode error, 2 usage error. Randomized
commands require --seed and drop a <output>.manifest.json next to their
outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import sys
import time

import numpy as np

from . import __version__, formats
from .bracketing import BracketSpec, generate_burst
from .calibration import CmosParams, QisParams, cmos_gray_to_photons, qis_forward
from .errors import QuantaError, DomainError
from .manifest import RunManifest
from .ode import AtomVectorField, SolverConfig, integrate_atoms
from .sensor import (ExposureMap, NeighborhoodSpec, SensorConfig,
                     invert_bit_density, local_bit_density, mean_bit_density,
                     sample_frame)
from .verifier import (run_continuity_suite, run_layer_bound_suite,
                       verify_density_identity)
from .sensor import BinaryFrame


class _Parser(argparse.ArgumentParser):
    """argparse with near-miss suggestions for unknown flags."""

    all_options: set = set()

    def error(self, message):
        if "unrecognized arguments" in message:
            bad = message.split(":", 1)[1].strip().split()
            for token in bad:
                if token.startswith("-"):
                    close = difflib.get_close_matches(token, self.all_options, n=1)
                    if close:
                        message += f" (did you mean {close[0]}?)"
                        break
        super().error(message)


def _parse_size(text: str):
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise DomainError(f"bad size {text!r}, expected WxH")
    if w < 1 or h < 1:
        raise DomainError(f"bad size {text!r}, width and height must be >= 1")
    return w, h


def _read_qis_params(path) -> QisParams:
    """QisParams from a JSON object of its fields."""
    with open(path) as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad JSON in {path}: {exc}")
    if not isinstance(raw, dict):
        raise DomainError(f"{path} must hold a JSON object of QisParams fields")
    unknown = set(raw) - {f.name for f in dataclasses.fields(QisParams)}
    if unknown:
        raise DomainError(f"unknown QisParams fields {sorted(unknown)} in {path}")
    try:
        return QisParams(**raw)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad QisParams value in {path}: {exc}")


def _parse_alphas(text: str):
    if text == "default":
        return BracketSpec()
    return BracketSpec(tuple(float(x) for x in text.split(",")))


def _new_manifest(args, seed):
    return RunManifest(command=list(sys.argv[1:]), seed=seed, version=__version__)


def _finish(man: RunManifest, primary_output, t0):
    man.duration_s = time.monotonic() - t0
    man.outputs.append(str(primary_output))
    man.write(f"{primary_output}.manifest.json")


def _cmd_simulate(args):
    t0 = time.monotonic()
    man = _new_manifest(args, args.seed)
    if args.theta_const is not None:
        if args.size is None:
            raise DomainError("--theta-const requires --size WxH")
        w, h = _parse_size(args.size)
        emap = ExposureMap.constant(w, h, args.theta_const)
    elif args.infile is not None:
        man.add_input(args.infile)
        emap = formats.read_exposure_map(args.infile)
    else:
        raise DomainError("need --theta-const with --size, or --in scene.qex")
    cfg = SensorConfig(q=args.q, sigma_r=args.sigma_r, seed=args.seed)
    frame = sample_frame(emap, cfg)
    formats.write_frame(args.out, frame)
    _finish(man, args.out, t0)
    print(f"wrote {args.out}: {frame.width}x{frame.height}, "
          f"mean density {mean_bit_density(frame):.6f}")
    return 0


def _cmd_bracket(args):
    t0 = time.monotonic()
    man = _new_manifest(args, args.seed)
    man.add_input(args.infile)
    emap = formats.read_exposure_map(args.infile)
    spec = _parse_alphas(args.alphas)
    burst = generate_burst(emap, spec, SensorConfig(args.q, args.sigma_r, args.seed))
    formats.write_burst(args.out, burst)
    _finish(man, args.out, t0)
    print(f"wrote {args.out}: {len(burst)} frames, {burst.width}x{burst.height}")
    return 0


def _cmd_density(args):
    frame = formats.read_frame(args.infile)
    print(f"mean bit density: {mean_bit_density(frame):.9f}")
    if args.out:
        nb = NeighborhoodSpec(radius=args.radius, boundary=args.boundary)
        formats.write_float_map(args.out, local_bit_density(frame, nb).mu)
        print(f"wrote local density map {args.out} (radius {args.radius})")
    return 0


def _cmd_estimate(args):
    frame = formats.read_frame(args.infile)
    mu = mean_bit_density(frame)
    theta = invert_bit_density(mu, args.q, args.sigma_r)
    print(f"mu = {mu:.9f}")
    print(f"theta-hat = {theta:.9f}")
    return 0


def _cmd_atoms(args):
    if args.new_field:
        if args.seed is None:
            print("usage error: --new-field requires --seed", file=sys.stderr)
            raise SystemExit(2)
        t0 = time.monotonic()
        man = _new_manifest(args, args.seed)
        field_ = AtomVectorField.seeded(args.m, args.k, args.seed)
        formats.write_field(args.new_field, field_)
        _finish(man, args.new_field, t0)
        print(f"wrote field {args.new_field} (m={args.m}, k={args.k})")
        return 0
    if not args.field:
        raise DomainError("need --field f.qvf (or --new-field to create one)")
    field_ = formats.read_field(args.field)
    method = "rk4-fixed" if args.solver == "rk4" else args.solver
    solver = SolverConfig(method=method, rtol=args.rtol, atol=args.atol)
    atoms = integrate_atoms(field_, args.theta_from, args.theta_to, solver)
    formats.write_tensor(args.out, atoms.data)
    print(f"wrote atoms {args.out} "
          f"(interval {args.theta_from} -> {args.theta_to}, {method})")
    return 0


def _verify_layer_bound(instances, seed):
    reports = []
    for activation in ("relu", "tanh", "identity"):
        reports += [r.to_dict() | {"activation": activation}
                    for r in run_layer_bound_suite(instances, seed, activation)]
    return reports


def _verify_density(instances, seed):
    gen = np.random.default_rng(seed)
    reports = []
    for i in range(instances):
        bits = gen.integers(0, 2, size=(24, 24))
        frame = BinaryFrame.from_array(bits)
        for radius in (0, 1, 2):
            nb = NeighborhoodSpec(radius=radius)
            reports.append({"instance_seed": seed + i, "radius": radius,
                            "holds": bool(verify_density_identity(frame, nb))})
    return reports


def _verify_continuity(instances, seed):
    return [{"instance_seed": seed + i,
             "output_distances": list(rep.output_distances),
             "atom_distances": list(rep.atom_distances),
             "bound_holds": list(rep.bound_holds),
             "decreasing": rep.decreasing,
             "holds": rep.holds}
            for i, rep in enumerate(run_continuity_suite(instances, seed))]


def _cmd_verify(args):
    if args.instances < 1:
        print(f"usage error: --instances must be >= 1, got {args.instances}",
              file=sys.stderr)
        raise SystemExit(2)
    t0 = time.monotonic()
    man = _new_manifest(args, args.seed)
    suites = ("layer-bound", "density", "continuity") if args.suite == "all" \
        else (args.suite,)
    runners = {"layer-bound": _verify_layer_bound, "density": _verify_density,
               "continuity": _verify_continuity}
    payload = {"seed": args.seed, "instances": args.instances, "suites": {}}
    all_hold = True
    for suite in suites:
        reports = runners[suite](args.instances, args.seed)
        ok = all(r["holds"] for r in reports)
        all_hold &= ok
        payload["suites"][suite] = {"all_hold": ok, "reports": reports}
        print(f"suite {suite}: {'PASS' if ok else 'FAIL'} ({len(reports)} checks)")
    payload["all_hold"] = all_hold
    with open(args.report, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    _finish(man, args.report, t0)
    return 0 if all_hold else 1


def _cmd_calibrate(args):
    if args.mode == "cmos":
        gray = formats.read_float_map(args.infile)
        params = CmosParams(gain_ratio=args.gain, quantum_efficiency=args.qe)
        formats.write_float_map(args.out, cmos_gray_to_photons(gray, params))
        print(f"wrote photon map {args.out}")
        return 0
    # qis-forward
    t0 = time.monotonic()
    man = _new_manifest(args, args.seed)
    man.add_input(args.infile)
    man.add_input(args.params)
    photons = formats.read_float_map(args.infile)
    params = _read_qis_params(args.params)
    out = qis_forward(photons, params, args.seed)
    formats.write_float_map(args.out, out)
    _finish(man, args.out, t0)
    print(f"wrote pixel map {args.out}")
    return 0


def _cmd_export_pgm(args):
    with open(args.infile, "rb") as f:
        magic = f.read(4)
    if magic == b"QBF1":
        formats.export_pgm_frame(args.out, formats.read_frame(args.infile))
    elif magic == b"QEX1":
        formats.export_pgm_map(args.out, formats.read_float_map(args.infile))
    else:
        raise DomainError(f"cannot export {magic!r} files as PGM")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qflow", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a binary frame from an exposure map")
    p.add_argument("--theta-const", type=float, default=None)
    p.add_argument("--size", default=None, help="WxH for --theta-const")
    p.add_argument("--in", dest="infile", default=None, help="QEX1 exposure map")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--sigma-r", type=float, default=0.25)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bracket", help="generate an exposure-bracketed burst")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--alphas", default="default")
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--sigma-r", type=float, default=0.25)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("density", help="bit density of a frame")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--boundary", choices=("zero-pad", "clamp"), default="zero-pad")
    p.add_argument("--out", default=None, help="optional QEX1 local density map")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("estimate", help="invert mean bit density to exposure")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--sigma-r", type=float, default=0.0)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("atoms", help="integrate filter atoms over an exposure interval")
    p.add_argument("--field", default=None, help="QVF1 field file")
    p.add_argument("--from", dest="theta_from", type=float, default=0.1)
    p.add_argument("--to", dest="theta_to", type=float, default=0.9)
    p.add_argument("--solver", choices=("dopri45", "rk4"), default="dopri45")
    p.add_argument("--rtol", type=float, default=1e-3)
    p.add_argument("--atol", type=float, default=1e-3)
    p.add_argument("--out", default="atoms.qtn")
    p.add_argument("--new-field", default=None, help="write a fresh seeded field here")
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_atoms)

    p = sub.add_parser("verify", help="run numerical bound verification suites")
    p.add_argument("--suite", choices=("layer-bound", "density", "continuity", "all"),
                   default="all")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report", default="report.json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("calibrate", help="camera conversions")
    csub = p.add_subparsers(dest="mode", required=True)
    c = csub.add_parser("cmos", help="gray level to photon count")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--gain", type=float, default=1.0)
    c.add_argument("--qe", type=float, default=0.68)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_calibrate, mode="cmos")
    c = csub.add_parser("qis-forward", help="forward pixel model")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--params", required=True, help="JSON with QisParams fields")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_calibrate, mode="qis-forward")

    p = sub.add_parser("export-pgm", help="export QEX1/QBF1 as 8-bit PGM")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_pgm)

    options = set()
    for action in parser._subparsers._group_actions:
        for sp in action.choices.values():
            for act in sp._actions:
                options.update(act.option_strings)
    _Parser.all_options = options
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QuantaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
