"""Command-line entry point (`qflow`).

Exit codes: 0 success, 1 domain/decode error, 2 usage error. Randomized
commands take --seed, an integer in [0, 2**64); `main` checks it, digests
--in and --params, and writes <output>.manifest.json next to the output.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import sys
import time

from . import __version__, formats
from .bracketing import BracketSpec, generate_burst
from .calibration import CmosParams, QisParams, cmos_gray_to_photons, qis_forward
from .errors import QuantaError, DomainError
from .manifest import RunManifest
from .ode import AtomVectorField, SolverConfig, integrate_atoms
from .sensor import (ExposureMap, NeighborhoodSpec, SensorConfig,
                     invert_bit_density, local_bit_density, mean_bit_density,
                     sample_frame)
from .verifier import SUITES

# Seeds name 64-bit substream keys, so only [0, 2**64) names distinct streams.
SEED_LIMIT = 2 ** 64


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
    try:
        alphas = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise DomainError(f"bad --alphas {text!r}, expected 'default' or "
                          f"comma-separated numbers")
    return BracketSpec(alphas)


def _cmd_simulate(args):
    if args.theta_const is not None:
        if args.size is None:
            raise DomainError("--theta-const requires --size WxH")
        emap = ExposureMap.constant(*_parse_size(args.size), args.theta_const)
    elif args.infile is not None:
        emap = formats.read_exposure_map(args.infile)
    else:
        raise DomainError("need --theta-const with --size, or --in scene.qex")
    frame = sample_frame(emap, SensorConfig(args.q, args.sigma_r, args.seed))
    formats.write_frame(args.out, frame)
    print(f"wrote {args.out}: {frame.width}x{frame.height}, "
          f"mean density {mean_bit_density(frame):.6f}")
    return 0


def _cmd_bracket(args):
    emap = formats.read_exposure_map(args.infile)
    spec = _parse_alphas(args.alphas)
    burst = generate_burst(emap, spec, SensorConfig(args.q, args.sigma_r, args.seed))
    formats.write_burst(args.out, burst)
    print(f"wrote {args.out}: {len(burst)} frames, {burst.width}x{burst.height}")
    return 0


def _cmd_density(args):
    nb = NeighborhoodSpec(radius=args.radius, boundary=args.boundary)
    frame = formats.read_frame(args.infile)
    pad = 2 * args.radius
    if (frame.width + pad) * (frame.height + pad) > formats.MAX_PIXELS:
        raise DomainError(f"--radius {args.radius} pads the {frame.width}x{frame.height} "
                          f"frame past {formats.MAX_PIXELS} pixels")
    print(f"mean bit density: {mean_bit_density(frame):.9f}")
    if args.out:
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
        field_ = AtomVectorField.seeded(args.m, args.k, args.seed)
        formats.write_field(args.new_field, field_)
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


def _cmd_verify(args):
    if args.instances < 1:
        print(f"usage error: --instances must be >= 1, got {args.instances}",
              file=sys.stderr)
        raise SystemExit(2)
    suites = SUITES if args.suite == "all" else (args.suite,)
    payload = {"seed": args.seed, "instances": args.instances, "suites": {}}
    all_hold = True
    for suite in suites:
        reports = SUITES[suite](args.instances, args.seed)
        ok = all(r["holds"] for r in reports)
        all_hold &= ok
        payload["suites"][suite] = {"all_hold": ok, "reports": reports}
        print(f"suite {suite}: {'PASS' if ok else 'FAIL'} ({len(reports)} checks)")
    payload["all_hold"] = all_hold
    with open(args.report, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    return 0 if all_hold else 1


def _cmd_calibrate(args):
    if args.mode == "cmos":
        gray = formats.read_float_map(args.infile)
        params = CmosParams(gain_ratio=args.gain, quantum_efficiency=args.qe)
        formats.write_float_map(args.out, cmos_gray_to_photons(gray, params))
        print(f"wrote photon map {args.out}")
        return 0
    # qis-forward
    photons = formats.read_float_map(args.infile)
    params = _read_qis_params(args.params)
    out = qis_forward(photons, params, args.seed)
    formats.write_float_map(args.out, out)
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


def _add_in(container, required=True):
    container.add_argument("--in", dest="infile", required=required, help="input file")


def build_parser() -> _Parser:
    parser = _Parser(prog="qflow", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(manifest=None)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands. A subcommand whose `manifest`
    # default names an output flag is randomized: see `_run_seeded`.
    sensor = argparse.ArgumentParser(add_help=False)
    sensor.add_argument("--q", type=float, default=0.5, help="ADC threshold")
    sensor.add_argument("--sigma-r", type=float, default=0.25, help="read-noise sigma")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, required=True)
    seeded.add_argument("--out", required=True)
    infile = argparse.ArgumentParser(add_help=False)
    _add_in(infile)

    p = sub.add_parser("simulate", parents=[sensor, seeded],
                       help="sample a binary frame from an exposure map")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--theta-const", type=float, default=None)
    _add_in(source, required=False)
    p.add_argument("--size", default=None, help="WxH for --theta-const")
    p.set_defaults(func=_cmd_simulate, manifest="out")

    p = sub.add_parser("bracket", parents=[infile, sensor, seeded],
                       help="generate an exposure-bracketed burst")
    p.add_argument("--alphas", default="default")
    p.set_defaults(func=_cmd_bracket, manifest="out")

    p = sub.add_parser("density", parents=[infile], help="bit density of a frame")
    p.add_argument("--radius", type=int, default=1)
    p.add_argument("--boundary", choices=("zero-pad", "clamp"), default="zero-pad")
    p.add_argument("--out", default=None, help="optional QEX1 local density map")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("estimate", parents=[infile, sensor],
                       help="invert mean bit density to exposure")
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
    p.add_argument("--seed", type=int, default=None, help="required by --new-field")
    p.set_defaults(func=_cmd_atoms, manifest="new_field")

    p = sub.add_parser("verify", help="run numerical bound verification suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report", default="report.json")
    p.set_defaults(func=_cmd_verify, manifest="report")

    p = sub.add_parser("calibrate", help="camera conversions")
    csub = p.add_subparsers(dest="mode", required=True)
    c = csub.add_parser("cmos", parents=[infile], help="gray level to photon count")
    c.add_argument("--gain", type=float, default=1.0)
    c.add_argument("--qe", type=float, default=0.68)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_calibrate, mode="cmos")
    c = csub.add_parser("qis-forward", parents=[infile, seeded], help="forward pixel model")
    c.add_argument("--params", required=True, help="JSON with QisParams fields")
    c.set_defaults(func=_cmd_calibrate, mode="qis-forward", manifest="out")

    p = sub.add_parser("export-pgm", parents=[infile], help="export QEX1/QBF1 as 8-bit PGM")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_pgm)

    options = set()
    for action in parser._subparsers._group_actions:
        for sp in action.choices.values():
            for act in sp._actions:
                options.update(act.option_strings)
    _Parser.all_options = options
    return parser


def _run_seeded(args, argv, output):
    """Run a randomized command: check its seed, digest its inputs, run it,
    and write `<output>.manifest.json` unless it raised."""
    if args.seed is None:
        print(f"usage error: --{args.manifest.replace('_', '-')} requires --seed",
              file=sys.stderr)
        raise SystemExit(2)
    if not 0 <= args.seed < SEED_LIMIT:
        raise DomainError(f"--seed must be in [0, 2**64), got {args.seed}")
    t0 = time.monotonic()
    man = RunManifest(command=argv, seed=args.seed, version=__version__)
    for path in (getattr(args, "infile", None), getattr(args, "params", None)):
        if path is not None:
            man.add_input(path)
    rc = args.func(args)
    man.duration_s = time.monotonic() - t0
    man.outputs.append(str(output))
    man.write(f"{output}.manifest.json")
    return rc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    output = args.manifest and getattr(args, args.manifest)
    try:
        if output is None:
            return args.func(args)
        return _run_seeded(args, argv, output)
    except (QuantaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
