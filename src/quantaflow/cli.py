"""Command-line entry point (`qflow`).

Exit codes: 0 success, 1 domain/decode error, 2 usage error; each failure
is one stderr line, `error: ...` from `main` or `usage error: ...` from
`_Parser.error`. Randomized commands take --seed, an integer that `rng`
refuses outside [0, 2**64); `main` digests --in and --params, and writes
<output>.manifest.json next to the output. Each command imports its
modules when `main` dispatches to it, so parsing loads no NumPy.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import __version__
from .errors import QuantaError, DomainError

# `verify --suite` choices, spelled out so the parser loads no `verifier`.
SUITE_NAMES = ("layer-bound", "density", "continuity")


class _Parser(argparse.ArgumentParser):
    """argparse whose every usage error is one stderr line and exit 2. Each
    parser refuses its unknown flags, with a near miss from its own flags."""

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        if extras:
            import difflib
            close = [m for t in extras if t.startswith("-")
                     for m in difflib.get_close_matches(t, self._option_string_actions, n=1)]
            self.error(f"unrecognized arguments: {' '.join(extras)}"
                       + (f" (did you mean {close[0]}?)" if close else ""))
        return args, extras

    def error(self, message):
        self.exit(2, f"usage error: {self.prog}: {message}\n")


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _parse_size(text: str):
    from . import formats
    try:
        w, h = text.lower().split("x")
        w, h = int(w), int(h)
    except ValueError:
        raise DomainError(f"bad size {text!r}, expected WxH")
    if w < 1 or h < 1:
        raise DomainError(f"bad size {text!r}, width and height must be >= 1")
    if w * h > formats.MAX_PIXELS:
        raise DomainError(f"bad size {text!r}, more than {formats.MAX_PIXELS} pixels")
    return w, h


def _read_qis_params(path) -> QisParams:
    """QisParams from a JSON object of its fields."""
    import dataclasses
    import json
    from .calibration import QisParams
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
    from .bracketing import BracketSpec
    if text == "default":
        return BracketSpec()
    try:
        alphas = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise DomainError(f"bad --alphas {text!r}, expected 'default' or "
                          f"comma-separated numbers")
    return BracketSpec(alphas)


def _cmd_simulate(args):
    from . import formats
    from .sensor import ExposureMap, SensorConfig, mean_bit_density, sample_frame
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
    from . import formats
    from .bracketing import generate_burst
    from .sensor import SensorConfig
    emap = formats.read_exposure_map(args.infile)
    spec = _parse_alphas(args.alphas)
    burst = generate_burst(emap, spec, SensorConfig(args.q, args.sigma_r, args.seed))
    formats.write_burst(args.out, burst)
    print(f"wrote {args.out}: {len(burst)} frames, {burst.width}x{burst.height}")
    return 0


def _cmd_density(args):
    from . import formats
    from .sensor import NeighborhoodSpec, local_bit_density, mean_bit_density
    frame = formats.read_frame(args.infile)
    nb = NeighborhoodSpec(radius=args.radius, boundary=args.boundary)
    print(f"mean bit density: {mean_bit_density(frame):.9f}")
    if args.out:
        formats.write_float_map(args.out, local_bit_density(frame, nb).mu)
        print(f"wrote local density map {args.out} (radius {args.radius})")
    return 0


def _cmd_estimate(args):
    from . import formats
    from .sensor import invert_bit_density, mean_bit_density
    frame = formats.read_frame(args.infile)
    mu = mean_bit_density(frame)
    theta = invert_bit_density(mu, args.q, args.sigma_r)
    print(f"mu = {mu:.9f}")
    print(f"theta-hat = {theta:.9f}")
    return 0


def _cmd_atoms(args):
    from . import formats
    from .ode import AtomVectorField, SolverConfig, integrate_atoms
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
    import json
    from .verifier import SUITES
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
        f.write(json.dumps(payload, indent=2) + "\n")
    return 0 if all_hold else 1


def _cmd_cmos(args):
    from . import formats
    from .calibration import CmosParams, cmos_gray_to_photons
    gray = formats.read_float_map(args.infile)
    params = CmosParams(gain_ratio=args.gain, quantum_efficiency=args.qe)
    formats.write_float_map(args.out, cmos_gray_to_photons(gray, params))
    print(f"wrote photon map {args.out}")
    return 0


def _cmd_qis_forward(args):
    from . import formats
    from .calibration import qis_forward
    photons = formats.read_float_map(args.infile)
    params = _read_qis_params(args.params)
    out = qis_forward(photons, params, args.seed)
    formats.write_float_map(args.out, out)
    print(f"wrote pixel map {args.out}")
    return 0


def _cmd_export_pgm(args):
    from . import formats
    formats.export_pgm(args.out, args.infile)
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
    p.add_argument("--suite", choices=(*SUITE_NAMES, "all"), default="all")
    p.add_argument("--instances", type=positive_int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report", default="report.json")
    p.set_defaults(func=_cmd_verify, manifest="report")

    p = sub.add_parser("calibrate", help="camera conversions")
    csub = p.add_subparsers(dest="mode", required=True)
    c = csub.add_parser("cmos", parents=[infile], help="gray level to photon count")
    c.add_argument("--gain", type=float, default=1.0)
    c.add_argument("--qe", type=float, default=0.68)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_cmos)
    c = csub.add_parser("qis-forward", parents=[infile, seeded], help="forward pixel model")
    c.add_argument("--params", required=True, help="JSON with QisParams fields")
    c.set_defaults(func=_cmd_qis_forward, manifest="out")

    p = sub.add_parser("export-pgm", parents=[infile], help="export QEX1/QBF1 as 8-bit PGM")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_pgm)
    return parser


# One parser per process; `build_parser` stays uncached, so a caller can time it.
_parser = functools.cache(build_parser)


def _run_seeded(args, argv, output):
    """Run a randomized command: digest its inputs, run it, and write
    `<output>.manifest.json` unless it raised (a seed `rng` refuses too)."""
    from .manifest import file_digest, write_manifest
    t0 = time.monotonic()
    inputs = {path: file_digest(path)
              for path in (getattr(args, "infile", None), getattr(args, "params", None))
              if path is not None}
    rc = args.func(args)
    write_manifest(f"{output}.manifest.json", argv, args.seed, __version__, inputs,
                   output, time.monotonic() - t0)
    return rc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    output = args.manifest and getattr(args, args.manifest)
    if output is not None and args.seed is None:
        parser.error(f"{args.command} --{args.manifest.replace('_', '-')} requires --seed")
    try:
        if output is None:
            return args.func(args)
        return _run_seeded(args, argv, output)
    except (QuantaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
