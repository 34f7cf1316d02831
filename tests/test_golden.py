"""Golden set: every output byte of a fixed list of `qflow` commands.

`COMMANDS` runs in order through `cli.main` in an empty working directory,
with relative paths, on inputs built from closed forms (no random
generator). For each command `golden.json` holds its argv, exit code, the
blake2b digest of its output file and of its stdout and, for a seeded
command, of its manifest with `duration_s` masked.

The digests are for this host's default numpy dispatch and BLAS kernel:
the last bits of `verify` reports can move with either (ROADMAP item 9).

A change that moves an output byte on purpose (a version bump) rewrites
the file, so its diff shows what moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np

from quantaflow import cli, formats

GOLDEN = Path(__file__).resolve().with_name("golden.json")
WIDTH, HEIGHT = 256, 192

COMMANDS = [
    ["simulate", "--theta-const", "1.5", "--size", f"{WIDTH}x{HEIGHT}", "--seed", "7",
     "--out", "const.qbf"],
    ["simulate", "--in", "scene.qex", "--seed", str(2 ** 64 - 1), "--out", "scene.qbf"],
    # The tie with 1 - p(1000) = 0 fires at any u. Up to 0.6.x this seed drew
    # u = 0 there; test_rng.py now finds a u = 0 pixel by inverting the mixer.
    ["simulate", "--theta-const", "1000", "--size", "1x1", "--sigma-r", "0",
     "--seed", "15485907386658061715", "--out", "tie.qbf"],
    ["bracket", "--in", "scene.qex", "--seed", "3", "--out", "burst.qbb"],
    # Sensor settings off the default q and sigma_r, each with its own series.
    ["simulate", "--in", "scene.qex", "--q", "3", "--sigma-r", "1", "--seed", "11",
     "--out", "q3.qbf"],
    ["bracket", "--in", "scene.qex", "--q", "1", "--sigma-r", "0", "--seed", "13",
     "--out", "q1.qbb"],
    # q + 9 sigma_r = 245: 246 series terms, near SERIES_CAP.
    ["simulate", "--theta-const", "230", "--size", "64x64", "--q", "200", "--sigma-r", "5",
     "--seed", "17", "--out", "q200.qbf"],
    ["estimate", "--in", "const.qbf", "--sigma-r", "0"],
    ["estimate", "--in", "const.qbf", "--q", "1.0"],
    ["density", "--in", "scene.qbf", "--radius", "2", "--out", "zero.qex"],
    ["density", "--in", "scene.qbf", "--radius", "2", "--boundary", "clamp",
     "--out", "clamp.qex"],
    ["atoms", "--new-field", "field.qvf", "--seed", "5"],
    ["atoms", "--field", "field.qvf", "--solver", "dopri45", "--out", "dopri.qtn"],
    ["atoms", "--field", "field.qvf", "--solver", "rk4", "--out", "rk4.qtn"],
    ["verify", "--seed", "7", "--instances", "100", "--report", "pass.json"],
    # Exit 1 up to 0.5.0 (D(delta) tied under relu); its instances were redrawn in 0.6.0.
    ["verify", "--seed", "2053297607", "--instances", "100", "--report", "fail.json"],
    # Instance 3616: D(delta) ties at every offset under relu, so `decreasing` fails.
    ["verify", "--seed", "3600", "--instances", "100", "--report", "tie.json"],
    # Exit 1 on correct arithmetic (ROADMAP item 3): D(delta) ties at the
    # first two offsets under relu, in instances 2022405251 and 1532985257.
    ["verify", "--seed", "2022405154", "--instances", "100", "--report", "tie2.json"],
    ["verify", "--seed", "1532985224", "--instances", "100", "--report", "tie3.json"],
    ["calibrate", "cmos", "--in", "gray.qex", "--out", "photons.qex"],
    ["calibrate", "qis-forward", "--in", "photons.qex", "--params", "qis.json",
     "--seed", "9", "--out", "pixels.qex"],
    # Rates of about 0-190: counts from rng's count table and from past its top, 64.
    ["calibrate", "qis-forward", "--in", "photons.qex", "--params", "qis3.json",
     "--seed", "9", "--out", "pixels3.qex"],
    ["export-pgm", "--in", "scene.qbf", "--out", "frame.pgm"],
    ["export-pgm", "--in", "clamp.qex", "--out", "map.pgm"],
]
OUTPUT_FLAGS = ("--out", "--report", "--new-field")


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def write_inputs():
    """The input files, in the working directory: dyadic ramps and a
    periodic gray pattern, exact in float32."""
    y, x = np.mgrid[:HEIGHT, :WIDTH]
    formats.write_float_map("scene.qex", (y + 2 * x) / 64.0)
    formats.write_float_map("gray.qex", ((x + 3 * y) % 64).astype(np.float64))
    Path("qis.json").write_text(json.dumps({"gain_ratio": 0.5, "exposure_time": 1.0,
                                            "dark_signal": 0.3, "sigma_real_noise": 1.5}))
    Path("qis3.json").write_text(json.dumps({"gain_ratio": 0.5, "exposure_time": 3.0,
                                             "dark_signal": 0.3, "sigma_real_noise": 1.5}))


def run_commands() -> list:
    """One golden entry per command of `COMMANDS`, run in the working directory."""
    write_inputs()
    entries = []
    for argv in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        flags = [i for i, a in enumerate(argv) if a in OUTPUT_FLAGS]
        out = argv[flags[0] + 1] if flags else None
        manifest = None
        if "--seed" in argv:
            text = Path(f"{out}.manifest.json").read_text()
            manifest = _digest(re.sub(r'"duration_s": [^,\n]+', '"duration_s": 0',
                                      text).encode())
        entries.append({"argv": argv, "exit": rc,
                        "output": out and _digest(Path(out).read_bytes()),
                        "stdout": _digest(stdout.getvalue().encode()),
                        "manifest": manifest})
    return entries


def test_golden_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_commands() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            entries = run_commands()
        finally:
            os.chdir(here)
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"wrote {GOLDEN}: {len(entries)} commands")
