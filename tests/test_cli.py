"""End-to-end tests for the `qflow` command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantaflow
from quantaflow import formats
from quantaflow.cli import main
from quantaflow.manifest import RunManifest
from quantaflow.sensor import BinaryFrame, mean_bit_density


def run(argv):
    return main(argv)


def one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error:") and err.count("\n") == 1


class TestSimulate:
    def test_writes_frame_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "f.qbf"
        rc = run(["simulate", "--theta-const", "1.5", "--size", "64x48",
                  "--seed", "7", "--out", str(out)])
        assert rc == 0
        frame = formats.read_frame(str(out))
        assert (frame.width, frame.height) == (64, 48)
        man = RunManifest.load(f"{out}.manifest.json")
        assert man.seed == 7
        assert str(out) in man.outputs
        assert "mean density" in capsys.readouterr().out

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.qbf", tmp_path / "b.qbf"
        for out in (a, b):
            assert run(["simulate", "--theta-const", "2.0", "--size", "32x32",
                        "--seed", "11", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.qbf", tmp_path / "b.qbf"
        run(["simulate", "--theta-const", "2.0", "--size", "32x32",
             "--seed", "1", "--out", str(a)])
        run(["simulate", "--theta-const", "2.0", "--size", "32x32",
             "--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_missing_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            run(["simulate", "--theta-const", "1.0", "--size", "8x8",
                 "--out", str(tmp_path / "f.qbf")])
        assert ei.value.code == 2

    def test_bad_theta_is_domain_error(self, tmp_path, capsys):
        rc = run(["simulate", "--theta-const", "-1.0", "--size", "8x8",
                  "--seed", "0", "--out", str(tmp_path / "f.qbf")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0x4", "4x0", "-3x4"])
    def test_size_below_one_is_domain_error(self, tmp_path, capsys, size):
        out = tmp_path / "f.qbf"
        rc = run(["simulate", "--theta-const", "1.0", f"--size={size}",
                  "--seed", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: bad size") and err.count("\n") == 1
        assert "offset" not in err
        assert not out.exists()


# Each randomized command, with OUT, SCENE and PARAMS standing for paths.
SEEDED = {
    "simulate": ["simulate", "--theta-const", "1", "--size", "4x4", "--out", "OUT"],
    "bracket": ["bracket", "--in", "SCENE", "--alphas", "1,2", "--out", "OUT"],
    "atoms": ["atoms", "--m", "2", "--new-field", "OUT"],
    "verify": ["verify", "--instances", "1", "--report", "OUT"],
    "qis-forward": ["calibrate", "qis-forward", "--in", "SCENE", "--params", "PARAMS",
                    "--out", "OUT"],
}


class TestSeededContract:
    """What `main` does for every randomized command: seed range, manifest."""

    @staticmethod
    def argv(tmp_path, command, seed):
        scene, params = tmp_path / "scene.qex", tmp_path / "p.json"
        formats.write_float_map(str(scene), np.full((4, 4), 2.0))
        params.write_text('{"gain_ratio": 1.0}')
        paths = {"OUT": tmp_path / "out", "SCENE": scene, "PARAMS": params}
        argv = [str(paths.get(a, a)) for a in SEEDED[command]]
        return argv + ["--seed", str(seed)], paths["OUT"]

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("command", SEEDED)
    def test_seed_outside_64_bits_is_domain_error(self, tmp_path, capsys, command, seed):
        argv, out = self.argv(tmp_path, command, seed)
        assert run(argv) == 1
        assert one_error_line(capsys)
        assert not out.exists()
        assert not Path(f"{out}.manifest.json").exists()

    @pytest.mark.parametrize("command", SEEDED)
    def test_largest_seed_is_accepted(self, tmp_path, command):
        argv, out = self.argv(tmp_path, command, 2 ** 64 - 1)
        assert run(argv) == 0
        man = RunManifest.load(f"{out}.manifest.json")
        assert man.seed == 2 ** 64 - 1
        assert man.outputs == [str(out)]
        digested = {argv[i + 1] for i, a in enumerate(argv) if a in ("--in", "--params")}
        assert set(man.inputs) == digested


@pytest.mark.parametrize("command", [
    ["simulate"], ["bracket"], ["density"], ["estimate"], ["atoms"], ["verify"],
    ["calibrate"], ["calibrate", "cmos"], ["calibrate", "qis-forward"], ["export-pgm"]])
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as ei:
        run([*command, "--help"])
    assert ei.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: qflow {' '.join(command)} ")


class TestManifestCommand:
    def test_records_argv_given_to_main(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["host", "--some-host-flag"])
        out = tmp_path / "f.qbf"
        argv = ["simulate", "--theta-const", "1.0", "--size", "8x8",
                "--seed", "3", "--out", str(out)]
        assert run(argv) == 0
        assert RunManifest.load(f"{out}.manifest.json").command == argv


class TestSimulateSource:
    def test_theta_const_excludes_in(self, tmp_path, capsys):
        scene = tmp_path / "x.qex"
        formats.write_float_map(str(scene), np.full((2, 2), 1.0))
        out = tmp_path / "f.qbf"
        with pytest.raises(SystemExit) as ei:
            run(["simulate", "--theta-const", "1", "--size", "2x2", "--in", str(scene),
                 "--seed", "1", "--out", str(out)])
        assert ei.value.code == 2
        assert "not allowed with argument --theta-const" in capsys.readouterr().err
        assert not out.exists()


class TestUnknownFlag:
    def test_suggests_near_miss(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as ei:
            run(["simulate", "--theta-konst", "1.0", "--size", "8x8",
                 "--seed", "0", "--out", str(tmp_path / "f.qbf")])
        assert ei.value.code == 2
        assert "did you mean --theta-const?" in capsys.readouterr().err


class TestEstimate:
    def test_round_trip_theta(self, tmp_path, capsys):
        frame_path = tmp_path / "f.qbf"
        run(["simulate", "--theta-const", "0.8", "--size", "512x512",
             "--sigma-r", "0", "--seed", "3", "--out", str(frame_path)])
        rc = run(["estimate", "--in", str(frame_path), "--sigma-r", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        theta_hat = float(out.splitlines()[-1].split("=")[1])
        assert abs(theta_hat - 0.8) < 0.02

    def test_defaults_round_trip(self, tmp_path, capsys):
        # simulate and estimate share their --q/--sigma-r defaults.
        frame_path = tmp_path / "f.qbf"
        assert run(["simulate", "--theta-const", "0.5", "--size", "512x512",
                    "--seed", "1", "--out", str(frame_path)]) == 0
        assert run(["estimate", "--in", str(frame_path)]) == 0
        theta_hat = float(capsys.readouterr().out.splitlines()[-1].split("=")[1])
        assert abs(theta_hat - 0.5) < 0.005


class TestBracketAndDensity:
    def test_full_pipeline(self, tmp_path, capsys):
        emap_path = tmp_path / "scene.qex"
        formats.write_float_map(str(emap_path), np.full((16, 16), 2.0))
        burst_path = tmp_path / "burst.qbb"
        rc = run(["bracket", "--in", str(emap_path), "--seed", "5",
                  "--out", str(burst_path)])
        assert rc == 0
        burst = formats.read_burst(str(burst_path))
        assert len(burst) == 15
        # density on a single frame file
        frame_path = tmp_path / "f.qbf"
        formats.write_frame(str(frame_path), burst.frames[0])
        dens_path = tmp_path / "d.qex"
        rc = run(["density", "--in", str(frame_path), "--radius", "1",
                  "--out", str(dens_path)])
        assert rc == 0
        mu = formats.read_float_map(str(dens_path))
        assert mu.shape == (16, 16)
        assert np.all((mu >= 0) & (mu <= 1))
        reported = float(capsys.readouterr().out.splitlines()[-2].split(":")[1])
        assert reported == pytest.approx(mean_bit_density(burst.frames[0]))

    @pytest.mark.parametrize("alphas", ["1,x", "0.5,,2"])
    def test_bad_alphas_is_domain_error(self, tmp_path, capsys, alphas):
        emap_path = tmp_path / "scene.qex"
        formats.write_float_map(str(emap_path), np.full((4, 4), 2.0))
        out = tmp_path / "burst.qbb"
        rc = run(["bracket", "--in", str(emap_path), "--alphas", alphas,
                  "--seed", "5", "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys)
        assert not out.exists()

    def test_negative_radius_rejected_without_out(self, tmp_path, capsys):
        frame_path = tmp_path / "f.qbf"
        run(["simulate", "--theta-const", "1.0", "--size", "8x8",
             "--seed", "2", "--out", str(frame_path)])
        capsys.readouterr()
        rc = run(["density", "--in", str(frame_path), "--radius", "-1"])
        assert rc == 1
        assert one_error_line(capsys)

    @pytest.mark.parametrize("argv", [["--radius", "3000000000", "--out", "d.qex"],
                                      ["--radius", "23170"]])
    def test_radius_past_pixel_cap_is_domain_error(self, tmp_path, capsys, monkeypatch,
                                                   argv):
        # A 2x2 frame padded by r on each side has (2 + 2r)^2 pixels; r = 23170
        # is the first radius past formats.MAX_PIXELS.
        monkeypatch.chdir(tmp_path)
        formats.write_frame("tiny.qbf", BinaryFrame.from_array(np.eye(2)))
        assert run(["density", "--in", "tiny.qbf", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --radius") and captured.err.count("\n") == 1
        assert not Path("d.qex").exists()

    def test_radius_at_pixel_cap_is_accepted_without_out(self, tmp_path, capsys):
        frame_path = tmp_path / "tiny.qbf"
        formats.write_frame(str(frame_path), BinaryFrame.from_array(np.eye(2)))
        assert run(["density", "--in", str(frame_path), "--radius", "23169"]) == 0
        assert capsys.readouterr().out == "mean bit density: 0.500000000\n"


class TestAtoms:
    def test_new_field_requires_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            run(["atoms", "--new-field", str(tmp_path / "f.qvf")])
        assert ei.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_negative_seed_is_domain_error(self, tmp_path, capsys):
        out = tmp_path / "v.qvf"
        rc = run(["atoms", "--new-field", str(out), "--seed", "-1"])
        assert rc == 1
        assert one_error_line(capsys)
        assert not out.exists()

    def test_create_then_integrate(self, tmp_path):
        field_path = tmp_path / "f.qvf"
        rc = run(["atoms", "--new-field", str(field_path), "--m", "4",
                  "--k", "3", "--seed", "9"])
        assert rc == 0
        out = tmp_path / "atoms.qtn"
        rc = run(["atoms", "--field", str(field_path), "--from", "0.1",
                  "--to", "0.7", "--out", str(out)])
        assert rc == 0
        data = formats.read_tensor(str(out))
        assert data.shape == (4, 3, 3)
        assert np.all(np.isfinite(data))

    def test_rk4_close_to_dopri(self, tmp_path):
        field_path = tmp_path / "f.qvf"
        run(["atoms", "--new-field", str(field_path), "--seed", "13"])
        a, b = tmp_path / "a.qtn", tmp_path / "b.qtn"
        run(["atoms", "--field", str(field_path), "--solver", "dopri45",
             "--out", str(a)])
        run(["atoms", "--field", str(field_path), "--solver", "rk4",
             "--out", str(b)])
        da, db = formats.read_tensor(str(a)), formats.read_tensor(str(b))
        assert np.linalg.norm(da - db) < 1e-3 * max(1.0, np.linalg.norm(da))

    def test_missing_field_is_domain_error(self, capsys, tmp_path):
        rc = run(["atoms", "--out", str(tmp_path / "a.qtn")])
        assert rc == 1
        assert "--field" in capsys.readouterr().err


class TestVerify:
    def test_all_suites_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = run(["verify", "--suite", "all", "--instances", "3",
                  "--seed", "21", "--report", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["all_hold"] is True
        assert set(payload["suites"]) == {"layer-bound", "density", "continuity"}
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    @pytest.mark.parametrize("instances", ["0", "-3"])
    def test_instances_below_one_is_usage_error(self, tmp_path, capsys, instances):
        report = tmp_path / "report.json"
        with pytest.raises(SystemExit) as ei:
            run(["verify", "--instances", instances, "--seed", "1",
                 "--report", str(report)])
        assert ei.value.code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "--instances" in err
        assert not report.exists()

    def test_negative_seed_is_domain_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = run(["verify", "--instances", "1", "--seed", "-1",
                  "--report", str(report)])
        assert rc == 1
        assert one_error_line(capsys)
        assert not report.exists()

    @pytest.mark.parametrize("threads", ["1", "4", "16"])
    def test_thread_count_does_not_change_report(self, tmp_path, monkeypatch,
                                                 threads, capsys):
        monkeypatch.setenv("QF_THREADS", threads)
        report = tmp_path / "report.json"
        rc = run(["verify", "--suite", "layer-bound", "--instances", "8",
                  "--seed", "33", "--report", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        # drop timing-ish free text; reports themselves must be identical
        key = json.dumps(payload["suites"], sort_keys=True)
        if not hasattr(TestVerify, "_ref"):
            TestVerify._ref = key
        assert key == TestVerify._ref


class TestCalibrate:
    def test_cmos_conversion(self, tmp_path):
        src = tmp_path / "gray.qex"
        formats.write_float_map(str(src), np.full((4, 4), 68.0))
        out = tmp_path / "photons.qex"
        rc = run(["calibrate", "cmos", "--in", str(src), "--gain", "1.0",
                  "--qe", "0.68", "--out", str(out)])
        assert rc == 0
        assert np.allclose(formats.read_float_map(str(out)), 100.0)

    def test_qis_forward(self, tmp_path):
        src = tmp_path / "photons.qex"
        formats.write_float_map(str(src), np.full((32, 32), 50.0))
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"gain_ratio": 1.0,
                                      "quantum_efficiency": 0.68,
                                      "exposure_time": 1.0,
                                      "dark_signal": 0.0,
                                      "sigma_real_noise": 0.0}))
        out = tmp_path / "pixels.qex"
        rc = run(["calibrate", "qis-forward", "--in", str(src),
                  "--params", str(params), "--seed", "17", "--out", str(out)])
        assert rc == 0
        vals = formats.read_float_map(str(out))
        assert abs(vals.mean() - 50.0 * 0.68) < 4 * math.sqrt(50 * 0.68 / vals.size)


    @pytest.mark.parametrize("gain", ["nan", "inf"])
    def test_cmos_non_finite_gain_is_domain_error(self, tmp_path, capsys, gain):
        src = tmp_path / "gray.qex"
        formats.write_float_map(str(src), np.full((4, 4), 68.0))
        out = tmp_path / "photons.qex"
        rc = run(["calibrate", "cmos", "--in", str(src), "--gain", gain,
                  "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"gain": 1}', '{gain', '[1,2]',
                                      '{"gain_ratio": "x"}',
                                      '{"dark_signal": NaN}',
                                      '{"exposure_time": Infinity}',
                                      '{"exposure_time": 1e300}',
                                      '{"adc_bits": 2000}'])
    def test_bad_params_is_domain_error(self, tmp_path, capsys, text):
        src = tmp_path / "photons.qex"
        formats.write_float_map(str(src), np.full((4, 4), 50.0))
        params = tmp_path / "p.json"
        params.write_text(text)
        out = tmp_path / "pixels.qex"
        rc = run(["calibrate", "qis-forward", "--in", str(src),
                  "--params", str(params), "--seed", "17", "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys)
        assert not out.exists()


class TestExportPgm:
    def test_frame_and_map(self, tmp_path):
        frame_path = tmp_path / "f.qbf"
        run(["simulate", "--theta-const", "1.0", "--size", "12x10",
             "--seed", "2", "--out", str(frame_path)])
        pgm = tmp_path / "f.pgm"
        assert run(["export-pgm", "--in", str(frame_path),
                    "--out", str(pgm)]) == 0
        header = pgm.read_bytes()
        assert header.startswith(b"P5")

        emap_path = tmp_path / "m.qex"
        formats.write_float_map(str(emap_path),
                                np.linspace(0, 4, 20).reshape(4, 5))
        pgm2 = tmp_path / "m.pgm"
        assert run(["export-pgm", "--in", str(emap_path),
                    "--out", str(pgm2)]) == 0
        assert pgm2.read_bytes().startswith(b"P5")

    def test_rejects_other_formats(self, tmp_path, capsys):
        path = tmp_path / "x.qtn"
        formats.write_tensor(str(path), np.zeros((2, 3, 3)))
        rc = run(["export-pgm", "--in", str(path), "--out",
                  str(tmp_path / "x.pgm")])
        assert rc == 1
        assert "cannot export" in capsys.readouterr().err


class TestMissingFile:
    def test_nonexistent_input_returns_one(self, tmp_path, capsys):
        rc = run(["estimate", "--in", str(tmp_path / "nope.qbf")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


SRC = str(Path(quantaflow.__file__).resolve().parent.parent)

# Loads the CLI and runs every command but qis-forward through cli.main in
# one fresh interpreter, listing the SciPy modules loaded at each point.
STARTUP_SCRIPT = """
import json, sys
import numpy as np
from quantaflow import cli, formats

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

cli.build_parser()
loaded = {"import": scipy_modules()}
formats.write_float_map("scene.qex", np.full((32, 32), 2.0))
for argv in (
        ["simulate", "--in", "scene.qex", "--seed", "1", "--out", "f.qbf"],
        ["bracket", "--in", "scene.qex", "--seed", "2", "--out", "b.qbb"],
        ["density", "--in", "f.qbf", "--radius", "2", "--out", "d.qex"],
        ["estimate", "--in", "f.qbf", "--sigma-r", "0.25"],
        ["verify", "--instances", "1", "--seed", "3", "--report", "r.json"],
        ["calibrate", "cmos", "--in", "scene.qex", "--out", "c.qex"]):
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""

# qis-forward in a fresh interpreter, where it is the first to load SciPy.
QIS_SCRIPT = """
import hashlib, json, sys
import numpy as np
from quantaflow import cli, formats

formats.write_float_map("photons.qex", np.linspace(0.0, 75.0, 48 * 40).reshape(40, 48))
with open("p.json", "w") as f:
    json.dump({"gain_ratio": 0.5, "exposure_time": 1.0, "dark_signal": 0.3,
               "sigma_real_noise": 1.5}, f)
assert "scipy" not in sys.modules
assert cli.main(["calibrate", "qis-forward", "--in", "photons.qex", "--params", "p.json",
                 "--seed", "8", "--out", "o.qex"]) == 0
with open("o.qex", "rb") as f:
    print(hashlib.blake2b(f.read(), digest_size=16).hexdigest())
print("scipy.optimize" in sys.modules)
"""


def fresh_python(script, cwd):
    """Standard output of `script` run by a new interpreter in `cwd`."""
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


class TestStartup:
    def test_no_scipy_outside_qis_forward(self, tmp_path):
        loaded = json.loads(fresh_python(STARTUP_SCRIPT, tmp_path)[-1])
        assert list(loaded) == ["import", "simulate", "bracket", "density",
                                "estimate", "verify", "calibrate"]
        assert all(mods == [] for mods in loaded.values()), loaded

    def test_cold_qis_forward_bytes(self, tmp_path):
        # Digest of the same command's output when rng imported SciPy at
        # module level: loading it lazily changes no byte.
        *_, digest, optimize_loaded = fresh_python(QIS_SCRIPT, tmp_path)
        assert digest == "d18914dffc5fedebc60dc64db50d13a4"
        assert optimize_loaded == "False"
