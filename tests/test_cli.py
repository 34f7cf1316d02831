"""End-to-end tests for the `qflow` command-line interface."""

import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import quantaflow
from quantaflow import QisParams, cli, formats
from quantaflow.cli import main
from quantaflow.ode import AtomVectorField
from quantaflow.rng import TILE
from quantaflow.sensor import (BinaryFrame, NeighborhoodSpec, local_bit_density,
                               mean_bit_density)


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
        man = json.loads(Path(f"{out}.manifest.json").read_text())
        assert man["seed"] == 7
        assert str(out) in man["outputs"]
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

    def test_size_past_pixel_cap_is_refused_before_sampling(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(formats, "MAX_PIXELS", 64)
        monkeypatch.setattr("quantaflow.sensor.sample_frame", lambda *a: pytest.fail("sampled"))
        out = tmp_path / "f.qbf"
        rc = run(["simulate", "--theta-const", "1.0", "--size", "9x8",
                  "--seed", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: bad size '9x8', more than 64 pixels\n"
        assert not out.exists()
        assert not Path(f"{out}.manifest.json").exists()

    def test_size_at_pixel_cap_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "MAX_PIXELS", 64)
        out = tmp_path / "f.qbf"
        assert run(["simulate", "--theta-const", "1.0", "--size", "8x8",
                    "--seed", "0", "--out", str(out)]) == 0
        assert formats.read_frame(str(out)).bits.shape == (8, 1)

    # Sensors whose complement series would pass sensor.SERIES_CAP terms:
    # without the cap they overflowed, took seconds, or ran for minutes.
    @pytest.mark.parametrize("sensor", [["--q", "1e300", "--sigma-r", "0"],
                                        ["--sigma-r", "1e5"],
                                        ["--q", "1e9", "--sigma-r", "0"],
                                        ["--q", "1e7", "--sigma-r", "0.25"],
                                        ["--sigma-r", "1e300"]], ids=" ".join)
    @pytest.mark.parametrize("command", ["simulate", "bracket", "estimate"])
    def test_series_past_cap_is_domain_error(self, tmp_path, capsys, monkeypatch,
                                             command, sensor):
        monkeypatch.chdir(tmp_path)
        formats.write_float_map("scene.qex", np.full((2, 2), 1.0))
        formats.write_frame("f.qbf", BinaryFrame.from_array(np.eye(2)))
        argv = {"simulate": ["simulate", "--theta-const", "1", "--size", "2x2"],
                "bracket": ["bracket", "--in", "scene.qex"],
                "estimate": ["estimate", "--in", "f.qbf"]}[command]
        seeded = [] if command == "estimate" else ["--seed", "1", "--out", "out"]
        t0 = time.monotonic()
        assert run(argv + sensor + seeded) == 1
        assert time.monotonic() - t0 < 1.0
        assert one_error_line(capsys)
        assert sorted(os.listdir()) == ["f.qbf", "scene.qex"]


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
        man = json.loads(Path(f"{out}.manifest.json").read_text())
        assert man["seed"] == 2 ** 64 - 1
        assert man["outputs"] == [str(out)]
        digested = {argv[i + 1] for i, a in enumerate(argv) if a in ("--in", "--params")}
        assert set(man["inputs"]) == digested


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
        assert json.loads(Path(f"{out}.manifest.json").read_text())["command"] == argv


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

    @pytest.mark.parametrize("argv, err", [
        (["estimate", "--in", "f.qbf", "--rtol", "1"],
         "usage error: qflow estimate: unrecognized arguments: --rtol 1\n"),
        (["density", "--in", "f.qbf", "--sed", "1"],
         "usage error: qflow density: unrecognized arguments: --sed 1\n"),
        (["calibrate", "cmos", "--in", "g.qex", "--out", "o.qex", "--gian", "2"],
         "usage error: qflow calibrate cmos: unrecognized arguments: --gian 2 "
         "(did you mean --gain?)\n"),
    ], ids=["rtol-of-atoms", "seed-of-others", "nested-command"])
    def test_near_miss_from_own_flags(self, capsys, argv, err):
        # A flag of another command is no near miss: estimate has no --rtol,
        # density no --seed.
        with pytest.raises(SystemExit) as ei:
            run(argv)
        assert ei.value.code == 2
        assert capsys.readouterr().err == err


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

    @pytest.mark.parametrize("alphas", ["1,x", "0.5,,2", "1,1e39"])
    def test_bad_alphas_is_domain_error(self, tmp_path, capsys, alphas):
        emap_path = tmp_path / "scene.qex"
        formats.write_float_map(str(emap_path), np.full((4, 4), 2.0))
        out = tmp_path / "burst.qbb"
        rc = run(["bracket", "--in", str(emap_path), "--alphas", alphas,
                  "--seed", "5", "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys)
        assert not out.exists()
        assert not (tmp_path / "burst.qbb.manifest.json").exists()

    def test_negative_radius_rejected_without_out(self, tmp_path, capsys):
        frame_path = tmp_path / "f.qbf"
        run(["simulate", "--theta-const", "1.0", "--size", "8x8",
             "--seed", "2", "--out", str(frame_path)])
        capsys.readouterr()
        rc = run(["density", "--in", str(frame_path), "--radius", "-1"])
        assert rc == 1
        assert one_error_line(capsys)

    def test_radius_overflowing_an_int64_count_is_domain_error(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        formats.write_frame("tiny.qbf", BinaryFrame.from_array(np.eye(2)))
        assert run(["density", "--in", "tiny.qbf", "--radius", "3000000000",
                    "--out", "d.qex"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: radius") and captured.err.count("\n") == 1
        assert not Path("d.qex").exists()

    def test_radius_padding_past_pixel_cap_is_clipped(self, tmp_path, monkeypatch):
        # A 2x2 frame padded by r = 23170 on each side would pass
        # formats.MAX_PIXELS; neighborhood_ones clips r to the frame.
        monkeypatch.chdir(tmp_path)
        frame = BinaryFrame.from_array(np.eye(2))
        formats.write_frame("tiny.qbf", frame)
        assert run(["density", "--in", "tiny.qbf", "--radius", "23170", "--out", "d.qex"]) == 0
        expected = local_bit_density(frame, NeighborhoodSpec(23170)).mu.astype(np.float32)
        assert np.array_equal(formats.read_float_map("d.qex").astype(np.float32), expected)

    def test_pixel_cap_does_not_bound_the_padding(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "MAX_PIXELS", 64)
        monkeypatch.chdir(tmp_path)
        formats.write_frame("f.qbf", BinaryFrame.from_array(np.eye(8)))
        assert run(["density", "--in", "f.qbf", "--radius", "1", "--out", "d.qex"]) == 0
        assert formats.read_float_map("d.qex").shape == (8, 8)

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

    @pytest.mark.parametrize("m, k", [("-1", "3"), ("0", "3"), ("3", "0"),
                                      ("100000", "3"), ("3", "100000")])
    def test_bad_or_oversized_field_is_domain_error(self, tmp_path, capsys, m, k):
        out = tmp_path / "f.qvf"
        rc = run(["atoms", "--new-field", str(out), "--m", m, "--k", k, "--seed", "1"])
        assert rc == 1
        assert one_error_line(capsys)
        assert not out.exists()
        assert not (tmp_path / "f.qvf.manifest.json").exists()

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

    @pytest.mark.parametrize("flag", [["--rtol", "nan"], ["--atol", "inf"]],
                             ids=["rtol-nan", "atol-inf"])
    def test_non_finite_tolerance_is_domain_error(self, tmp_path, capsys, flag):
        field_path = tmp_path / "f.qvf"
        assert run(["atoms", "--new-field", str(field_path), "--seed", "9"]) == 0
        capsys.readouterr()
        out = tmp_path / "a.qtn"
        rc = run(["atoms", "--field", str(field_path), *flag, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "tolerances" in err
        assert not out.exists()

    def test_wrapping_init_dims_is_decode_error(self, tmp_path, capsys):
        # A valid header and stage blocks, then an embedded QTN1 whose dims
        # multiply to 671371 in int64 arithmetic, with that much data.
        field_path = tmp_path / "f.qvf"
        formats.write_field(str(field_path), AtomVectorField.seeded(1, 2, seed=3))
        n = 1 * 2 * 2  # the state size m*k*k
        head = field_path.read_bytes()[:16 + 6 * 4 * n * (n + 1)]
        field_path.write_bytes(head + b"QTN1" + struct.pack("<4I", 3, 3104227921, 3731840169,
                                                            236817699) + bytes(4 * 671371))
        out = tmp_path / "a.qtn"
        rc = run(["atoms", "--field", str(field_path), "--out", str(out)])
        assert rc == 1
        assert one_error_line(capsys)
        assert not out.exists()

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

    @pytest.mark.parametrize("reruns", [1, 2, 3])
    def test_report_identical_across_reruns(self, tmp_path, capsys, reruns):
        suites = []
        for rerun in range(reruns + 1):
            report = tmp_path / f"report{rerun}.json"
            rc = run(["verify", "--suite", "layer-bound", "--instances", "8",
                      "--seed", "33", "--report", str(report)])
            assert rc == 0
            suites.append(json.loads(report.read_text())["suites"])
        assert all(s == suites[0] for s in suites[1:])


class TestCalibrate:
    def test_cmos_conversion(self, tmp_path):
        src = tmp_path / "gray.qex"
        formats.write_float_map(str(src), np.full((4, 4), 68.0))
        out = tmp_path / "photons.qex"
        rc = run(["calibrate", "cmos", "--in", str(src), "--gain", "1.0",
                  "--qe", "0.68", "--out", str(out)])
        assert rc == 0
        assert np.allclose(formats.read_float_map(str(out)), 100.0)

    def test_overflowing_gain_clips_without_a_warning(self, tmp_path, capsys):
        # Two tiles, so a pool thread draws one where the process has two CPUs.
        src = tmp_path / "photons.qex"
        formats.write_float_map(str(src), np.tile([0.0, 50.0], TILE).reshape(2, TILE))
        params = tmp_path / "p.json"
        params.write_text('{"gain_ratio": 1e308, "exposure_time": 1.0}')
        out = tmp_path / "pixels.qex"
        assert run(["calibrate", "qis-forward", "--in", str(src), "--params", str(params),
                    "--seed", "17", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert np.unique(formats.read_float_map(str(out))).tolist() == [0.0, 2 ** 14 - 1]

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


    # A gain of 1e38 is finite, but 68 * 1e38 / 0.68 photons overflow float32.
    @pytest.mark.parametrize("gain", ["nan", "inf", "1e38"])
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
                                      '{"adc_bits": 2000}',
                                      '{"adc_bits": 3.5}',
                                      '{"adc_bits": true}',
                                      '{"clip_max": 1e-320}'])
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

    @pytest.mark.parametrize("bits", [0x7FC00000, 0x7F800000, 0xFF800000, 0x7F800001],
                             ids=["nan", "inf", "-inf", "snan"])
    def test_non_finite_map_is_decode_error(self, tmp_path, capsys, bits):
        # The float32 bits go in as written: a signalling NaN stays signalling.
        path = tmp_path / "m.qex"
        data = np.array([[0.0, 0.0], [1.0, 2.0]], dtype="<f4")
        data.view("<u4")[0, 1] = bits
        path.write_bytes(b"QEX1" + struct.pack("<II", 2, 2) + data.tobytes())
        pgm = tmp_path / "m.pgm"
        rc = run(["export-pgm", "--in", str(path), "--out", str(pgm)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: non-finite value in pixel data (at byte offset 16)\n"
        assert not pgm.exists()


# Bad flags (exit 2) and bad values or inputs (exit 1) for every subcommand.
# The files named are made by TestErrorContract; "out" is never made.
USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "simulate-q-abc": ["simulate", "--q", "abc", "--theta-const", "1", "--size", "2x2",
                       "--seed", "1", "--out", "out"],
    "simulate-no-seed": ["simulate", "--theta-const", "1", "--size", "2x2", "--out", "out"],
    "simulate-two-sources": ["simulate", "--theta-const", "1", "--in", "scene.qex",
                             "--seed", "1", "--out", "out"],
    "simulate-near-miss": ["simulate", "--theta-konst", "1", "--size", "2x2",
                           "--seed", "1", "--out", "out"],
    "bracket-no-in": ["bracket", "--seed", "1", "--out", "out"],
    "bracket-sigma-r-x": ["bracket", "--in", "scene.qex", "--sigma-r", "x",
                          "--seed", "1", "--out", "out"],
    "density-radius-1.5": ["density", "--in", "f.qbf", "--radius", "1.5"],
    "density-boundary-wrap": ["density", "--in", "f.qbf", "--boundary", "wrap"],
    "density-unknown-flag": ["density", "--in", "f.qbf", "--sed", "1"],
    "estimate-unknown-flag": ["estimate", "--in", "f.qbf", "--rtol", "1"],
    "atoms-solver-euler": ["atoms", "--solver", "euler"],
    "atoms-new-field-no-seed": ["atoms", "--new-field", "out"],
    "verify-suite-nope": ["verify", "--suite", "nope", "--seed", "1"],
    "verify-instances-0": ["verify", "--instances", "0", "--seed", "1"],
    "verify-seed-1.5": ["verify", "--instances", "1", "--seed", "1.5"],
    "calibrate-no-mode": ["calibrate"],
    "cmos-unknown-flag": ["calibrate", "cmos", "--in", "scene.qex", "--gian", "2",
                          "--out", "out"],
    "qis-forward-no-params": ["calibrate", "qis-forward", "--in", "scene.qex",
                              "--seed", "1", "--out", "out"],
    "export-pgm-no-out": ["export-pgm", "--in", "f.qbf"],
}
DOMAIN_ERRORS = {
    "simulate-q-1e300": ["simulate", "--theta-const", "1", "--size", "2x2", "--q", "1e300",
                         "--sigma-r", "0", "--seed", "1", "--out", "out"],
    "simulate-size-0x4": ["simulate", "--theta-const", "1", "--size", "0x4",
                          "--seed", "1", "--out", "out"],
    "simulate-truncated-in": ["simulate", "--in", "trunc.qex", "--seed", "1", "--out", "out"],
    "bracket-alphas": ["bracket", "--in", "scene.qex", "--alphas", "1,x",
                       "--seed", "1", "--out", "out"],
    "density-truncated-in": ["density", "--in", "trunc.qbf", "--out", "out"],
    "estimate-truncated-in": ["estimate", "--in", "trunc.qbf"],
    "estimate-missing-in": ["estimate", "--in", "nope.qbf"],
    "atoms-no-field": ["atoms", "--out", "out"],
    "verify-seed-2**64": ["verify", "--instances", "1", "--seed", str(2 ** 64),
                          "--report", "out"],
    # Instance seed 2**64 is refused where it keys its streams, not aliased.
    "verify-instances-past-2**64": ["verify", "--instances", "2", "--seed", str(2 ** 64 - 1),
                                    "--report", "out"],
    # edge.qex holds 0 and 3e38: theta * (1 / alpha) is NaN, then inf.
    "bracket-alphas-1e-320": ["bracket", "--in", "edge.qex", "--alphas", "1e-320",
                              "--seed", "1", "--out", "out"],
    "bracket-alphas-1e-300": ["bracket", "--in", "edge.qex", "--alphas", "1e-300",
                              "--seed", "1", "--out", "out"],
    "cmos-truncated-in": ["calibrate", "cmos", "--in", "trunc.qex", "--out", "out"],
    "cmos-qe-1e-320": ["calibrate", "cmos", "--in", "scene.qex", "--qe", "1e-320",
                       "--out", "out"],
    "cmos-gain-1e308": ["calibrate", "cmos", "--in", "scene.qex", "--gain", "1e308",
                        "--out", "out"],
    "qis-forward-bad-json": ["calibrate", "qis-forward", "--in", "scene.qex",
                             "--params", "bad.json", "--seed", "1", "--out", "out"],
    "qis-forward-noise-1e308": ["calibrate", "qis-forward", "--in", "scene.qex",
                                "--params", "noise.json", "--seed", "1", "--out", "out"],
    "qis-forward-clip-max-1e-320": ["calibrate", "qis-forward", "--in", "scene.qex",
                                    "--params", "clip.json", "--seed", "1", "--out", "out"],
    "export-pgm-truncated-in": ["export-pgm", "--in", "trunc.qbf", "--out", "out"],
}


class TestErrorContract:
    """Every failure is one stderr line, `usage error:` with exit 2 or `error:`
    with exit 1, and leaves no output file and no manifest."""

    @pytest.mark.parametrize("argv, code, prefix", [
        *((argv, 2, "usage error: qflow") for argv in USAGE_ERRORS.values()),
        *((argv, 1, "error: ") for argv in DOMAIN_ERRORS.values())],
        ids=[*USAGE_ERRORS, *DOMAIN_ERRORS])
    def test_one_line_and_no_files(self, tmp_path, capsys, monkeypatch, argv, code, prefix):
        monkeypatch.chdir(tmp_path)
        formats.write_float_map("scene.qex", np.full((4, 4), 2.0))
        formats.write_frame("f.qbf", BinaryFrame.from_array(np.eye(4)))
        Path("trunc.qex").write_bytes(Path("scene.qex").read_bytes()[:-3])
        Path("trunc.qbf").write_bytes(Path("f.qbf").read_bytes()[:-1])
        Path("bad.json").write_text('{"gain_ratio": 1.0,')
        formats.write_float_map("edge.qex", np.array([[0.0, 3e38]]))
        Path("noise.json").write_text('{"sigma_real_noise": 1e308}')
        Path("clip.json").write_text('{"clip_max": 1e-320}')
        inputs = sorted(os.listdir())
        try:
            rc = run(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == code
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        assert captured.out == ""
        assert sorted(os.listdir()) == inputs


EXTREMES = ("0", "-0.0", "1e-320", "1e308", "-1e308", "inf", "nan", "-1")
JSON_EXTREMES = {"inf": "Infinity", "nan": "NaN"}
# Each command with its numeric flags, over the inputs TestExtremeNumbers makes.
NUMERIC_FLAGS = {
    "simulate": (["simulate", "--theta-const", "1", "--size", "2x2", "--seed", "1",
                  "--out", "out"], ("--q", "--sigma-r", "--theta-const", "--seed")),
    "bracket": (["bracket", "--in", "edge.qex", "--alphas", "1,2", "--seed", "1",
                 "--out", "out"], ("--q", "--sigma-r", "--alphas", "--seed")),
    "estimate": (["estimate", "--in", "f.qbf"], ("--q", "--sigma-r")),
    "cmos": (["calibrate", "cmos", "--in", "small.qex", "--out", "out"], ("--gain", "--qe")),
}
QIS_ARGV = ["calibrate", "qis-forward", "--in", "small.qex", "--params", "p.json",
            "--seed", "1", "--out", "out"]
EXTREME_RUNS = {
    **{f"{name}{flag}={v}": ([*argv, f"{flag}={v}"], "{}")
       for name, (argv, flags) in NUMERIC_FLAGS.items() for flag in flags for v in EXTREMES},
    **{f"qis-forward-{f.name}={v}":
       (QIS_ARGV, f'{{"exposure_time": 1.0, "{f.name}": {JSON_EXTREMES.get(v, v)}}}')
       for f in dataclasses.fields(QisParams) for v in EXTREMES},
}


class TestExtremeNumbers:
    """Every numeric flag, and every QisParams field, at 0, the signed and
    the subnormal zeros, the extremes of float64, inf, NaN and -1: a run
    succeeds with nothing on stderr or fails with one line and no file."""

    @pytest.mark.parametrize("argv, params", EXTREME_RUNS.values(), ids=EXTREME_RUNS)
    def test_one_line_or_silent_success(self, tmp_path, capsys, monkeypatch, argv, params):
        monkeypatch.chdir(tmp_path)
        formats.write_float_map("edge.qex", np.array([[0.0, 1.0], [2.0, 3e38]]))
        formats.write_float_map("small.qex", np.array([[0.0, 1.0], [2.0, 50.0]]))
        formats.write_frame("f.qbf", BinaryFrame.from_array(np.eye(2)))
        Path("p.json").write_text(params)
        inputs = sorted(os.listdir())
        try:
            rc = run(argv)
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        if rc == 0:
            assert err == ""
        else:
            assert err.endswith("\n") and err.count("\n") == 1
            assert sorted(os.listdir()) == inputs


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
# The tile pool and its concurrent.futures import wait for the first frame
# of more than one tile: start-up loads neither.
assert not [m for m in sys.modules if m.startswith("concurrent.futures")]
import threading
assert threading.active_count() == 1
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


class TestTileWiseChecks:
    """The maps are checked one tile at a time, with the error a whole-map
    check gives: the first bad value of the file, and a domain check that
    covers the whole map before any tile is computed. No output is made."""

    SHAPE = (3, TILE // 2)  # a tile and a half

    def _fails(self, capsys, argv, message):
        inputs = sorted(os.listdir())
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(os.listdir()) == inputs

    def test_domain_check_comes_before_the_first_tile(self, tmp_path, capsys, monkeypatch):
        # 100 * 1e307 / 0.68 overflows float64 in the first tile; the last
        # tile holds a negative gray level, and that is the error.
        monkeypatch.chdir(tmp_path)
        gray = np.full(self.SHAPE, 100.0)
        gray[-1, -1] = -1.0
        formats.write_float_map("gray.qex", gray)
        self._fails(capsys, ["calibrate", "cmos", "--in", "gray.qex", "--gain", "1e307",
                             "--out", "photons.qex"], "gray levels must be finite and >= 0")

    @pytest.mark.parametrize("argv", [
        ["calibrate", "cmos", "--in", "m.qex", "--out", "out.qex"],
        ["calibrate", "qis-forward", "--in", "m.qex", "--params", "p.json", "--seed", "3",
         "--out", "out.qex"],
        ["export-pgm", "--in", "m.qex", "--out", "out.pgm"],
    ], ids=["cmos", "qis-forward", "export-pgm"])
    @pytest.mark.parametrize("bits", [0x7FC00000, 0xFF800000], ids=["nan", "-inf"])
    def test_non_finite_value_in_the_last_tile(self, tmp_path, capsys, monkeypatch, argv, bits):
        monkeypatch.chdir(tmp_path)
        data = np.full(self.SHAPE, 2.0, dtype="<f4")
        data.view("<u4")[-1, -2] = bits
        Path("m.qex").write_bytes(b"QEX1" + struct.pack("<II", *self.SHAPE[::-1]) + data.tobytes())
        Path("p.json").write_text("{}")
        offset = 12 + 4 * (data.size - 2)
        self._fails(capsys, argv, f"non-finite value in pixel data (at byte offset {offset})")


def test_one_parser_serves_every_command(tmp_path, monkeypatch):
    # `main` builds the parser once; a parse leaves nothing behind for the next.
    monkeypatch.chdir(tmp_path)
    formats.write_float_map("m.qex", np.full((4, 4), 2.0))
    argvs = [["simulate", "--in", "m.qex", "--seed", "1", "--out", "f.qbf"],
             ["density", "--in", "f.qbf", "--radius", "2", "--out", "d.qex"],
             ["simulate", "--theta-const", "1", "--size", "4x4", "--seed", "2", "--out", "g.qbf"],
             ["calibrate", "cmos", "--in", "m.qex", "--gain", "2", "--out", "c.qex"],
             ["density", "--in", "g.qbf"]]
    for argv in argvs:
        assert run(argv) == 0
        assert vars(cli._parser().parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    assert cli._parser() is cli._parser()


def fresh_python(script, cwd, *args):
    """Standard output of `script` run by a new interpreter in `cwd`, with
    `args` as its `sys.argv[1:]`."""
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# Builds the parser, or runs the command given as arguments, in a fresh
# interpreter, and lists what that loaded of quantaflow, numpy and difflib.
LOADS_SCRIPT = """
import json, sys
from quantaflow import cli

rc = 0
if sys.argv[1:]:
    try:
        rc = cli.main(sys.argv[1:])
    except SystemExit as exc:
        rc = exc.code
else:
    cli.build_parser()
print(rc)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("quantaflow."))))
print(json.dumps({m: m in sys.modules for m in ("numpy", "difflib")}))
"""

# Modules of other commands that each command must not load.
NOT_BY_FRAME_COMMANDS = {"bracketing", "filters", "ode", "verifier", "calibration"}
NOT_LOADED = {"simulate": NOT_BY_FRAME_COMMANDS, "density": NOT_BY_FRAME_COMMANDS,
              "estimate": NOT_BY_FRAME_COMMANDS, "export-pgm": NOT_BY_FRAME_COMMANDS,
              "verify": {"formats", "calibration"}}


class TestStartup:
    def test_parser_loads_no_numpy_and_no_command_module(self, tmp_path):
        *_, rc, modules, loaded = fresh_python(LOADS_SCRIPT, tmp_path)
        assert rc == "0"
        assert json.loads(modules) == ["quantaflow.cli", "quantaflow.errors"]
        assert json.loads(loaded) == {"numpy": False, "difflib": False}

    # The first misses --seed and --out; only the second reaches the
    # near-miss hint for an unknown flag, which loads difflib.
    @pytest.mark.parametrize("argv, difflib", [
        (["simulate", "--bogus"], False),
        (["simulate", "--seed", "1", "--out", "f.qbf", "--bogus"], True),
    ], ids=["missing-flags", "unknown-flag"])
    def test_usage_error_loads_no_numpy(self, tmp_path, argv, difflib):
        *_, rc, modules, loaded = fresh_python(LOADS_SCRIPT, tmp_path, *argv)
        assert rc == "2"
        assert json.loads(modules) == ["quantaflow.cli", "quantaflow.errors"]
        assert json.loads(loaded) == {"numpy": False, "difflib": difflib}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--theta-const", "1", "--size", "16x8", "--seed", "1", "--out", "f.qbf"],
        ["density", "--in", "g.qbf", "--out", "d.qex"],
        ["estimate", "--in", "g.qbf"],
        ["export-pgm", "--in", "g.qbf", "--out", "g.pgm"],
        ["verify", "--instances", "1", "--seed", "3", "--report", "r.json"],
    ], ids=lambda argv: argv[0])
    def test_command_loads_only_its_modules(self, tmp_path, argv):
        (tmp_path / "g.qbf").write_bytes(b"QBF1" + struct.pack("<II", 8, 2) + b"\x0f\xf0")
        *_, rc, modules, _ = fresh_python(LOADS_SCRIPT, tmp_path, *argv)
        assert rc == "0"
        loaded = {m.split(".")[1] for m in json.loads(modules)}
        assert not loaded & NOT_LOADED[argv[0]], loaded

    def test_no_scipy_outside_qis_forward(self, tmp_path):
        loaded = json.loads(fresh_python(STARTUP_SCRIPT, tmp_path)[-1])
        assert list(loaded) == ["import", "simulate", "bracket", "density",
                                "estimate", "verify", "calibrate"]
        assert all(mods == [] for mods in loaded.values()), loaded

    def test_cold_qis_forward_bytes(self, tmp_path):
        # The output of a process in which qis-forward is the first to load
        # SciPy: where and when SciPy loads must move no byte.
        *_, digest, optimize_loaded = fresh_python(QIS_SCRIPT, tmp_path)
        assert digest == "9c4dd35bd219f800adecb68262e994bd"
        assert optimize_loaded == "False"


#: Every public name of the package but its modules. A name stays public
#: only if a `qflow` command calls it or the README states a property of it
#: that a test checks, so adding or removing one is an edit of this list.
PUBLIC_NAMES = [
    "AtomVectorField", "BinaryFrame", "BracketSpec", "CmosParams", "Coefficients",
    "DEFAULT_ALPHAS", "DecodeError", "DensityMap", "DomainError", "EaclConfig",
    "ExposureBurst", "ExposureMap", "FeatureMap", "FilterAtoms", "IntegrationError",
    "NeighborhoodSpec", "QisParams", "QuantaError", "SensorConfig", "ShapeError",
    "SolverConfig", "UnidentifiableError", "bit_probability", "cmos_gray_to_photons",
    "compose_filters", "eacl_forward", "generate_burst", "integrate_atoms",
    "invert_bit_density", "local_bit_density", "mean_bit_density", "qis_forward",
    "sample_frame", "verify_exposure_continuity", "verify_layer_bound",
]


#: The modules the package lists in `__all__` beside PUBLIC_NAMES.
PUBLIC_MODULES = ["bracketing", "calibration", "errors", "filters", "ode", "rng",
                  "sensor", "verifier"]

# `dir(quantaflow)` and `from quantaflow import *` in a fresh interpreter,
# where no public name has been looked up yet.
SURFACE_SCRIPT = """
import json
import quantaflow
print(json.dumps([name for name in dir(quantaflow) if not name.startswith("_")]))
namespace = {}
exec("from quantaflow import *", namespace)
print(json.dumps(sorted(name for name in namespace if name != "__builtins__")))
"""


def test_public_surface_is_the_listed_names():
    names = [name for name in quantaflow.__all__
             if not isinstance(getattr(quantaflow, name), type(quantaflow))]
    assert sorted(names) == PUBLIC_NAMES
    assert quantaflow.__all__ == sorted([*PUBLIC_NAMES, *PUBLIC_MODULES])


def test_dir_and_star_import_list_the_public_surface(tmp_path):
    listed, star = map(json.loads, fresh_python(SURFACE_SCRIPT, tmp_path))
    assert listed == star == quantaflow.__all__
    with pytest.raises(AttributeError, match="has no attribute 'formatz'"):
        quantaflow.formatz


def test_suite_choices_are_the_verifier_suites():
    from quantaflow import verifier
    assert cli.SUITE_NAMES == tuple(verifier.SUITES)
