import hashlib
import json
from pathlib import Path

import numpy as np

from quantaflow import formats
from quantaflow.cli import main
from quantaflow.manifest import file_digest, write_manifest


def test_digest_matches_blake2b_reference(tmp_path):
    data = bytes(range(256)) * 4099  # spans more than one read chunk
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    expected = hashlib.blake2b(data, digest_size=16).hexdigest()
    assert file_digest(path) == f"blake2b:{expected}"


def test_write_manifest_text(tmp_path):
    path = tmp_path / "f.qbf.manifest.json"
    write_manifest(path, ["simulate", "--seed", "3"], 3, "0.5.0",
                   {"x.qex": "blake2b:00", "p.json": "blake2b:ff"}, "f.qbf", 0.25)
    assert path.read_text() == """{
  "command": [
    "simulate",
    "--seed",
    "3"
  ],
  "duration_s": 0.25,
  "inputs": {
    "p.json": "blake2b:ff",
    "x.qex": "blake2b:00"
  },
  "outputs": [
    "f.qbf"
  ],
  "seed": 3,
  "version": "0.5.0"
}
"""


def test_input_overwritten_by_output_keeps_its_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    formats.write_float_map("x.qex", np.full((4, 4), 2.0))
    before = file_digest("x.qex")
    assert main(["simulate", "--in", "x.qex", "--seed", "1", "--out", "x.qex"]) == 0
    assert file_digest("x.qex") != before
    manifest = json.loads(Path("x.qex.manifest.json").read_text())
    assert manifest["inputs"] == {"x.qex": before}
