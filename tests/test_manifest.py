import hashlib

import pytest

from quantaflow import DomainError
from quantaflow.manifest import RunManifest, file_digest


def test_digest_matches_blake2b_reference(tmp_path):
    data = bytes(range(256)) * 4099  # spans more than one read chunk
    path = tmp_path / "input.bin"
    path.write_bytes(data)
    expected = hashlib.blake2b(data, digest_size=16).hexdigest()
    assert file_digest(path) == f"blake2b:{expected}"


def test_verify_inputs_detects_one_byte_change(tmp_path):
    path = tmp_path / "scene.qex"
    path.write_bytes(b"QEX1" + bytes(64))
    man = RunManifest(command=["simulate"], seed=1, version="test")
    man.add_input(path)
    man.verify_inputs()
    data = bytearray(path.read_bytes())
    data[40] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(DomainError, match="digest mismatch"):
        man.verify_inputs()
