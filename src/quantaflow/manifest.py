"""Run manifests: enough metadata to reproduce any output file bit-for-bit."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .errors import DomainError


def file_digest(path) -> str:
    """blake2b-128 of the file's bytes, tagged with the algorithm."""
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return f"blake2b:{h.hexdigest()}"


@dataclass
class RunManifest:
    command: list
    seed: int | None
    version: str
    inputs: dict = field(default_factory=dict)   # path -> file_digest
    outputs: list = field(default_factory=list)
    duration_s: float = 0.0

    def add_input(self, path):
        self.inputs[str(path)] = file_digest(path)

    def verify_inputs(self):
        for path, digest in self.inputs.items():
            actual = file_digest(path)
            if actual != digest:
                raise DomainError(
                    f"digest mismatch for {path}: recorded {digest}, got {actual}")

    def write(self, path):
        payload = {
            "command": self.command,
            "seed": self.seed,
            "version": self.version,
            "inputs": self.inputs,
            "outputs": [str(p) for p in self.outputs],
            "duration_s": self.duration_s,
        }
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        raw = json.load(open(path))
        return cls(command=raw["command"], seed=raw["seed"], version=raw["version"],
                   inputs=raw["inputs"], outputs=raw["outputs"],
                   duration_s=raw["duration_s"])
