"""Run manifests: what a seeded command ran with.

`<output>.manifest.json` records the command line, the seed, the package
version, the blake2b digest of each input read, the output path and the
wall time. It does not pin numpy or the BLAS kernel, whose dispatch can
move the last bits of `verify` reports, and records no output digest.
"""

from __future__ import annotations

import hashlib
import json


def file_digest(path) -> str:
    """blake2b-128 of the file's bytes, tagged with the algorithm."""
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return f"blake2b:{h.hexdigest()}"


def write_manifest(path, command, seed, version, inputs, output, duration_s):
    """Write the manifest JSON to `path`; `inputs` maps path -> file_digest."""
    payload = {"command": command, "seed": seed, "version": version, "inputs": inputs,
               "outputs": [str(output)], "duration_s": duration_s}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
