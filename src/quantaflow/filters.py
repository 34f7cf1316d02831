"""Atom-coefficient filter decomposition and the exposure-adaptive
convolutional layer built on it.

Each value type is its array: `FilterAtoms` the atoms (m, k, k),
`Coefficients` phi (c_out, c_in, m), `FeatureMap` x (channels, height,
width). Every dimension is derived from the array's shape.

Full filters factor as F[o,i] = sum_j phi[o,i,j] * atoms[j], so the layer,
plain cross-correlation (zero padding, stride 1) with those filters, is
the input correlated with each atom and mixed by phi: `_atom_responses`
then `_mix`, the one layer route. `_correlate2d` is the one correlation
routine. Both take leading batch axes, so the verifier runs a block of
layer instances through the same calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, frozen_array


@dataclass(frozen=True)
class FilterAtoms:
    data: np.ndarray  # (m, k, k)
    m = property(lambda self: self.data.shape[0])
    k = property(lambda self: self.data.shape[1])

    def __post_init__(self):
        d = frozen_array(self, "data", 3, "atom")
        if self.m < 1 or self.k < 1:
            raise DomainError("atom count and spatial size must be >= 1")
        if d.shape[2] != self.k:
            raise ShapeError(f"atom tensor shape {d.shape} is not (m, k, k)")

    def norm(self) -> float:
        """Flattened L2 norm."""
        return float(np.linalg.norm(self.data.ravel()))

    def distance(self, other: "FilterAtoms") -> float:
        if self.data.shape != other.data.shape:
            raise ShapeError("atom tensors differ in shape")
        return float(np.linalg.norm((self.data - other.data).ravel()))


@dataclass(frozen=True)
class Coefficients:
    data: np.ndarray  # (c_out, c_in, m)
    c_out = property(lambda self: self.data.shape[0])
    c_in = property(lambda self: self.data.shape[1])
    m = property(lambda self: self.data.shape[2])

    def __post_init__(self):
        frozen_array(self, "data", 3, "coefficient")

    def norm(self) -> float:
        return float(np.linalg.norm(self.data.ravel()))


@dataclass(frozen=True)
class FeatureMap:
    data: np.ndarray  # (channels, height, width)
    channels = property(lambda self: self.data.shape[0])
    height = property(lambda self: self.data.shape[1])
    width = property(lambda self: self.data.shape[2])

    def __post_init__(self):
        frozen_array(self, "data", 3, "feature")


# Non-expansive: |act(a) - act(b)| <= |a - b|. Sigmoid too (1/4-Lipschitz),
# but the layer-bound verifier restricts itself to the first three.
ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "identity": lambda x: x,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
}


@dataclass(frozen=True)
class EaclConfig:
    bias: np.ndarray  # length c_out
    activation: str = "relu"

    def __post_init__(self):
        frozen_array(self, "bias", 1, "bias")
        if self.activation not in ACTIVATIONS:
            raise DomainError(f"unknown activation {self.activation!r}")


def compose_filters(phi: Coefficients, atoms: FilterAtoms) -> np.ndarray:
    """Mix atoms into full (c_out, c_in, k, k) filters."""
    if phi.m != atoms.m:
        raise ShapeError(f"coefficient atom count {phi.m} != {atoms.m}")
    return np.einsum("oij,jxy->oixy", phi.data, atoms.data)


def _correlate2d(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Cross-correlation over the last two axes: zero padding, stride 1,
    odd kernels centered exactly. Leading axes of `image` (..., h, w) and
    `kernel` (..., kh, kw) broadcast. Each output pixel sums its kernel
    offsets in row-major order, starting from zero."""
    kh, kw = kernel.shape[-2:]
    h, w = image.shape[-2:]
    pad = [(0, 0)] * (image.ndim - 2) + [(kh // 2, kh // 2), (kw // 2, kw // 2)]
    padded = np.pad(image, pad)
    out = np.zeros(np.broadcast_shapes(image.shape[:-2], kernel.shape[:-2]) + (h, w))
    for dy in range(kh):
        for dx in range(kw):
            out += kernel[..., dy, dx, None, None] * padded[..., dy:dy + h, dx:dx + w]
    return out


def _atom_responses(x: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """Inputs (..., c_in, h, w) correlated with atoms (..., m, k, k):
    (..., c_in, m, h, w)."""
    return _correlate2d(x[..., None, :, :], atoms[..., None, :, :, :])


def _mix(phi: np.ndarray, responses: np.ndarray) -> np.ndarray:
    """Pre-activations (..., c_out, h, w): atom responses (..., c_in, m, h, w)
    mixed by coefficients (..., c_out, c_in, m). Unoptimized einsum keeps
    BLAS, and with it the thread count, out of the sums."""
    return np.einsum("...oij,...ijhw->...ohw", phi, responses)


def _check_layer_shapes(inp: FeatureMap, phi: Coefficients, atoms: FilterAtoms):
    if inp.channels != phi.c_in:
        raise ShapeError(f"input channels {inp.channels} != c_in {phi.c_in}")
    if phi.m != atoms.m:
        raise ShapeError(f"coefficient atom count {phi.m} != {atoms.m}")
    if atoms.k % 2 == 0:
        raise DomainError("even spatial size has no centered zero padding; use odd k")


def eacl_preactivation(inp: FeatureMap, phi: Coefficients, atoms: FilterAtoms,
                       bias: np.ndarray | None = None) -> np.ndarray:
    """Pre-activation output: atom responses mixed by the coefficients."""
    _check_layer_shapes(inp, phi, atoms)
    out = _mix(phi.data, _atom_responses(inp.data, atoms.data))
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def eacl_forward(inp: FeatureMap, phi: Coefficients, atoms: FilterAtoms,
                 cfg: EaclConfig) -> FeatureMap:
    """Layer output: pre-activation plus bias, activated."""
    if cfg.bias.shape != (phi.c_out,):
        raise ShapeError(f"bias length {cfg.bias.shape[0]} != c_out {phi.c_out}")
    pre = eacl_preactivation(inp, phi, atoms, cfg.bias)
    return FeatureMap(ACTIVATIONS[cfg.activation](pre))
