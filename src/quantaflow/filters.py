"""Atom-coefficient filter decomposition and the exposure-adaptive
convolutional layer built on it.

Full filters factor as F[o,i] = sum_j phi[o,i,j] * atoms[j]; the layer is
plain cross-correlation (zero padding, stride 1) with those filters.
`_correlate2d` is the one correlation routine: it takes leading batch axes,
so the verifier runs a block of layer instances through the same calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError


def _require_finite(arr, name):
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} entries must be finite")


@dataclass(frozen=True)
class FilterAtoms:
    m: int
    k: int
    data: np.ndarray = field(repr=False)  # (m, k, k)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if self.m < 1 or self.k < 1:
            raise DomainError("atom count and spatial size must be >= 1")
        if d.shape != (self.m, self.k, self.k):
            raise ShapeError(f"atom tensor shape {d.shape} != ({self.m}, {self.k}, {self.k})")
        _require_finite(d, "atom")
        object.__setattr__(self, "data", d)
        d.setflags(write=False)

    @classmethod
    def from_array(cls, data) -> "FilterAtoms":
        d = np.asarray(data, dtype=np.float64)
        return cls(d.shape[0], d.shape[1], d)

    def norm(self) -> float:
        """Flattened L2 norm."""
        return float(np.linalg.norm(self.data.ravel()))

    def distance(self, other: "FilterAtoms") -> float:
        if self.data.shape != other.data.shape:
            raise ShapeError("atom tensors differ in shape")
        return float(np.linalg.norm((self.data - other.data).ravel()))


@dataclass(frozen=True)
class Coefficients:
    c_out: int
    c_in: int
    m: int
    data: np.ndarray = field(repr=False)  # (c_out, c_in, m)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.shape != (self.c_out, self.c_in, self.m):
            raise ShapeError(f"coefficient shape {d.shape} != ({self.c_out}, {self.c_in}, {self.m})")
        _require_finite(d, "coefficient")
        object.__setattr__(self, "data", d)
        d.setflags(write=False)

    @classmethod
    def from_array(cls, data) -> "Coefficients":
        d = np.asarray(data, dtype=np.float64)
        return cls(d.shape[0], d.shape[1], d.shape[2], d)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data.ravel()))


@dataclass(frozen=True)
class FeatureMap:
    channels: int
    width: int
    height: int
    data: np.ndarray = field(repr=False)  # (channels, height, width)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.shape != (self.channels, self.height, self.width):
            raise ShapeError(f"feature shape {d.shape} != ({self.channels}, {self.height}, {self.width})")
        _require_finite(d, "feature")
        object.__setattr__(self, "data", d)
        d.setflags(write=False)

    @classmethod
    def from_array(cls, data) -> "FeatureMap":
        d = np.asarray(data, dtype=np.float64)
        if d.ndim == 2:
            d = d[None]
        return cls(d.shape[0], d.shape[2], d.shape[1], d)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data.ravel()))


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
        b = np.atleast_1d(np.asarray(self.bias, dtype=np.float64))
        _require_finite(b, "bias")
        if self.activation not in ACTIVATIONS:
            raise DomainError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "bias", b)
        b.setflags(write=False)


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


def _filter_responses(x: np.ndarray, filters: np.ndarray) -> np.ndarray:
    """Inputs (..., c_in, h, w) through filters (..., c_out, c_in, k, k):
    (..., c_out, h, w), input channels summed in order from zero."""
    per_channel = _correlate2d(x[..., None, :, :, :], filters)
    out = np.zeros(per_channel.shape[:-3] + per_channel.shape[-2:])
    for i in range(per_channel.shape[-3]):
        out += per_channel[..., i, :, :]
    return out


def _check_layer_shapes(inp: FeatureMap, phi: Coefficients, atoms: FilterAtoms):
    if inp.channels != phi.c_in:
        raise ShapeError(f"input channels {inp.channels} != c_in {phi.c_in}")
    if phi.m != atoms.m:
        raise ShapeError(f"coefficient atom count {phi.m} != {atoms.m}")
    if atoms.k % 2 == 0:
        raise DomainError("even spatial size has no centered zero padding; use odd k")


def eacl_preactivation(inp: FeatureMap, phi: Coefficients, atoms: FilterAtoms,
                       bias: np.ndarray | None = None) -> np.ndarray:
    """Pre-activation output by composing filters first, then correlating."""
    _check_layer_shapes(inp, phi, atoms)
    out = _filter_responses(inp.data, compose_filters(phi, atoms))
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def eacl_preactivation_atomspace(inp: FeatureMap, phi: Coefficients,
                                 atoms: FilterAtoms,
                                 bias: np.ndarray | None = None) -> np.ndarray:
    """Same result through the other route: correlate each atom with each
    input channel, then mix by the coefficients."""
    _check_layer_shapes(inp, phi, atoms)
    responses = _correlate2d(inp.data[:, None], atoms.data)  # (c_in, m, h, w)
    out = np.einsum("oij,ijhw->ohw", phi.data, responses)
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[:, None, None]
    return out


def eacl_forward(inp: FeatureMap, phi: Coefficients, atoms: FilterAtoms,
                 cfg: EaclConfig) -> FeatureMap:
    """Layer output: correlate with composed filters, add bias, activate."""
    if cfg.bias.shape != (phi.c_out,):
        raise ShapeError(f"bias length {cfg.bias.shape[0]} != c_out {phi.c_out}")
    pre = eacl_preactivation(inp, phi, atoms, cfg.bias)
    return FeatureMap(phi.c_out, inp.width, inp.height, ACTIVATIONS[cfg.activation](pre))
