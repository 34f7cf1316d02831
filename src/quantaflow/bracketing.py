"""Exposure bracketing: divide a scene's exposure by a divisor set, sample
one binary frame per bracket, and label frames with a continuous variable."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .sensor import ExposureMap, SensorConfig, sample_frame

#: Default 15-element divisor set, 1.0 through 8.0 in steps of 0.5.
DEFAULT_ALPHAS = tuple(1.0 + 0.5 * i for i in range(15))


@dataclass(frozen=True)
class BracketSpec:
    alphas: tuple = DEFAULT_ALPHAS

    def __post_init__(self):
        a = tuple(float(x) for x in self.alphas)
        if not a:
            raise DomainError("alpha set must be non-empty")
        if not all(0 < x < np.inf for x in a):
            raise DomainError("alpha divisors must be finite and > 0")
        if any(y <= x for x, y in zip(a, a[1:])):
            raise DomainError("alpha divisors must be strictly increasing")
        object.__setattr__(self, "alphas", a)

    def __len__(self):
        return len(self.alphas)

    @property
    def scales(self) -> tuple:
        """The one scale rule of a bracket: theta * (1 / alpha)."""
        return tuple(1.0 / a for a in self.alphas)


@dataclass(frozen=True)
class ExposureBurst:
    """Ordered burst: frame 0 is the most exposed, the last the least."""

    frames: tuple  # K BinaryFrames, same dims
    alphas: tuple
    theta_tilde: tuple
    width = property(lambda self: self.frames[0].width)
    height = property(lambda self: self.frames[0].height)

    def __post_init__(self):
        frames = tuple(self.frames)
        alphas = tuple(float(a) for a in self.alphas)
        labels = tuple(float(t) for t in self.theta_tilde)
        if not (len(frames) == len(alphas) == len(labels)):
            raise ShapeError("frames, alphas, theta_tilde must share length")
        if not frames:
            raise DomainError("burst must hold at least one frame")
        if len({(f.width, f.height) for f in frames}) > 1:
            raise ShapeError("all burst frames must share dimensions")
        if any(not (0.0 < t < 1.0) for t in labels):
            raise DomainError("theta_tilde labels must lie in (0, 1)")
        if any(b <= a for a, b in zip(labels, labels[1:])):
            raise DomainError("theta_tilde labels must be strictly increasing")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "theta_tilde", labels)

    def __len__(self):
        return len(self.frames)


def default_labels(k: int) -> tuple:
    """Continuous labels (tau+1)/(K+1); reproduces the 15-frame i/16 table."""
    return tuple((tau + 1) / (k + 1) for tau in range(k))


def generate_burst(emap: ExposureMap, spec: BracketSpec,
                   cfg: SensorConfig) -> ExposureBurst:
    """Sample one frame per bracket, each tile scaled as it is drawn, so no
    scaled map is built: bracket tau is frame tau + 1 of the cfg.seed photon
    stream, and `sample_frame` at that seed is frame 0, so no two frames
    share a draw."""
    frames = [sample_frame(emap, cfg, tau + 1, s) for tau, s in enumerate(spec.scales)]
    return ExposureBurst(tuple(frames), spec.alphas, default_labels(len(spec)))
