"""Exposure bracketing: divide a scene's exposure by a divisor set, sample
one binary frame per bracket, and label frames with a continuous variable."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .sensor import BinaryFrame, ExposureMap, SensorConfig, sample_frame

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


_LUMA = np.array([0.299, 0.587, 0.114])


def extract_exposure(gray: np.ndarray, theta_max: float = 25.0,
                     gamma: float = 1.0) -> ExposureMap:
    """Map a [0,1] grayscale (or RGB, reduced to luma) image to exposure:
    theta = theta_max * gray**gamma."""
    if theta_max <= 0 or gamma <= 0:
        raise DomainError("theta_max and gamma must be > 0")
    img = np.asarray(gray, dtype=np.float64)
    if img.ndim == 3 and img.shape[2] == 3:
        img = img @ _LUMA
    if img.ndim != 2:
        raise ShapeError("expected a 2-D grayscale or HxWx3 RGB image")
    if np.any(img < 0) or np.any(img > 1) or not np.all(np.isfinite(img)):
        raise DomainError("pixel values must lie in [0, 1]")
    return ExposureMap(theta_max * img ** gamma)


def _bracketed(emap: ExposureMap, alpha: float) -> ExposureMap:
    """The one scale rule of a bracket: theta * (1 / alpha)."""
    return emap.scaled(1.0 / alpha)


def bracket(emap: ExposureMap, spec: BracketSpec) -> list:
    """Scale the exposure map by 1/alpha for each divisor, in divisor order."""
    return [_bracketed(emap, a) for a in spec.alphas]


def generate_burst(emap: ExposureMap, spec: BracketSpec,
                   cfg: SensorConfig) -> ExposureBurst:
    """Sample one frame per bracket, each map scaled just before its frame is
    drawn: bracket tau is frame tau + 1 of the cfg.seed photon stream, and
    `sample_frame` at that seed is frame 0, so no two frames share a draw."""
    frames = [sample_frame(_bracketed(emap, a), cfg, frame=tau + 1)
              for tau, a in enumerate(spec.alphas)]
    return ExposureBurst(tuple(frames), spec.alphas, default_labels(len(spec)))


def burst_mse(a: ExposureBurst, b: ExposureBurst) -> float:
    """Mean over frames of the per-pixel mean squared bit difference."""
    if len(a) != len(b) or a.width != b.width or a.height != b.height:
        raise ShapeError("bursts must share frame count and dimensions")
    total = 0.0
    for fa, fb in zip(a.frames, b.frames):
        diff = fa.to_array().astype(np.float64) - fb.to_array()
        total += float(np.mean(diff * diff))
    return total / len(a)
