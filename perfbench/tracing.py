"""Spans around the calls into each quantaflow module, recorded from the
benchmark's side, and the per-layer metrics computed from them.

`Tracer.install` replaces every public function of the layer modules, two
class methods and `scipy.ndimage.correlate` (the numerical kernel under
`sensor`, `filters` and `verifier`) with wrappers that record a span per
call. Modules bind names with `from .sensor import sample_frame`, so every
module binding of a wrapped function is replaced, not only the defining
one. `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np
import scipy.ndimage

LAYERS = ("rng", "sensor", "bracketing", "filters", "ode", "verifier",
          "calibration", "formats", "manifest")

# (span name, module, class, method)
METHODS = (
    ("sensor.pack", "sensor", "BinaryFrame", "from_array"),
    ("ode.rhs", "ode", "AtomVectorField", "derivative"),
)

FORMATS_READ = ("formats.read_",)
FORMATS_WRITE = ("formats.write_", "formats.export_")
# Codecs with a self-time metric of their own: every one a workload calls.
FORMATS_CODECS = tuple(f"formats.{name}" for name in (
    "read_float_map", "write_float_map", "read_exposure_map", "read_frame",
    "write_frame", "write_burst", "export_pgm_frame", "export_pgm_map"))

CHECKS = ("verifier.verify_layer_bound", "verifier.verify_density_identity",
          "verifier.verify_exposure_continuity")


def _size(args, result):
    return int(np.size(args[0]))


def _file_size(args, result):
    return os.path.getsize(args[0])


def _failed(args, result):
    return int(not getattr(result, "holds", result))


# Work each span counts into `Span.items`, from its arguments and result.
COUNTERS = {
    "rng.uniforms": _size,
    "rng.standard_normals": _size,
    "rng.poissons": _size,
    "sensor.sample_frame": lambda args, result: int(args[0].theta.size),
    "bracketing.generate_burst": lambda args, result: len(result),
    "calibration.qis_forward": _size,
    "calibration.cmos_gray_to_photons": _size,
    "manifest.file_digest": _file_size,
    **{name: _failed for name in CHECKS},  # 1 when the check does not hold
}


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "seq0", "seq1", "items")

    def __init__(self, name, parent, thread, start, seq0):
        self.name, self.parent, self.thread = name, parent, thread
        self.start, self.seq0 = start, seq0
        self.end, self.seq1, self.items = start, seq0, 0

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans into `self.spans` while installed.

    A span's parent is the innermost open span of its own thread. A span
    opened on a thread with none open (a verifier pool worker) is caused
    by the innermost open span of the thread that created the tracer.
    """

    def __init__(self):
        self.spans = []
        self._seq = itertools.count()
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(name, parent, threading.get_ident(), time.perf_counter(), next(self._seq))
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.seq1 = next(self._seq)
        self._stack().pop()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        if name.startswith(FORMATS_READ + FORMATS_WRITE):
            counter = _file_size

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.items = counter(args, result)
            return result
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        names = {}
        for layer in LAYERS:
            module = importlib.import_module(f"quantaflow.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    names[obj] = f"{layer}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in names.items()}
        for modname, module in list(sys.modules.items()):
            if modname == "quantaflow" or modname.startswith("quantaflow."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(module, attr, wrappers[obj])
        for name, layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"quantaflow.{layer}"), cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                self._patch(cls, method, classmethod(self.wrap(name, raw.__func__)))
            else:
                self._patch(cls, method, self.wrap(name, raw))
        self._patch(scipy.ndimage, "correlate",
                    self.wrap("kernel.correlate", scipy.ndimage.correlate))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict:
    """Self time of each span, attributed so that no instant counts twice.

    At each instant the running spans are the innermost open span of each
    thread, except a span that waits: one with a child open on another
    thread. Each instant is split evenly among the running spans, so the
    self times of a tree whose root stays open sum to the root's duration,
    however many threads its children ran on.
    """
    events = sorted([(s.start, s.seq0, True, s) for s in spans]
                    + [(s.end, s.seq1, False, s) for s in spans],
                    key=lambda e: (e[0], e[1]))
    stacks = defaultdict(list)
    waiting = defaultdict(int)   # span -> children open on other threads
    result = {s: 0.0 for s in spans}
    prev = None
    for t, _, is_start, span in events:
        if prev is not None and t > prev:
            running = [st[-1] for st in stacks.values() if st and not waiting[st[-1]]]
            for s in running:
                result[s] += (t - prev) / len(running)
        prev = t
        remote = span.parent is not None and span.parent.thread != span.thread
        if is_start:
            stacks[span.thread].append(span)
            waiting[span.parent] += remote
        else:
            stacks[span.thread].pop()
            waiting[span.parent] -= remote
    return result


def _has_ancestor(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rounds, untraced_durations) -> dict:
    """Per-layer metrics from traced rounds, given as (spans, duration)
    pairs, and the durations of the untraced rounds run beside them.

    Times are means per round over all traced rounds. Counts, and the
    ratios of counts, come from the first traced round alone, so they
    repeat exactly for one workload seed.
    """
    n = len(rounds)
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    digest_bytes = digest_time = busy = suite_wall = 0.0
    for spans, _ in rounds:
        for span, t in self_times(spans).items():
            self_by_name[span.name] += t / n
            self_by_layer[span.layer] += t
        for s in spans:
            if s.name == "manifest.file_digest":
                digest_bytes += s.items
                digest_time += s.duration
            elif s.name == "verifier.run_layer_bound_suite":
                suite_wall += s.duration
            elif s.name == "verifier.verify_layer_bound" and \
                    _has_ancestor(s, "verifier.run_layer_bound_suite"):
                busy += s.duration
    round_time = sum(d for _, d in rounds)

    first = rounds[0][0]
    calls = defaultdict(int)
    items = defaultdict(int)
    for s in first:
        calls[s.name] += 1
        items[s.name] += s.items
    polar_draws = sum(s.items for s in first if s.name == "rng.uniforms"
                      and s.parent is not None and s.parent.name == "rng.standard_normals")
    pixels = items["sensor.sample_frame"] + items["calibration.qis_forward"]
    instance_correlates = sum(1 for s in first if s.name == "kernel.correlate"
                              and _has_ancestor(s, "verifier.verify_layer_bound"))

    def formats_bytes(kinds):
        # Only calls not made from inside another formats call count:
        # read_exposure_map reads through read_float_map.
        return sum(s.items for s in first if s.name.startswith(kinds)
                   and (s.parent is None or s.parent.layer != "formats"))

    def formats_self(kinds):
        return sum(t for name, t in self_by_name.items() if name.startswith(kinds))

    m = {}
    for name in ("rng.substream_keys", "rng.poissons", "rng.standard_normals", "rng.uniforms",
                 "sensor.sample_frame", "sensor.pack", "sensor.local_bit_density",
                 "sensor.invert_bit_density", "bracketing.generate_burst",
                 "manifest.file_digest", "manifest.fnv1a64", "filters.eacl_preactivation",
                 "kernel.correlate", "ode.integrate_atoms", "ode.rhs",
                 "verifier.verify_layer_bound", "verifier.verify_exposure_continuity",
                 "verifier.verify_density_identity", "verifier.run_layer_bound_suite",
                 "verifier.map_ordered", "calibration.qis_forward",
                 "calibration.cmos_gray_to_photons", *FORMATS_CODECS):
        m[f"{name}.s"] = self_by_name[name]
    m["formats.read.s"] = formats_self(FORMATS_READ)
    m["formats.write.s"] = formats_self(FORMATS_WRITE)
    m["formats.read.bytes"] = formats_bytes(FORMATS_READ)
    m["formats.write.bytes"] = formats_bytes(FORMATS_WRITE)
    m["cli.self.s"] = self_by_name["cli.main"]
    m.update({
        "rng.uniforms.draws": items["rng.uniforms"],
        "rng.uniforms_per_px": _ratio(items["rng.uniforms"], pixels),
        "rng.polar.accept_ratio": _ratio(items["rng.standard_normals"], polar_draws / 2),
        "sensor.pixels": items["sensor.sample_frame"],
        "sensor.bit_probability.calls": calls["sensor.bit_probability"],
        "bracketing.frames": items["bracketing.generate_burst"],
        "manifest.digest.bytes": items["manifest.file_digest"],
        "manifest.digest.mb_per_s": _ratio(digest_bytes / 1e6, digest_time),
        "filters.eacl_preactivation.calls": calls["filters.eacl_preactivation"],
        "kernel.correlate.calls": calls["kernel.correlate"],
        "kernel.correlate_per_instance":
            _ratio(instance_correlates, calls["verifier.verify_layer_bound"]),
        "ode.integrate_atoms.calls": calls["ode.integrate_atoms"],
        "ode.rhs.calls": calls["ode.rhs"],
        "ode.rhs_per_integration": _ratio(calls["ode.rhs"], calls["ode.integrate_atoms"]),
        "verifier.suite_busy_ratio": _ratio(busy, suite_wall),
        "verifier.checks": sum(calls[c] for c in CHECKS),
        "verifier.checks_failed": sum(items[c] for c in CHECKS),
        "calibration.pixels": items["calibration.qis_forward"]
                              + items["calibration.cmos_gray_to_photons"],
        "cli.commands": calls["cli.main"],
        "trace.overhead_ratio": _ratio(statistics.median(d for _, d in rounds),
                                       statistics.median(untraced_durations)),
    })
    for layer in (*LAYERS, "kernel", "cli"):
        m[f"{layer}.share"] = _ratio(self_by_layer[layer], round_time)
    return m
