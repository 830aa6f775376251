"""Span tracing around bsdlab's layer functions, installed from outside the package.

Each layer function is wrapped at the module attribute its caller looks it up
through (``bsdlab.training.forward``, ``bsdlab.cli.read_trace_csv``, the
``TargetStrategy`` methods, ...), so the package itself is never edited. A
span is ``[name, start, end, parent, run_id]``; spans stay in memory and are
written once, when the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

# (layer metric prefix, [(module[:class], attribute), ...]). Every site is a
# place where a caller resolves the function at call time.
LAYERS = [
    ("numerics.optimizer_step", [("bsdlab.training", "optimizer_step")]),
    ("numerics.soft_cross_entropy", [("bsdlab.training", "soft_cross_entropy")]),
    ("numerics.kl_div", [("bsdlab.training", "kl_div"), ("bsdlab.analysis", "kl_div")]),
    ("models.forward", [("bsdlab.training", "forward")]),
    ("models.backward", [("bsdlab.training", "backward")]),
    ("models.save_checkpoint", [("bsdlab.training", "save_checkpoint")]),
    ("targets.TargetStrategy.targets", [("bsdlab.targets:TargetStrategy", "targets")]),
    ("targets.TargetStrategy.update", [("bsdlab.targets:TargetStrategy", "update")]),
    ("targets.sharpen", [("bsdlab.training", "sharpen")]),
    ("targets.EvidenceStore.save_csv", [("bsdlab.targets:EvidenceStore", "save_csv")]),
    ("data.augment_weak", [("bsdlab.training", "augment_weak")]),
    ("data.augment_strong", [("bsdlab.training", "augment_strong")]),
    ("data.make_blobs", [("bsdlab.cli", "make_blobs")]),
    ("data.load_idx", [("bsdlab.cli", "load_idx")]),
    ("data.apply_noise", [("bsdlab.cli", "apply_noise")]),
    ("training.train_epoch", [("bsdlab.training", "train_epoch")]),
    ("training.evaluate", [("bsdlab.training", "evaluate")]),
    ("training.write_trace_csv", [("bsdlab.training", "write_trace_csv")]),
    ("training._save_train_state", [("bsdlab.training", "_save_train_state")]),
    ("training.read_trace_csv", [("bsdlab.cli", "read_trace_csv")]),
    ("analysis.fit_temperature", [("bsdlab.analysis", "fit_temperature")]),
    ("analysis.calibration_report", [("bsdlab.analysis", "calibration_report")]),
    ("analysis.temp_adjusted_kl", [("bsdlab.analysis", "temp_adjusted_kl")]),
    ("analysis.mean_flip_probability", [("bsdlab.analysis", "mean_flip_probability")]),
    ("config.parse_config", [("bsdlab.config", "parse_config"), ("bsdlab.cli", "parse_config")]),
    ("cli.build_datasets", [("bsdlab.cli", "build_datasets")]),
]

# Layers whose first argument is the path of the file they write.
BYTE_COUNTED = ("training.write_trace_csv", "training._save_train_state")


def _resolve(site):
    module_name, _, class_name = site.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Records one span per call of every wrapped layer function."""

    def __init__(self):
        self.spans = []
        self.run_id = -1
        self.bytes = defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_bytes = name in BYTE_COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if count_bytes:
                    self.bytes[name] += os.path.getsize(args[0])

        return wrapper

    def install(self):
        for name, sites in LAYERS:
            for site, attr in sites:
                owner = _resolve(site)
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, wall_s, reps):
        """``<layer>.calls/.busy_s/.us_p50/.share`` for every layer in LAYERS.

        Counts and times are per unit of work: the traced set-up (run_id -1)
        plus one traced repetition, i.e. repetition spans divided by ``reps``.
        ``wall_s`` is the wall time of that same unit. ``busy_s`` is self
        time, so nested layers (train_epoch around forward) do not count
        twice. ``us_p50`` is the median inclusive duration of one call.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations = defaultdict(list)
        calls = defaultdict(float)
        busy = defaultdict(float)
        for i, (name, start, end, _, run_id) in enumerate(self.spans):
            weight = 1.0 if run_id < 0 else 1.0 / reps
            durations[name].append(end - start)
            calls[name] += weight
            busy[name] += weight * (end - start - child_time[i])
        out = {}
        for name, _ in LAYERS:
            d = durations.get(name, [])
            out[f"{name}.calls"] = (round(calls.get(name, 0.0), 6), "count")
            out[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
            out[f"{name}.us_p50"] = (statistics.median(d) * 1e6 if d else 0.0, "us")
            out[f"{name}.share"] = (busy.get(name, 0.0) / wall_s, "share")
        for name in BYTE_COUNTED:
            out[f"{name}.bytes"] = (self.bytes.get(name, 0) / reps, "B")
        return out

    def write(self, path):
        """Gzipped CSV, one row per span; times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,run_id\n")
            for name, start, end, parent, run_id in self.spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{run_id}\n")


def count_calls(fn):
    """Python plus C call events while ``fn()`` runs, counted by sys.setprofile."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls
