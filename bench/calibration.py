"""A clock that reports times at a fixed reference machine speed.

The benchmark shares its CPUs with other tenants, and their load changes the
speed of the same code by tens of percent from one second to the next. So the
runner puts a short, fixed probe at every boundary it already has: the end of
each epoch, and each training job and CLI command. A probe runs numpy and
Python work of the kind bsdlab does (small matmuls, a softmax, float
formatting and parsing) with the garbage collector off.

Long CLI commands also get a probe before each trace read and temperature
fit (``probe_before``), so the analysis phase is sampled as densely as
training.

``now()`` excludes the time spent in probes, so the probes add nothing to
the measured work. A span of work is then scaled by ``REFERENCE_PROBE_S /
probe``, where ``probe`` is the mean of the probes taken around that span.
The result is the span's time on a machine where one probe takes
``REFERENCE_PROBE_S``. Raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time

import numpy as np

# About the median probe time on the 2-vCPU Xeon VM the bounds were set on.
REFERENCE_PROBE_S = 0.002
PROBE_ITERATIONS = 60


class ProbedClock:
    """Probe-free time plus the probe durations; a disabled clock never probes."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spent = 0.0        # seconds spent in probes so far
        self.probes = []        # probe durations, in order
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(16, 32))
        self._w = rng.normal(size=(32, 32))

    def now(self):
        """Seconds, not counting the time spent in probes."""
        return time.perf_counter() - self.spent

    def probe(self):
        """Run one probe; returns its index in ``probes`` (-1 when disabled)."""
        if not self.enabled:
            return -1
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        x, w = self._x, self._w
        for _ in range(PROBE_ITERATIONS):
            z = np.maximum(x @ w, 0.0)
            e = np.exp(z - z.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            row = ",".join(repr(float(v)) for v in p[0, :4])
            float(row.split(",")[1])
        duration = time.perf_counter() - t0
        if gc_was_enabled:
            gc.enable()
        self.spent += duration
        self.probes.append(duration)
        return len(self.probes) - 1

    def scale(self, first, last):
        """Reference-speed factor from the probes with index first..last."""
        window = self.probes[first:last + 1]
        if not window:
            return 1.0
        return REFERENCE_PROBE_S / statistics.fmean(window)


@contextlib.contextmanager
def probe_before(clock, sites):
    """Run ``clock.probe()`` before every call of each ``(owner, attribute)`` site."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in sites]

    def probed(fn):
        def wrapper(*args, **kwargs):
            clock.probe()
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, fn in originals:
        setattr(owner, attr, probed(fn))
    try:
        yield
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
