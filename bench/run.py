"""bsdlab benchmark: one closed-loop workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload blobs_b16 --seed 1 --seconds 35 --trace 0

The workload's inputs are generated from ``--seed`` into a fresh directory
under ``.bench_runs/``. The same job is then repeated, one at a time, for
``--seconds`` seconds. Every repetition's artifacts are checked and hashed;
a repetition whose digest differs from the first one counts as failed.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries per-layer metrics from a traced run, and the spans
are written to ``.bench_runs/spans-<workload>-seed<seed>.csv.gz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_runs"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

SETUP_REPS = 7       # setup_s is the median of this many set-ups
MIN_REPS = 4         # repetitions measured even past --seconds (half traced with --trace 1)
GRACE_S = 60.0       # stop starting repetitions this long after --seconds

IMPORT_PROBE = ("import time\nt = time.perf_counter()\nimport bsdlab\n"
                "print(repr(time.perf_counter() - t))\n")


def pin_blas_threads():
    """Pin BLAS to one thread, before numpy is imported.

    The workloads' matrices are small, and a second BLAS thread made the
    repetition times spread several times wider without making them faster.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_seconds():
    """Time ``import bsdlab`` (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


class EpochClock:
    """Times between consecutive ``progress`` callbacks of every trained seed.

    Wraps ``bsdlab.training.run_single_seed`` where ``run_experiment`` looks
    it up; a seed's first interval starts when the seed starts. A probe runs
    at each boundary, so every interval has one probe on either side.
    Records ``(run directory name, seconds, reference-speed factor)`` per epoch.
    """

    def __init__(self, training, clock):
        self.training = training
        self.clock = clock
        self.original = training.run_single_seed
        self.times = []

    def __enter__(self):
        original, times, clock = self.original, self.times, self.clock

        def timed(model_spec, train_set, test_set, cfg, seed, layout, *args,
                  progress=None, **kwargs):
            run = layout["root"].name
            before = clock.probe()
            last = clock.now()

            def tick(seed, row):
                nonlocal before, last
                interval = clock.now() - last
                after = clock.probe()
                times.append((run, interval, clock.scale(before, after)))
                before, last = after, clock.now()
                if progress is not None:
                    progress(seed, row)

            return original(model_spec, train_set, test_set, cfg, seed, layout, *args,
                            progress=tick, **kwargs)

        self.training.run_single_seed = timed
        return self

    def __exit__(self, *exc):
        self.training.run_single_seed = self.original


def calls_per_step(arms, tracer_mod):
    """Python plus C calls per step over epoch 1 of the bsd arm, from a fresh model."""
    from bsdlab import models, targets, training

    arm = next(a for a in arms if a.name == "bsd")
    cfg = arm.cfg.train_config()
    seed = arm.cfg.seeds[0]
    model = models.init_model(replace(arm.spec, seed=seed))
    opt = training.make_optimizer(cfg)
    strategy = targets.TargetStrategy(cfg.strategy, arm.train.labels, arm.train.k, cfg.epochs)
    steps = math.ceil(arm.train.n / cfg.batch_size)
    calls = tracer_mod.count_calls(
        lambda: training.train_epoch(model, arm.train, strategy, opt, cfg, 1, seed))
    return calls / steps


class Loop:
    """Repeats one workload job until the time is up, checking every repetition."""

    def __init__(self, workload, arms, tmp, log, clock):
        self.workload, self.arms, self.tmp, self.log = workload, arms, tmp, log
        self.clock = clock
        self.timings = []       # (RepTiming, traced) of repetitions that passed
        self.failed = 0
        self.digest = None
        self.accs = None

    def repeat(self, seconds, tracer=None):
        """Run repetitions until ``seconds`` are up; with a tracer, every second one is traced."""
        deadline = time.perf_counter() + seconds
        loop_times = []
        i = 0
        while True:
            t0 = time.perf_counter()
            rep_dir = self.tmp / f"rep_{i}"
            try:
                self._repetition(i, rep_dir, tracer if i % 2 == 1 else None)
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
            i += 1
            now = time.perf_counter()
            loop_times.append(now - t0)
            if now >= deadline + GRACE_S:
                break
            if i >= MIN_REPS and now + statistics.median(loop_times) / 2 >= deadline:
                break

    def _repetition(self, i, rep_dir, tracer):
        from workloads import CheckFailed, digest_tree

        started = self.workload.attempted
        try:
            if tracer is not None:
                tracer.run_id = i
                tracer.install()
            try:
                timing = self.workload.run(self.arms, rep_dir, self.clock)
            finally:
                if tracer is not None:
                    tracer.remove()
        except Exception as exc:  # the job or command that raised failed; the loop goes on
            self.failed += 1
            self.log(f"repetition {i} failed: {exc!r}")
            return
        try:
            accs = self.workload.check(self.arms, rep_dir)
            digest = digest_tree(rep_dir)
            if self.digest is None:
                self.digest, self.accs = digest, accs
            elif digest != self.digest:
                raise CheckFailed(f"digest {digest} differs from the first repetition's")
        except Exception as exc:  # wrong output: every job of the repetition failed
            self.failed += self.workload.attempted - started
            self.log(f"repetition {i} failed its output check: {exc!r}")
            return
        self.timings.append((timing, tracer is not None))


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(loop, setups, epoch_times):
    """End-to-end metrics, timings at reference speed; raw timings go to ``info``."""
    reps = [t for t, _ in loop.timings]
    runs = {a.run_name for a in loop.arms if a.name in loop.workload.epoch_arms}
    epochs = [(raw, scale) for run, raw, scale in epoch_times if run in runs]
    epoch_s = [raw * scale for raw, scale in epochs]
    ref, treat = (statistics.median(loop.accs[a]) for a in loop.workload.arms)
    attempted = loop.workload.attempted
    metrics = {
        "setup_s": (statistics.median(raw * scale for raw, scale in setups), "s"),
        "train_samples_per_s": (sum(r.samples for r in reps)
                                / sum(r.train_s * r.train_scale for r in reps), "samples/s"),
        "epoch_s_p50": (statistics.median(epoch_s), "s"),
        "epoch_s_p90": (percentile(epoch_s, 90), "s"),
        "wall_s": (statistics.median(r.scaled_wall_s for r in reps), "s"),
        "analyze_s": (statistics.median(r.analyze_s * r.analyze_scale for r in reps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_test_acc": (statistics.median(loop.accs["bsd"]), "fraction"),
        "acc_ratio": (treat / ref, "ratio"),
        "ok_share": ((attempted - loop.failed) / attempted, "share"),
    }
    unscaled = {
        "setup_s": statistics.median(raw for raw, _ in setups),
        "train_samples_per_s": sum(r.samples for r in reps) / sum(r.train_s for r in reps),
        "epoch_s_p50": statistics.median(t for t, _ in epochs),
        "epoch_s_p90": percentile([t for t, _ in epochs], 90),
        "wall_s": statistics.median(r.wall_s for r in reps),
        "analyze_s": statistics.median(r.analyze_s for r in reps),
        "probe_s_p50": statistics.median(loop.clock.probes),
    }
    extra = {"raw_timings": unscaled, "epoch_samples": len(epochs), "noise_gap": treat - ref,
             "acc_reference": ref, "acc_treatment": treat}
    return metrics, extra


def measure(workload, seconds, trace, tmp, log):
    import tracer as tracer_mod
    from bsdlab import analysis, cli, training
    from calibration import ProbedClock, probe_before

    info = {}
    if not trace:
        clock = ProbedClock()
        setups, imports = [], []
        for i in range(SETUP_REPS):
            before = clock.probe()
            imports.append(import_seconds())
            t0 = clock.now()
            arms = workload.setup(_fresh(tmp / f"setup_{i}"))
            raw = imports[-1] + clock.now() - t0
            setups.append((raw, clock.scale(before, clock.probe())))
        loop = Loop(workload, arms, tmp, log, clock)
        sites = [(cli, "read_trace_csv"), (analysis, "fit_temperature")]
        with EpochClock(training, clock) as epochs, probe_before(clock, sites):
            loop.repeat(seconds)
        if not loop.timings:
            return None, info
        metrics, extra = end_to_end(loop, setups, epochs.times)
        info.update(extra, setup_samples=len(setups), import_s=statistics.median(imports),
                    probes=len(clock.probes))
    else:
        tracer = tracer_mod.Tracer()
        tracer.install()
        t0 = time.perf_counter()
        arms = workload.setup(_fresh(tmp / "setup_0"))
        setup_wall = time.perf_counter() - t0
        tracer.remove()
        per_step = calls_per_step(arms, tracer_mod)
        loop = Loop(workload, arms, tmp, log, ProbedClock(enabled=False))
        loop.repeat(seconds, tracer=tracer)
        traced = [t.wall_s for t, is_traced in loop.timings if is_traced]
        plain = [t.wall_s for t, is_traced in loop.timings if not is_traced]
        if not traced or not plain:
            return None, info
        metrics = tracer.layer_metrics(setup_wall + statistics.mean(traced), len(traced))
        metrics["training.train_epoch.calls_per_step"] = (per_step, "count")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        spans_path = WORK_ROOT / f"spans-{workload.name}-seed{workload.seed}.csv.gz"
        tracer.write(spans_path)
        info.update(spans=str(spans_path.relative_to(ROOT)), span_count=len(tracer.spans),
                    traced_reps=len(traced), untraced_reps=len(plain))
    info.update(reps=len(loop.timings), digest=loop.digest, accuracy=loop.accs)
    return (loop, metrics), info


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _fresh(path):
    path.mkdir(parents=True)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bsdlab" / "__init__.py").is_file():
        print(f"error: no bsdlab sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    def log(msg):
        print(msg, flush=True)

    WORK_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-seed{args.seed}-", dir=WORK_ROOT))
    try:
        measured, info = measure(workload, args.seconds, bool(args.trace), tmp, log)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if measured is None:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    loop, metrics = measured

    info.update(
        workload=workload.name, seed=args.seed, trace=args.trace, seconds=args.seconds,
        data_seed=workload.data_seed, noise_seed=workload.noise_seed,
        train_seeds=workload.seeds, sizes=workload.sizes(loop.arms),
        nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
        blas_threads_cap=BLAS_THREADS, python=platform.python_version(), numpy=np.__version__,
        machine=platform.machine())
    declared = declared_metrics(args.trace)
    missing = [name for name in declared if name not in metrics]
    if missing:
        print(f"error: metrics declared in BENCHMARK.json but not measured: {missing}",
              file=sys.stderr)
        return 1
    metrics = {name: metrics[name] for name in declared}
    for name, (value, unit) in metrics.items():
        log(f"{name:48s} {value!r} {unit}")
    log(f"digest {workload.name} seed {args.seed}: {loop.digest}")
    log(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": workload.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
