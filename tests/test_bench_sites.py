"""The bench wraps bsdlab functions by module attribute name (``bench/tracer.py``
``LAYERS``) and calls some of them itself (``bench/run.py calls_per_step``), so
renaming one in src, or changing how it is called, breaks ``bench/run.py
--trace 1``. Installing the tracer here, and running one short traced bench,
makes such a change fail in the test suite, as does a call that moves out of the
module whose name the tracer patches, since its layer then counts fewer calls."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_every_layer():
    tracer_mod = load_tracer()
    sites = [(site, attr) for _, entries in tracer_mod.LAYERS for site, attr in entries]
    # bench/run.py's untraced runs also probe these two by name
    assert {("bsdlab.cli", "read_trace_csv"), ("bsdlab.analysis", "fit_temperature")} <= set(sites)
    owners = [(tracer_mod._resolve(site), attr) for site, attr in sites]
    before = [owner.__dict__[attr] for owner, attr in owners]
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()
        wrapped = [owner.__dict__[attr] for owner, attr in owners]
        assert all(w is not fn and w.__wrapped__ is fn for w, fn in zip(wrapped, before))
    finally:
        tracer.remove()
    assert [owner.__dict__[attr] for owner, attr in owners] == before


def test_traced_bench_run_is_correct(tmp_path):
    # bench/run.py writes under its own root's .bench_runs/, so run a copy of it
    # in tmp_path, with src/ linked to the repository's
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "blobs_b16", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    calls = {name[:-len(".calls")]: m["value"] for name, m in result["metrics"].items()
             if name.endswith(".calls")}
    assert (calls["models.forward"] == calls["models.backward"] == calls["numerics.optimizer_step"]
            > 0), calls
    # the recorded loss is one pass per epoch, not one per step
    assert (calls["training.train_epoch"] == calls["numerics.soft_cross_entropy"]
            == calls["training._save_train_state"] > 0), calls
    assert calls["training.evaluate"] > 0, calls
    # the end-of-epoch and end-of-seed writes run_single_seed makes
    assert calls["models.save_checkpoint"] == calls["training.write_trace_csv"] > 0, calls
    assert calls["targets.EvidenceStore.save_csv"] > 0, calls


def test_untraced_bench_run_times_every_epoch(tmp_path):
    # the untraced run times epochs by wrapping training.run_single_seed and its
    # progress callback (bench/run.py EpochClock), so a moved or positional
    # progress call shows here
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "blobs_b16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    result, info = json.loads(result_line), json.loads(info_line)["info"]
    assert result["correct"] is True
    assert result["metrics"]["epoch_s_p50"]["value"] > 0
    sizes = info["sizes"]
    trained = info["reps"] * len(sizes["arms"]) * sizes["seeds_per_arm"] * sizes["epochs"]
    assert info["epoch_samples"] == trained > 0
