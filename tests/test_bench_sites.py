"""The bench wraps bsdlab functions by module attribute name (``bench/tracer.py``
``LAYERS``), so renaming one in src breaks ``bench/run.py --trace 1``. Loading
the tracer and installing it here makes such a rename fail in the test suite."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
