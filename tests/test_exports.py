"""The public names of ``bsdlab``: what each module's ``__all__`` lists exists, what
the package root re-exports is listed there, and test-only code stays out."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import bsdlab
from bsdlab import training
from bsdlab.config import ExperimentConfig
from bsdlab.models import Model, ModelSpec, init_model
from bsdlab.numerics import OptimizerState
from bsdlab.targets import TargetStrategy

MODULES = sorted(m.name for m in pkgutil.iter_modules(bsdlab.__path__)
                 if m.name != "__main__")  # importing __main__ runs the CLI
# reference implementations that live in tests/oracles.py
ORACLES = ["conjugate_update_oracle", "bsd_update", "evidence_mass_closed_form", "fixed_point",
           "finite_diff_grad", "reconstruct_predictions"]


def root_imports():
    """(module, name) for every ``from .module import name`` in ``bsdlab/__init__.py``."""
    tree = ast.parse(Path(bsdlab.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_exports_resolve_and_root_exports_are_listed():
    for name in MODULES:
        module = importlib.import_module(f"bsdlab.{name}")
        missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        assert missing == [], f"bsdlab.{name}"
    imports = root_imports()
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"bsdlab.{module_name}")
        assert name in module.__all__, f"bsdlab.{module_name}.{name}"
        assert getattr(bsdlab, name) is getattr(module, name)


def test_test_only_names_are_gone():
    modules = [bsdlab] + [importlib.import_module(f"bsdlab.{n}") for n in MODULES]
    # the store update's own simplex check and tolerance, replaced by numerics.on_simplex;
    # the training pass's own buffer set, replaced by models._buffers; the dataset
    # kinds' key tables, replaced by config._DATASETS; the batch-view helper, folded into
    # train_epoch
    for name in ORACLES + ["_check_pred", "SIMPLEX_RENORM_TOL", "_pass_buffers", "_BLOBS",
                           "_DATASET_KEYS", "_augmented_views"]:
        assert not any(hasattr(m, name) for m in modules), name
    model = init_model(ModelSpec(input_dim=2, classes=2))
    for name in ("block_names", "train", "eval", "mode"):
        assert not hasattr(Model, name) and not hasattr(model, name), name
    assert not hasattr(TargetStrategy, "target")


def test_seed_run_replaces_run_record():
    assert not hasattr(bsdlab, "RunRecord") and not hasattr(training, "RunRecord")
    assert "SeedRun" in training.__all__ and bsdlab.SeedRun is training.SeedRun


def test_constructors_take_no_working_state():
    cfg = training.TrainConfig()
    for name, value in [("step", 1), ("m", np.zeros(2)), ("v", np.zeros(2)),
                        ("buf", np.zeros(2)), ("scratch", (np.zeros(2), np.zeros(2)))]:
        with pytest.raises(TypeError, match=name):
            OptimizerState(cfg, **{name: value})
    model = init_model(ModelSpec(input_dim=2, classes=2))
    strategy = TargetStrategy(cfg.strategy, np.array([0, 1]), 2, cfg.epochs)
    for name, value in [("epoch", 2), ("rows", []), ("wall_clock_s", 1.0), ("phase_s", {})]:
        with pytest.raises(TypeError, match=name):
            training.SeedRun(0, model, OptimizerState(cfg), strategy, **{name: value})
    run = training.SeedRun(0, model, OptimizerState(cfg), strategy)
    assert (run.epoch, run.rows, run.wall_clock_s) == (0, [], 0.0)
    with pytest.raises(TypeError, match="name"):
        ExperimentConfig(name="x", resolved={"name": "x"})
    assert ExperimentConfig({"name": "x"}).name == "x"


# settable values in src (ROADMAP aim 2): (parameters with a default, dataclass
# fields that __init__ takes)
SETTABLE = (33, 70)


def settable_values():
    """``SETTABLE``'s two counts for each ``bsdlab`` module, by module name."""
    counts = {}
    for path in sorted(Path(bsdlab.__file__).parent.glob("*.py")):
        params = fields = 0
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arguments):  # functions and lambdas
                params += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "dataclass" or
                    isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                    for d in node.decorator_list):
                fields += sum(isinstance(st, ast.AnnAssign) and not any(
                    kw.arg == "init" and ast.literal_eval(kw.value) is False
                    for kw in getattr(st.value, "keywords", ())) for st in node.body)
        counts[path.stem] = (params, fields)
    return counts


def test_settable_value_count_is_pinned():
    counts = settable_values()
    params, fields = (sum(c[i] for c in counts.values()) for i in (0, 1))
    assert (params, fields) == SETTABLE, (
        f"bsdlab now has {params + fields} settable values ({params} parameters with a "
        f"default + {fields} dataclass init fields), not {sum(SETTABLE)}: pin the new "
        "count in SETTABLE and give the change a CHANGES.md line. (parameters, fields) "
        f"by module: {counts}")


# what a run's file names hold (ROADMAP item 14): only training's layout functions state them
RUN_FILE_NAMES = ("seed_", "epoch_", ".jsonl", ".state", "_final.ckpt", "store_seed")
LAYOUT_FUNCTIONS = {("training", "seed_files"), ("training", "trace_file")}


def run_file_literals(module, source):
    """(module, line, text) for each string literal of ``source`` that holds one of
    ``RUN_FILE_NAMES``, outside docstrings, ``LAYOUT_FUNCTIONS`` and the names of the
    reports analyze writes (the right-hand side of ``layout["reports"] / ...``)."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and body
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)):
            exempt.add(body[0].value)  # the docstring
        if isinstance(node, ast.FunctionDef) and (module, node.name) in LAYOUT_FUNCTIONS:
            exempt.update(ast.walk(node))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.left, ast.Subscript)
                and isinstance(node.left.slice, ast.Constant)
                and node.left.slice.value == "reports"):
            exempt.update(ast.walk(node.right))
    return [(module, node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node not in exempt and any(name in node.value for name in RUN_FILE_NAMES)]


def test_run_file_names_are_stated_once():
    sources = {path.stem: path.read_text()
               for path in sorted(Path(bsdlab.__file__).parent.glob("*.py"))}
    found = [hit for module, source in sources.items()
             for hit in run_file_literals(module, source)]
    assert found == [], "a run file name outside training.seed_files and trace_file"
    # the layout functions hold every name, so the list above is not stale
    layout = [node.value for node in ast.walk(ast.parse(sources["training"]))
              if isinstance(node, ast.FunctionDef) and ("training", node.name) in LAYOUT_FUNCTIONS
              for node in ast.walk(node)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert all(any(name in text for text in layout) for name in RUN_FILE_NAMES), layout


def test_run_file_name_guard_finds_a_restated_name():
    source = '''def walk(layout, seed):
    """Reads records/seed_<s>.jsonl."""
    write_json(layout["reports"] / f"calibration_seed_{seed}.json", {})
    return layout["records"].glob("seed_*.jsonl")
'''
    assert run_file_literals("training", source) == [("training", 4, "seed_*.jsonl")]
    assert run_file_literals("cli", source.replace("walk", "seed_files")) == [
        ("cli", 4, "seed_*.jsonl")]
    assert run_file_literals("training", source.replace("walk", "seed_files")) == []
