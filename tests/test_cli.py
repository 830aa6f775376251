import csv
import dataclasses
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from bsdlab import analysis, cli, config, training
from bsdlab.cli import main
from bsdlab.config import ConfigError, parse_config, resolved_json
from bsdlab.data import NoiseSpec, load_csv, load_idx, make_blobs, write_idx
from bsdlab.fileio import write_blocks
from bsdlab.models import ModelSpec
from bsdlab.targets import StrategyConfig
from bsdlab.training import (TRACE_MAGIC, BsdPlusConfig, TrainConfig, run_experiment,
                             run_layout)


def write_trace(path, preds, labels):
    """A hand-written ``.trace`` fixture: the blocks a run writes for one eval epoch."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_blocks(path, TRACE_MAGIC, {}, {"labels": labels, "probs": preds})


def write_config(path, **overrides):
    cfg = {
        "name": overrides.pop("name", "tiny"),
        "dataset": {"kind": "blobs", "classes": 3, "per_class": 20,
                    "test_per_class": 10, "spacing": 4.0, "seed": 3},
        "model": {"hidden": [8], "dropout": 0.0},
        "train": {"epochs": 3, "batch_size": 16, "lr": 0.05, "eval_every": 1,
                  "strategy": {"mode": "bsd", "gamma": 0.9, "c": 50.0}},
        "seeds": [1, 2],
        "output_dir": overrides.pop("output_dir"),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    def test_minimal_defaults_echoed(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text(json.dumps({"dataset": {"kind": "blobs"}}))
        cfg = parse_config(path)
        strat = cfg.resolved["train"]["strategy"]
        assert strat["gamma"] == 0.95
        assert strat["c"] == 1000.0
        assert strat["epsilon"] == 0.0
        assert cfg.name == cfg.resolved["name"] == "min"
        assert cfg.seeds == [0]

    def test_gamma_out_of_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"strategy": {"gamma": 1.5}}}))
        with pytest.raises(ConfigError, match=r"gamma must be in \[0,1\]"):
            parse_config(path)

    def test_unknown_key_suggestion(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"train": {"strategy": {"gama": 0.9}}}))
        with pytest.raises(ConfigError, match="'gama'.*did you mean 'gamma'"):
            parse_config(path)

    def test_granularity_is_an_unknown_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"strategy": {"mode": "dlb",
                                                           "granularity": "mini-batch"}}}))
        with pytest.raises(ConfigError, match="unknown key 'granularity' in train.strategy"):
            parse_config(path)

    def test_round_trip_identical(self, tmp_path):
        path = write_config(tmp_path / "a.json", output_dir=str(tmp_path / "out"))
        cfg = parse_config(path)
        echoed = tmp_path / "b.json"
        echoed.write_text(resolved_json(cfg))
        cfg2 = parse_config(echoed)
        # name differs only through the filename default, which we set explicitly
        assert cfg.resolved == cfg2.resolved

    def test_missing_dataset_file(self, tmp_path):
        path = tmp_path / "csv.json"
        path.write_text(json.dumps({"dataset": {"kind": "csv", "path": "nope.csv",
                                                "test_path": "nope2.csv"}}))
        with pytest.raises(ConfigError, match="no such file"):
            parse_config(path)

    def test_seeds_validated(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({"seeds": []}))
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(path)

    @pytest.mark.parametrize("seeds", [[-1], [0, -2]])
    def test_negative_seeds_rejected(self, tmp_path, seeds):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({"seeds": seeds}))
        with pytest.raises(ConfigError, match="seeds must be a nonempty list of non-negative"):
            parse_config(path)

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", ".", "..", ""])
    def test_name_is_one_path_component(self, tmp_path, name):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({"name": name}))
        with pytest.raises(ConfigError, match="name must be a nonempty single path component"):
            parse_config(path)

    def test_duplicate_seeds_rejected(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps({"seeds": [1, 1]}))
        with pytest.raises(ConfigError, match=re.escape(
                "top level.seeds must be a nonempty list of non-negative integers, each once, "
                "got [1, 1]")):
            parse_config(path)

    @pytest.mark.parametrize("key,value,message", [
        ("test_pth", "test.csv", "unknown key 'test_pth' in dataset; did you mean 'test_path'?"),
        ("per_class", 10, "unknown key 'per_class' in dataset"),
        ("path", 5, "dataset.path must be str, got 5"),
        ("test_path", None, "dataset.test_path must be str, got None"),
    ], ids=["csv-typo", "blobs-key-under-csv", "path-int", "test-path-null"])
    def test_csv_dataset_keys(self, tmp_path, key, value, message):
        for name in ("train.csv", "test.csv"):
            (tmp_path / name).write_text("x0,label\n0.5,0\n")
        dataset = {"kind": "csv", "path": "train.csv", "test_path": "test.csv", key: value}
        path = tmp_path / "csv.json"
        path.write_text(json.dumps({"dataset": dataset}))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(path)

    def test_missing_file_key_required(self, tmp_path):
        path = tmp_path / "idx.json"
        path.write_text(json.dumps({"dataset": {"kind": "idx"}}))
        with pytest.raises(ConfigError, match=re.escape("dataset.images is required for kind 'idx'")):
            parse_config(path)


# (dotted section, config key, invalid value) for every checked setting
INVALID_SETTINGS = [
    ("model", "hidden", [0]),
    ("model", "hidden", [True, 8]),  # JSON booleans are not layer widths
    ("model", "activation", "sigmoid"),
    ("model", "architecture", "resnet"),
    ("model", "dropout", 1.0),
    ("train", "epochs", 0),
    ("train", "batch_size", 0),
    ("train", "optimizer", "rmsprop"),
    ("train", "lr", -1.0),
    ("train", "momentum", 1.0),
    ("train", "beta1", 1.0),
    ("train", "beta2", 1.0),
    ("train", "adam_eps", 0.0),
    ("train", "weight_decay", -0.5),
    ("train", "schedule", "step"),
    ("train", "tau", 0.0),
    ("train", "eval_every", 0),
    ("train.strategy", "mode", "frobnicate"),
    ("train.strategy", "gamma", 1.5),
    ("train.strategy", "c", 0.0),
    ("train.strategy", "epsilon", -1.0),
    ("train.strategy", "ls_alpha", 1.0),
    ("train.strategy", "pskd_alpha", 1.5),
    ("train.strategy", "te_momentum", 1.0),
    ("train.bsd_plus", "lambda", -1.0),
    ("train.bsd_plus", "views", 0),
    ("train.bsd_plus", "weak_jitter", -0.1),
    ("train.bsd_plus", "strong_jitter", -0.1),
    ("train.bsd_plus", "erase_frac", 2.0),
    ("noise", "kind", "uniform"),
    ("noise", "rate", 1.5),
    ("noise", "seed", -3),
]

SECTION_CLASSES = {"model": ModelSpec, "train": TrainConfig, "train.strategy": StrategyConfig,
                   "train.bsd_plus": BsdPlusConfig, "noise": NoiseSpec}

# (dotted section, config key) for every float setting, the blobs dataset's included
FLOAT_SETTINGS = [(section, f.metadata["key"] or f.name) for section, cls in SECTION_CLASSES.items()
                  for f in dataclasses.fields(cls)
                  if "check" in f.metadata and type(f.default) is float]
FLOAT_SETTINGS += [("dataset", key) for key, (default, _, _) in config._DATASETS["blobs"].items()
                   if type(default) is float]


def setting_config(tmp_path, section, key, value):
    """A config file that sets only ``<section>.<key>``, NaN and infinities as JSON's
    non-standard tokens."""
    raw = {}
    node = raw
    for part in section.split("."):
        node = node.setdefault(part, {})
    node[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    return path


class TestSettingsParity:
    def test_every_checked_setting_is_covered(self):
        covered = {(section, "lam" if key == "lambda" else key)
                   for section, key, _ in INVALID_SETTINGS}
        checked = {(section, f.name) for section, cls in SECTION_CLASSES.items()
                   for f in dataclasses.fields(cls) if f.metadata.get("check") is not None}
        assert checked == covered

    @pytest.mark.parametrize("section,key,value", INVALID_SETTINGS,
                             ids=[f"{s}.{k}={v!r}" for s, k, v in INVALID_SETTINGS])
    def test_config_and_library_reject_alike(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(setting_config(tmp_path, section, key, value))
        assert str(exc.value).startswith(f"{section}.{key} must be ")
        name = "lam" if key == "lambda" else key
        required = {"input_dim": 4, "classes": 3} if section == "model" else {}
        with pytest.raises(ValueError):
            SECTION_CLASSES[section](**required, **{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("section,key", FLOAT_SETTINGS,
                             ids=[f"{s}.{k}" for s, k in FLOAT_SETTINGS])
    def test_float_settings_must_be_finite(self, tmp_path, section, key, value):
        with pytest.raises(ConfigError, match=re.escape(
                f"{section}.{key} must be finite, got {value!r}")):
            parse_config(setting_config(tmp_path, section, key, value))
        if section == "dataset":  # read by make_blobs, not by a Settings class
            return
        name = "lam" if key == "lambda" else key
        required = {"input_dim": 4, "classes": 3} if section == "model" else {}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {value!r}")):
            SECTION_CLASSES[section](**required, **{name: value})

    def test_float_overflowing_to_inf_refused(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"train": {"lr": 1e400}}')
        with pytest.raises(ConfigError, match="train.lr must be finite, got inf"):
            parse_config(path)

    def test_field_name_lam_is_an_unknown_key(self, tmp_path):
        path = tmp_path / "lam.json"
        path.write_text(json.dumps({"train": {"bsd_plus": {"lam": 1.0}}}))
        with pytest.raises(ConfigError, match="unknown key 'lam' in train.bsd_plus; "
                                              "did you mean 'lambda'"):
            parse_config(path)


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_schema_matches_resolved_defaults(tmp_path):
    text = README.read_text()
    block = text[text.index("## Config schema"):]
    block = block[block.index("```jsonc\n") + len("```jsonc\n"):]
    block = block[:block.index("```")]
    schema = json.loads(re.sub(r"//[^\n]*", "", block))
    path = tmp_path / "empty.json"
    path.write_text("{}")
    resolved = json.loads(resolved_json(parse_config(path)))
    assert schema.pop("name") == "<config file stem>" and resolved.pop("name") == "empty"
    assert schema == resolved


def test_readme_lists_every_analysis():
    usage = re.search(r"bsdlab analyze <run_dir> --what \{([^}]*)\}", README.read_text())
    assert usage.group(1).split(",") == list(cli.ANALYSES)


class TestTrainCommand:
    def test_records_per_seed_and_refusal(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"))
        assert main(["train", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "epoch" in out and "acc" in out
        layout = run_layout(tmp_path / "runs" / "tiny")
        assert sorted(p.name for p in layout["records"].glob("seed_*.jsonl")) == [
            "seed_1.jsonl", "seed_2.jsonl"]
        assert layout["config"].exists()

        assert main(["train", str(cfg_path)]) == 1
        assert "--force" in capsys.readouterr().err
        assert main(["train", str(cfg_path), "--force", "--quiet"]) == 0

    def test_dry_run_prints_and_writes_nothing(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"))
        assert main(["train", str(cfg_path), "--dry-run"]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["train"]["strategy"]["gamma"] == 0.9
        assert not (tmp_path / "runs").exists()

    def test_config_resolved_is_the_dry_run_output(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"),
                                seeds=[1])
        assert main(["train", str(cfg_path), "--dry-run"]) == 0
        dry_run = capsys.readouterr().out.encode("utf-8")
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        assert run_layout(tmp_path / "runs" / "tiny")["config"].read_bytes() == dry_run
        # run_experiment writes the file from its snapshot, and only from one
        cfg = parse_config(cfg_path)
        train, test = cli.build_datasets(cfg)
        spec = cfg.model_spec(train.d, train.k)
        for name, snapshot in (("with", cfg.resolved), ("without", None)):
            run_experiment(spec, train, test, cfg.train_config(), cfg.seeds, tmp_path / name,
                           config_snapshot=snapshot)
        assert run_layout(tmp_path / "with")["config"].read_bytes() == dry_run
        assert not run_layout(tmp_path / "without")["config"].exists()

    @pytest.mark.parametrize("overrides", [
        {"seeds": [-1]},
        {"dataset": {"kind": "blobs", "seed": -1}},
        {"noise": {"kind": "symmetric", "rate": 0.2, "seed": -3}},
    ], ids=["seeds", "dataset.seed", "noise.seed"])
    def test_negative_seed_fails_dry_run(self, tmp_path, capsys, overrides):
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"),
                                **overrides)
        assert main(["train", str(cfg_path), "--dry-run"]) == 2
        assert "seed" in capsys.readouterr().err
        assert main(["train", str(cfg_path), "--quiet"]) == 2
        assert not (tmp_path / "runs").exists()

    def test_name_cannot_leave_output_dir(self, tmp_path, capsys):
        victim = tmp_path / "out" / "escaped"
        victim.mkdir(parents=True)
        (victim / "config.resolved").write_text("{}\n")
        cfg_path = write_config(tmp_path / "exp.json", name="../escaped",
                                output_dir=str(tmp_path / "out" / "runs"))
        assert main(["train", str(cfg_path), "--force", "--quiet"]) == 2
        assert "name must be" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["escaped"]
        assert (victim / "config.resolved").read_text() == "{}\n"

    def test_force_removes_the_previous_run(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(runs))
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        run_dir = runs / "tiny"
        assert main(["analyze", str(run_dir), "--what", "flip"]) == 0
        (run_dir / "notes.txt").write_text("kept\n")
        capsys.readouterr()

        # a config that fails to parse leaves the old run as it was
        bad = write_config(tmp_path / "bad.json", output_dir=str(runs),
                           train={"strategy": {"gamma": 2.0}})
        assert main(["train", str(bad), "--force"]) == 2
        assert (run_dir / "traces" / "seed_2" / "epoch_1.trace").exists()

        smaller = write_config(tmp_path / "exp.json", output_dir=str(runs), seeds=[1],
                               train={"epochs": 4, "batch_size": 16, "lr": 0.05,
                                      "eval_every": 4, "strategy": {"mode": "bsd"}})
        assert main(["train", str(smaller), "--force", "--quiet"]) == 0
        layout = run_layout(run_dir)
        files = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*") if p.is_file())
        assert files == ["checkpoints/seed_1.state", "checkpoints/seed_1_final.ckpt",
                         "config.resolved", "notes.txt", "records/seed_1.jsonl",
                         "records/store_seed_1.csv", "timing.txt",
                         "traces/seed_1/epoch_4.csv", "traces/seed_1/epoch_4.trace"]
        assert not layout["reports"].exists()
        assert main(["analyze", str(run_dir), "--what", "flip"]) == 1
        assert "needs >= 2 eval traces for seed 1" in capsys.readouterr().err
        assert main(["compare", str(run_dir), str(run_dir)]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[2] == "1"

    def test_any_layout_entry_needs_force(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"))
        run_dir = tmp_path / "runs" / "tiny"
        trace = run_dir / "traces" / "seed_1" / "epoch_1.trace"
        write_trace(trace, np.full((2, 3), 1 / 3), np.array([0, 1]))
        raw = trace.read_bytes()
        assert main(["train", str(cfg_path), "--quiet"]) == 1
        assert "--force" in capsys.readouterr().err
        assert [p.name for p in run_dir.iterdir()] == ["traces"]
        assert trace.read_bytes() == raw

    def test_library_rerun_replaces_the_previous_run(self, tmp_path, capsys):
        train, test = make_blobs(3, 30, seed=0), make_blobs(3, 30, seed=1)
        spec = ModelSpec(input_dim=2, classes=3, hidden=(8,), dropout=0.0)
        run_dir = tmp_path / "run"
        for epochs in (6, 2):
            cfg = TrainConfig(epochs=epochs, batch_size=16, lr=0.05, eval_every=1,
                              strategy=StrategyConfig(mode="bsd"))
            run_experiment(spec, train, test, cfg, [1], run_dir)
            assert not run_layout(run_dir)["reports"].exists()
            assert main(["analyze", str(run_dir), "--what", "calibration"]) == 0
        assert sorted(p.name for p in (run_dir / "traces" / "seed_1").iterdir()) == [
            "epoch_1.trace", "epoch_2.csv", "epoch_2.trace"]
        report = json.loads((run_dir / "reports" / "calibration_seed_1.json").read_text())
        final = json.loads((run_dir / "records" / "seed_1.jsonl").read_text().splitlines()[-1])
        assert final["epoch"] == 2 and report["accuracy"] == final["test_acc"]

    def test_top_level_not_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text("[1, 2]")
        assert main(["train", str(cfg_path), "--dry-run"]) == 2
        assert capsys.readouterr().err == f"config error: {cfg_path}: top level must be an object\n"

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"strategy": {"gamma": 2.0}}}))
        assert main(["train", str(bad)]) == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", [{"rate": 0.4, "seed": 3}, {"kind": "none", "rate": 0.1}])
    def test_noise_rate_without_a_kind_refused(self, tmp_path, capsys, noise):
        # kind defaults to "none", which keeps the clean labels and would ignore the rate
        cfg_path = write_config(tmp_path / "noisy.json", output_dir=str(tmp_path / "runs"),
                                noise=noise)
        assert main(["train", str(cfg_path), "--dry-run"]) == 2
        assert capsys.readouterr().err == (
            "config error: noise.rate > 0 needs noise.kind 'symmetric' or 'asymmetric'\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("case,key", [
        ("dim", "dataset.dim"), ("cov_scale", "dataset.cov_scale"),
        ("spacing", "dataset.spacing must be finite, got nan"),
        ("conv_blobs", "model.architecture"), ("conv_csv", "model.architecture"),
        ("mlp_idx", "model.architecture"),
        ("kind_list", "dataset.kind must be one of ['blobs', 'csv', 'idx'], got ['blobs']"),
        ("dataset_list", "dataset must be an object"), ("train_list", "train must be an object"),
        ("strategy_str", "train.strategy must be an object")])
    def test_dry_run_rejects_what_training_cannot_build(self, tmp_path, capsys, case, key):
        for name in ("train.csv", "test.csv"):
            (tmp_path / name).write_text("x0,x1,label\n0.1,0.2,0\n0.3,0.4,1\n")
        write_idx(tmp_path / "images.idx", np.zeros((2, 8, 8)))
        write_idx(tmp_path / "labels.idx", np.arange(2))
        overrides = {
            "dim": {"dataset": {"kind": "blobs", "dim": 1}},
            "cov_scale": {"dataset": {"kind": "blobs", "cov_scale": 0}},
            "spacing": {"dataset": {"kind": "blobs", "spacing": math.nan}},
            "conv_blobs": {"model": {"architecture": "tiny-conv"}},
            "conv_csv": {"model": {"architecture": "tiny-conv"},
                         "dataset": {"kind": "csv", "path": "train.csv",
                                     "test_path": "test.csv"}},
            "mlp_idx": {"dataset": {"kind": "idx", "images": "images.idx",
                                    "labels": "labels.idx", "test_images": "images.idx",
                                    "test_labels": "labels.idx"}},
            "kind_list": {"dataset": {"kind": ["blobs"]}},
            "dataset_list": {"dataset": []},
            "train_list": {"train": [1]},
            "strategy_str": {"train": {"strategy": "bsd"}},
        }[case]
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"),
                                **overrides)
        assert main(["train", str(cfg_path), "--dry-run"]) == 2
        assert f"error: {key}" in capsys.readouterr().err

    def test_mlp_on_idx_refused_before_a_run_exists(self, tmp_path, capsys):
        # an MLP would meet the first (n, h, w, 1) grid batch only once training began
        cfg_path, _ = dataset_config(tmp_path, "idx")
        cfg = json.loads(cfg_path.read_text())
        cfg["model"]["architecture"] = "mlp"
        cfg_path.write_text(json.dumps(cfg))
        for flag in ("--dry-run", "--quiet"):
            assert main(["train", str(cfg_path), flag]) == 2
            assert capsys.readouterr().err == (
                "config error: model.architecture 'mlp' does not take dataset.kind 'idx': "
                "'tiny-conv' takes 'idx' and 'mlp' the others\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("train, message", [
        ({"bsd_plus": {"enabled": True, "strong_jitter": 1e308}},
         "non-finite logits at epoch 1, batch starting 0 (seed 3)"),
        ({"optimizer": "sgd", "lr": 1e200, "batch_size": 64},
         "non-finite logits on the test set at epoch 1 (seed 3)"),
    ], ids=["strong-view", "evaluation"])
    def test_diverging_seed_is_one_error_line(self, tmp_path, capsys, train, message):
        train = {"epochs": 2, "eval_every": 1, "strategy": {"mode": "bsd"}, **train}
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"),
                                train=train, seeds=[3])
        assert main(["train", str(cfg_path), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: training failed: {message}\n"

    def test_programming_error_keeps_its_traceback(self, tmp_path, monkeypatch):
        # only a diverging seed is a one-line training failure
        def broken_epoch(*args, **kwargs):
            raise KeyError("w0")

        monkeypatch.setattr(training, "train_epoch", broken_epoch)
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"))
        with pytest.raises(KeyError, match="w0"):
            main(["train", str(cfg_path), "--quiet"])

    def test_out_root_env_override(self, tmp_path, capsys, monkeypatch):
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "ignored"))
        monkeypatch.setenv("BSDLAB_OUT_ROOT", str(tmp_path / "envroot"))
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        assert (tmp_path / "envroot" / "tiny" / "config.resolved").exists()
        assert not (tmp_path / "ignored").exists()


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg_path = write_config(tmp / "exp.json", output_dir=str(tmp / "runs"))
    assert main(["train", str(cfg_path), "--quiet"]) == 0
    return tmp / "runs" / "tiny"


class TestAnalyzeCommand:
    def test_calibration_reports(self, trained_run, capsys):
        assert main(["analyze", str(trained_run), "--what", "calibration"]) == 0
        out = capsys.readouterr().out
        assert "ece" in out
        reports = run_layout(trained_run)["reports"]
        data = json.loads((reports / "calibration_seed_1.json").read_text())
        assert 0.0 <= data["ece"] <= 1.0
        assert (reports / "reliability_seed_1.csv").exists()

    def test_perfect_prediction_fixture_all_zero(self, tmp_path, capsys):
        run_dir = tmp_path / "fixture"
        labels = np.arange(9) % 3
        write_trace(run_dir / "traces" / "seed_0" / "epoch_1.trace", np.eye(3)[labels], labels)
        assert main(["analyze", str(run_dir), "--what", "calibration"]) == 0
        report = json.loads((run_dir / "reports" / "calibration_seed_0.json").read_text())
        assert report["ece"] == 0.0 and report["sce"] == 0.0 and report["ace"] == 0.0
        assert report["nll"] == 0.0 and report["accuracy"] == 1.0

    @pytest.mark.parametrize("what", ["calibration", "dark-knowledge", "dynamics"])
    def test_out_of_range_label_is_an_error(self, tmp_path, capsys, what):
        labels = np.array([0, 1, 2, 0, 1, 2, 3])
        trace = tmp_path / "bad" / "traces" / "seed_0" / "epoch_1.trace"
        write_trace(trace, np.tile([0.5, 0.25, 0.25], (7, 1)), labels)
        assert main(["analyze", str(tmp_path / "bad"), "--what", what]) == 1
        assert capsys.readouterr().err == (f"error: {trace}: block 'labels' does not hold "
                                           "integers in [0, 3)\n")

    @pytest.mark.parametrize("what", ["calibration", "dark-knowledge", "dynamics"])
    def test_probs_off_the_simplex_is_an_error(self, tmp_path, capsys, what):
        probs = np.tile([0.5, 0.25, 0.25], (6, 1))
        probs[2], probs[4] = np.nan, [2.0, -1.0, 0.0]
        trace = tmp_path / "bad" / "traces" / "seed_0" / "epoch_1.trace"
        write_trace(trace, probs, np.arange(6) % 3)
        assert main(["analyze", str(tmp_path / "bad"), "--what", what]) == 1
        assert capsys.readouterr().err == (f"error: {trace}: block 'probs' does not hold rows "
                                           "of finite entries >= 0 summing to 1 within 1e-06\n")

    def test_dark_knowledge_symmetric_csv(self, trained_run):
        assert main(["analyze", str(trained_run), "--what", "dark-knowledge"]) == 0
        mu_path = run_layout(trained_run)["reports"] / "mu_seed_1.csv"
        rows = [line.split(",") for line in mu_path.read_text().strip().splitlines()[1:]]
        mu = np.array([[float(v) for v in row] for row in rows])
        assert mu.shape == (3, 3)
        np.testing.assert_array_equal(mu, mu.T)

    def test_dynamics_series(self, trained_run):
        assert main(["analyze", str(trained_run), "--what", "dynamics"]) == 0
        series = (run_layout(trained_run)["reports"] / "dynamics_seed_1.csv").read_text()
        header, *rows = series.strip().splitlines()
        assert header == "epoch,fitted_temperature,kl_snapshot_fit,kl_final_fit"
        assert len(rows) == 3  # eval_every=1, epochs=3
        assert float(rows[-1].split(",")[2]) == 0.0  # final vs itself

    # 2 seeds x 3 eval epochs; ood reads each seed's final trace in both runs
    @pytest.mark.parametrize("what, reads, fits", [
        ("calibration", 2, 0), ("dark-knowledge", 2, 0), ("dynamics", 6, 6),
        ("ood", 4, 0), ("flip", 6, 0)])
    def test_reads_and_fits_each_trace_once(self, trained_run, monkeypatch, what, reads, fits):
        calls = {"read": 0, "fit": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "read_trace_csv", counted("read", cli.read_trace_csv))
        monkeypatch.setattr(analysis, "fit_temperature",
                            counted("fit", analysis.fit_temperature))
        extra = ["--ood-run", str(trained_run)] if what == "ood" else []
        assert main(["analyze", str(trained_run), "--what", what, *extra]) == 0
        assert calls == {"read": reads, "fit": fits}

    def test_dynamics_rescales_final_trace_once_per_seed(self, trained_run, monkeypatch):
        calls = []
        scale = analysis.temperature_scale

        def counted(preds, temperature):
            calls.append(temperature)
            return scale(preds, temperature)

        monkeypatch.setattr(analysis, "temperature_scale", counted)
        assert main(["analyze", str(trained_run), "--what", "dynamics"]) == 0
        # per seed: the final trace once, then each earlier snapshot at its own
        # temperature and at the final one (2 seeds x (1 + 2 x 2))
        assert len(calls) <= 10

    @pytest.mark.parametrize("defect", ["labels-rolled", "one-row-short"])
    @pytest.mark.parametrize("what", ["dynamics", "flip"])
    def test_traces_of_a_seed_must_agree(self, trained_run, tmp_path, capsys, what, defect):
        """An earlier trace of a seed whose labels or shape are not its final trace's
        ends the analysis with one line naming that trace."""
        run = tmp_path / "run"
        shutil.copytree(trained_run / "traces", run / "traces")
        trace = run / "traces" / "seed_1" / "epoch_2.trace"
        preds, labels, _ = training.read_trace_csv(trace)
        if defect == "labels-rolled":
            write_trace(trace, preds, np.roll(labels, 1))
            message = f"{trace}: labels differ from the seed's final trace"
        else:
            write_trace(trace, preds[:-1], labels[:-1])
            message = (f"{trace}: predictions of shape {preds[:-1].shape}, the seed's final "
                       f"trace has {preds.shape}")
        capsys.readouterr()
        assert main(["analyze", str(run), "--what", what]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_ood_requires_second_run(self, trained_run, capsys):
        assert main(["analyze", str(trained_run), "--what", "ood"]) == 1
        assert "--ood-run" in capsys.readouterr().err

    def test_ood_with_second_run(self, trained_run, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "ood.json", name="oodrun",
                                output_dir=str(tmp_path / "runs"))
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        assert main(["analyze", str(trained_run), "--what", "ood",
                     "--ood-run", str(tmp_path / "runs" / "oodrun")]) == 0
        data = json.loads((run_layout(trained_run)["reports"] / "ood_auroc.json").read_text())
        assert set(data) == {"1", "2"}
        assert all(0.0 <= v <= 1.0 for v in data.values())

    def test_flip_rates(self, trained_run):
        assert main(["analyze", str(trained_run), "--what", "flip"]) == 0
        data = json.loads((run_layout(trained_run)["reports"] / "flip.json").read_text())
        assert all(0.0 <= v <= 1.0 for v in data.values())

    def test_malformed_trace_manifest_is_an_error(self, trained_run, tmp_path, capsys):
        def no_name(blocks):
            del blocks[0]["name"]

        def oversize(blocks):  # far more bytes than any machine could allocate
            blocks[-1]["shape"] = [10 ** 12, 3]

        run = tmp_path / "run"
        shutil.copytree(trained_run / "traces", run / "traces")
        sidecar = run / "traces" / "seed_1" / "epoch_3.trace"
        raw = sidecar.read_bytes()
        for edit, message in ((no_name, f"{sidecar}: manifest entry"),
                              (oversize, f"truncated file {sidecar}: block 'probs'")):
            magic, header, payload = raw.split(b"\n", 2)
            manifest = json.loads(header)
            assert manifest["blocks"][-1]["name"] == "probs"
            edit(manifest["blocks"])
            sidecar.write_bytes(magic + b"\n" + json.dumps(manifest).encode() + b"\n" + payload)
            assert main(["analyze", str(run), "--what", "calibration"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("what", list(cli.ANALYSES))
    def test_printed_lines(self, trained_run, capsys, what):
        """One line per seed in trace-directory order, from the reports just
        written, for the analyses that print one; then the reports line."""
        extra = ["--ood-run", str(trained_run)] if what == "ood" else []
        capsys.readouterr()
        assert main(["analyze", str(trained_run), "--what", what, *extra]) == 0
        reports = run_layout(trained_run)["reports"]
        lines = []
        for seed in ("1", "2"):
            if what == "calibration":
                r = json.loads((reports / f"calibration_seed_{seed}.json").read_text())
                lines.append(f"seed {seed}: acc {r['accuracy']:.4f}  ece {r['ece']:.4f}  "
                             f"sce {r['sce']:.4f}  ace {r['ace']:.4f}  nll {r['nll']:.4f}")
            elif what == "ood":
                auroc = json.loads((reports / "ood_auroc.json").read_text())[seed]
                lines.append(f"seed {seed}: auroc {auroc:.4f}")
            elif what == "flip":
                rate = json.loads((reports / "flip.json").read_text())[seed]
                lines.append(f"seed {seed}: mean flip probability {rate:.4f}")
        lines.append(f"reports written to {reports}")
        assert capsys.readouterr().out == "".join(line + "\n" for line in lines)

    def test_seed_without_epoch_traces_named(self, trained_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run / "traces", run / "traces")
        seed_dir = run / "traces" / "seed_2"
        for trace in seed_dir.iterdir():
            trace.unlink()
        capsys.readouterr()
        assert main(["analyze", str(run), "--what", "calibration"]) == 1
        assert capsys.readouterr().err == f"error: no epoch traces in {seed_dir}\n"

    def test_ood_run_lacking_a_seed(self, trained_run, tmp_path, capsys):
        ood = tmp_path / "ood"
        shutil.copytree(trained_run / "traces" / "seed_1", ood / "traces" / "seed_1")
        capsys.readouterr()
        assert main(["analyze", str(trained_run), "--what", "ood", "--ood-run", str(ood)]) == 1
        assert capsys.readouterr().err == (f"error: missing OOD traces for seed 2 in {ood}; "
                                           "train the --ood-run with the same seeds\n")

    def test_missing_traces_named(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "empty"), "--what", "calibration"]) == 1
        err = capsys.readouterr().err
        assert "traces" in err and "train" in err
        assert not (tmp_path / "empty").exists()


class TestCompareCommand:
    def test_table_and_csv(self, trained_run, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "other.json", name="other",
                                output_dir=str(tmp_path / "runs"),
                                train={"epochs": 3, "batch_size": 16, "lr": 0.05,
                                       "eval_every": 1,
                                       "strategy": {"mode": "baseline"}})
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        out_csv = tmp_path / "cmp.csv"
        assert main(["compare", str(trained_run), str(tmp_path / "runs" / "other"),
                     "--out", str(out_csv)]) == 0
        table = capsys.readouterr().out
        assert "tiny" in table and "other" in table and "acc" in table
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "run,mode,seeds,acc,ece,nll"
        assert len(lines) == 3

    def test_run_name_with_comma_is_quoted(self, tmp_path):
        runs = tmp_path / "runs"
        cfg_path = write_config(tmp_path / "ab.json", name="a,b", output_dir=str(runs),
                                train={"epochs": 1, "batch_size": 16, "lr": 0.05,
                                       "strategy": {"mode": "bsd"}})
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        out_csv = tmp_path / "cmp.csv"
        assert main(["compare", str(runs / "a,b"), str(runs / "a,b"),
                     "--out", str(out_csv)]) == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [6, 6, 6]
        assert [row[0] for row in rows] == ["run", "a,b", "a,b"]

    def test_one_run_directory_refused(self, trained_run, capsys):
        capsys.readouterr()
        assert main(["compare", str(trained_run)]) == 2
        out = capsys.readouterr()
        assert out.err == "error: compare needs at least two run directories\n" and not out.out

    def test_identical_runs_identical_columns(self, trained_run, capsys):
        assert main(["compare", str(trained_run), str(trained_run)]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows[0] == rows[1]

    def test_single_seed_std_zero_warning(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "solo.json", name="solo", seeds=[7],
                                output_dir=str(tmp_path / "runs"))
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        run = tmp_path / "runs" / "solo"
        assert main(["compare", str(run), str(run)]) == 0
        captured = capsys.readouterr()
        assert "single seed" in captured.err
        assert "±0.0000" in captured.out

    def test_incompatible_class_counts(self, trained_run, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "k4.json", name="k4",
                                output_dir=str(tmp_path / "runs"),
                                dataset={"kind": "blobs", "classes": 4,
                                         "per_class": 15, "test_per_class": 8,
                                         "spacing": 4.0, "seed": 1})
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        assert main(["compare", str(trained_run), str(tmp_path / "runs" / "k4")]) == 1
        assert "class counts" in capsys.readouterr().err

    @pytest.mark.parametrize("last_row, message", [
        (None, "is not JSON: "),  # the last row cut short, as by a crash mid-write
        (b"[1]\n", "is not a JSON object"),
        (b'{"epoch": 1, "test_acc": 1.0}\n', "is not a complete row for epoch "),
    ], ids=["cut-mid-write", "not-an-object", "epoch-out-of-order"])
    def test_bad_records_row_named(self, trained_run, tmp_path, capsys, last_row, message):
        run = tmp_path / "tiny"
        shutil.copytree(trained_run, run)
        records = run / "records" / "seed_1.jsonl"
        raw = records.read_bytes()
        lines = raw.count(b"\n")
        if last_row is None:
            records.write_bytes(raw[:raw.rindex(b",")])
        else:
            records.write_bytes(raw + last_row)
            lines += 1
        capsys.readouterr()
        assert main(["compare", str(run), str(run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {records}: line {lines} {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ("{}", "not a resolved run config"),
        ('{"name": "tiny",', "the run config is not JSON: "),
        ("[1]", "the run config is not a JSON object"),
        ('{"name": 3, "train": {"strategy": {"mode": "bsd"}}, "dataset": {}}',
         "not a resolved run config"),
        ('{"train": {"strategy": {"mode": "bsd"}}, "dataset": {"classes": [3]}}',
         "not a resolved run config"),
        (b'{"name": "tiny\xff"}', "the run config is not JSON: "),
    ], ids=["empty-object", "not-json", "not-an-object", "name-not-a-string", "classes-a-list",
            "not-utf8"])
    def test_bad_config_resolved_named(self, trained_run, tmp_path, capsys, text, message):
        run = tmp_path / "tiny"
        shutil.copytree(trained_run, run)
        config = run_layout(run)["config"]
        (config.write_bytes if isinstance(text, bytes) else config.write_text)(text)
        capsys.readouterr()
        assert main(["compare", str(run), str(trained_run)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: ")
        assert message in err
        assert err.count("\n") == 1


STRAY = "{run}/{copy}: name does not end in _<digits>"
TWICE = "{run}/{source}: {name} has the same number"


@pytest.mark.parametrize("source, copy, what, message", [
    ("traces/seed_1/epoch_2.trace", "traces/seed_1/epoch_2 (copy).trace", "calibration", STRAY),
    ("traces/seed_1", "traces/seed_1 (copy)", "calibration", STRAY),
    ("records/seed_1.jsonl", "records/seed_1 (copy).jsonl", None, STRAY),
    ("traces/seed_1/epoch_3.trace", "traces/seed_1/epoch_03.trace", "flip", TWICE),
    ("traces/seed_1", "traces/seed_01", "flip", TWICE),
    ("traces/seed_1", "traces/seed_1.bak", "flip", STRAY),
], ids=["analyze-trace", "analyze-seed", "compare-records", "analyze-epoch-twice",
        "analyze-seed-twice", "analyze-seed-bak"])
def test_stray_file_name_named(trained_run, tmp_path, capsys, source, copy, what, message):
    """A copied file or directory under a run ends ``analyze`` (``compare`` when
    ``what`` is None) with one line naming it."""
    run = tmp_path / "tiny"
    shutil.copytree(trained_run, run)
    (shutil.copytree if (run / source).is_dir() else shutil.copy)(run / source, run / copy)
    capsys.readouterr()
    argv = (["compare", str(run), str(run)] if what is None
            else ["analyze", str(run), "--what", what])
    assert main(argv) == 1
    message = message.format(run=run, source=source, copy=copy, name=Path(copy).name)
    assert capsys.readouterr().err == f"error: {message}\n"


class TestExportDataset:
    def test_csv_round_trip(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"))
        out = tmp_path / "data.csv"
        assert main(["export-dataset", str(cfg_path), "--out", str(out)]) == 0
        ds = load_csv(out)
        assert ds.n == 60 and ds.k == 3

    def test_test_split(self, tmp_path):
        cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"))
        out = tmp_path / "test.csv"
        assert main(["export-dataset", str(cfg_path), "--out", str(out),
                     "--split", "test"]) == 0
        assert load_csv(out).n == 30

    def test_grid_idx_pair(self, tmp_path):
        cfg_path, _ = dataset_config(tmp_path, "idx")
        cfg = json.loads(cfg_path.read_text())
        cfg["noise"] = {"kind": "symmetric", "rate": 0.5, "seed": 4}
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "exported"
        # pixels / 255 round-trip through rint(x * 255), so the test split is its files
        assert main(["export-dataset", str(cfg_path), "--out", str(out), "--split", "test"]) == 0
        for part in ("images", "labels"):
            exported = (tmp_path / f"exported.{part}.idx").read_bytes()
            assert exported == (tmp_path / f"test.{part}.idx").read_bytes()
        # the train split carries the noised labels
        train, _ = cli.build_datasets(parse_config(cfg_path))
        assert (train.labels != train.clean_labels).any()
        assert main(["export-dataset", str(cfg_path), "--out", str(out)]) == 0
        exported = load_idx(tmp_path / "exported.images.idx", tmp_path / "exported.labels.idx")
        assert np.array_equal(exported.labels, train.labels)
        assert np.array_equal(exported.samples, train.samples)


def dataset_config(tmp_path, kind):
    """A 1-epoch config over small csv or idx files; returns (config path, train data file)."""
    rng = np.random.default_rng(0)
    labels = np.arange(12) % 3
    if kind == "csv":
        for name in ("train.csv", "test.csv"):
            points = rng.normal(size=(12, 2)).tolist()
            rows = "".join(f"{x!r},{y!r},{c}\n" for (x, y), c in zip(points, labels))
            (tmp_path / name).write_text("x0,x1,label\n" + rows)
        dataset = {"kind": "csv", "path": "train.csv", "test_path": "test.csv"}
        model = {"hidden": [8], "dropout": 0.0}
        data_file = tmp_path / "train.csv"
    else:
        for split in ("train", "test"):
            write_idx(tmp_path / f"{split}.images.idx", rng.integers(0, 256, size=(12, 6, 6)))
            write_idx(tmp_path / f"{split}.labels.idx", labels)
        dataset = {"kind": "idx", "images": "train.images.idx", "labels": "train.labels.idx",
                   "test_images": "test.images.idx", "test_labels": "test.labels.idx"}
        model = {"architecture": "tiny-conv", "hidden": [8], "dropout": 0.0}
        data_file = tmp_path / "train.images.idx"
    cfg_path = write_config(tmp_path / "exp.json", output_dir=str(tmp_path / "runs"), seeds=[1],
                            dataset=dataset, model=model,
                            train={"epochs": 1, "batch_size": 4, "eval_every": 1})
    return cfg_path, data_file


class TestBadDatasetFile:
    # (dataset kind, csv row appended, message); an idx case's row is None (the
    # images file loses its last byte) or (file, shape) rewritten as zeros
    @pytest.mark.parametrize("kind, row, message", [
        ("csv", b"0.5,1\n", "train.csv: CSV row 14 has 2 fields, header has 3"),
        ("csv", b"abc,0.5,1\n", "train.csv: CSV row 14, column 'x0': 'abc' is not a number"),
        ("csv", b"0.5,0.5,1.5\n",
         "train.csv: CSV row 14, column 'label': '1.5' is not an integer label"),
        ("csv", b"0.5,0.5,-1\n",
         "train.csv: CSV row 14, column 'label': label out of range: -1 < 0"),
        ("csv", b"nan,0.5,1\n", "train.csv: CSV row 14, column 'x0': 'nan' is not a finite number"),
        ("csv", b"0.5,-inf,1\n",
         "train.csv: CSV row 14, column 'x1': '-inf' is not a finite number"),
        ("idx", None, "truncated IDX payload"),
        ("idx", ("train.images.idx", (12, 36)),
         "train.images.idx: expected 3-dimensional IDX image file, got 2 dims"),
        ("idx", ("train.labels.idx", (12, 1)),
         "train.labels.idx: expected 1-dimensional IDX label file, got 2 dims"),
        ("idx", ("train.labels.idx", (11,)), "train.labels.idx: IDX image/label counts differ"),
    ], ids=["csv-short-row", "csv-bad-feature", "csv-fractional-label", "csv-negative-label",
            "csv-nan-feature", "csv-inf-feature", "idx-truncated", "idx-images-2d",
            "idx-labels-2d", "idx-count-mismatch"])
    def test_train_and_export_exit_1(self, tmp_path, capsys, kind, row, message):
        cfg_path, data_file = dataset_config(tmp_path, kind)
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        run_dir = tmp_path / "runs" / "tiny"
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        if kind == "idx" and row is not None:
            write_idx(tmp_path / row[0], np.zeros(row[1]))
        else:
            raw = data_file.read_bytes()
            data_file.write_bytes(raw + row if kind == "csv" else raw[:-1])
        capsys.readouterr()
        out = tmp_path / "exported.csv"
        for argv in (["train", str(cfg_path), "--force", "--quiet"],
                     ["export-dataset", str(cfg_path), "--out", str(out)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and err.count("\n") == 1
        # the datasets are built before --force deletes anything
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before
        assert not any(tmp_path.glob("exported*"))

    @pytest.mark.parametrize("kind", ["csv", "idx"])
    def test_test_samples_of_another_shape_exit_1(self, tmp_path, capsys, kind):
        cfg_path, _ = dataset_config(tmp_path, kind)
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        run_dir = tmp_path / "runs" / "tiny"
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        if kind == "csv":  # 3 features against the train file's 2
            test_file = tmp_path / "test.csv"
            test_file.write_text("x0,x1,x2,label\n" + "0.5,0.5,0.5,1\n" * 12)
            shapes = "(3,), the train set's are (2,)"
        else:  # 7 x 7 grids against the train file's 6 x 6
            test_file = tmp_path / "test.images.idx"
            write_idx(test_file, np.zeros((12, 7, 7)))
            shapes = "(7, 7, 1), the train set's are (6, 6, 1)"
        capsys.readouterr()
        out = tmp_path / "exported.csv"
        for argv in (["train", str(cfg_path), "--force", "--quiet"],
                     ["export-dataset", str(cfg_path), "--out", str(out)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: {test_file.resolve()}: samples of shape {shapes}\n")
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before
        assert not any(tmp_path.glob("exported*"))

    @pytest.mark.parametrize("kind, key", [("csv", "test_path"), ("idx", "labels")])
    def test_directory_as_data_file_is_a_config_error(self, tmp_path, capsys, kind, key):
        cfg_path, _ = dataset_config(tmp_path, kind)
        cfg = json.loads(cfg_path.read_text())
        cfg["dataset"][key] = "."
        cfg_path.write_text(json.dumps(cfg))
        for flag in ("--dry-run", "--quiet"):
            assert main(["train", str(cfg_path), flag]) == 2
            assert capsys.readouterr().err == (f"config error: dataset.{key}: no such file "
                                               f"{tmp_path.resolve()}\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("kind", ["csv", "idx"])
    def test_empty_split_exits_1(self, tmp_path, capsys, kind):
        cfg_path, data_file = dataset_config(tmp_path, kind)
        assert main(["train", str(cfg_path), "--quiet"]) == 0
        run_dir = tmp_path / "runs" / "tiny"
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        if kind == "csv":
            data_file.write_text("x0,x1,label\n")
        else:
            write_idx(data_file, np.zeros((0, 6, 6)))
            write_idx(tmp_path / "train.labels.idx", np.zeros(0))
        capsys.readouterr()
        out = tmp_path / "exported.csv"
        for argv in (["train", str(cfg_path), "--force", "--quiet"],
                     ["export-dataset", str(cfg_path), "--out", str(out)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == f"error: {data_file}: no samples\n"
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before
        assert not any(tmp_path.glob("exported*"))
