import json

import numpy as np
import pytest

from bsdlab import analysis, cli
from bsdlab.cli import main
from bsdlab.config import ConfigError, parse_config, resolved_json
from bsdlab.data import load_csv
from bsdlab.training import run_layout


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
        assert cfg.resolved["name"] == "min"
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

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"strategy": {"gamma": 2.0}}}))
        assert main(["train", str(bad)]) == 2
        assert "gamma" in capsys.readouterr().err

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
        tdir = run_dir / "traces" / "seed_0"
        tdir.mkdir(parents=True)
        lines = ["sample_id,label,p_0,p_1,p_2"]
        for i in range(9):
            label = i % 3
            probs = ["0.0"] * 3
            probs[label] = "1.0"
            lines.append(f"{i},{label}," + ",".join(probs))
        (tdir / "epoch_1.csv").write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(run_dir), "--what", "calibration"]) == 0
        report = json.loads((run_dir / "reports" / "calibration_seed_0.json").read_text())
        assert report["ece"] == 0.0 and report["sce"] == 0.0 and report["ace"] == 0.0
        assert report["nll"] == 0.0 and report["accuracy"] == 1.0

    @pytest.mark.parametrize("what", ["calibration", "dark-knowledge", "dynamics"])
    def test_out_of_range_label_is_an_error(self, tmp_path, capsys, what):
        tdir = tmp_path / "bad" / "traces" / "seed_0"
        tdir.mkdir(parents=True)
        rows = [f"{i},{i % 3},0.5,0.25,0.25" for i in range(6)] + ["6,3,0.5,0.25,0.25"]
        (tdir / "epoch_1.csv").write_text("sample_id,label,p_0,p_1,p_2\n" + "\n".join(rows) + "\n")
        assert main(["analyze", str(tmp_path / "bad"), "--what", what]) == 1
        assert capsys.readouterr().err == "error: label out of range [0, 3)\n"

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

    def test_dynamics_reads_and_fits_each_trace_once(self, trained_run, monkeypatch):
        calls = {"read": 0, "fit": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "read_trace_csv", counted("read", cli.read_trace_csv))
        monkeypatch.setattr(analysis, "fit_temperature",
                            counted("fit", analysis.fit_temperature))
        assert main(["analyze", str(trained_run), "--what", "dynamics"]) == 0
        assert calls == {"read": 6, "fit": 6}  # 2 seeds x 3 eval epochs

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

    def test_missing_traces_named(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "empty"), "--what", "calibration"]) == 1
        err = capsys.readouterr().err
        assert "traces" in err and "train" in err


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
