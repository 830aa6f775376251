"""Command-line entry point: train, analyze, compare, export-dataset.

Commands are batch processes over a fixed run-directory layout:

    <output_dir>/<name>/
        config.resolved      resolved config echo (byte-stable)
        records/             per-seed epoch logs (jsonl) + final store snapshots
        checkpoints/         final model checkpoints + rolling training state
        traces/seed_<s>/     per-eval-epoch test-set prediction CSVs
        reports/             analyze outputs

The output root can be overridden with the BSDLAB_OUT_ROOT environment
variable. Everything except timing.txt is byte-reproducible from
(config, seeds).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis
from .config import ConfigError, ExperimentConfig, parse_config, resolved_json
from .data import apply_noise, load_csv, load_idx, make_blobs, write_idx
from .training import read_trace_csv, run_experiment, run_layout

OUT_ROOT_ENV = "BSDLAB_OUT_ROOT"

ANALYSES = ("calibration", "dark-knowledge", "dynamics", "ood", "flip")


def build_datasets(cfg: ExperimentConfig):
    """Construct (train, test) splits from the resolved dataset section."""
    d = cfg.resolved["dataset"]
    if d["kind"] == "blobs":
        train = make_blobs(d["classes"], d["per_class"], d["dim"], d["spacing"],
                           d["cov_scale"], seed=[d["seed"], 0], split="train")
        test = make_blobs(d["classes"], d["test_per_class"], d["dim"], d["spacing"],
                          d["cov_scale"], seed=[d["seed"], 1], split="test")
    elif d["kind"] == "csv":
        train = load_csv(d["path"], d["label_column"], split="train")
        test = load_csv(d["test_path"], d["label_column"], split="test")
        k = max(train.k, test.k)
        train, test = replace(train, k=k), replace(test, k=k)
    else:
        train = load_idx(d["images"], d["labels"], split="train")
        test = load_idx(d["test_images"], d["test_labels"], split="test")
        k = max(train.k, test.k)
        train, test = replace(train, k=k), replace(test, k=k)
    train = apply_noise(train, cfg.noise_spec())
    return train, test


def resolve_run_dir(cfg: ExperimentConfig):
    root = os.environ.get(OUT_ROOT_ENV) or cfg.output_dir
    return Path(root) / cfg.name


def cmd_train(args):
    cfg = parse_config(args.config)
    if args.dry_run:
        sys.stdout.write(resolved_json(cfg))
        return 0
    run_dir = resolve_run_dir(cfg)
    layout = run_layout(run_dir)
    if layout["config"].exists() and not args.force:
        print(f"error: {run_dir} already holds a run; pass --force to overwrite",
              file=sys.stderr)
        return 1
    train_set, test_set = build_datasets(cfg)
    grid_shape = train_set.samples.shape[1:] if train_set.is_grid else None
    model_spec = cfg.model_spec(train_set.d, train_set.k, grid_shape=grid_shape)
    train_cfg = cfg.train_config()
    layout["root"].mkdir(parents=True, exist_ok=True)
    layout["config"].write_text(resolved_json(cfg))

    def progress(seed, row):
        if row["test_acc"] is None or args.quiet:
            return
        print(f"seed {seed} epoch {row['epoch']:4d}  loss {row['train_loss']:.4f}  "
              f"acc {row['test_acc']:.4f}  ece {row['test_ece']:.4f}")

    try:
        run_experiment(model_spec, train_set, test_set, train_cfg, cfg.seeds,
                       run_dir, config_snapshot=cfg.resolved, progress=progress)
    except Exception as exc:
        print(f"error: training failed: {exc}", file=sys.stderr)
        return 1
    print(f"run complete: {run_dir}")
    return 0


def _seed_dirs(layout):
    traces = sorted(layout["traces"].glob("seed_*"))
    if not traces:
        raise FileNotFoundError(
            f"no traces under {layout['traces']}; run 'bsdlab train' first "
            "(eval traces are written every train.eval_every epochs)")
    return traces


def _trace_epochs(seed_dir):
    files = {}
    for path in seed_dir.glob("epoch_*.csv"):
        files[int(path.stem.split("_")[1])] = path
    if not files:
        raise FileNotFoundError(f"no epoch traces in {seed_dir}")
    return dict(sorted(files.items()))


def _final_trace(seed_dir):
    epochs = _trace_epochs(seed_dir)
    last = max(epochs)
    return read_trace_csv(epochs[last]), last


def _analyze_calibration(layout):
    out = []
    for seed_dir in _seed_dirs(layout):
        seed = seed_dir.name.split("_")[1]
        (preds, labels, _), _epoch = _final_trace(seed_dir)
        report = analysis.calibration_report(preds, labels)
        analysis.write_report_json(report, layout["reports"] / f"calibration_seed_{seed}.json")
        analysis.write_bins_csv(report, layout["reports"] / f"reliability_seed_{seed}.csv")
        out.append((seed, report))
    return out


def _analyze_dark_knowledge(layout):
    for seed_dir in _seed_dirs(layout):
        seed = seed_dir.name.split("_")[1]
        (preds, labels, k), _epoch = _final_trace(seed_dir)
        mu = analysis.mu_matrix(preds, labels, k)
        dk = analysis.delta_decomposition(preds, labels, mu)
        analysis.write_mu_csv(mu, layout["reports"] / f"mu_seed_{seed}.csv")
        # plot-ready log-scale heatmap data, floored to keep zeros finite
        analysis.write_mu_csv(np.log10(np.maximum(mu, 1e-12)),
                              layout["reports"] / f"mu_log10_seed_{seed}.csv")
        summary = {
            "class_mean_delta_l1": [float(v) for v in dk.class_mean_delta_l1],
            "mu_row_sums": [float(v) for v in dk.mu_row_sums],
        }
        with open(layout["reports"] / f"dark_knowledge_seed_{seed}.json", "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _analyze_dynamics(layout):
    for seed_dir in _seed_dirs(layout):
        seed = seed_dir.name.split("_")[1]
        epochs = _trace_epochs(seed_dir)
        last = max(epochs)
        final_preds, labels, _ = read_trace_csv(epochs[last])
        t_final = analysis.fit_temperature(np.log(np.maximum(final_preds, 1e-12)), labels)
        rows = []
        for epoch, path in epochs.items():
            if epoch == last:
                snap_preds, t_snap = final_preds, t_final
            else:
                snap_preds, _, _ = read_trace_csv(path)
                t_snap = analysis.fit_temperature(np.log(np.maximum(snap_preds, 1e-12)), labels)
            kl_snap_fit = analysis.temp_adjusted_kl(snap_preds, final_preds, (t_snap, t_final))
            kl_final_fit = analysis.temp_adjusted_kl(snap_preds, final_preds, (t_final, t_final))
            rows.append((epoch, t_snap, kl_snap_fit, kl_final_fit))
        with open(layout["reports"] / f"dynamics_seed_{seed}.csv", "w") as fh:
            fh.write("epoch,fitted_temperature,kl_snapshot_fit,kl_final_fit\n")
            for epoch, t_snap, a, b in rows:
                fh.write(f"{epoch},{repr(t_snap)},{repr(a)},{repr(b)}\n")


def _analyze_ood(layout, ood_run):
    if ood_run is None:
        raise FileNotFoundError(
            "ood analysis needs a second trace set; pass --ood-run <run_dir>")
    ood_layout = run_layout(ood_run)
    results = {}
    for seed_dir in _seed_dirs(layout):
        seed = seed_dir.name.split("_")[1]
        ood_dir = ood_layout["traces"] / seed_dir.name
        if not ood_dir.exists():
            raise FileNotFoundError(
                f"missing OOD trace {ood_dir}; train the --ood-run with the same seeds")
        (id_preds, _, _), _ = _final_trace(seed_dir)
        (ood_preds, _, _), _ = _final_trace(ood_dir)
        results[seed] = analysis.auroc(id_preds.max(axis=1), ood_preds.max(axis=1))
    with open(layout["reports"] / "ood_auroc.json", "w") as fh:
        json.dump(results, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return results


def _analyze_flip(layout):
    results = {}
    for seed_dir in _seed_dirs(layout):
        seed = seed_dir.name.split("_")[1]
        epochs = _trace_epochs(seed_dir)
        if len(epochs) < 2:
            raise ValueError(
                f"flip analysis needs >= 2 eval traces in {seed_dir}; "
                "lower train.eval_every")
        frames = [read_trace_csv(path)[0].argmax(axis=1) for path in epochs.values()]
        stacked = np.stack(frames, axis=1)  # (n, frames)
        results[seed] = analysis.mean_flip_probability(stacked)
    with open(layout["reports"] / "flip.json", "w") as fh:
        json.dump(results, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return results


def cmd_analyze(args):
    layout = run_layout(args.run_dir)
    layout["reports"].mkdir(parents=True, exist_ok=True)
    try:
        if args.what == "calibration":
            for seed, report in _analyze_calibration(layout):
                print(f"seed {seed}: acc {report.accuracy:.4f}  ece {report.ece:.4f}  "
                      f"sce {report.sce:.4f}  ace {report.ace:.4f}  nll {report.nll:.4f}")
        elif args.what == "dark-knowledge":
            _analyze_dark_knowledge(layout)
        elif args.what == "dynamics":
            _analyze_dynamics(layout)
        elif args.what == "ood":
            for seed, score in _analyze_ood(layout, args.ood_run).items():
                print(f"seed {seed}: auroc {score:.4f}")
        else:
            for seed, rate in _analyze_flip(layout).items():
                print(f"seed {seed}: mean flip probability {rate:.4f}")
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"reports written to {layout['reports']}")
    return 0


def _final_metrics(records_path):
    metrics = None
    with open(records_path) as fh:
        for line in fh:
            row = json.loads(line)
            if row.get("test_acc") is not None:
                metrics = row
    return metrics


def _collect_run(run_dir):
    layout = run_layout(run_dir)
    config_path = layout["config"]
    name = Path(run_dir).name
    mode = "?"
    classes = None
    if config_path.exists():
        resolved = json.loads(config_path.read_text())
        name = resolved.get("name", name)
        mode = resolved["train"]["strategy"]["mode"]
        classes = resolved["dataset"].get("classes")
    per_seed = {}
    for rec in sorted(layout["records"].glob("seed_*.jsonl")):
        seed = int(rec.stem.split("_")[1])
        metrics = _final_metrics(rec)
        if metrics is not None:
            per_seed[seed] = metrics
    if classes is None and per_seed:
        trace_dirs = sorted(layout["traces"].glob("seed_*"))
        if trace_dirs:
            (_preds, _labels, k), _ = _final_trace(trace_dirs[0])
            classes = k
    return {"dir": str(run_dir), "name": name, "mode": mode, "classes": classes,
            "per_seed": per_seed}


def _mean_std(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def cmd_compare(args):
    if len(args.run_dirs) < 2:
        print("error: compare needs at least two run directories", file=sys.stderr)
        return 2
    runs = [_collect_run(d) for d in args.run_dirs]
    for run in runs:
        if not run["per_seed"]:
            print(f"error: no completed records under {run['dir']}", file=sys.stderr)
            return 1
    class_counts = {run["classes"] for run in runs if run["classes"] is not None}
    if len(class_counts) > 1:
        print(f"error: incompatible class counts across runs: {sorted(class_counts)}",
              file=sys.stderr)
        return 1
    header = ["run", "mode", "seeds", "acc", "ece", "nll"]
    table = []
    for run in runs:
        seeds = sorted(run["per_seed"])
        if len(seeds) == 1:
            print(f"warning: {run['name']} has a single seed; std reported as 0",
                  file=sys.stderr)
        cells = [run["name"], run["mode"], str(len(seeds))]
        for key in ("test_acc", "test_ece", "test_nll"):
            vals = [run["per_seed"][s][key] for s in seeds if run["per_seed"][s].get(key) is not None]
            if not vals:
                cells.append("absent")
            else:
                mean, std = _mean_std(vals)
                cells.append(f"{mean:.4f}±{std:.4f}")
        table.append(cells)
    widths = [max(len(header[j]), *(len(row[j]) for row in table)) for j in range(len(header))]
    lines = ["  ".join(h.ljust(widths[j]) for j, h in enumerate(header))]
    lines += ["  ".join(c.ljust(widths[j]) for j, c in enumerate(row)) for row in table]
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in table:
                fh.write(",".join(row) + "\n")
        print(f"csv written to {args.out}")
    return 0


def cmd_export_dataset(args):
    cfg = parse_config(args.config)
    train_set, test_set = build_datasets(cfg)
    dataset = train_set if args.split == "train" else test_set
    out = Path(args.out)
    if dataset.is_grid:
        images = np.clip(np.rint(dataset.samples[..., 0] * 255.0), 0, 255).astype(np.uint8)
        write_idx(out.with_suffix(".images.idx"), images)
        write_idx(out.with_suffix(".labels.idx"), dataset.labels.astype(np.uint8))
        print(f"wrote {out.with_suffix('.images.idx')} and {out.with_suffix('.labels.idx')}")
    else:
        from .data import export_csv
        export_csv(dataset, out)
        print(f"wrote {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bsdlab",
        description="Desk-scale self-distillation training laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the experiment described by a config file")
    p_train.add_argument("config", help="path to a JSON experiment config")
    p_train.add_argument("--force", action="store_true",
                         help="overwrite an existing run directory")
    p_train.add_argument("--dry-run", action="store_true",
                         help="validate and print the resolved config, then exit")
    p_train.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p_train.set_defaults(func=cmd_train)

    p_an = sub.add_parser("analyze", help="compute reports from a finished run")
    p_an.add_argument("run_dir", help="run directory produced by 'train'")
    p_an.add_argument("--what", choices=ANALYSES, required=True)
    p_an.add_argument("--ood-run", default=None,
                      help="second run directory scoring out-of-distribution data")
    p_an.set_defaults(func=cmd_analyze)

    p_cmp = sub.add_parser("compare", help="consolidated metric table across runs")
    p_cmp.add_argument("run_dirs", nargs="+", help="two or more run directories")
    p_cmp.add_argument("--out", default=None, help="also write the table as CSV")
    p_cmp.set_defaults(func=cmd_compare)

    p_exp = sub.add_parser("export-dataset", help="materialize a config's dataset to disk")
    p_exp.add_argument("config")
    p_exp.add_argument("--out", required=True, help="output path (csv for vectors, idx pair for grids)")
    p_exp.add_argument("--split", choices=("train", "test"), default="train")
    p_exp.set_defaults(func=cmd_export_dataset)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
