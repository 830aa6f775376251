"""Command-line entry point: train, analyze, compare, export-dataset.

Commands are batch processes over a run directory, ``<output_dir>/<name>/``. Its files
are named once, in ``training.run_layout``, ``seed_files`` and ``trace_file``; ``analyze``
takes a run's seeds from its trace directories (``training.run_traces``), ``compare`` from
its records files. The CSV exports are for other tools; no command reads them back.

The output root can be overridden with the BSDLAB_OUT_ROOT environment variable.
Everything except timing.txt is byte-reproducible from (config, seeds). Training first
deletes the layout's entries of a previous run (``training.previous_run``), which
``train`` refuses to do without ``--force``. A bad input file ends a command with
``error: ...`` and exit 1, a bad config with exit 2.

To add an analysis, write a function ``(layout, seed, epochs, ood_epochs)`` that
writes one seed's reports and returns its result (``ood_epochs``: the seed's traces in
the ``--ood-run``, for ``ood`` only), and give it an ``ANALYSES`` row: the function,
the summary JSON of ``{seed: result}`` (or None) and the line printed per seed from
``(seed, result)`` (or None).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis
from .config import ConfigError, ExperimentConfig, parse_config, resolved_json
from .data import apply_noise, export_csv, load_csv, load_idx, make_blobs, write_idx
from .fileio import json_object, write_json, write_table
from .numerics import PROB_FLOOR, _class_reduce
from .training import (TrainingDiverged, numbered, previous_run, read_records, read_trace_csv,
                       run_experiment, run_layout, run_traces, seed_files)

OUT_ROOT_ENV = "BSDLAB_OUT_ROOT"


def build_datasets(cfg: ExperimentConfig):
    """Construct (train, test) splits from the resolved dataset section."""
    d = cfg.resolved["dataset"]
    if d["kind"] == "blobs":
        train = make_blobs(d["classes"], d["per_class"], d["dim"], d["spacing"],
                           d["cov_scale"], seed=[d["seed"], 0])
        test = make_blobs(d["classes"], d["test_per_class"], d["dim"], d["spacing"],
                          d["cov_scale"], seed=[d["seed"], 1])
    elif d["kind"] == "csv":
        train = load_csv(d["path"], d["label_column"])
        test = load_csv(d["test_path"], d["label_column"])
    else:
        train = load_idx(d["images"], d["labels"])
        test = load_idx(d["test_images"], d["test_labels"])
    if test.samples.shape[1:] != train.samples.shape[1:]:  # blobs share one dim
        raise ValueError(f"{d.get('test_path') or d['test_images']}: samples of shape "
                         f"{test.samples.shape[1:]}, the train set's are "
                         f"{train.samples.shape[1:]}")
    k = max(train.k, test.k)  # a file's split may lack the top class
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
    if not args.force and previous_run(run_layout(run_dir)):
        raise FileExistsError(f"{run_dir} already holds a run; pass --force to overwrite")
    train_set, test_set = build_datasets(cfg)
    grid_shape = train_set.samples.shape[1:] if train_set.is_grid else None
    model_spec = cfg.model_spec(train_set.d, train_set.k, grid_shape=grid_shape)
    train_cfg = cfg.train_config()

    def progress(seed, row):
        if row["test_acc"] is None or args.quiet:
            return
        print(f"seed {seed} epoch {row['epoch']:4d}  loss {row['train_loss']:.4f}  "
              f"acc {row['test_acc']:.4f}  ece {row['test_ece']:.4f}")

    try:
        run_experiment(model_spec, train_set, test_set, train_cfg, cfg.seeds,
                       run_dir, config_snapshot=cfg.resolved, progress=progress)
    except TrainingDiverged as exc:
        print(f"error: training failed: {exc}", file=sys.stderr)
        return 1
    print(f"run complete: {run_dir}")
    return 0


def _final_trace(epochs):
    return read_trace_csv(epochs[max(epochs)])


def _earlier_trace(path, final_preds, labels):
    """The predictions of a seed's earlier trace ``path``; one whose shape or labels are not
    those of the seed's final trace (``final_preds``, ``labels``) raises."""
    preds, own_labels, _ = read_trace_csv(path)
    if preds.shape != final_preds.shape:
        raise ValueError(f"{path}: predictions of shape {preds.shape}, the seed's final trace "
                         f"has {final_preds.shape}")
    if not np.array_equal(own_labels, labels):
        raise ValueError(f"{path}: labels differ from the seed's final trace")
    return preds


def _analyze_calibration(layout, seed, epochs, ood_epochs):
    preds, labels, _ = _final_trace(epochs)
    report = analysis.calibration_report(preds, labels)
    write_json(layout["reports"] / f"calibration_seed_{seed}.json", vars(report))
    write_table(layout["reports"] / f"reliability_seed_{seed}.csv",
                ["bin_lo", "bin_hi", "conf", "acc", "count"],
                [report.bin_lo, report.bin_hi, report.bin_conf, report.bin_acc,
                 report.bin_count], newline="\r\n")
    return report


def _analyze_dark_knowledge(layout, seed, epochs, ood_epochs):
    preds, labels, k = _final_trace(epochs)
    mu = analysis.mu_matrix(preds, labels, k)
    dk = analysis.delta_decomposition(preds, labels, mu)
    header = [f"class_{j}" for j in range(k)]
    write_table(layout["reports"] / f"mu_seed_{seed}.csv", header, [mu], newline="\r\n")
    # plot-ready log-scale heatmap data, floored to keep zeros finite
    write_table(layout["reports"] / f"mu_log10_seed_{seed}.csv", header,
                [np.log10(np.maximum(mu, PROB_FLOOR))], newline="\r\n")
    write_json(layout["reports"] / f"dark_knowledge_seed_{seed}.json",
               {"class_mean_delta_l1": dk.class_mean_delta_l1.tolist(),
                "mu_row_sums": dk.mu_row_sums.tolist()})


def _analyze_dynamics(layout, seed, epochs, ood_epochs):
    last = max(epochs)
    final_preds, labels, _ = read_trace_csv(epochs[last])
    t_final = analysis.fit_temperature(analysis._logits_from_preds(final_preds), labels)
    final_at_t = analysis.temperature_scale(final_preds, t_final)
    rows = []
    for epoch, path in epochs.items():
        # each KL is temp_adjusted_kl(snapshot, final, (t, t_final)), with the
        # rescaled final trace shared by every epoch of the seed
        if epoch == last:
            t_snap, at_fit, at_final = t_final, final_at_t, final_at_t
        else:
            snap_preds = _earlier_trace(path, final_preds, labels)
            t_snap = analysis.fit_temperature(analysis._logits_from_preds(snap_preds), labels)
            at_fit = analysis.temperature_scale(snap_preds, t_snap)
            at_final = (at_fit if t_snap == t_final
                        else analysis.temperature_scale(snap_preds, t_final))
        rows.append((epoch, t_snap, analysis.mean_kl(final_at_t, at_fit),
                     analysis.mean_kl(final_at_t, at_final)))
        edge = analysis.domain_edge(t_snap)
        if edge is not None:
            print(f"warning: seed {seed}, epoch {epoch}: fitted temperature {t_snap!r} is at the "
                  f"search edge {edge}; the NLL's minimum may lie outside "
                  f"[{analysis.T_LO}, {analysis.T_HI}]", file=sys.stderr)
    write_table(layout["reports"] / f"dynamics_seed_{seed}.csv",
                ["epoch", "fitted_temperature", "kl_snapshot_fit", "kl_final_fit"],
                list(zip(*rows)))


def _ood_traces(args, seeds):
    """The ``--ood-run``'s traces, read once per command; it must hold every seed of ``seeds``."""
    if args.ood_run is None:
        raise FileNotFoundError("ood analysis needs a second trace set; pass --ood-run <run_dir>")
    ood = run_traces(run_layout(args.ood_run))
    for seed in seeds:
        if seed not in ood:
            raise FileNotFoundError(f"missing OOD traces for seed {seed} in {args.ood_run}; "
                                    "train the --ood-run with the same seeds")
    return ood


def _analyze_ood(layout, seed, epochs, ood_epochs):
    id_preds, _, _ = _final_trace(epochs)
    ood_preds, _, _ = _final_trace(ood_epochs)
    return analysis.auroc(_class_reduce(np.maximum, id_preds),
                          _class_reduce(np.maximum, ood_preds))


def _analyze_flip(layout, seed, epochs, ood_epochs):
    if len(epochs) < 2:
        raise ValueError(f"flip analysis needs >= 2 eval traces for seed {seed}; "
                         "lower train.eval_every")
    last = max(epochs)
    final_preds, labels, _ = read_trace_csv(epochs[last])
    frames = []
    for epoch, path in epochs.items():
        preds = final_preds if epoch == last else _earlier_trace(path, final_preds, labels)
        frames.append(preds.argmax(axis=1))
    return analysis.mean_flip_probability(np.stack(frames, axis=1))  # (n, frames)


ANALYSES = {
    "calibration": (_analyze_calibration, None,
                    "seed {0}: acc {1.accuracy:.4f}  ece {1.ece:.4f}  sce {1.sce:.4f}  "
                    "ace {1.ace:.4f}  nll {1.nll:.4f}"),
    "dark-knowledge": (_analyze_dark_knowledge, None, None),
    "dynamics": (_analyze_dynamics, None, None),
    "ood": (_analyze_ood, "ood_auroc.json", "seed {0}: auroc {1:.4f}"),
    "flip": (_analyze_flip, "flip.json", "seed {0}: mean flip probability {1:.4f}"),
}


def cmd_analyze(args):
    analyze, summary, line = ANALYSES[args.what]
    layout = run_layout(args.run_dir)
    seeds = run_traces(layout)  # first, with the --ood-run's, so a refused run gets no reports/
    ood = _ood_traces(args, seeds) if args.what == "ood" else {}
    layout["reports"].mkdir(exist_ok=True)
    results = [(seed, analyze(layout, seed, epochs, ood.get(seed)))
               for seed, epochs in seeds.items()]
    if summary:
        write_json(layout["reports"] / summary, dict(results))
    if line:
        for seed, result in results:
            print(line.format(seed, result))
    print(f"reports written to {layout['reports']}")
    return 0


def _collect_run(run_dir):
    layout = run_layout(run_dir)
    config_path = layout["config"]
    name = Path(run_dir).name
    mode = "?"
    classes = None
    if config_path.exists():
        resolved = json_object(config_path.read_bytes(), f"{config_path}: the run config")
        train, dataset = resolved.get("train"), resolved.get("dataset")
        strategy = train.get("strategy") if isinstance(train, dict) else None
        mode = strategy.get("mode") if isinstance(strategy, dict) else None
        name = resolved.get("name", name)
        classes = dataset.get("classes") if isinstance(dataset, dict) else None
        if not (isinstance(mode, str) and isinstance(name, str) and isinstance(dataset, dict)
                and (classes is None or type(classes) is int)):
            raise ValueError(f"{config_path}: not a resolved run config (needs a string name and "
                             "train.strategy.mode, and a dataset object with int or no classes)")
    per_seed = {}
    for seed, path in numbered(seed_files(layout, "*")["records"]).items():
        with open(path, "rb") as fh:
            evaluated = [row for row in read_records(fh) if row.get("test_acc") is not None]
        if evaluated:
            per_seed[seed] = evaluated[-1]
    if classes is None and per_seed and numbered(seed_files(layout, "*")["traces"]):
        classes = _final_trace(next(iter(run_traces(layout).values())))[2]  # the lowest seed's
    return {"dir": str(run_dir), "name": name, "mode": mode, "classes": classes,
            "per_seed": per_seed}


def cmd_compare(args):
    if len(args.run_dirs) < 2:
        print("error: compare needs at least two run directories", file=sys.stderr)
        return 2
    runs = [_collect_run(d) for d in args.run_dirs]
    for run in runs:
        if not run["per_seed"]:
            raise FileNotFoundError(f"no completed records under {run['dir']}")
    class_counts = {run["classes"] for run in runs if run["classes"] is not None}
    if len(class_counts) > 1:
        raise ValueError(f"incompatible class counts across runs: {sorted(class_counts)}")
    header = ["run", "mode", "seeds", "acc", "ece", "nll"]
    table = []
    for run in runs:
        seeds = sorted(run["per_seed"])
        if len(seeds) == 1:
            print(f"warning: {run['name']} has a single seed; std reported as 0",
                  file=sys.stderr)
        cells = [run["name"], run["mode"], str(len(seeds))]
        for key in ("test_acc", "test_ece", "test_nll"):
            vals = np.array([run["per_seed"][s][key] for s in seeds
                             if run["per_seed"][s].get(key) is not None], dtype=np.float64)
            cells.append(f"{vals.mean():.4f}±{vals.std():.4f}" if vals.size else "absent")
        table.append(cells)
    widths = [max(len(header[j]), *(len(row[j]) for row in table)) for j in range(len(header))]
    lines = ["  ".join(h.ljust(widths[j]) for j, h in enumerate(header))]
    lines += ["  ".join(c.ljust(widths[j]) for j, c in enumerate(row)) for row in table]
    print("\n".join(lines))
    if args.out:
        write_table(args.out, header, list(zip(*table)))
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
        export_csv(dataset, out)
        print(f"wrote {out}")
    return 0


@functools.cache  # argparse keeps no state between parse_args calls
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # input a command cannot use: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
