"""Experiment configuration: strict JSON schema with fully resolved defaults.

Unknown keys are hard errors (with a nearest-match suggestion) because a
silently ignored typo in gamma or c would invalidate an experiment invisibly.
``parse_config`` returns the resolved form; serializing it and parsing again
yields an identical resolved config.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass
from pathlib import Path

from .data import NoiseSpec
from .models import ModelSpec
from .targets import STRATEGY_MODES, StrategyConfig
from .training import BsdPlusConfig, TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "resolved_json"]


class ConfigError(ValueError):
    pass


def _reject_unknown(section, given, allowed):
    for key in given:
        if key not in allowed:
            hint = difflib.get_close_matches(key, allowed, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"unknown key {key!r} in {section}{suffix}")


def _get(section_name, section, key, default, kind, check=None, msg=None):
    value = section.get(key, default)
    if value is None and default is None:
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{section_name}.{key} must be {kind.__name__}, got {value!r}")
    if check is not None and not check(value):
        raise ConfigError(msg or f"{section_name}.{key} has invalid value {value!r}")
    return value


_DATASET_KEYS = {
    "blobs": {"kind", "classes", "per_class", "test_per_class", "dim", "spacing",
              "cov_scale", "seed"},
    "csv": {"kind", "path", "test_path", "label_column"},
    "idx": {"kind", "images", "labels", "test_images", "test_labels"},
}

_BLOBS_DEFAULTS = {"classes": 4, "per_class": 1000, "test_per_class": 250,
                   "dim": 2, "spacing": 3.0, "cov_scale": 1.0, "seed": 0}


def _resolve_dataset(section, base_dir):
    kind = section.get("kind", "blobs")
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind must be one of {sorted(_DATASET_KEYS)}, got {kind!r}")
    _reject_unknown("dataset", section, _DATASET_KEYS[kind])
    out = {"kind": kind}
    if kind == "blobs":
        for key, default in _BLOBS_DEFAULTS.items():
            num = float if isinstance(default, float) else int
            out[key] = _get("dataset", section, key, default, num)
        if out["classes"] < 2:
            raise ConfigError("dataset.classes must be >= 2")
        if out["per_class"] < 1 or out["test_per_class"] < 1:
            raise ConfigError("dataset.per_class and test_per_class must be >= 1")
    else:
        path_keys = ("path", "test_path") if kind == "csv" else (
            "images", "labels", "test_images", "test_labels")
        for key in path_keys:
            value = section.get(key)
            if not isinstance(value, str):
                raise ConfigError(f"dataset.{key} is required for kind {kind!r}")
            resolved = str((base_dir / value).resolve()) if not Path(value).is_absolute() else value
            if not Path(resolved).exists():
                raise ConfigError(f"dataset.{key}: no such file {resolved}")
            out[key] = resolved
        if kind == "csv":
            out["label_column"] = _get("dataset", section, "label_column", "label", str)
    return out


_MODEL_DEFAULTS = {"hidden": [32, 32], "activation": "relu", "architecture": "mlp",
                   "dropout": 0.1}


def _resolve_model(section):
    _reject_unknown("model", section, set(_MODEL_DEFAULTS))
    hidden = section.get("hidden", _MODEL_DEFAULTS["hidden"])
    if not isinstance(hidden, list) or not all(isinstance(h, int) and h >= 1 for h in hidden):
        raise ConfigError("model.hidden must be a list of positive integers")
    return {
        "hidden": hidden,
        "activation": _get("model", section, "activation", "relu", str,
                           lambda v: v in ("relu", "tanh"),
                           "model.activation must be 'relu' or 'tanh'"),
        "architecture": _get("model", section, "architecture", "mlp", str,
                             lambda v: v in ("mlp", "tiny-conv"),
                             "model.architecture must be 'mlp' or 'tiny-conv'"),
        "dropout": _get("model", section, "dropout", 0.1, float,
                        lambda v: 0.0 <= v < 1.0, "model.dropout must be in [0, 1)"),
    }


_STRATEGY_DEFAULTS = {"mode": "bsd", "gamma": 0.95, "c": 1000.0, "epsilon": 0.0,
                      "ls_alpha": 0.1, "pskd_alpha": 0.8, "te_momentum": 0.6}


def _resolve_strategy(section):
    _reject_unknown("train.strategy", section, set(_STRATEGY_DEFAULTS))
    mode = _get("train.strategy", section, "mode", "bsd", str,
                lambda v: v in STRATEGY_MODES,
                f"train.strategy.mode must be one of {list(STRATEGY_MODES)}")
    out = {
        "mode": mode,
        "gamma": _get("train.strategy", section, "gamma", 0.95, float,
                      lambda v: 0.0 <= v <= 1.0, "gamma must be in [0,1]"),
        "c": _get("train.strategy", section, "c", 1000.0, float,
                  lambda v: v > 0.0, "c must be > 0"),
        "epsilon": _get("train.strategy", section, "epsilon", 0.0, float,
                        lambda v: v >= 0.0, "epsilon must be >= 0"),
        "ls_alpha": _get("train.strategy", section, "ls_alpha", 0.1, float,
                         lambda v: 0.0 <= v < 1.0, "ls_alpha must be in [0,1)"),
        "pskd_alpha": _get("train.strategy", section, "pskd_alpha", 0.8, float,
                           lambda v: 0.0 <= v <= 1.0, "pskd_alpha must be in [0,1]"),
        "te_momentum": _get("train.strategy", section, "te_momentum", 0.6, float,
                            lambda v: 0.0 < v < 1.0, "te_momentum must be in (0,1)"),
    }
    try:
        StrategyConfig(**out)
    except ValueError as exc:
        raise ConfigError(f"train.strategy: {exc}") from exc
    return out


_BSD_PLUS_DEFAULTS = {"enabled": False, "lambda": 2.0, "views": 2,
                      "weak_jitter": 0.05, "strong_jitter": 0.2, "erase_frac": 0.3}

_TRAIN_SCALARS = {
    "epochs": (100, int, lambda v: v >= 1, "train.epochs must be >= 1"),
    "batch_size": (128, int, lambda v: v >= 1, "train.batch_size must be >= 1"),
    "optimizer": ("adam", str, lambda v: v in ("adam", "sgd"),
                  "train.optimizer must be 'adam' or 'sgd'"),
    "lr": (0.01, float, lambda v: v >= 0.0, "train.lr must be >= 0"),
    "momentum": (0.9, float, lambda v: 0.0 <= v < 1.0, "train.momentum must be in [0,1)"),
    "beta1": (0.9, float, lambda v: 0.0 <= v < 1.0, "train.beta1 must be in [0,1)"),
    "beta2": (0.999, float, lambda v: 0.0 <= v < 1.0, "train.beta2 must be in [0,1)"),
    "adam_eps": (1e-8, float, lambda v: v > 0.0, "train.adam_eps must be > 0"),
    "weight_decay": (0.0, float, lambda v: v >= 0.0, "train.weight_decay must be >= 0"),
    "schedule": ("constant", str, lambda v: v in ("constant", "cosine"),
                 "train.schedule must be 'constant' or 'cosine'"),
    "tau": (1.0, float, lambda v: v > 0.0, "train.tau must be > 0"),
    "eval_every": (5, int, lambda v: v >= 1, "train.eval_every must be >= 1"),
}


def _resolve_train(section):
    allowed = set(_TRAIN_SCALARS) | {"strategy", "bsd_plus"}
    _reject_unknown("train", section, allowed)
    out = {}
    for key, (default, kind, check, msg) in _TRAIN_SCALARS.items():
        out[key] = _get("train", section, key, default, kind, check, msg)
    out["strategy"] = _resolve_strategy(section.get("strategy", {}))
    plus = section.get("bsd_plus", {})
    _reject_unknown("train.bsd_plus", plus, set(_BSD_PLUS_DEFAULTS))
    out["bsd_plus"] = {
        "enabled": _get("train.bsd_plus", plus, "enabled", False, bool),
        "lambda": _get("train.bsd_plus", plus, "lambda", 2.0, float,
                       lambda v: v >= 0.0, "bsd_plus.lambda must be >= 0"),
        "views": _get("train.bsd_plus", plus, "views", 2, int,
                      lambda v: v >= 1, "bsd_plus.views must be >= 1"),
        "weak_jitter": _get("train.bsd_plus", plus, "weak_jitter", 0.05, float,
                            lambda v: v >= 0.0, "bsd_plus.weak_jitter must be >= 0"),
        "strong_jitter": _get("train.bsd_plus", plus, "strong_jitter", 0.2, float,
                              lambda v: v >= 0.0, "bsd_plus.strong_jitter must be >= 0"),
        "erase_frac": _get("train.bsd_plus", plus, "erase_frac", 0.3, float,
                           lambda v: 0.0 <= v <= 1.0, "bsd_plus.erase_frac must be in [0,1]"),
    }
    return out


_NOISE_DEFAULTS = {"kind": "none", "rate": 0.0, "seed": 0}


def _resolve_noise(section):
    _reject_unknown("noise", section, set(_NOISE_DEFAULTS))
    return {
        "kind": _get("noise", section, "kind", "none", str,
                     lambda v: v in ("none", "symmetric", "asymmetric"),
                     "noise.kind must be 'none', 'symmetric' or 'asymmetric'"),
        "rate": _get("noise", section, "rate", 0.0, float,
                     lambda v: 0.0 <= v <= 1.0, "noise.rate must be in [0,1]"),
        "seed": _get("noise", section, "seed", 0, int),
    }


@dataclass
class ExperimentConfig:
    name: str
    resolved: dict
    base_dir: Path

    def model_spec(self, input_dim, classes, grid_shape=None, seed=0) -> ModelSpec:
        m = self.resolved["model"]
        return ModelSpec(input_dim=input_dim, classes=classes,
                         hidden=tuple(m["hidden"]), activation=m["activation"],
                         architecture=m["architecture"], dropout=m["dropout"],
                         seed=seed, grid_shape=grid_shape)

    def train_config(self) -> TrainConfig:
        t = self.resolved["train"]
        strat = StrategyConfig(**t["strategy"])
        plus_raw = dict(t["bsd_plus"])
        plus = BsdPlusConfig(enabled=plus_raw["enabled"], lam=plus_raw["lambda"],
                             views=plus_raw["views"], weak_jitter=plus_raw["weak_jitter"],
                             strong_jitter=plus_raw["strong_jitter"],
                             erase_frac=plus_raw["erase_frac"])
        scalars = {k: t[k] for k in _TRAIN_SCALARS}
        return TrainConfig(strategy=strat, bsd_plus=plus, **scalars)

    def noise_spec(self) -> NoiseSpec:
        n = self.resolved["noise"]
        return NoiseSpec(kind=n["kind"], rate=n["rate"], seed=n["seed"])

    @property
    def seeds(self):
        return list(self.resolved["seeds"])

    @property
    def output_dir(self):
        return self.resolved["output_dir"]


_TOP_KEYS = {"name", "dataset", "model", "train", "noise", "seeds", "output_dir"}


def parse_config(path) -> ExperimentConfig:
    """Read, validate, and fully resolve an experiment config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_unknown("top level", raw, _TOP_KEYS)
    for section in ("dataset", "model", "train", "noise"):
        if section in raw and not isinstance(raw[section], dict):
            raise ConfigError(f"{section} must be an object")
    seeds = raw.get("seeds", [0])
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)):
        raise ConfigError("seeds must be a nonempty list of integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    name = raw.get("name", path.stem)
    if not isinstance(name, str) or not name:
        raise ConfigError("name must be a nonempty string")
    resolved = {
        "name": name,
        "dataset": _resolve_dataset(raw.get("dataset", {}), path.parent),
        "model": _resolve_model(raw.get("model", {})),
        "train": _resolve_train(raw.get("train", {})),
        "noise": _resolve_noise(raw.get("noise", {})),
        "seeds": seeds,
        "output_dir": _get("top level", raw, "output_dir", "runs", str),
    }
    return ExperimentConfig(name=name, resolved=resolved, base_dir=path.parent)


def resolved_json(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.resolved, sort_keys=True, indent=2) + "\n"
