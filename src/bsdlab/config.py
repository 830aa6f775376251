"""Experiment configuration: strict JSON schema with fully resolved defaults.

Unknown keys are hard errors (with a nearest-match suggestion) because a
silently ignored typo in gamma or c would invalidate an experiment invisibly.
``parse_config`` returns the resolved form; serializing it and parsing again
yields an identical resolved config.
"""

from __future__ import annotations

import copy
import difflib
import json
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

from .data import NoiseSpec
from .fileio import json_text
from .models import ModelSpec
from .settings import check_error
from .training import TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "resolved_json"]


class ConfigError(ValueError):
    pass


def _reject_unknown(section, given, allowed):
    for key in given:
        if key not in allowed:
            hint = difflib.get_close_matches(key, allowed, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"unknown key {key!r} in {section}{suffix}")


def _get(section_name, section, key, default, check=None, msg=None):
    """``section[key]`` (or ``default``), of ``default``'s type, passing ``check``."""
    value = section.get(key, default)
    kind = type(default)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise ConfigError(f"{section_name}.{key} must be {kind.__name__}, got {value!r}")
    error = check_error(f"{section_name}.{key}", value, check, msg)
    if error:
        raise ConfigError(error)
    return value


# key: (default, check, msg); the checks exclude what make_blobs rejects
_BLOBS = {
    "classes": (4, lambda v: v >= 2, ">= 2"),
    "per_class": (1000, lambda v: v >= 1, ">= 1"),
    "test_per_class": (250, lambda v: v >= 1, ">= 1"),
    "dim": (2, lambda v: v >= 2, ">= 2 (class centers sit on a ring)"),
    "spacing": (3.0, None, None),
    "cov_scale": (1.0, lambda v: v > 0.0, "> 0"),
    "seed": (0, lambda v: v >= 0, ">= 0"),
}

_DATASET_KEYS = {
    "blobs": {"kind", *_BLOBS},
    "csv": {"kind", "path", "test_path", "label_column"},
    "idx": {"kind", "images", "labels", "test_images", "test_labels"},
}


def _resolve_dataset(section, base_dir):
    if not isinstance(section, dict):
        raise ConfigError("dataset must be an object")
    kind = section.get("kind", "blobs")
    if not isinstance(kind, str) or kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind must be one of {sorted(_DATASET_KEYS)}, got {kind!r}")
    _reject_unknown("dataset", section, _DATASET_KEYS[kind])
    out = {"kind": kind}
    if kind == "blobs":
        for key, (default, check, msg) in _BLOBS.items():
            out[key] = _get("dataset", section, key, default, check, msg)
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
            out["label_column"] = _get("dataset", section, "label_column", "label")
    return out


def _section_fields(cls):
    """(field name, config key, nested dataclass or setting metadata) per config-facing field."""
    for f in fields(cls):
        if is_dataclass(f.default_factory):  # a nested section, e.g. TrainConfig.strategy
            yield f.name, f.name, f.default_factory
        elif "check" in f.metadata:
            yield f.name, f.metadata["key"] or f.name, f.metadata


def _resolve(section_name, cls, section):
    """Resolve one config section against the config-facing fields of ``cls``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{section_name} must be an object")
    walked = list(_section_fields(cls))
    _reject_unknown(section_name, section, [key for _, key, _ in walked])
    out = {}
    for _, key, meta in walked:
        if is_dataclass(meta):
            out[key] = _resolve(f"{section_name}.{key}", meta, section.get(key, {}))
        else:
            default = copy.copy(meta["config_default"])  # never share the field's list
            out[key] = _get(section_name, section, key, default, meta["check"], meta["msg"])
    return out


def _build(cls, section, **extra):
    """Construct ``cls`` from its resolved config section."""
    kwargs = {name: _build(meta, section[key]) if is_dataclass(meta) else section[key]
              for name, key, meta in _section_fields(cls)}
    return cls(**kwargs, **extra)


@dataclass
class ExperimentConfig:
    name: str
    resolved: dict

    def model_spec(self, input_dim, classes, grid_shape=None) -> ModelSpec:
        return _build(ModelSpec, self.resolved["model"], input_dim=input_dim,
                      classes=classes, grid_shape=grid_shape)

    def train_config(self) -> TrainConfig:
        return _build(TrainConfig, self.resolved["train"])

    def noise_spec(self) -> NoiseSpec:
        return _build(NoiseSpec, self.resolved["noise"])

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
        raw = json.loads(path.read_bytes())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_unknown("top level", raw, _TOP_KEYS)
    seeds = raw.get("seeds", [0])
    if (not isinstance(seeds, list) or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds)):
        raise ConfigError("seeds must be a nonempty list of non-negative integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    name = raw.get("name", path.stem)
    # the run directory is <output_dir>/<name>, so a name may not leave output_dir
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError("name must be a nonempty single path component "
                          f"(no '/', '\\', '.' or '..'), got {name!r}")
    resolved = {
        "name": name,
        "dataset": _resolve_dataset(raw.get("dataset", {}), path.parent),
        "model": _resolve("model", ModelSpec, raw.get("model", {})),
        "train": _resolve("train", TrainConfig, raw.get("train", {})),
        "noise": _resolve("noise", NoiseSpec, raw.get("noise", {})),
        "seeds": seeds,
        "output_dir": _get("top level", raw, "output_dir", "runs"),
    }
    if resolved["model"]["architecture"] == "tiny-conv" and resolved["dataset"]["kind"] != "idx":
        raise ConfigError("model.architecture 'tiny-conv' needs image grids, "
                          "which only dataset.kind 'idx' gives")
    return ExperimentConfig(name=name, resolved=resolved)


def resolved_json(cfg: ExperimentConfig) -> str:
    return json_text(cfg.resolved)
