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
from .training import SEEDS_RULE, TrainConfig

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


# kind -> key -> (default, check, msg), or None for a file key: required, resolved
# against the config file's directory, naming an existing file. The blobs checks
# exclude what make_blobs rejects.
_DATASETS = {
    "blobs": {
        "classes": (4, lambda v: v >= 2, ">= 2"),
        "per_class": (1000, lambda v: v >= 1, ">= 1"),
        "test_per_class": (250, lambda v: v >= 1, ">= 1"),
        "dim": (2, lambda v: v >= 2, ">= 2 (class centers sit on a ring)"),
        "spacing": (3.0, None, None),
        "cov_scale": (1.0, lambda v: v > 0.0, "> 0"),
        "seed": (0, lambda v: v >= 0, ">= 0"),
    },
    "csv": {"path": None, "test_path": None, "label_column": ("label", None, None)},
    "idx": {"images": None, "labels": None, "test_images": None, "test_labels": None},
}


def _resolve_dataset(section, base_dir):
    if not isinstance(section, dict):
        raise ConfigError("dataset must be an object")
    kind = section.get("kind", "blobs")
    if not isinstance(kind, str) or kind not in _DATASETS:
        raise ConfigError(f"dataset.kind must be one of {sorted(_DATASETS)}, got {kind!r}")
    _reject_unknown("dataset", section, ["kind", *_DATASETS[kind]])
    out = {"kind": kind}
    for key, spec in _DATASETS[kind].items():
        if spec is not None:
            out[key] = _get("dataset", section, key, *spec)
            continue
        if key not in section:
            raise ConfigError(f"dataset.{key} is required for kind {kind!r}")
        value = _get("dataset", section, key, "")
        if not Path(value).is_absolute():
            value = str((base_dir / value).resolve())
        if not Path(value).is_file():
            raise ConfigError(f"dataset.{key}: no such file {value}")
        out[key] = value
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
    resolved: dict

    def model_spec(self, input_dim, classes, grid_shape=None) -> ModelSpec:
        return _build(ModelSpec, self.resolved["model"], input_dim=input_dim,
                      classes=classes, grid_shape=grid_shape)

    def train_config(self) -> TrainConfig:
        return _build(TrainConfig, self.resolved["train"])

    def noise_spec(self) -> NoiseSpec:
        return _build(NoiseSpec, self.resolved["noise"])

    @property
    def name(self):
        return self.resolved["name"]

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
    seeds = _get("top level", raw, "seeds", [0], *SEEDS_RULE)
    # the run directory is <output_dir>/<name>, so a name may not leave output_dir
    name = _get("top level", raw, "name", path.stem,
                lambda v: v not in ("", ".", "..") and "/" not in v and "\\" not in v,
                "a nonempty single path component (no '/', '\\', '.' or '..')")
    resolved = {
        "name": name,
        "dataset": _resolve_dataset(raw.get("dataset", {}), path.parent),
        "model": _resolve("model", ModelSpec, raw.get("model", {})),
        "train": _resolve("train", TrainConfig, raw.get("train", {})),
        "noise": _resolve("noise", NoiseSpec, raw.get("noise", {})),
        "seeds": seeds,
        "output_dir": _get("top level", raw, "output_dir", "runs"),
    }
    architecture, kind = resolved["model"]["architecture"], resolved["dataset"]["kind"]
    if (architecture == "tiny-conv") != (kind == "idx"):  # only idx gives image grids
        raise ConfigError(f"model.architecture {architecture!r} does not take dataset.kind "
                          f"{kind!r}: 'tiny-conv' takes 'idx' and 'mlp' the others")
    cfg = ExperimentConfig(resolved)
    try:
        cfg.noise_spec()  # NoiseSpec states the rule that ties rate to kind
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def resolved_json(cfg: ExperimentConfig) -> str:
    return json_text(cfg.resolved)
