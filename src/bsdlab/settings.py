"""Config-facing dataclass fields: each setting's default, check and message, stated once.

A ``Settings`` dataclass checks its ``setting`` fields on construction, and
``config.parse_config`` walks the same fields, so a constructor call and a
config file accept exactly the same values.
"""

from __future__ import annotations

import math
from dataclasses import field, fields

__all__ = ["Settings", "setting", "check_error"]


def setting(default, check=None, msg=None, *, key=None, config_default=None):
    """A dataclass field whose value must pass ``check``; ``msg`` completes "<name> must be".

    ``key`` is the config key when it differs from the field name, and
    ``config_default`` the config file's default when it differs from ``default``.
    """
    meta = {"check": check, "msg": msg, "key": key,
            "config_default": default if config_default is None else config_default}
    return field(default=default, metadata=meta)


def check_error(name, value, check, msg):
    """The message for ``value`` of ``name`` failing ``check``, or None if it passes.
    A float must be finite before ``check`` sees it: no setting takes a NaN or an inf."""
    if isinstance(value, float) and not math.isfinite(value):
        return f"{name} must be finite, got {value!r}"
    if check is None or check(value):
        return None
    return f"{name} must be {msg}, got {value!r}"


class Settings:
    """Base of dataclasses with ``setting`` fields: construction checks each one."""

    def __post_init__(self):
        for f in fields(self):
            if "check" in f.metadata:
                error = check_error(f.name, getattr(self, f.name), f.metadata["check"],
                                    f.metadata["msg"])
                if error:
                    raise ValueError(error)
