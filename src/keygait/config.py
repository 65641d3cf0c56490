"""Declarative run configuration and its JSON form.

Every CLI run snapshots its effective config next to the outputs, so a
result can always be traced back to the exact settings that produced it.

One codec gives every config class, and every detector's ``params``, its
JSON form, read from the fields (or constructor parameters) and their type
hints. A missing key takes the default; a ``None`` field is left out. A
bool must be ``true``/``false``, an int an integer (a bool is no int), a
float a finite number (an integer included), a str a string, a tuple a
list (of the declared length when fixed), and a nested config or a dict an
object. An unknown key or any other value raises ValueError naming
``Class.key``, so a bad setting stops the run instead of changing it.
"""

from __future__ import annotations

import json
import math
import sys
import types
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

ALIGNMENT_METHODS = ("align", "truncate", "discard")
SCORE_NORM_KINDS = ("none", "minmax", "sd")

_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


def decode_fields(owner: str, hints: dict[str, Any], data: Any) -> dict[str, Any]:
    """Keyword arguments for ``owner`` from the JSON object ``data``, each
    value checked against its type hint in ``hints`` by the rules above."""
    if not isinstance(data, dict):
        raise ValueError(f"{owner}: expected an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValueError(f"unknown {owner} key(s): {', '.join(unknown)}")
    return {key: _decode(hints[key], value, f"{owner}.{key}") for key, value in data.items()}


def _decode(hint: Any, value: Any, where: str) -> Any:
    origin, args = get_origin(hint), get_args(hint)
    if origin is types.UnionType:  # ``X | None``
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _decode(hint, value, where)
    if hint is Any or (hint in (bool, int, str) and type(value) is hint):
        return value
    # an exact comparison: False for NaN and for an int too large for a float
    if hint is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    if origin is dict and isinstance(value, dict):
        return dict(value)
    if isinstance(hint, type) and issubclass(hint, JsonConfig) and isinstance(value, dict):
        return hint.from_dict(value)
    if origin is tuple and isinstance(value, (list, tuple)):
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(items) == len(value):
            return tuple(_decode(a, v, where) for a, v in zip(items, value))
    if origin is tuple:
        expected = "a list" if args[-1] is Ellipsis else f"a list of {len(args)}"
    else:
        expected = _EXPECTED.get(hint, "an object")
    raise ValueError(f"{where}: expected {expected}, got {value!r}")


def check_positive_finite(name: str, value: float) -> None:
    """A width or scale factor must be a positive, finite number."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be {'finite' if value > 0 else 'positive'}, got {value}")


class JsonConfig:
    """Base of the frozen config dataclasses: their JSON form through the
    codec described in the module docstring."""

    def to_dict(self) -> dict[str, Any]:
        return {f.name: _encode(v) for f in fields(self) if (v := getattr(self, f.name)) is not None}

    @classmethod
    def from_dict(cls, data: Any) -> Any:
        hints = get_type_hints(cls)
        return cls(**decode_fields(cls.__name__, {f.name: hints[f.name] for f in fields(cls)}, data))


def _encode(value: Any) -> Any:
    if isinstance(value, JsonConfig):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value


@dataclass(frozen=True)
class DetectorConfig(JsonConfig):
    """Detector name plus hyperparameters; ensembles carry members."""

    name: str = "manhattan"
    params: dict[str, Any] = field(default_factory=dict)
    members: tuple[DetectorConfig, ...] | None = None

    def __post_init__(self) -> None:
        if self.name != "ensemble":
            if self.members is not None:
                raise ValueError(f"members: only an ensemble has members, not {self.name!r}")
            return
        n = len(self.members or ())
        if n < 2:
            raise ValueError(f"an ensemble needs at least 2 members, got {n}")
        if any(m.name == "ensemble" for m in self.members):
            raise ValueError("ensemble members must be single detectors")
        if self.params:
            raise ValueError("params: an ensemble takes none; set them on its members")

    def singles(self) -> tuple[DetectorConfig, ...]:
        """The single detectors this config fits: an ensemble's members,
        else the detector itself."""
        return self.members if self.name == "ensemble" else (self,)


@dataclass(frozen=True)
class ScoreNormConfig(JsonConfig):
    """Score normalization method: none, minmax, or sd with width h_s."""

    kind: str = "sd"
    h_s: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in SCORE_NORM_KINDS:
            raise ValueError(
                f"score norm kind must be one of {SCORE_NORM_KINDS}, got {self.kind!r}"
            )
        check_positive_finite("h_s", self.h_s)


@dataclass(frozen=True)
class PipelineConfig(JsonConfig):
    """Everything run_pipeline needs: alignment method, feature
    normalization settings, detector, score normalization, and the master
    seed from which all per-subject seeds derive.

    Construction builds the detector, or each ensemble member, once, so a
    config never holds an unknown detector or an invalid param."""

    alignment: str = "align"
    h_f: float = 1.0
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    score_norm: ScoreNormConfig = field(default_factory=ScoreNormConfig)
    ensemble_normalized: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alignment not in ALIGNMENT_METHODS:
            raise ValueError(
                f"alignment must be one of {ALIGNMENT_METHODS}, got {self.alignment!r}"
            )
        check_positive_finite("h_f", self.h_f)
        if self.ensemble_normalized and self.detector.name != "ensemble":
            raise ValueError(f"ensemble_normalized needs an ensemble, not {self.detector.name!r}")
        from .detectors import build_detector  # keygait.detectors imports this module

        for detector in self.detector.singles():
            build_detector(detector)


def load_config(path: str | Path, cls: type[JsonConfig]) -> Any:
    with open(path, encoding="utf-8") as fh:
        return cls.from_dict(json.load(fh))


def write_config_snapshot(config: JsonConfig, out_dir: str | Path) -> Path:
    """Write the effective config as JSON next to a run's outputs."""
    out = Path(out_dir) / "config.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out
