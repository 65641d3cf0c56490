"""Declarative run configuration and its JSON form.

Every CLI run snapshots its effective config next to the outputs, so a
result can always be traced back to the exact settings that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

ALIGNMENT_METHODS = ("align", "truncate", "discard")
SCORE_NORM_KINDS = ("none", "minmax", "sd")


def reject_unknown_keys(data: dict[str, Any], cls: type) -> None:
    """Raise ValueError naming the keys of ``data`` that are no field of
    the dataclass ``cls``, so a misspelled setting is never dropped."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class DetectorConfig:
    """Detector name plus hyperparameters; ensembles carry members."""

    name: str = "manhattan"
    params: dict[str, Any] = field(default_factory=dict)
    members: tuple["DetectorConfig", ...] | None = None

    def __post_init__(self) -> None:
        if self.name == "ensemble":
            n = len(self.members or ())
            if n < 2:
                raise ValueError(f"an ensemble needs at least 2 members, got {n}")
            if any(m.name == "ensemble" for m in self.members):
                raise ValueError("ensemble members must be single detectors")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"name": self.name, "params": dict(self.params)}
        if self.members is not None:
            out["members"] = [m.to_dict() for m in self.members]
        return out

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "DetectorConfig":
        reject_unknown_keys(data, DetectorConfig)
        members = data.get("members")
        return DetectorConfig(
            name=data.get("name", "manhattan"),
            params=dict(data.get("params", {})),
            members=tuple(DetectorConfig.from_dict(m) for m in members)
            if members is not None
            else None,
        )


@dataclass(frozen=True)
class ScoreNormConfig:
    """Score normalization method: none, minmax, or sd with width h_s."""

    kind: str = "sd"
    h_s: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in SCORE_NORM_KINDS:
            raise ValueError(
                f"score norm kind must be one of {SCORE_NORM_KINDS}, got {self.kind!r}"
            )
        if self.h_s <= 0:
            raise ValueError(f"h_s must be positive, got {self.h_s}")

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "h_s": self.h_s}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ScoreNormConfig":
        reject_unknown_keys(data, ScoreNormConfig)
        return ScoreNormConfig(
            kind=data.get("kind", "sd"), h_s=float(data.get("h_s", 2.0))
        )


@dataclass(frozen=True)
class PipelineConfig:
    """Everything run_pipeline needs: alignment method, feature
    normalization settings, detector, score normalization, and the master
    seed from which all per-subject seeds derive."""

    alignment: str = "align"
    h_f: float = 1.0
    per_position: bool = False
    merge_shift_keys: bool = False
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    score_norm: ScoreNormConfig = field(default_factory=ScoreNormConfig)
    ensemble_normalized: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alignment not in ALIGNMENT_METHODS:
            raise ValueError(
                f"alignment must be one of {ALIGNMENT_METHODS}, got {self.alignment!r}"
            )
        if self.h_f <= 0:
            raise ValueError(f"h_f must be positive, got {self.h_f}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "alignment": self.alignment,
            "h_f": self.h_f,
            "per_position": self.per_position,
            "merge_shift_keys": self.merge_shift_keys,
            "detector": self.detector.to_dict(),
            "score_norm": self.score_norm.to_dict(),
            "ensemble_normalized": self.ensemble_normalized,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "PipelineConfig":
        reject_unknown_keys(data, PipelineConfig)
        return PipelineConfig(
            alignment=data.get("alignment", "align"),
            h_f=float(data.get("h_f", 1.0)),
            per_position=bool(data.get("per_position", False)),
            merge_shift_keys=bool(data.get("merge_shift_keys", False)),
            detector=DetectorConfig.from_dict(data.get("detector", {})),
            score_norm=ScoreNormConfig.from_dict(data.get("score_norm", {})),
            ensemble_normalized=bool(data.get("ensemble_normalized", False)),
            seed=int(data.get("seed", 0)),
        )


def load_config(path: str | Path, cls: type) -> Any:
    with open(path) as fh:
        data = json.load(fh)
    return cls.from_dict(data)


def write_config_snapshot(config: Any, out_dir: str | Path, name: str = "config.json") -> Path:
    """Write the effective config as JSON next to a run's outputs."""
    out = Path(out_dir) / name
    out.parent.mkdir(parents=True, exist_ok=True)
    data = config.to_dict() if hasattr(config, "to_dict") else config
    with open(out, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out
