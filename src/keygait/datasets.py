"""Dataset directory layout and the flat TSV file formats.

A dataset is ``<root>/<subject_id>/<sample_id>.txt`` event files plus a
``manifest.tsv`` with columns subject_id, sample_id, role, label (label
``?`` when withheld). Score and label files are headerless TSVs keyed by
(subject_id, sample_id); scores carry 6 decimal places.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

from .errors import DatasetError, KeygaitError
from .events import (
    Label,
    Role,
    Sample,
    SubjectDataset,
    read_sequence,
    serialize_events,
)
from .scorenorm import ScoreRecord, ScoreSet

MANIFEST_NAME = "manifest.tsv"
MANIFEST_HEADER = ("subject_id", "sample_id", "role", "label")


def load_dataset(root: str | Path) -> SubjectDataset:
    """Read a dataset directory into memory.

    All malformed samples are collected and reported together, so one bad
    file does not hide the rest.

    Raises:
        DatasetError: missing manifest, malformed manifest rows, or any
            unreadable/unparseable sample file (all offenders listed).
    """
    root = Path(root)
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise DatasetError(f"no {MANIFEST_NAME} in {root}")
    lines = manifest.read_text().splitlines()
    if not lines or tuple(lines[0].split("\t")) != MANIFEST_HEADER:
        raise DatasetError(
            f"{manifest}: first line must be {chr(9).join(MANIFEST_HEADER)!r}"
        )
    root_str = str(root)
    dataset = SubjectDataset()
    problems: list[str] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            problems.append(f"{manifest}:{lineno}: expected 4 fields, got {len(fields)}")
            continue
        subject_id, sample_id, role_tok, label_tok = fields
        try:
            role = Role(role_tok)
        except ValueError:
            problems.append(f"{manifest}:{lineno}: unknown role {role_tok!r}")
            continue
        if label_tok == "?":
            label = None
        else:
            try:
                label = Label(label_tok)
            except ValueError:
                problems.append(f"{manifest}:{lineno}: unknown label {label_tok!r}")
                continue
        if (subject_id, sample_id) in seen:
            problems.append(f"{manifest}:{lineno}: duplicate sample {subject_id}/{sample_id}")
            continue
        seen.add((subject_id, sample_id))
        try:
            with open(os.path.join(root_str, subject_id, f"{sample_id}.txt")) as fh:
                sequence = read_sequence(fh.read())
        except (OSError, KeygaitError) as exc:
            problems.append(f"{root / subject_id / f'{sample_id}.txt'}: {exc}")
            continue
        try:
            dataset.add(Sample(subject_id, sample_id, role, sequence, label))
        except ValueError as exc:
            problems.append(f"{manifest}:{lineno}: {exc}")
    if problems:
        raise DatasetError(
            f"{len(problems)} problem(s) loading {root}:\n" + "\n".join(problems)
        )
    return dataset


def write_dataset(dataset: SubjectDataset, root: str | Path) -> None:
    """Write a dataset directory (manifest plus one event file per sample)."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rows: list[str] = ["\t".join(MANIFEST_HEADER)]
    for subject_id in dataset.subject_ids():
        entry = dataset.subjects[subject_id]
        subject_dir = root / subject_id
        subject_dir.mkdir(parents=True, exist_ok=True)
        ordered = sorted(entry.templates, key=lambda s: s.sample_id) + sorted(
            entry.queries, key=lambda s: s.sample_id
        )
        for sample in ordered:
            label_tok = sample.label.value if sample.label is not None else "?"
            rows.append(
                f"{sample.subject_id}\t{sample.sample_id}\t{sample.role.value}\t{label_tok}"
            )
            (subject_dir / f"{sample.sample_id}.txt").write_text(
                serialize_events(sample.sequence)
            )
    (root / MANIFEST_NAME).write_text("\n".join(rows) + "\n")


def format_score(value: float) -> str:
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    return f"{value:.6f}"


def write_scores(scores: ScoreSet, path: str | Path, *, normalized: bool = True) -> None:
    """Write the submission-format score file.

    With ``normalized`` (default) the normalized score is written when
    present, falling back to raw; otherwise raw scores are written.
    """
    lines = []
    for r in scores:
        value = (
            r.normalized_score
            if normalized and r.normalized_score is not None
            else r.raw_score
        )
        lines.append(f"{r.subject_id}\t{r.sample_id}\t{format_score(value)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores(path: str | Path) -> ScoreSet:
    """Read a score file back; values land in raw_score."""
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DatasetError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        try:
            value = float(fields[2])
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: bad score {fields[2]!r}") from None
        records.append(ScoreRecord(fields[0], fields[1], value))
    return ScoreSet(tuple(records))


def write_labels(scores: ScoreSet, path: str | Path) -> None:
    lines = []
    for r in scores:
        if r.label is None:
            raise DatasetError(f"record {r.subject_id}/{r.sample_id} has no label")
        lines.append(f"{r.subject_id}\t{r.sample_id}\t{r.label.value}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_labels(path: str | Path) -> dict[tuple[str, str], Label]:
    """Read a label file into a (subject_id, sample_id) -> Label map."""
    labels: dict[tuple[str, str], Label] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DatasetError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        try:
            label = Label(fields[2])
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: unknown label {fields[2]!r}") from None
        labels[(fields[0], fields[1])] = label
    return labels


def attach_labels(scores: ScoreSet, labels: dict[tuple[str, str], Label]) -> ScoreSet:
    """Return a copy of the score set with labels filled from the map.

    Raises:
        DatasetError: a scored sample has no label in the map.
    """
    from dataclasses import replace

    records = []
    for r in scores:
        key = (r.subject_id, r.sample_id)
        if key not in labels:
            raise DatasetError(f"no label for {r.subject_id}/{r.sample_id}")
        records.append(replace(r, label=labels[key]))
    return ScoreSet(tuple(records))


def write_metrics(metrics: dict[str, object], path: str | Path) -> None:
    """Two-column key/value TSV; floats at 6 decimals."""
    lines = []
    for key, value in metrics.items():
        if isinstance(value, float):
            lines.append(f"{key}\t{value:.6f}")
        else:
            lines.append(f"{key}\t{value}")
    Path(path).write_text("\n".join(lines) + "\n")
