"""Dataset directory layout and the one flat-file format.

A dataset is ``<root>/<subject_id>/<sample_id>.txt`` event files plus a
``manifest.tsv`` with columns subject_id, sample_id, role, label (label
``?`` when withheld). Score and label files are headerless TSVs keyed by
(subject_id, sample_id).

This module owns the flat-file rule: every TSV (or CSV) the package
writes or prints goes through ``tsv``: tab-separated fields, floats at six
decimals (``inf``/``-inf``), anything else by ``str``, a newline after
every line. ``_read_keyed_rows`` reads score and label files back, naming
the file and line of a row with the wrong field count or a sample listed
twice. Subject and sample ids are single path components
(``events.check_id``), so no manifest row reaches outside the dataset.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DatasetError, KeygaitError
from .events import (
    Label,
    Role,
    Sample,
    SubjectDataset,
    check_id,
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
            check_id("subject", subject_id)
            check_id("sample", sample_id)
        except ValueError as exc:
            problems.append(f"{manifest}:{lineno}: {exc}")
            continue
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


def tsv(rows: Iterable[Sequence[object]], header: Sequence[str] = (), sep: str = "\t") -> str:
    """The one flat-file formatter: each row's fields joined by ``sep``, a
    float at six decimals, any other value by ``str``, and every line (the
    header too, when given) ended by a newline."""
    lines = [sep.join(header) + "\n"] if header else []
    for row in rows:
        lines.append(sep.join([f"{v:.6f}" if isinstance(v, float) else str(v) for v in row]) + "\n")
    return "".join(lines)


def _read_keyed_rows(path: str | Path) -> Iterator[tuple[int, str, str, str]]:
    """``(line number, subject_id, sample_id, value)`` for each non-blank
    line of a score or label file.

    Raises:
        DatasetError: a line without exactly 3 fields, or a sample listed
            twice.
    """
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DatasetError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        subject_id, sample_id, token = fields
        if (subject_id, sample_id) in seen:
            raise DatasetError(f"{path}:{lineno}: duplicate sample {subject_id}/{sample_id}")
        seen.add((subject_id, sample_id))
        yield lineno, subject_id, sample_id, token


def ordered_samples(dataset: SubjectDataset) -> Iterator[Sample]:
    """Every sample in file order: subjects in id order, each subject's
    templates then queries, each sorted by sample id."""
    for subject_id in dataset.subject_ids():
        entry = dataset.subjects[subject_id]
        yield from sorted(entry.templates, key=lambda s: s.sample_id)
        yield from sorted(entry.queries, key=lambda s: s.sample_id)


def write_dataset(dataset: SubjectDataset, root: str | Path) -> None:
    """Write a dataset directory (manifest plus one event file per sample);
    a subject id that is the manifest's file name is a DatasetError."""
    if MANIFEST_NAME in dataset.subjects:
        raise DatasetError(f"subject id {MANIFEST_NAME!r} is the manifest's file name")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for subject_id in dataset.subject_ids():
        (root / subject_id).mkdir(exist_ok=True)
    samples = list(ordered_samples(dataset))
    for s in samples:
        (root / s.subject_id / f"{s.sample_id}.txt").write_text(serialize_events(s.sequence))
    rows = (
        (s.subject_id, s.sample_id, s.role.value, "?" if s.label is None else s.label.value)
        for s in samples
    )
    (root / MANIFEST_NAME).write_text(tsv(rows, MANIFEST_HEADER))


def write_scores(scores: ScoreSet, path: str | Path, *, normalized: bool = True) -> None:
    """Write the submission-format score file.

    With ``normalized`` (default) the normalized score is written when
    present, falling back to raw; otherwise raw scores are written.
    """
    rows = []
    for r in scores:
        value = r.normalized_score if normalized and r.normalized_score is not None else r.raw_score
        rows.append((r.subject_id, r.sample_id, value))
    Path(path).write_text(tsv(rows))


def read_scores(path: str | Path) -> ScoreSet:
    """Read a score file back; values land in raw_score.

    Raises:
        DatasetError: a score that is not a number, NaN or +inf (keygait
            writes a finite score or ``-inf``), or a sample listed twice.
    """
    records = []
    for lineno, subject_id, sample_id, token in _read_keyed_rows(path):
        try:
            value = float(token)
        except ValueError:
            value = math.nan  # not a number: rejected with NaN below
        if not value < math.inf:  # NaN or +inf
            raise DatasetError(f"{path}:{lineno}: bad score {token!r}")
        records.append(ScoreRecord(subject_id, sample_id, value))
    return ScoreSet(tuple(records))


def write_labels(records: Iterable, path: str | Path) -> None:
    """Write a label file from records carrying ``subject_id``,
    ``sample_id`` and ``label`` (score records or samples).

    Raises:
        DatasetError: a record has no label.
    """
    rows = []
    for r in records:
        if r.label is None:
            raise DatasetError(f"{r.subject_id}/{r.sample_id} has no label")
        rows.append((r.subject_id, r.sample_id, r.label.value))
    Path(path).write_text(tsv(rows))


def read_labels(path: str | Path) -> dict[tuple[str, str], Label]:
    """Read a label file into a (subject_id, sample_id) -> Label map.

    Raises:
        DatasetError: an unknown label, or a sample listed twice.
    """
    labels: dict[tuple[str, str], Label] = {}
    for lineno, subject_id, sample_id, token in _read_keyed_rows(path):
        try:
            labels[(subject_id, sample_id)] = Label(token)
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: unknown label {token!r}") from None
    return labels


def attach_labels(scores: ScoreSet, labels: dict[tuple[str, str], Label]) -> ScoreSet:
    """Return a copy of the score set with labels filled from the map.

    Raises:
        DatasetError: a scored sample has no label in the map.
    """
    records = []
    for r in scores:
        key = (r.subject_id, r.sample_id)
        if key not in labels:
            raise DatasetError(f"no label for {r.subject_id}/{r.sample_id}")
        records.append(replace(r, label=labels[key]))
    return ScoreSet(tuple(records))


def write_metrics(metrics: dict[str, object], path: str | Path) -> None:
    """Two-column key/value TSV."""
    Path(path).write_text(tsv(metrics.items()))
