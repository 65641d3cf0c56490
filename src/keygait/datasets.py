"""Dataset directory layout and the one flat-file format.

A dataset is ``<root>/<subject_id>/<sample_id>.txt`` event files plus a
``manifest.tsv`` with columns subject_id, sample_id, role, label (label
``?`` when withheld). Score and label files are headerless TSVs keyed by
(subject_id, sample_id).

This module owns the flat-file rule: every TSV (or CSV) the package
writes or prints goes through ``tsv``: tab-separated fields, floats at six
decimals (``inf``/``-inf``), anything else by ``str``, a newline after
every line. Score files hold the same six-decimal text, formatted once
per score by ``ScoreSet.written``. ``_read_keyed_rows`` reads score and label files back, naming
the file and line of a row with the wrong field count or a sample listed
twice. Subject and sample ids are single path components
(``events.check_id``), so no manifest row reaches outside the dataset,
and every event file's path is the root's one prefix plus
``<subject_id>/<sample_id>.txt``. Event files are read as bytes with
``os.open`` and ``os.read`` and written as ASCII bytes with ``os.open``
and ``os.write``; every other flat file is read and written as UTF-8,
named as such.
"""

from __future__ import annotations

import math
import os
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._processes import across_processes, cpu_count
from .errors import DatasetError, KeygaitError
from .events import (
    KeystrokeSequence,
    Label,
    Role,
    Sample,
    SubjectDataset,
    _check_serializable,
    _read_columns,
    _sample_label,
    _sequences,
    _serialize_block,
    check_id,
    read_sequence,
)
from .scorenorm import ScoreSet

MANIFEST_NAME = "manifest.tsv"
MANIFEST_HEADER = ("subject_id", "sample_id", "role", "label")
_ROLES = {role.value: role for role in Role}
_LABELS = {label.value: label for label in Label}


def load_dataset(root: str | Path) -> SubjectDataset:
    """Read a dataset directory into memory.

    The manifest and the event files are UTF-8. Each manifest row is
    checked once, before any event path is built: its ids, then its role
    and label, each looked up in a dict of the enum's values. A template
    labeled impostor is reported only once its file has read, so a file
    problem on that row comes first. Samples are then built unchecked
    (``Sample._of``). Event files are read in blocks
    of 128, dealt into one share per CPU: each share's files are read, and
    each block goes through the block reader (``events._read_columns``)
    at once, in a process of its own, the first share in this one. The
    sequences are built here, and each file the block reader declines
    (any form other than the one ``write_dataset`` writes, or an invalid
    capture) goes through ``events.read_sequence``, which gives the same
    sequences and every error message and warning. No byte of the result
    depends on the CPU count.

    All malformed samples are collected and reported together, in manifest
    order, so one bad file does not hide the rest.

    Raises:
        DatasetError: missing or undecodable manifest, malformed manifest
            rows, or any unreadable, undecodable or unparseable sample file
            (all offenders listed).
    """
    root = Path(root)
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise DatasetError(f"no {MANIFEST_NAME} in {root}")
    try:
        lines = manifest.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{manifest}: {exc}") from None
    if not lines or tuple(lines[0].split("\t")) != MANIFEST_HEADER:
        raise DatasetError(
            f"{manifest}: first line must be {chr(9).join(MANIFEST_HEADER)!r}"
        )
    # Each manifest row's problem, or the sample it names, in manifest order.
    rows: list[str | tuple[int, str, str, Role, Label | None]] = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            rows.append(f"{manifest}:{lineno}: expected 4 fields, got {len(fields)}")
            continue
        subject_id, sample_id, role_tok, label_tok = fields
        try:
            check_id("subject", subject_id)
            check_id("sample", sample_id)
        except ValueError as exc:
            rows.append(f"{manifest}:{lineno}: {exc}")
            continue
        role = _ROLES.get(role_tok)
        if role is None:
            rows.append(f"{manifest}:{lineno}: unknown role {role_tok!r}")
            continue
        if label_tok not in _LABELS and label_tok != "?":
            rows.append(f"{manifest}:{lineno}: unknown label {label_tok!r}")
            continue
        label = _LABELS.get(label_tok)  # None for "?"
        if (subject_id, sample_id) in seen:
            rows.append(f"{manifest}:{lineno}: duplicate sample {subject_id}/{sample_id}")
            continue
        seen.add((subject_id, sample_id))
        rows.append((lineno, subject_id, sample_id, role, label))
    ids = [row[1:3] for row in rows if not isinstance(row, str)]
    sequences = _read_captures(os.path.join(root, ""), ids)
    dataset = SubjectDataset()
    problems: list[str] = []
    for row in rows:
        if isinstance(row, str):
            problems.append(row)
            continue
        lineno, subject_id, sample_id, role, label = row
        sequence = next(sequences)
        if isinstance(sequence, Exception):
            problems.append(f"{root / subject_id / f'{sample_id}.txt'}: {sequence}")
            continue
        try:
            label = _sample_label(subject_id, sample_id, role, label)
        except ValueError as exc:
            problems.append(f"{manifest}:{lineno}: {exc}")
            continue
        dataset.add(Sample._of(subject_id, sample_id, role, sequence, label))
    if problems:
        raise DatasetError(
            f"{len(problems)} problem(s) loading {root}:\n" + "\n".join(problems)
        )
    return dataset


# Files per _read_columns or _serialize_block call. A block of 128
# synthetic captures (50 kB) peaks at 1.3 MB of arrays and lists when read
# and 0.8 MB when written; larger blocks are no faster either way.
_BLOCK_FILES = 128


def _read_captures(
    prefix: str, ids: list[tuple[str, str]]
) -> Iterator[KeystrokeSequence | Exception]:
    """The sequence in each ``(subject_id, sample_id)``'s event file,
    ``prefix + "<subject_id>/<sample_id>.txt"``, or the error reading,
    decoding, parsing or pairing it raised, in order.

    The blocks are dealt into one share per CPU, and
    ``_processes.across_processes`` reads each share's blocks
    (``_read_block``) in a process of its own; the sequences are built
    here, each declined file read here by ``read_sequence``, whose
    warnings are issued again with the file's ``Path`` spelling first, as
    its problem line names it."""
    blocks = [ids[first : first + _BLOCK_FILES] for first in range(0, len(ids), _BLOCK_FILES)]
    n = min(cpu_count(), len(blocks))  # share k reads blocks k, k + n, ...
    shares = across_processes(
        lambda share: [_read_block(prefix, block) for block in share],
        [blocks[k::n] for k in range(n)],
    )
    for b, block in enumerate(blocks):
        files, columns = shares[b % n][b // n]
        shares[b % n][b // n] = None  # freed once its sequences are built
        sequences = _sequences(*columns)
        for (subject_id, sample_id), raw in zip(block, files):
            if raw is None:  # taken by the block reader
                yield next(sequences)
            elif isinstance(raw, OSError):
                yield raw
            else:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        sequence = read_sequence(raw.decode("utf-8"))
                    except (UnicodeDecodeError, KeygaitError) as exc:
                        sequence = exc
                for warning in caught:
                    path = Path(prefix, subject_id, f"{sample_id}.txt")
                    warnings.warn(f"{path}: {warning.message}", warning.category)
                yield sequence


def _read_block(
    prefix: str, ids: list[tuple[str, str]]
) -> tuple[list[bytes | OSError | None], tuple]:
    """Each of a block's files as ``_read_columns`` leaves it: None where
    it takes the file, the file's bytes where it declines it, and the
    ``OSError`` reading it raised, named by its ``Path`` spelling; and the
    columns of the files it takes."""
    raws: list[bytes | OSError | None] = []
    for subject_id, sample_id in ids:
        # os.open and os.read cost far less than open() on small files
        chunks: list[bytes] = []
        try:
            fd = os.open(prefix + f"{subject_id}/{sample_id}.txt", os.O_RDONLY)
            try:
                while chunk := os.read(fd, 65536):
                    chunks.append(chunk)
            finally:
                os.close(fd)
        except OSError as exc:  # named as the problem line names the file
            path = str(Path(prefix, subject_id, f"{sample_id}.txt"))
            raws.append(OSError(exc.errno, exc.strerror, path))
            continue
        raws.append(b"".join(chunks))
    readable = [i for i, raw in enumerate(raws) if isinstance(raw, bytes)]
    taken, *columns = _read_columns([raws[i] for i in readable])
    for j in taken:
        raws[readable[j]] = None
    return raws, tuple(columns)


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
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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
    """Write a dataset directory (manifest plus one event file per sample),
    the event files serialized in blocks of ``_BLOCK_FILES`` and each
    written with ``os.open`` and ``os.write``.

    Every sample is checked before any directory or file is made, so a
    dataset that cannot be written leaves nothing behind.

    Raises:
        DatasetError: a subject id that is the manifest's file name, or a
            sequence that does not serialize (aligned, not anchored at
            t=0, or an unknown key name), naming its subject_id/sample_id.
    """
    if MANIFEST_NAME in dataset.subjects:
        raise DatasetError(f"subject id {MANIFEST_NAME!r} is the manifest's file name")
    samples = list(ordered_samples(dataset))
    for s in samples:
        try:
            _check_serializable(s.sequence)
        except ValueError as exc:
            raise DatasetError(f"{s.subject_id}/{s.sample_id}: {exc}") from None
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for subject_id in dataset.subject_ids():
        (root / subject_id).mkdir(exist_ok=True)
    prefix = os.path.join(root, "")
    for first in range(0, len(samples), _BLOCK_FILES):
        block = samples[first : first + _BLOCK_FILES]
        for s, text in zip(block, _serialize_block([s.sequence for s in block])):
            path = prefix + f"{s.subject_id}/{s.sample_id}.txt"
            # os.open and os.write cost far less than open() on small files
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
                try:
                    data = memoryview(text.encode("ascii"))
                    while data:
                        data = data[os.write(fd, data) :]
                finally:
                    os.close(fd)
            except OSError as exc:  # named by path, as open() names it; os.write does not
                raise OSError(exc.errno, exc.strerror, path) from None
    rows = (
        (s.subject_id, s.sample_id, s.role.value, "?" if s.label is None else s.label.value)
        for s in samples
    )
    (root / MANIFEST_NAME).write_text(tsv(rows, MANIFEST_HEADER), encoding="utf-8")


def write_scores(scores: ScoreSet, path: str | Path, *, normalized: bool = True) -> None:
    """Write the submission-format score file: each record's ``score``
    with ``normalized`` (default), else its raw score, at six decimals as
    ``tsv`` writes a float (``ScoreSet.written``)."""
    values = scores.written if normalized else [f"{v:.6f}" for v in scores.raw.tolist()]
    lines = map("{}\t{}\t{}\n".format, scores.subject_ids, scores.sample_ids, values)
    Path(path).write_text("".join(lines), encoding="utf-8")


def written_scores(scores: ScoreSet) -> ScoreSet:
    """The scores as ``write_scores`` writes them and ``read_scores``
    reads them back, labels and flags kept: ``ScoreSet.written`` parsed
    into ``raw``."""
    raw = np.fromiter(map(float, scores.written), np.float64, len(scores))
    nan = np.full(len(scores), math.nan)
    return ScoreSet._of(scores.subject_ids, scores.sample_ids, raw, nan, scores.labels, scores.flags)


def read_scores(path: str | Path) -> ScoreSet:
    """Read a score file back, in (subject_id, sample_id) order; values
    land in raw_score.

    Raises:
        DatasetError: a score that is not a number, NaN or +inf (keygait
            writes a finite score or ``-inf``), or a sample listed twice.
    """
    rows = []
    for lineno, subject_id, sample_id, token in _read_keyed_rows(path):
        try:
            value = float(token)
        except ValueError:
            value = math.nan  # not a number: rejected with NaN below
        if not value < math.inf:  # NaN or +inf
            raise DatasetError(f"{path}:{lineno}: bad score {token!r}")
        rows.append((subject_id, sample_id, value))
    rows.sort()  # no two rows share a sample, so values are never compared
    n = len(rows)
    subject_ids, sample_ids, raw = zip(*rows) if rows else ((), (), ())
    return ScoreSet._of(subject_ids, sample_ids, raw, [math.nan] * n, [None] * n, [False] * n)


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
    Path(path).write_text(tsv(rows), encoding="utf-8")


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
    attached = []
    for key in zip(scores.subject_ids, scores.sample_ids):
        if key not in labels:
            raise DatasetError(f"no label for {key[0]}/{key[1]}")
        attached.append(labels[key])
    return ScoreSet._of(
        scores.subject_ids, scores.sample_ids, scores.raw, scores.normalized, attached, scores.flags
    )


def write_metrics(metrics: dict[str, object], path: str | Path) -> None:
    """Two-column key/value TSV."""
    Path(path).write_text(tsv(metrics.items()), encoding="utf-8")
