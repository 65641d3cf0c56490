"""Alignment of approximately matching keystroke sequences.

Two typed renditions of the same string rarely produce identical key
sequences: modifiers get dropped, pressed in a different order, or
replaced (Caps Lock for Shift). Fixed-length feature extraction needs
every sample mapped onto a common target, so this module aligns a given
sequence to a target sequence key-by-key, keeping original timestamps.
It also provides the two baselines (truncate, discard modifiers), the
one per-subject driver that applies a method to a subject's templates
and queries (``align_subject``), the Damerau-Levenshtein distance used
to quantify sequence mismatch, and a dataset-level mismatch audit.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Sequence

from .config import ALIGNMENT_METHODS
from .errors import AlignmentError
from .events import KeystrokeSequence, SubjectDataset
from .scancodes import MODIFIER_KEYS, SHIFT_KEYS


class EntryKind(Enum):
    MATCHED = "matched"
    SUBSTITUTED = "substituted"


@dataclass(frozen=True)
class MappingEntry:
    """How one target position was filled from the given sequence."""

    kind: EntryKind
    given_index: int


@dataclass(frozen=True)
class AlignmentMapping:
    """Full record of an alignment: one entry per target position, the
    given indices that were never used, and whether the degenerate
    reuse-last fallback fired (``flagged``)."""

    target_len: int
    entries: tuple[MappingEntry, ...]
    ignored: tuple[int, ...]
    flagged: bool = False

    def substitution_count(self) -> int:
        return sum(1 for e in self.entries if e.kind is EntryKind.SUBSTITUTED)


# Entries are frozen, so one instance per (kind, index) is shared by
# every mapping.
@functools.cache
def _matched(index: int) -> MappingEntry:
    return MappingEntry(EntryKind.MATCHED, index)


@functools.cache
def _substituted(index: int) -> MappingEntry:
    return MappingEntry(EntryKind.SUBSTITUTED, index)


def _comparison_keys(seq: KeystrokeSequence, merge_shift_keys: bool) -> list[str]:
    if merge_shift_keys:
        return ["shift" if k.key in SHIFT_KEYS else k.key for k in seq]
    return [k.key for k in seq]


def align(
    given: KeystrokeSequence,
    target: KeystrokeSequence,
    *,
    merge_shift_keys: bool = False,
) -> tuple[KeystrokeSequence, AlignmentMapping]:
    """Align ``given`` onto ``target``, producing a sequence of exactly
    ``len(target)`` keystrokes in target order with unmodified timestamps.

    Matching runs first: target positions are visited left to right and
    each takes the unconsumed given keystroke with the same key name that
    minimizes ``|given_index - position|`` (ties to the smaller index).
    Positions whose key has no unconsumed occurrence are then filled left
    to right by substitution: the unconsumed given keystroke at the same
    index, else the nearest unconsumed one (ties to the smaller index),
    else the last given keystroke is reused and the result is flagged.
    Leftover given keystrokes are recorded as ignored.

    Matching before substituting keeps the mapping injective whenever the
    given sequence is long enough, and guarantees that a key occurring
    exactly once in both sequences maps to itself. Because timestamps are
    never edited, a transposed pair yields a negative press-press latency
    downstream, which is signal, not an error.

    Raises:
        AlignmentError: either sequence is empty.
    """
    if len(target) == 0:
        raise AlignmentError("target sequence is empty")
    if len(given) == 0:
        raise AlignmentError("given sequence is empty")

    given_keys = _comparison_keys(given, merge_shift_keys)
    target_keys = _comparison_keys(target, merge_shift_keys)
    n_given = len(given_keys)
    n_target = len(target_keys)
    consumed = [False] * n_given
    chosen: list[MappingEntry | None] = [None] * n_target

    # Pass 1: same-key matches. Each key's unconsumed given indices stay
    # sorted, so the nearest one to position i is one of the two that
    # bracket i; on a tie the smaller index wins.
    free: dict[str, list[int]] = {}
    for j, key in enumerate(given_keys):
        free.setdefault(key, []).append(j)
    for i, key in enumerate(target_keys):
        indices = free.get(key)
        if not indices:
            continue
        k = bisect_left(indices, i)
        if k == len(indices) or (k > 0 and i - indices[k - 1] <= indices[k] - i):
            k -= 1
        best = indices.pop(k)
        consumed[best] = True
        chosen[i] = _matched(best)

    # Pass 2: substitutions for the rest.
    flagged = False
    for i in range(n_target):
        if chosen[i] is not None:
            continue
        if i < n_given and not consumed[i]:
            pick = i
        else:
            pick = -1
            best_dist = math.inf
            for j in range(n_given):
                if consumed[j]:
                    continue
                dist = abs(j - i)
                if dist < best_dist:
                    best_dist = dist
                    pick = j
        if pick >= 0:
            consumed[pick] = True
        else:
            pick = n_given - 1
            flagged = True
        chosen[i] = _substituted(pick)

    entries = tuple(chosen)
    ignored = tuple(j for j, used in enumerate(consumed) if not used)
    mapping = AlignmentMapping(n_target, entries, ignored, flagged)
    keystrokes = given.keystrokes
    aligned = KeystrokeSequence(
        tuple(keystrokes[e.given_index] for e in entries), aligned=True
    )
    return aligned, mapping


def truncate_align(
    given: KeystrokeSequence, target: KeystrokeSequence
) -> KeystrokeSequence:
    """Baseline: keep the first ``len(target)`` keystrokes of ``given``,
    repeating the last keystroke if it is too short."""
    if len(target) == 0:
        raise AlignmentError("target sequence is empty")
    if len(given) == 0:
        raise AlignmentError("given sequence is empty")
    n = len(target)
    kept = list(given.keystrokes[:n])
    while len(kept) < n:
        kept.append(kept[-1])
    return KeystrokeSequence(tuple(kept), aligned=True)


def discard_modifiers(seq: KeystrokeSequence) -> KeystrokeSequence:
    """Baseline: drop Shift (left and right) and Caps Lock keystrokes."""
    kept = tuple(k for k in seq.keystrokes if k.key not in MODIFIER_KEYS)
    return KeystrokeSequence(kept, aligned=seq.aligned)


def select_target(sequences: Sequence[KeystrokeSequence]) -> int:
    """Index of the shortest sequence; ties go to the first occurrence."""
    if not sequences:
        raise AlignmentError("no sequences to select a target from")
    return min(range(len(sequences)), key=lambda i: (len(sequences[i]), i))


def align_subject(
    templates: Sequence[KeystrokeSequence],
    queries: Sequence[KeystrokeSequence],
    method: str,
    *,
    merge_shift_keys: bool = False,
) -> tuple[list[KeystrokeSequence | None], list[KeystrokeSequence | None]]:
    """Align every template and query of one subject to the subject's
    target template, the shortest one (first on ties).

    ``method`` is ``align`` (:func:`align`), ``truncate``
    (:func:`truncate_align`) or ``discard`` (:func:`discard_modifiers` on
    every sequence, then :func:`truncate_align` to equalize lengths). The
    target goes through the same call as every other template, which
    returns it unchanged. A sequence that cannot be aligned, such as one
    left empty once its modifiers are discarded, comes back as None; the
    others are unaffected.

    Raises:
        AlignmentError: there are no templates.
        ValueError: unknown method.
    """
    if method not in ALIGNMENT_METHODS:
        raise ValueError(f"alignment must be one of {ALIGNMENT_METHODS}, got {method!r}")
    if method == "discard":
        templates = [discard_modifiers(s) for s in templates]
        queries = [discard_modifiers(s) for s in queries]
    target = templates[select_target(templates)]

    def one(seq: KeystrokeSequence) -> KeystrokeSequence | None:
        try:
            if method == "align":
                return align(seq, target, merge_shift_keys=merge_shift_keys)[0]
            return truncate_align(seq, target)
        except AlignmentError:
            return None

    return [one(s) for s in templates], [one(s) for s in queries]


def damerau_levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Damerau-Levenshtein distance over key-name sequences.

    Unit-cost insertions, deletions, substitutions and transpositions,
    in the unrestricted (Lowrance-Wagner) form, so the result is a true
    metric: the restricted variant would violate the triangle inequality
    on sequences like ``ca / ac / abc``.
    """
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    maxdist = la + lb
    # d has two extra rows/cols: index 0 plays the role of "-1".
    d = [[maxdist] * (lb + 2) for _ in range(la + 2)]
    for i in range(la + 1):
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[1][j + 1] = j
    da: dict[str, int] = {}
    for i in range(1, la + 1):
        db = 0
        for j in range(1, lb + 1):
            k = da.get(b[j - 1], 0)
            l = db
            if a[i - 1] == b[j - 1]:
                cost = 0
                db = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,  # substitution / match
                d[i + 1][j] + 1,  # insertion
                d[i][j + 1] + 1,  # deletion
                d[k][l] + (i - k - 1) + 1 + (j - l - 1),  # transposition
            )
        da[a[i - 1]] = i
    return d[la + 1][lb + 1]


@dataclass(frozen=True)
class AuditRow:
    comparison_type: str
    count_total: int
    count_differing: int
    mean_dl: float
    sd_dl: float
    max_dl: int


@dataclass(frozen=True)
class AuditReport:
    rows: tuple[AuditRow, ...]

    def to_tsv(self) -> str:
        lines = [
            "comparison_type\tcount_total\tcount_differing\tmean_dl\tsd_dl\tmax_dl"
        ]
        for r in self.rows:
            lines.append(
                f"{r.comparison_type}\t{r.count_total}\t{r.count_differing}"
                f"\t{r.mean_dl:.6f}\t{r.sd_dl:.6f}\t{r.max_dl}"
            )
        return "\n".join(lines) + "\n"


def _summarize(distances: list[int], comparison_type: str) -> AuditRow:
    total = len(distances)
    if total == 0:
        return AuditRow(comparison_type, 0, 0, 0.0, 0.0, 0)
    differing = sum(1 for x in distances if x > 0)
    mean = sum(distances) / total
    var = sum((x - mean) ** 2 for x in distances) / total
    return AuditRow(comparison_type, total, differing, mean, math.sqrt(var), max(distances))


def audit_dataset(dataset: SubjectDataset) -> AuditReport:
    """Quantify how often sequences that should match do not.

    For every subject, compares the key-name sequences of all template
    pairs and of every query against every template, reporting totals,
    the number of differing pairs, and mean/SD/max Damerau-Levenshtein
    distance for each comparison type.
    """
    # Many pairs repeat: equal key sequences are 0 apart, and each distinct
    # ordered pair is computed once per audit.
    known: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}

    def distance(a: tuple[str, ...], b: tuple[str, ...]) -> int:
        if a == b:
            return 0
        d = known.get((a, b))
        if d is None:
            d = known[(a, b)] = damerau_levenshtein(a, b)
        return d

    tt: list[int] = []
    qt: list[int] = []
    for subject_id in dataset.subject_ids():
        entry = dataset.subjects[subject_id]
        template_keys = [s.sequence.keys() for s in entry.templates]
        query_keys = [s.sequence.keys() for s in entry.queries]
        for a, b in combinations(template_keys, 2):
            tt.append(distance(a, b))
        for q in query_keys:
            for t in template_keys:
                qt.append(distance(q, t))
    return AuditReport(
        (
            _summarize(tt, "template-template"),
            _summarize(qt, "query-template"),
        )
    )
