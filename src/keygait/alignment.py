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

A mapping depends only on key names, so ``align_subject`` builds no
aligned sequence: it maps all of a subject's sequences at once to one index
matrix into their concatenated columns, from which the pipeline gathers
every row's times. ``align``, ``truncate_align`` and
``discard_modifiers`` are the same mappings applied to one sequence.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, combinations, compress
from operator import attrgetter
from typing import Sequence, Sized

import numpy as np

from .config import ALIGNMENT_METHODS
from .datasets import tsv
from .errors import AlignmentError
from .events import KeystrokeSequence, SubjectDataset
from .scancodes import MODIFIER_KEYS
from .scorenorm import mean_sd


@dataclass(frozen=True)
class AlignmentMapping:
    """Full record of an alignment. Per target position: the given index
    that fills it (``index``) and whether it was a substitution rather
    than a same-key match (``substituted``). Then the given indices that
    were never used, and whether the degenerate reuse-last fallback fired
    (``flagged``)."""

    index: tuple[int, ...]
    substituted: tuple[bool, ...]
    ignored: tuple[int, ...]
    flagged: bool = False

    def substitution_count(self) -> int:
        return sum(self.substituted)


def _take_nearest(indices: list[int], i: int) -> int:
    """Pop the entry of the sorted list ``indices`` nearest to ``i``, the
    smaller one on a tie: one of the two entries that bracket ``i``."""
    k = bisect_left(indices, i)
    if k == len(indices) or (k > 0 and i - indices[k - 1] <= indices[k] - i):
        k -= 1
    return indices.pop(k)


def align(
    given: KeystrokeSequence, target: KeystrokeSequence
) -> tuple[KeystrokeSequence, AlignmentMapping]:
    """Align ``given`` onto ``target``, producing a sequence of exactly
    ``len(target)`` keystrokes in target order with unmodified timestamps.

    Every target position takes the nearest unused given index (ties to
    the smaller index), in two passes over the positions left to right.
    Matching runs first: each position takes the nearest unused given
    keystroke with the same key name. Substitution then fills the
    positions whose key had none left, from the nearest unused given
    keystroke of any key; once none is left, the last given keystroke is
    reused and the result is flagged. Leftover given keystrokes are
    recorded as ignored. The returned mapping holds, per target position,
    the given index taken and whether it was a substitution; the aligned
    sequence is ``given`` gathered at that index.

    Matching before substituting keeps the mapping injective whenever the
    given sequence is long enough, and guarantees that a key occurring
    exactly once in both sequences maps to itself. Because timestamps are
    never edited, a transposed pair yields a negative press-press latency
    downstream, which is signal, not an error.

    The mapping depends only on the two key-name tuples, so it is computed
    once per distinct pair and shared by every call with that pair, this
    one and :func:`align_subject`'s alike.

    Raises:
        AlignmentError: either sequence is empty.
    """
    _check_lengths(given, target)
    mapping, _ = _match(given.keys(), target.keys())
    return given._take(list(mapping.index)), mapping


def _check_lengths(given: KeystrokeSequence, target: KeystrokeSequence) -> None:
    if len(target) == 0:
        raise AlignmentError("target sequence is empty")
    if len(given) == 0:
        raise AlignmentError("given sequence is empty")


# A subject's sequences share a few key-name pairs: a 300-subject set has
# 1,669 distinct pairs in 7,200 alignments. 4,096 entries hold them all,
# at about 1.2 kB each for 30-key names (5 MB when full). ``_cut`` keeps
# as many, keyed by given key names, target length and method.
_MATCH_CACHE_SIZE = 4096


@lru_cache(maxsize=_MATCH_CACHE_SIZE)
def _match(
    given_keys: tuple[str, ...], target_keys: tuple[str, ...]
) -> tuple[AlignmentMapping, np.ndarray]:
    """:func:`align`'s mapping of two non-empty key-name tuples, with its
    index as a read-only array."""
    # Each key's unused given indices, sorted.
    free: dict[str, list[int]] = {}
    for j, key in enumerate(given_keys):
        free.setdefault(key, []).append(j)

    # Pass 1: same-key matches, -1 where the key had none left.
    index = [
        _take_nearest(free[key], i) if free.get(key) else -1
        for i, key in enumerate(target_keys)
    ]
    substituted = tuple(j < 0 for j in index)

    # Pass 2: substitutions for the rest, from every index pass 1 left.
    left = sorted(chain.from_iterable(free.values()))
    flagged = False
    for i in compress(range(len(index)), substituted):
        if left:
            index[i] = _take_nearest(left, i)
        else:
            index[i] = len(given_keys) - 1
            flagged = True
    return AlignmentMapping(tuple(index), substituted, tuple(left), flagged), _read_only(index)


@lru_cache(maxsize=_MATCH_CACHE_SIZE)
def _cut(
    given_keys: tuple[str, ...], n: int, discard: bool
) -> tuple[AlignmentMapping, np.ndarray] | None:
    """The baselines' mapping onto a target of length ``n`` > 0: the first
    ``n`` given indices, without the modifiers when ``discard``, the last
    one repeated (and flagged) when too few are left; no substitutions.
    None where no index is left."""
    kept = _unmodified(given_keys) if discard else range(len(given_keys))
    if not kept:
        return None
    index = [kept[min(i, len(kept) - 1)] for i in range(n)]
    used = set(index)
    ignored = tuple(j for j in range(len(given_keys)) if j not in used)
    mapping = AlignmentMapping(tuple(index), (False,) * n, ignored, len(kept) < n)
    return mapping, _read_only(index)


def _read_only(index: list[int]) -> np.ndarray:
    gather = np.array(index, np.intp)
    gather.setflags(write=False)
    return gather


def _unmodified(keys: tuple[str, ...]) -> list[int]:
    """The indices of ``keys`` other than Shift (left and right) and Caps Lock."""
    return [i for i, key in enumerate(keys) if key not in MODIFIER_KEYS]


def truncate_align(
    given: KeystrokeSequence, target: KeystrokeSequence
) -> KeystrokeSequence:
    """Baseline: keep the first ``len(target)`` keystrokes of ``given``,
    repeating the last keystroke if it is too short."""
    _check_lengths(given, target)
    mapping, _ = _cut(given.keys(), len(target), False)
    return given._take(list(mapping.index))


def discard_modifiers(seq: KeystrokeSequence) -> KeystrokeSequence:
    """Baseline: drop Shift (left and right) and Caps Lock keystrokes."""
    return seq._take(_unmodified(seq.keys()), aligned=seq.aligned)


def select_target(sequences: Sequence[Sized]) -> int:
    """Index of the shortest non-empty sequence; ties go to the first
    occurrence."""
    candidates = [(len(s), i) for i, s in enumerate(sequences) if len(s)]
    if not candidates:
        raise AlignmentError("no non-empty sequence to select a target from")
    return min(candidates)[1]


def align_subject(
    templates: Sequence[KeystrokeSequence], queries: Sequence[KeystrokeSequence], method: str
) -> tuple[np.ndarray, list[AlignmentMapping | None], list[AlignmentMapping | None]]:
    """Align every template and query of one subject to the subject's
    target template, the shortest non-empty one after the method's
    preprocessing (first on ties), as one index matrix.

    ``method`` is ``align`` (:func:`align`'s mapping), ``truncate``
    (:func:`truncate_align`'s) or ``discard`` (:func:`discard_modifiers`
    on every sequence, then :func:`truncate_align`'s mapping to equalize
    lengths, each index counted in the sequence before discarding). The
    target is aligned like every other template, onto itself.

    Returns the index matrix and each template's and each query's
    :class:`AlignmentMapping`. The matrix indexes the subject's given
    columns, every template's then every query's concatenated in that
    order, so gathering a concatenated ``press`` or ``release`` column
    through it gives each aligned sequence's times as one row. It has a
    row per sequence that aligned, in the same order, and a column per
    target position. A sequence that cannot be aligned, such as an empty
    one or one left empty once its modifiers are discarded, has no row
    and its mapping is None; the others are unaffected.

    Raises:
        AlignmentError: no template is non-empty.
        ValueError: unknown method.
    """
    if method not in ALIGNMENT_METHODS:
        raise ValueError(f"alignment must be one of {ALIGNMENT_METHODS}, got {method!r}")
    given = [s.keys() for s in chain(templates, queries)]
    discard = method == "discard"
    kept = [_unmodified(keys) if discard else keys for keys in given[: len(templates)]]
    t = select_target(kept)
    target, n = given[t], len(kept[t])
    gathers: list[np.ndarray] = []
    offsets: list[int] = []
    mappings: list[AlignmentMapping | None] = []
    offset = 0
    for keys in given:
        if method == "align":
            found = _match(keys, target) if keys else None
        else:
            found = _cut(keys, n, discard)
        if found is None:
            mappings.append(None)
        else:
            mappings.append(found[0])
            gathers.append(found[1])
            offsets.append(offset)
        offset += len(keys)
    index = np.array(gathers) + np.array(offsets, np.intp)[:, None]
    return index, mappings[: len(templates)], mappings[len(templates) :]


def damerau_levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Damerau-Levenshtein distance over key-name sequences.

    Unit-cost insertions, deletions, substitutions and transpositions,
    in the unrestricted (Lowrance-Wagner) form, so the result is a true
    metric: the restricted variant would violate the triangle inequality
    on sequences like ``ca / ac / abc``.

    The dynamic program is banded (Ukkonen). Prefixes of lengths ``i`` and
    ``j`` are at least ``|i - j|`` apart, so no edit path of cost at most
    ``band``, transposition sources included, leaves the cells with
    ``|i - j| <= band``. Filling only those gives the distance whenever
    the result is at most ``band``; otherwise the band doubles, up to the
    full program.
    """
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    # A dropped, moved or substituted modifier is 1 or 2 edits, so a first
    # band of 2 settles most audited pairs in one pass.
    band = max(2, abs(la - lb))
    while True:
        distance = _banded_distance(a, b, band)
        if distance <= band:
            return distance
        band *= 2


def _banded_distance(a: Sequence[str], b: Sequence[str], band: int) -> int:
    """The cost of an edit path from ``a`` to ``b`` through the cells with
    ``|i - j| <= band``: the distance when it is at most ``band``, and
    above ``band`` otherwise."""
    la, lb = len(a), len(b)
    maxdist = la + lb
    # d has two extra rows/cols: index 0 plays the role of "-1".
    d = [[maxdist] * (lb + 2) for _ in range(la + 2)]
    for i in range(la + 1):
        d[i + 1][1] = i
    for j in range(lb + 1):
        d[1][j + 1] = j
    da: dict[str, int] = {}
    for i in range(1, la + 1):
        # db counts matches inside the band only: a transposition into
        # (i, j) from a column l < i - band costs at least
        # (i - l) + (j - l) - 1 > band.
        db = 0
        row, above = d[i + 1], d[i]
        for j in range(max(1, i - band), min(lb, i + band) + 1):
            k = da.get(b[j - 1], 0)
            l = db
            if a[i - 1] == b[j - 1]:
                cost = 0
                db = j
            else:
                cost = 1
            row[j + 1] = min(
                above[j] + cost,  # substitution / match
                row[j] + 1,  # insertion
                above[j + 1] + 1,  # deletion
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
        header = [f.name for f in fields(AuditRow)]
        return tsv(map(attrgetter(*header), self.rows), header)


def _summarize(distances: list[int], comparison_type: str) -> AuditRow:
    total = len(distances)
    if total == 0:
        return AuditRow(comparison_type, 0, 0, 0.0, 0.0, 0)
    differing = sum(1 for x in distances if x > 0)
    return AuditRow(comparison_type, total, differing, *mean_sd(distances), max(distances))


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
