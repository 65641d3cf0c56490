"""Raw keystroke events, keystroke pairing, and the on-disk event format.

A capture file is a sequence of lines ``<action> <scancode> <delta_ms>``
where action is ``P`` (press) or ``R`` (release), the scancode is hex
digits (written lowercase, read in either case), and delta_ms is the
interval since the previous event in decimal digits (0 for the first
event); a delta and the running time since the first event are each at
most ``MAX_DELTA_MS`` = 2**53 - 1. No sign, prefix or separator is
accepted. Pairing turns that stream into press-ordered keystrokes with
absolute timestamps; overlapping holds (rollover) are supported.

``read_sequence`` is the spec: the scanner ``parse_raw_events`` validates
every line into a list of ``(is_press, scancode, delta_ms)`` steps, and
the pairing loop ``pair_events`` consumes steps; ``read_sequence`` is
``pair_events(parse_raw_events(text))``. The scan finishes before pairing
starts, so a parse error anywhere in the text wins over a pairing error.
Every parse and pairing message and every :class:`UnreleasedKeyWarning`
comes from this path.

``read_sequences`` is the fast path for a block of files in the exact
form ``serialize_events`` writes: it checks that form, decodes and pairs
the whole block in numpy arrays, and builds the same sequences. It
declines every file it cannot read that way (any other spelling, an
error, a key left down), and its caller reads those with
``read_sequence``. Its inverse,
``_serialize_block``, writes a block of sequences in numpy arrays too;
``serialize_events`` is that block of one.

A :class:`KeystrokeSequence` is columns alone: the key names as one tuple
of ``str`` and the press and release times as two read-only ``int64``
arrays. The readers, synthesis and alignment build it with the unchecked
``_of``, since what they fill is valid by construction; the public
constructor checks the columns it is given.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import PairingError, ParseError
from .scancodes import NAME_SCANCODES, SCANCODE_NAMES, key_name, scancode_for


class UnreleasedKeyWarning(UserWarning):
    """A press had no matching release; the keystroke was closed at the
    final timestamp of the sample."""


class KeystrokeSequence:
    """An ordered run of keystrokes, held as columns: the key names as one
    tuple of ``str`` (:meth:`keys`), and the press and release times as
    read-only ``int64`` arrays ``press`` and ``release``.

    Unaligned sequences are ordered by press time (non-decreasing).
    Aligned sequences carry target order instead, so press times may go
    backwards; the ``aligned`` flag records which form this is.

    Equality, hashing, pickle and copy treat a sequence as its columns and
    its ``aligned`` flag; unpickling goes through the checked constructor.
    """

    __slots__ = ("_keys", "press", "release", "aligned")

    def __new__(
        cls, keys: Iterable[str], press: Iterable[int], release: Iterable[int], aligned: bool = False
    ) -> KeystrokeSequence:
        """The sequence on these columns, checked: a ``str`` per key, an
        ``int`` in ``int64`` but not a bool per time, columns of one length,
        each ``release >= press``, and press order unless ``aligned``."""
        keys, press, release = tuple(keys), _int64s(press), _int64s(release)
        if not len(keys) == len(press) == len(release):
            raise ValueError(f"column lengths differ: {len(keys)}, {len(press)}, {len(release)}")
        for key, p, r in zip(keys, press.tolist(), release.tolist()):
            if not isinstance(key, str):
                raise TypeError(f"key {key!r} is not a str")
            if r < p:
                raise ValueError(f"release_t {r} precedes press_t {p} for {key!r}")
        if not aligned and (press[1:] < press[:-1]).any():
            raise ValueError("unaligned sequence must be ordered by press time")
        return cls._of(keys, press, release, aligned)

    @classmethod
    def _of(
        cls, keys: tuple[str, ...], press: np.ndarray, release: np.ndarray, aligned: bool = False
    ) -> KeystrokeSequence:
        """A sequence on columns that are valid by construction, unchecked:
        ``int64`` times with ``release >= press``, in press order unless
        ``aligned``. The arrays become read-only."""
        press.setflags(write=False)
        release.setflags(write=False)
        seq = object.__new__(cls)
        object.__setattr__(seq, "_keys", keys)
        object.__setattr__(seq, "press", press)
        object.__setattr__(seq, "release", release)
        object.__setattr__(seq, "aligned", aligned)
        return seq

    def _take(self, index: slice | list[int], aligned: bool = True) -> KeystrokeSequence:
        """The keystrokes at ``index``, in that order."""
        if isinstance(index, slice):
            keys = self._keys[index]
        else:
            keys = tuple([self._keys[i] for i in index])
            index = np.array(index, np.intp)
        return KeystrokeSequence._of(keys, self.press[index], self.release[index], aligned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a KeystrokeSequence is immutable")

    __delattr__ = __setattr__

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self) -> tuple[str, ...]:
        return self._keys

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeystrokeSequence):
            return NotImplemented
        return (
            self.aligned == other.aligned
            and self._keys == other._keys
            and np.array_equal(self.press, other.press)
            and np.array_equal(self.release, other.release)
        )

    def __hash__(self) -> int:
        return hash((self._keys, self.press.tobytes(), self.release.tobytes(), self.aligned))

    def __reduce__(self):
        columns = (self._keys, self.press.tolist(), self.release.tolist(), self.aligned)
        return KeystrokeSequence, columns

    def __repr__(self) -> str:
        return f"KeystrokeSequence{self.__reduce__()[1]!r}"


def _int64s(times: Iterable[int]) -> np.ndarray:
    """``times``, each an ``int`` other than a bool, as an ``int64`` array."""
    times = list(times)
    for t in times:
        if isinstance(t, (bool, np.bool_)):
            raise TypeError(f"time {t!r} is a bool, not an int")
        if not -(2**63) <= operator.index(t) < 2**63:
            raise ValueError(f"time {t} is outside int64")
    return np.array([operator.index(t) for t in times], np.int64)


class Role(Enum):
    TEMPLATE = "template"
    QUERY = "query"


class Label(Enum):
    GENUINE = "genuine"
    IMPOSTOR = "impostor"


# Path separators, NUL, the flat-file field separator (tab) and every line
# boundary str.splitlines breaks on.
_NOT_IN_ID = frozenset("/\\\0\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")


def check_id(kind: str, value: str) -> None:
    """A subject or sample id names one path component of a dataset and
    one field of a flat file: non-empty, not ``.`` or ``..``, and free of
    ``/``, ``\\``, NUL, tab and every line boundary ``str.splitlines``
    breaks on.

    Raises:
        ValueError: any other id.
    """
    if value in ("", ".", "..") or not _NOT_IN_ID.isdisjoint(value):
        raise ValueError(f"bad {kind} id {value!r}: not a plain file name")


def _sample_label(subject_id: str, sample_id: str, role: Role, label: Label | None) -> Label | None:
    """The label a sample carries: ``GENUINE`` for a template, as
    enrollment data are genuine by construction (ValueError if labeled
    impostor), and a query's own, ``None`` when withheld."""
    if role is not Role.TEMPLATE:
        return label
    if label is Label.IMPOSTOR:
        raise ValueError(f"template {subject_id}/{sample_id} cannot be labeled impostor")
    return Label.GENUINE


@dataclass(frozen=True, slots=True)
class Sample:
    """One captured typing sample with its dataset bookkeeping. The
    constructor checks both ids and sets the label by ``_sample_label``;
    ``load_dataset``, which checks each manifest row once, uses ``_of``."""

    subject_id: str
    sample_id: str
    role: Role
    sequence: KeystrokeSequence
    label: Label | None = None

    def __post_init__(self) -> None:
        check_id("subject", self.subject_id)
        check_id("sample", self.sample_id)
        label = _sample_label(self.subject_id, self.sample_id, self.role, self.label)
        object.__setattr__(self, "label", label)

    @classmethod
    def _of(
        cls,
        subject_id: str,
        sample_id: str,
        role: Role,
        sequence: KeystrokeSequence,
        label: Label | None,
    ) -> Sample:
        """A sample on fields that are valid by construction, unchecked:
        ids that pass ``check_id`` and ``label`` as ``_sample_label`` gives it."""
        sample = object.__new__(cls)
        object.__setattr__(sample, "subject_id", subject_id)
        object.__setattr__(sample, "sample_id", sample_id)
        object.__setattr__(sample, "role", role)
        object.__setattr__(sample, "sequence", sequence)
        object.__setattr__(sample, "label", label)
        return sample


@dataclass
class SubjectSamples:
    templates: list[Sample] = field(default_factory=list)
    queries: list[Sample] = field(default_factory=list)


@dataclass
class SubjectDataset:
    """All samples for a set of subjects, split into templates and queries."""

    subjects: dict[str, SubjectSamples] = field(default_factory=dict)

    def add(self, sample: Sample) -> None:
        entry = self.subjects.setdefault(sample.subject_id, SubjectSamples())
        if sample.role is Role.TEMPLATE:
            entry.templates.append(sample)
        else:
            entry.queries.append(sample)

    def subject_ids(self) -> list[str]:
        return sorted(self.subjects)

    def n_samples(self) -> int:
        return sum(len(s.templates) + len(s.queries) for s in self.subjects.values())


_HEX_DIGITS = "0123456789abcdefABCDEF"
_DECIMAL_DIGITS = "0123456789"
# Timings become floats: a larger delta or timestamp loses precision, and
# one past float's range (~309 digits) would crash feature extraction.
MAX_DELTA_MS = 2**53 - 1


def parse_raw_events(text: str) -> list[tuple[bool, int, int]]:
    """Scan the canonical event format: a validated ``(is_press, scancode,
    delta_ms)`` step per non-blank line.

    Raises:
        ParseError: wrong field count, unknown action token, a scancode
            that is not plain ASCII hex digits, a delta that is not plain
            ASCII decimal digits, nonzero delta on the first event, or a
            timestamp (time since the first event) past ``MAX_DELTA_MS``.
            Errors carry the 1-based line number.
    """
    steps: list[tuple[bool, int, int]] = []
    t = None  # time since the first event
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            action_tok, code_tok, delta_tok = fields
        except ValueError:
            raise ParseError(
                f"line {lineno}: expected 3 fields, got {len(fields)}: {line!r}"
            ) from None
        if action_tok == "P":
            is_press = True
        elif action_tok == "R":
            is_press = False
        else:
            raise ParseError(f"line {lineno}: unknown action token {action_tok!r}")
        # int() alone also takes signs, "0x" prefixes, "_" separators and
        # non-ASCII digits.
        if code_tok.strip(_HEX_DIGITS):
            raise ParseError(f"line {lineno}: bad scancode {code_tok!r}")
        scancode = int(code_tok, 16)
        try:
            if delta_tok.strip(_DECIMAL_DIGITS):
                raise ValueError
            delta = int(delta_tok)  # also fails past int()'s digit limit
            if delta > MAX_DELTA_MS:
                raise ValueError
        except ValueError:
            raise ParseError(f"line {lineno}: bad delta {delta_tok!r}") from None
        if t is None:
            if delta != 0:
                raise ParseError(f"line {lineno}: first event must have delta 0, got {delta}")
            t = 0
        t += delta
        if t > MAX_DELTA_MS:
            raise ParseError(f"line {lineno}: timestamp {t} exceeds {MAX_DELTA_MS}")
        steps.append((is_press, scancode, delta))
    return steps


def pair_events(steps: Iterable[tuple[bool, int, int]]) -> KeystrokeSequence:
    """Pair ``(is_press, scancode, delta_ms)`` steps, whose deltas are
    non-negative as :func:`parse_raw_events` gives them, into a
    press-ordered keystroke sequence.

    Each press is matched with the earliest subsequent release of the same
    scancode, so holds may overlap (rollover). A repeated press of a key
    that is already down (auto-repeat) closes the open keystroke at the new
    press time and starts a new one. A release with no open press is a
    :class:`PairingError`. A press that is never released is closed at the
    final timestamp of the sample and reported via
    :class:`UnreleasedKeyWarning`.
    """
    t = 0
    open_by_code: dict[int, int] = {}  # scancode -> index of its open keystroke
    # Each press takes the next index, in time order, so the columns are
    # already in press order; t never decreases, so release >= press.
    keys: list[str] = []
    press: list[int] = []
    release: list[int] = []
    for is_press, code, delta in steps:
        t += delta
        opened = open_by_code.pop(code, None)
        if opened is not None:  # a release, or a re-press of a held key
            release[opened] = t
        if is_press:
            open_by_code[code] = len(keys)
            keys.append(SCANCODE_NAMES.get(code) or key_name(code))
            press.append(t)
            release.append(t)
        elif opened is None:
            raise PairingError(f"release of {key_name(code)!r} at t={t} with no open press")
    for code, index in open_by_code.items():
        warnings.warn(
            f"press of {key_name(code)!r} at t={press[index]} never released; "
            f"closed at final timestamp {t}",
            UnreleasedKeyWarning,
            stacklevel=3,
        )
        release[index] = t
    return KeystrokeSequence._of(
        tuple(keys), np.array(press, np.int64), np.array(release, np.int64)
    )


def read_sequence(text: str) -> KeystrokeSequence:
    """Parse and pair one capture in a single pass."""
    return pair_events(parse_raw_events(text))


# The bytes of the form serialize_events writes, the only one
# read_sequences takes: lines "<P or R> <hex> <decimal>\n" with lower-case
# hex and decimal ASCII digits, short enough for int64, and single spaces.
_FORM_BYTES = b"0123456789abcdef PR\n"
_DIGIT_VALUE = np.zeros(256, np.uint8)  # byte -> value of a digit the form allows
_DIGIT_VALUE[np.frombuffer(b"0123456789abcdef", np.uint8)] = np.arange(16)


def _numbers(digits: np.ndarray, end: np.ndarray, width: np.ndarray, base: int) -> np.ndarray:
    """The numbers written with ``width[i]`` digits just before byte
    ``end[i]``, given each byte's digit value."""
    value = np.zeros(len(end), np.int64)
    for j in range(int(width.max(initial=0))):
        value += (width > j) * digits.take(end - 1 - j, mode="clip").astype(np.int64) * base**j
    return value


def read_sequences(raws: list[bytes]) -> list[KeystrokeSequence | None]:
    """Read a block of capture files at once: for each, the sequence
    :func:`read_sequence` gives for its text, or None where this reader
    declines the file.

    It takes only files in the form :func:`serialize_events` writes, byte
    for byte, with at most 8 hex and 16 decimal digits, and whose events
    are all valid and pair up: a first delta of 0, no time past
    ``MAX_DELTA_MS``, no release without an open press and no press left
    down at the end. It declines any other file, valid or not, so the
    caller reads a declined file with :func:`read_sequence`, which gives
    its sequence, error or warning.

    The form is checked on the block's arrays. A file with a byte the
    form never uses, no final newline, a field of the wrong width or a hex
    digit in a delta declines alone; a line that is not an action and two
    fields, each after one space, declines the whole block.
    """
    out: list[KeystrokeSequence | None] = [None] * len(raws)
    files = [
        i
        for i, raw in enumerate(raws)
        if (not raw or raw.endswith(b"\n")) and not raw.translate(None, _FORM_BYTES)
    ]
    n_lines = np.array([raws[i].count(b"\n") for i in files], np.int64)
    buf = np.frombuffer(b"".join([raws[i] for i in files]), np.uint8)
    end = np.flatnonzero(buf == ord("\n"))  # each line's "\n"
    start = np.concatenate(([0], end + 1))[:-1]
    action = (buf == ord("P")) | (buf == ord("R"))
    space = np.flatnonzero(buf == ord(" "))
    # Each line holds one P or R, first, and two spaces, the first right
    # after it; the second then falls inside the line.
    if not (
        np.count_nonzero(action) == len(end)
        and action[start].all()
        and len(space) == 2 * len(end)
        and (space[0::2] == start + 1).all()
    ):
        return out
    gap = space[1::2]  # each line's space before the delta
    code_width, delta_width = gap - start - 2, end - gap - 1
    bad = (code_width < 1) | (code_width > 8) | (delta_width < 1) | (delta_width > 16)
    letter = np.flatnonzero(buf >= ord("a"))  # the form's only such bytes are a-f
    line = np.searchsorted(end, letter)
    bad[line[letter > gap[line]]] = True  # one in a delta
    digits = _DIGIT_VALUE[buf]
    press = buf[start] == ord("P")
    # a bad line's fields read as 0: a wider field would overflow int64
    code = _numbers(digits, gap, np.where(bad, 0, code_width), 16)
    delta = _numbers(digits, end, np.where(bad, 0, delta_width), 10)
    file_of = np.repeat(np.arange(len(files), dtype=np.int64), n_lines)
    before = np.cumsum(n_lines) - n_lines  # lines before each file
    # int64 sums wrap, but a file's times are exact up to its first line
    # past MAX_DELTA_MS: a delta has at most 16 digits, so that time is
    # under 2**55, and that line declines the file.
    total = np.cumsum(delta)
    t = total - np.repeat(np.concatenate(([0], total))[before], n_lines)
    bad |= t > MAX_DELTA_MS
    first = before[n_lines > 0]  # each non-empty file's first line
    bad[first] |= delta[first] != 0
    # Events by file, then scancode, then line: a press closes at the next
    # event of its key, and a release must close a press.
    file_code = file_of << 32 | code
    order = np.argsort(file_code, kind="stable")
    same = file_code[order[1:]] == file_code[order[:-1]]
    sorted_press = press[order]
    bad[order] |= np.where(
        sorted_press,
        ~np.append(same, False),
        ~np.insert(same & sorted_press[:-1], 0, False),
    )
    close_t = np.zeros_like(t)
    close_t[order[:-1]] = t[order[1:]]
    declined = np.bincount(file_of[bad], minlength=len(files)) > 0
    keep = press & ~declined[file_of]
    codes, inverse = np.unique(code[keep], return_inverse=True)
    keys = np.array([key_name(c) for c in codes.tolist()], dtype=object)[inverse].tolist()
    # Each file's presses are in time order and close_t >= t, so every
    # file's slice of the columns is a valid sequence as it stands.
    press_t, release_t = t[keep], close_t[keep]
    stop = np.cumsum(np.bincount(file_of[keep], minlength=len(files))).tolist()
    for i, a, b, skip in zip(files, [0] + stop, stop, declined.tolist()):
        if not skip:
            out[i] = KeystrokeSequence._of(tuple(keys[a:b]), press_t[a:b], release_t[a:b])
    return out


def _check_serializable(seq: KeystrokeSequence) -> None:
    """ValueError unless ``seq`` serializes: unaligned, anchored at t=0,
    and every key name one :func:`scancode_for` maps back to a code."""
    if seq.aligned:
        raise ValueError("aligned sequences do not serialize to the event format")
    if len(seq) and seq.press[0] != 0:
        raise ValueError(f"sequence must be anchored at t=0, first press is {seq.press[0]}")
    if not NAME_SCANCODES.keys() >= set(seq.keys()):
        for key in seq.keys():
            scancode_for(key)  # the first name it cannot map raises


def _serialize_block(seqs: list[KeystrokeSequence]) -> list[str]:
    """:func:`serialize_events` of each sequence, which must pass
    :func:`_check_serializable`, for a block of them at once: the inverse
    of :func:`read_sequences`.

    Every event of the block is sorted once, by sequence, time, keystroke
    and press first. Each line is spelled in one row of a fixed-width byte
    matrix, with the scancode's hex digits left-aligned and the delta's
    decimal digits right-aligned in NUL-padded fields; dropping the NULs
    leaves the block's text, which is cut at each sequence's last line.
    """
    sizes = np.array([len(s) for s in seqs], np.int64)
    n = int(sizes.sum())
    if n == 0:
        return [""] * len(seqs)
    # Each distinct key name's index, and its scancode in lower-case hex.
    keys = list(chain.from_iterable(s.keys() for s in seqs))
    names = {k: i for i, k in enumerate(dict.fromkeys(keys))}
    key_id = np.array(list(map(names.__getitem__, keys)))
    spelled = [f"{scancode_for(k):02x}".encode() for k in names]
    code_len = np.array([len(code) for code in spelled])
    code_width = int(code_len.max())
    code_digits = np.array(spelled, f"S{code_width}").view(np.uint8).reshape(-1, code_width)
    # Event e < n presses keystroke e and event n + e releases it. The sort
    # is stable, so a press stays before its own release at the same time.
    t = np.concatenate([s.press for s in seqs] + [s.release for s in seqs])
    owner = np.repeat(np.arange(len(seqs)), sizes)
    order = np.lexsort((np.tile(np.arange(n), 2), t, np.tile(owner, 2)))
    t = t[order]
    key_id = key_id[order % n]
    delta = np.diff(t, prepend=0)
    delta[2 * (np.cumsum(sizes) - sizes)[sizes > 0]] = 0  # each sequence's first event
    width = len(str(int(delta.max())))
    place = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    # A digit is spelled from the first nonzero one on, and the units always.
    spell = (delta[:, None] >= place) | (place == 1)
    lines = np.zeros((2 * n, code_width + width + 4), np.uint8)
    lines[:, 0] = np.where(order < n, ord("P"), ord("R"))
    lines[:, 1] = lines[:, 2 + code_width] = ord(" ")
    lines[:, 2 : 2 + code_width] = code_digits[key_id]
    lines[:, 3 + code_width : -1] = np.where(spell, delta[:, None] // place % 10 + ord("0"), 0)
    lines[:, -1] = ord("\n")
    text = lines[lines != 0].tobytes().decode("ascii")
    line_end = np.cumsum(4 + code_len[key_id] + spell.sum(axis=1))
    cut = np.concatenate(([0], line_end))[2 * np.concatenate(([0], np.cumsum(sizes)))].tolist()
    return [text[a:b] for a, b in zip(cut[:-1], cut[1:])]


def serialize_events(seq: KeystrokeSequence) -> str:
    """Render a keystroke sequence back to the canonical event format.

    Only unaligned sequences anchored at t=0 serialize; re-parsing the
    result reproduces the sequence exactly. Ties in time are broken by
    keystroke order with press before release inside one keystroke, which
    keeps zero-duration keystrokes (a quantized clock can produce them)
    unambiguous to re-pair.
    """
    _check_serializable(seq)
    return _serialize_block([seq])[0]
