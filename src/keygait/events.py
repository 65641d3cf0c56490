"""Raw keystroke events, keystroke pairing, and the on-disk event format.

A capture file is a sequence of lines ``<action> <scancode> <delta_ms>``
where action is ``P`` (press) or ``R`` (release), the scancode is hex
digits (written lowercase, read in either case), and delta_ms is the
interval since the previous event in decimal digits (0 for the first
event); no sign, prefix or separator is accepted. Pairing turns that
stream into press-ordered keystrokes with absolute timestamps;
overlapping holds (rollover) are supported.

There is one scanner (``_scan``), which validates each line into an
``(is_press, scancode, delta_ms)`` step, and one pairing loop (``_pair``),
which consumes steps. ``read_sequence`` feeds the scanner straight into the
pairer, so loading a capture builds no :class:`RawEvent`;
``parse_raw_events`` and ``pair_events`` are thin wrappers over the same
two functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

from .errors import PairingError, ParseError
from .scancodes import key_name, scancode_for


class Action(Enum):
    PRESS = "P"
    RELEASE = "R"


class UnreleasedKeyWarning(UserWarning):
    """A press had no matching release; the keystroke was closed at the
    final timestamp of the sample."""


@dataclass(frozen=True)
class RawEvent:
    """One key press or release with its interval since the previous event."""

    action: Action
    scancode: int
    delta_ms: int

    def __post_init__(self) -> None:
        if self.delta_ms < 0:
            raise ValueError(f"delta_ms must be non-negative, got {self.delta_ms}")
        if self.scancode < 0:
            raise ValueError(f"scancode must be non-negative, got {self.scancode}")


@dataclass(frozen=True)
class Keystroke:
    """A paired press/release with absolute millisecond timestamps."""

    key: str
    press_t: int
    release_t: int

    def __post_init__(self) -> None:
        if self.release_t < self.press_t:
            raise ValueError(
                f"release_t {self.release_t} precedes press_t {self.press_t} for {self.key!r}"
            )

    @property
    def duration(self) -> int:
        return self.release_t - self.press_t


@dataclass(frozen=True)
class KeystrokeSequence:
    """An ordered run of keystrokes.

    Unaligned sequences are ordered by press time (non-decreasing).
    Aligned sequences carry target order instead, so press times may go
    backwards; the ``aligned`` flag records which form this is.
    """

    keystrokes: tuple[Keystroke, ...]
    aligned: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "keystrokes", tuple(self.keystrokes))
        if not self.aligned:
            times = [k.press_t for k in self.keystrokes]
            if any(a > b for a, b in zip(times, times[1:])):
                raise ValueError("unaligned sequence must be ordered by press time")

    def __len__(self) -> int:
        return len(self.keystrokes)

    def __iter__(self) -> Iterator[Keystroke]:
        return iter(self.keystrokes)

    def __getitem__(self, i: int) -> Keystroke:
        return self.keystrokes[i]

    def keys(self) -> tuple[str, ...]:
        return tuple(k.key for k in self.keystrokes)


class Role(Enum):
    TEMPLATE = "template"
    QUERY = "query"


class Label(Enum):
    GENUINE = "genuine"
    IMPOSTOR = "impostor"


@dataclass(frozen=True)
class Sample:
    """One captured typing sample with its dataset bookkeeping."""

    subject_id: str
    sample_id: str
    role: Role
    sequence: KeystrokeSequence
    label: Label | None = None

    def __post_init__(self) -> None:
        # Templates are enrollment data and genuine by construction.
        if self.role is Role.TEMPLATE:
            if self.label is Label.IMPOSTOR:
                raise ValueError(
                    f"template {self.subject_id}/{self.sample_id} cannot be labeled impostor"
                )
            if self.label is None:
                object.__setattr__(self, "label", Label.GENUINE)


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


def _scan(text: str) -> Iterator[tuple[bool, int, int]]:
    """The one event scanner: validated ``(is_press, scancode, delta_ms)``
    per non-blank line. Errors carry the 1-based line number."""
    first = True
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
        except ValueError:
            raise ParseError(f"line {lineno}: bad delta {delta_tok!r}") from None
        if first:
            if delta != 0:
                raise ParseError(f"line {lineno}: first event must have delta 0, got {delta}")
            first = False
        yield is_press, scancode, delta


def _pair(steps: Iterable[tuple[bool, int, int]]) -> KeystrokeSequence:
    """The one pairing loop over ``(is_press, scancode, delta_ms)`` steps.

    A pairing error is raised only once ``steps`` is exhausted, so a
    scanner error later in the text still wins, as it does when the whole
    text is parsed before pairing.
    """
    t = 0
    open_by_code: dict[int, tuple[int, int]] = {}  # scancode -> (press_t, open_seq)
    # Each press takes the next slot, in time order, so the slots are
    # already in (press_t, open_seq) order: slot index == open_seq.
    slots: list[Keystroke | None] = []
    steps = iter(steps)
    for is_press, code, delta in steps:
        t += delta
        if is_press:
            if code in open_by_code:
                press_t, seq_no = open_by_code.pop(code)
                slots[seq_no] = Keystroke(key_name(code), press_t, t)
            open_by_code[code] = (t, len(slots))
            slots.append(None)
        else:
            opened = open_by_code.pop(code, None)
            if opened is None:
                error = PairingError(
                    f"release of {key_name(code)!r} at t={t} with no open press"
                )
                for _ in steps:
                    pass
                raise error
            slots[opened[1]] = Keystroke(key_name(code), opened[0], t)
    for code, (press_t, seq_no) in open_by_code.items():
        warnings.warn(
            f"press of {key_name(code)!r} at t={press_t} never released; "
            f"closed at final timestamp {t}",
            UnreleasedKeyWarning,
            stacklevel=3,
        )
        slots[seq_no] = Keystroke(key_name(code), press_t, t)
    return KeystrokeSequence(tuple(slots))


def parse_raw_events(text: str) -> list[RawEvent]:
    """Parse the canonical event format into raw events.

    Blank lines are skipped. Errors carry the 1-based line number.

    Raises:
        ParseError: wrong field count, unknown action token, a scancode
            that is not plain ASCII hex digits, a delta that is not plain
            ASCII decimal digits, or nonzero delta on the first event.
    """
    return [
        RawEvent(Action.PRESS if is_press else Action.RELEASE, code, delta)
        for is_press, code, delta in _scan(text)
    ]


def pair_events(events: list[RawEvent]) -> KeystrokeSequence:
    """Pair presses with releases into a press-ordered keystroke sequence.

    Each press is matched with the earliest subsequent release of the same
    scancode, so holds may overlap (rollover). A repeated press of a key
    that is already down (auto-repeat) closes the open keystroke at the new
    press time and starts a new one. A release with no open press is an
    error; a press that is never released is closed at the final timestamp
    of the sample and reported via :class:`UnreleasedKeyWarning`.
    """
    return _pair((e.action is Action.PRESS, e.scancode, e.delta_ms) for e in events)


def read_sequence(text: str) -> KeystrokeSequence:
    """Parse and pair one capture in a single pass, without building raw
    events: the same sequence, errors and warnings as
    ``pair_events(parse_raw_events(text))``."""
    return _pair(_scan(text))


def serialize_events(seq: KeystrokeSequence) -> str:
    """Render a keystroke sequence back to the canonical event format.

    Only unaligned sequences anchored at t=0 serialize; re-parsing the
    result reproduces the sequence exactly. Ties in time are broken by
    keystroke order with press before release inside one keystroke, which
    keeps zero-duration keystrokes (a quantized clock can produce them)
    unambiguous to re-pair.
    """
    if seq.aligned:
        raise ValueError("aligned sequences do not serialize to the event format")
    if not seq.keystrokes:
        return ""
    first_t = min(k.press_t for k in seq.keystrokes)
    if first_t != 0:
        raise ValueError(f"sequence must be anchored at t=0, first press is {first_t}")
    items: list[tuple[int, int, int, str, int]] = []
    for i, k in enumerate(seq.keystrokes):
        code = scancode_for(k.key)
        items.append((k.press_t, i, 0, "P", code))
        items.append((k.release_t, i, 1, "R", code))
    items.sort(key=lambda item: (item[0], item[1], item[2]))
    lines = []
    prev_t = 0
    for t, _, _, action, code in items:
        lines.append(f"{action} {code:02x} {t - prev_t}")
        prev_t = t
    return "\n".join(lines) + "\n"
