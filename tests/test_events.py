import copy
import pickle
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from keygait import (
    KeystrokeSequence,
    Label,
    ParseError,
    Role,
    Sample,
    SubjectDataset,
    SynthConfig,
    UnreleasedKeyWarning,
    align,
    discard_modifiers,
    generate_synthetic,
    key_name,
    pair_events,
    parse_raw_events,
    read_sequence,
    read_sequences,
    scancode_for,
    serialize_events,
    truncate_align,
    write_dataset,
)
from keygait.events import MAX_DELTA_MS, _serialize_block

from oracles import CANONICAL_FORM, reference_serialize_events, rows, seq


class TestParsing:
    def test_basic(self):
        events = parse_raw_events("P 1c 0\nR 1c 90\nP 39 30\nR 39 85\n")
        assert events == [(True, 0x1C, 0), (False, 0x1C, 90), (True, 0x39, 30), (False, 0x39, 85)]

    def test_blank_lines_skipped(self):
        events = parse_raw_events("\nP 1c 0\n\nR 1c 5\n\n")
        assert len(events) == 2

    def test_first_delta_must_be_zero(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_raw_events("P 1c 10\nR 1c 90\n")

    def test_bad_action(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_raw_events("P 1c 0\nX 1c 90\n")

    def test_bad_field_count(self):
        with pytest.raises(ParseError):
            parse_raw_events("P 1c\n")

    def test_negative_delta(self):
        with pytest.raises(ParseError):
            parse_raw_events("P 1c 0\nR 1c -4\n")

    def test_uppercase_hex_accepted(self):
        # lenient on input; serialization always emits lowercase
        assert parse_raw_events("P 1C 0\n") == [(True, 0x1C, 0)]

    def test_empty_input(self):
        assert parse_raw_events("") == []

    def test_negative_scancode(self):
        with pytest.raises(ParseError, match=r"line 2: bad scancode '-1'"):
            parse_raw_events("P 1c 0\nP -1 0\n")

    @pytest.mark.parametrize(
        "read", [parse_raw_events, read_sequence], ids=["parse_raw_events", "read_sequence"]
    )
    @pytest.mark.parametrize(
        "text, message",
        [
            ("P 0x1e 0\nR 1_e +5\n", "line 1: bad scancode '0x1e'"),
            ("P 1e 0\nR 1_e 5\n", "line 2: bad scancode '1_e'"),
            ("P +1e 0\n", "line 1: bad scancode '+1e'"),
            ("P \u0661e 0\n", "line 1: bad scancode '\u0661e'"),  # Arabic-Indic one
            ("P 1e 0\nR 1e +5\n", "line 2: bad delta '+5'"),
            ("P 1e 0\nR 1e 1_0\n", "line 2: bad delta '1_0'"),
            ("P 1e 0\nR 1e \u0665\n", "line 2: bad delta '\u0665'"),  # Arabic-Indic five
            ("P 1e 0\nR 1e -0\n", "line 2: bad delta '-0'"),
            ("P 1e 0\nR 1e 0x5\n", "line 2: bad delta '0x5'"),
        ],
    )
    def test_only_plain_ascii_digits(self, read, text, message):
        with pytest.raises(ParseError) as caught:
            read(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "read", [parse_raw_events, read_sequence], ids=["parse_raw_events", "read_sequence"]
    )
    def test_delta_above_float_exact_range_is_rejected(self, read):
        assert len(read(f"P 1e 0\nR 1e {MAX_DELTA_MS}\n")) == (2 if read is parse_raw_events else 1)
        # 401 digits: past float's range, where feature extraction would overflow
        for token in (str(MAX_DELTA_MS + 1), "9" * 401):
            with pytest.raises(ParseError) as caught:
                read(f"P 1e 0\nR 1e {token}\n")
            assert str(caught.value) == f"line 2: bad delta {token!r}"

    @pytest.mark.parametrize(
        "read", [parse_raw_events, read_sequence], ids=["parse_raw_events", "read_sequence"]
    )
    def test_timestamp_above_float_exact_range_is_rejected(self, read):
        # Every delta is in range but their sum is not: as floats, the
        # durations of the last two keystrokes would read 2 and 4, not 1 and 3.
        text = f"P 1e 0\nR 1e {MAX_DELTA_MS}\nP 1f {MAX_DELTA_MS}\nR 1f 1\nP 20 1\nR 20 3\n"
        with pytest.raises(ParseError) as caught:
            read(text)
        assert str(caught.value) == f"line 3: timestamp {2 * MAX_DELTA_MS} exceeds {MAX_DELTA_MS}"
        inclusive = f"P 1e 0\nR 1e {MAX_DELTA_MS - 1}\nP 1f 1\nR 1f 0\n"  # ends on the bound
        assert len(read(inclusive)) == (4 if read is parse_raw_events else 2)
        assert rows(read_sequence(inclusive))[-1] == ("s", MAX_DELTA_MS, MAX_DELTA_MS)


class TestScancodes:
    def test_round_trip_known(self):
        for name in ("a", "z", "space", "lshift", "rshift", "capslock"):
            assert key_name(scancode_for(name)) == name

    def test_unknown_code_gets_hex_name(self):
        assert key_name(0xE0) == "key_e0"
        assert scancode_for("key_e0") == 0xE0

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            scancode_for("no_such_key")

    @pytest.mark.parametrize("name", ["key_1e", "key_1E", "key_0x1e", "key_-1"])
    def test_hex_name_other_than_its_codes_own_raises(self, name):
        # each would serialize to an event file that reads back as another
        # key (``a``) or not at all (a negative scancode)
        with pytest.raises(ValueError, match="unknown key name"):
            scancode_for(name)

    def test_every_code_round_trips(self):
        assert scancode_for("key_7f") == 0x7F
        for code in range(0x200):
            assert scancode_for(key_name(code)) == code


class TestPairing:
    def test_sequential_typing(self):
        events = parse_raw_events("P 1e 0\nR 1e 80\nP 30 40\nR 30 70\n")
        s = pair_events(events)
        assert s.keys() == ("a", "b")
        assert [(p, r) for _, p, r in rows(s)] == [(0, 80), (120, 190)]

    def test_rollover_overlapping_holds(self):
        # b pressed before a releases
        events = parse_raw_events("P 1e 0\nP 30 50\nR 1e 40\nR 30 60\n")
        s = pair_events(events)
        assert s.keys() == ("a", "b")
        a, b = rows(s)
        assert a[1:] == (0, 90)
        assert b[1:] == (50, 150)

    def test_auto_repeat_reopens_keystroke(self):
        # second press of a key with no intervening release closes the
        # open keystroke at the new press time
        events = parse_raw_events("P 1e 0\nP 1e 30\nR 1e 25\n")
        s = pair_events(events)
        assert s.keys() == ("a", "a")
        assert rows(s)[0][1:] == (0, 30)
        assert rows(s)[1][1:] == (30, 55)

    def test_unreleased_press_closed_at_end_with_warning(self):
        events = parse_raw_events("P 1e 0\nP 30 20\nR 30 50\n")
        with pytest.warns(UnreleasedKeyWarning):
            s = pair_events(events)
        assert s.keys() == ("a", "b")
        assert s.release[0] == 70  # final timestamp of the sample

    def test_unreleased_warnings_follow_last_press_order(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = pair_events(parse_raw_events("P 1e 0\nP 30 5\nP 1e 5\n"))
        assert rows(s) == [("a", 0, 10), ("b", 5, 10), ("a", 10, 10)]
        assert [str(w.message) for w in caught] == [
            "press of 'b' at t=5 never released; closed at final timestamp 10",
            "press of 'a' at t=10 never released; closed at final timestamp 10",
        ]

    def test_release_without_press_raises(self):
        from keygait import PairingError

        events = parse_raw_events("P 1e 0\nR 30 10\n")
        with pytest.raises(PairingError):
            pair_events(events)

    def test_press_order_kept_for_equal_press_times(self):
        events = parse_raw_events("P 1e 0\nP 30 0\nR 1e 10\nR 30 10\n")
        s = pair_events(events)
        assert s.keys() == ("a", "b")


class TestSequenceInvariants:
    def test_unaligned_requires_press_order(self):
        with pytest.raises(ValueError, match="^unaligned sequence must be ordered by press time$"):
            seq([("a", 10, 20), ("b", 5, 8)])

    def test_aligned_allows_reordered_press_times(self):
        s = seq([("a", 10, 20), ("b", 5, 8)], aligned=True)
        assert len(s) == 2

    def test_release_before_press_rejected(self):
        with pytest.raises(ValueError) as caught:
            seq([("a", 10, 9)], aligned=True)
        assert str(caught.value) == "release_t 9 precedes press_t 10 for 'a'"
        assert seq([("a", 10, 10)]).release[0] == 10

    def test_constructor_takes_columns_and_checks_them(self):
        built = KeystrokeSequence(["a", "b"], np.array([0, 5]), (10, 8))
        assert built == KeystrokeSequence._of(("a", "b"), np.array([0, 5]), np.array([10, 8]))
        assert type(built.keys()) is tuple and built.press.dtype == np.int64
        with pytest.raises(TypeError):
            seq([("a", 0.5, 10)])
        with pytest.raises(ValueError, match="^column lengths differ: 2, 2, 1$"):
            KeystrokeSequence(("a", "b"), (0, 5), (10,))

    @pytest.mark.parametrize(
        "keystroke, error, message",
        [
            ((5, 0, 1), TypeError, "key 5 is not a str"),
            (("a", True, 2), TypeError, "time True is a bool, not an int"),
            (("a", 0, np.True_), TypeError, f"time {np.True_!r} is a bool, not an int"),
            (("a", 0, 2**70), ValueError, f"time {2**70} is outside int64"),
            (("a", -(2**63) - 1, 0), ValueError, f"time {-(2**63) - 1} is outside int64"),
        ],
        ids=["int-key", "bool-time", "numpy-bool-time", "past-int64", "below-int64"],
    )
    def test_constructor_names_a_bad_value(self, keystroke, error, message):
        with pytest.raises(error) as caught:
            seq([keystroke], aligned=True)
        assert str(caught.value) == message

    def test_sequence_is_immutable(self):
        s = seq([("a", 0, 10)])
        for name in ("press", "release", "aligned", "_keys"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)
        with pytest.raises(ValueError, match="read-only"):
            s.press[0] = 5
        assert s == seq([("a", 0, 10)])

    def test_template_cannot_be_impostor(self):
        s = seq([("a", 0, 10)])
        with pytest.raises(ValueError):
            Sample("s1", "t1", Role.TEMPLATE, s, Label.IMPOSTOR)

    def test_template_defaults_to_genuine(self):
        s = Sample("s1", "t1", Role.TEMPLATE, seq([("a", 0, 10)]))
        assert s.label is Label.GENUINE


class TestSequenceValue:
    """A sequence is a value of its columns and its ``aligned`` flag."""

    @pytest.mark.parametrize(
        "round_trip",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_round_trips_equal_and_checked(self, round_trip):
        s = seq([("a", 0, 10), ("space", 5, 80)])
        again = round_trip(s)
        assert again == s and type(again) is KeystrokeSequence
        # columns that bypassed the check are caught on the way back
        bad = KeystrokeSequence._of(("a",), np.array([10]), np.array([9]), True)
        with pytest.raises(ValueError, match="release_t 9 precedes press_t 10 for 'a'"):
            round_trip(bad)

    def test_equality_and_hashing(self):
        s, same = seq([("a", 0, 10), ("b", 5, 8)]), seq([("a", 0, 10), ("b", 5, 8)])
        assert s == same and hash(s) == hash(same)
        assert s != seq([("a", 0, 10)]) and s != seq(rows(s), aligned=True)
        assert s != seq([("a", 0, 11), ("b", 5, 8)]) and s != seq([("c", 0, 10), ("b", 5, 8)])
        assert len({s, same, seq([("a", 0, 10)])}) == 2

    def test_repr_shows_the_columns(self):
        s = seq([("a", 0, 10), ("b", 5, 8)], aligned=True)
        assert repr(s) == "KeystrokeSequence(('a', 'b'), [0, 5], [10, 8], True)"
        assert eval(repr(s), {"KeystrokeSequence": KeystrokeSequence}) == s

    def test_pairing_builds_sequences_equal_to_constructed_ones(self):
        s = read_sequence("P 1e 0\nP 30 5\nR 1e 35\nR 30 5\nP e0 1\nR e0 1\n")
        assert s == seq([("a", 0, 40), ("b", 5, 45), ("key_e0", 46, 47)])


class TestSerialization:
    def test_round_trip_simple(self):
        text = "P 1e 0\nR 1e 80\nP 30 40\nR 30 70\n"
        s = pair_events(parse_raw_events(text))
        assert serialize_events(s) == text

    def test_round_trip_rollover(self):
        text = "P 1e 0\nP 30 50\nR 1e 40\nR 30 60\n"
        s = pair_events(parse_raw_events(text))
        assert serialize_events(s) == text

    def test_zero_duration_keystroke_survives(self):
        s = seq([("a", 0, 0), ("b", 0, 5)])
        again = pair_events(parse_raw_events(serialize_events(s)))
        assert rows(again) == [("a", 0, 0), ("b", 0, 5)]

    def test_aligned_sequences_refuse_to_serialize(self):
        s = seq([("a", 0, 10)], aligned=True)
        with pytest.raises(ValueError, match="^aligned sequences do not serialize"):
            serialize_events(s)

    def test_nonzero_anchor_refuses(self):
        s = seq([("a", 5, 10)])
        message = "^sequence must be anchored at t=0, first press is 5$"
        with pytest.raises(ValueError, match=message):
            serialize_events(s)

    def test_unknown_key_name_refuses(self):
        s = seq([("a", 0, 10), ("nope", 20, 30), ("key_1E", 40, 50)])
        with pytest.raises(ValueError, match="^unknown key name: 'nope'$"):
            serialize_events(s)


@st.composite
def physical_sequences(draw):
    """Sequences a real keyboard could emit: anchored at 0, press-ordered,
    and never re-pressing a key that is still held. Half run on a clock
    quantized to 40 ms, where ties and zero-duration keystrokes are common;
    ``key_e0`` is a key outside the scancode table."""
    n = draw(st.integers(min_value=1, max_value=8))
    quantum = draw(st.sampled_from([1, 40]))
    names = ["a", "b", "c", "space", "lshift", "key_e0"]
    press = 0
    last_release = {k: -1 for k in names}
    keystrokes = []
    for i in range(n):
        if i > 0:
            press += draw(st.integers(min_value=0, max_value=300)) // quantum * quantum
        available = [k for k in names if last_release[k] <= press]
        if not available:
            press = min(last_release.values())
            available = [k for k in names if last_release[k] <= press]
        key = draw(st.sampled_from(available))
        duration = draw(st.integers(min_value=0, max_value=250)) // quantum * quantum
        keystrokes.append((key, press, press + duration))
        last_release[key] = press + duration
    return seq(keystrokes)


@given(physical_sequences(), st.data())
def test_serialize_parse_pair_round_trip(s, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnreleasedKeyWarning)
        again = pair_events(parse_raw_events(serialize_events(s)))
    assert again == s
    # the checked constructor agrees with _of, in press order or, aligned,
    # in any order; each round-trips and hashes as a value
    order = data.draw(st.permutations(range(len(s))))
    for aligned, index in ((False, list(range(len(s)))), (True, order)):
        keys = tuple(s.keys()[i] for i in index)
        press, release = s.press[index], s.release[index]
        built = KeystrokeSequence(keys, press, release, aligned)
        same = KeystrokeSequence._of(keys, press.copy(), release.copy(), aligned)
        assert built == same and hash(built) == hash(same)
        for again in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
            assert type(again) is KeystrokeSequence
            assert again == built and hash(again) == hash(built)


def _outcome(read, text):
    """What reading ``text`` produced: the sequence or the error (type and
    message), plus every warning (category and message) in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(text)
        except Exception as exc:  # noqa: BLE001 - compared, not swallowed
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _two_step(text):
    # the whole text is scanned before pairing starts
    return pair_events(list(parse_raw_events(text)))


@pytest.mark.parametrize(
    "text",
    [
        "",
        f"P 1e 0\nR 1e {MAX_DELTA_MS}\nP 1f {MAX_DELTA_MS}\nR 1f 1\n",  # timestamp
        "\n  \n",
        "\nP 1e 0\n\n  R 1e 80  \n\nP 30 40\nR 30 70\n\n",  # blank lines, padding
        "P 1e 0\nP 30 50\nR 1e 40\nR 30 60\n",  # rollover
        "P 1e 0\nP 1e 30\nP 1e 30\nR 1e 25\n",  # auto-repeat
        "P 1e 0\nP 30 0\nR 1e 10\nR 30 10\n",  # equal press times
        "P 1e 0\nP 30 20\nP 39 5\nR 30 50\n",  # two unreleased keys
        "P 1e 0\nP 1e 5\nP 30 5\n",  # auto-repeat, then unreleased
        "P 1e 0\nP 30 5\nP 1e 5\n",  # a re-press moves the key to the last warning
        "P 1e 0\nR 30 10\n",  # release without press
        "P 1e 0\nR 30 10\nR 1e 5\n",  # pairing error, valid text after it
        "P 1e 0\nR 30 10\nP 1e\n",  # scanner error after a pairing error wins
        "P 1c\n",  # field count
        "P 1c 0 7\n",
        "P 1c 0\nX 1c 90\n",  # action token
        "P 1c 0\np 1c 90\n",
        "P zz 0\n",  # scancode
        "P -1 0\n",
        "P 1c 0\nR 1c 9x\n",  # delta
        "P 1c 0\nR 1c -4\n",
        "\nP 1c 10\nR 1c 90\n",  # first delta
        "P E0 0\nR e0 3\n",  # unknown code, upper-case hex
        "P 0x1e 0\nR 1_e +5\n",  # signs, prefixes, separators, non-ASCII digits
        "P 1e 0\nR 1e \u0665\n",
        "P 1e 0\nR 1e -0\n",
    ],
)
def test_read_sequence_matches_parse_then_pair(text):
    assert _outcome(read_sequence, text) == _outcome(_two_step, text)


_LINES = st.sampled_from(
    ["P 1e {d}", "R 1e {d}", "P 30 {d}", "R 30 {d}", "P 2a {d}", "R 2a {d}", "",
     "P 1e", "Q 30 {d}", "P -2 {d}", "R 30 x{d}"]
)


@given(st.lists(st.tuples(_LINES, st.integers(min_value=-1, max_value=40)), max_size=12))
def test_read_sequence_matches_parse_then_pair_on_random_text(lines):
    text = "\n".join(template.format(d=d) for template, d in lines)
    assert _outcome(read_sequence, text) == _outcome(_two_step, text)


_CODES = [0x1E, 0x30, 0x2A, 0xE0]  # a, b, lshift, an unknown code


@st.composite
def step_streams(draw):
    """Step streams the scanner can yield: first delta 0, the rest >= 0,
    every release of a held key. Holds overlap (rollover), a held key can
    be pressed again (auto-repeat) and keys can stay down to the end."""
    held: set[int] = set()
    out = []
    for i in range(draw(st.integers(min_value=0, max_value=16))):
        delta = 0 if i == 0 else draw(st.integers(min_value=0, max_value=300))
        if held and draw(st.booleans()):
            code = draw(st.sampled_from(sorted(held)))
            held.discard(code)
            out.append((False, code, delta))
        else:
            code = draw(st.sampled_from(_CODES))
            held.add(code)
            out.append((True, code, delta))
    return out


@given(step_streams())
def test_paired_keystrokes_are_valid_by_construction(stream):
    text = "".join(f"{'P' if p else 'R'} {c:02x} {d}\n" for p, c, d in stream)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnreleasedKeyWarning)
        s = pair_events(stream)
        assert read_sequence(text) == s
    assert len(s) == sum(p for p, _, _ in stream)
    assert all(type(key) is str for key in s.keys())
    assert (s.release >= s.press).all() and (np.diff(s.press) >= 0).all()
    assert seq(rows(s)) == s  # the checked constructor agrees


# Spellings of an event line: the canonical one first, then forms
# read_sequence takes (other case, leading zeros, other whitespace, CRLF,
# lone CR, blank lines) and forms it rejects (non-ASCII digits, signs).
_ACTIONS = [("P", "R"), ("p", "r")]
_CODE_FORMS = ["{:02x}", "{:02X}", "{:04x}", "\u0661{:x}", "-{:x}"]
_DELTA_FORMS = ["{}", "{:05d}", "\u0665{}", "+{}"]
_SEPARATORS = [" ", "  ", "\t", "\u3000"]
_LINE_ENDS = ["\n", "\r\n", "\r", "\n\n", "\n \n"]
# At and just past MAX_DELTA_MS, the largest 16-digit delta and past it.
_BIG_DELTAS = [MAX_DELTA_MS - 1, MAX_DELTA_MS, MAX_DELTA_MS + 1, 10**16 - 1, 10**16]


@st.composite
def capture_texts(draw):
    """Texts near the canonical form: a step stream with at most one event
    flipped (an orphan release or a press left down), dropped, or given a
    delta near the bounds; half of them in the canonical spelling, half
    with each field and line end spelled in one of the forms above."""
    stream = draw(step_streams())
    if stream:
        i = draw(st.integers(min_value=0, max_value=len(stream) - 1))
        is_press, code, delta = stream[i]
        change = draw(st.sampled_from(["none", "flip", "drop", "delta"]))
        if change == "flip":
            stream[i] = (not is_press, code, delta)
        elif change == "drop":
            del stream[i]
        elif change == "delta":
            stream[i] = (is_press, code, draw(st.sampled_from(_BIG_DELTAS)))
    canonical = draw(st.booleans())

    def form(options):
        return options[0] if canonical else draw(st.sampled_from(options))

    text = ""
    for is_press, code, delta in stream:
        sep = form(_SEPARATORS)
        action = form(_ACTIONS)[0 if is_press else 1]
        text += f"{action}{sep}{form(_CODE_FORMS).format(code)}{sep}{form(_DELTA_FORMS).format(delta)}"
        text += form(_LINE_ENDS)
    if not canonical and draw(st.booleans()):
        text = text[:-1]  # no final newline
    return text


def _typed(outcome):
    """An outcome with each column's value types spelled out, which ``==``
    on sequences does not compare."""
    result, caught = outcome
    if isinstance(result, KeystrokeSequence):
        columns = (result.keys(), result.press, result.release)
        result = (result.aligned, [[(type(v), v) for v in column] for column in columns])
    return result, caught


def _block_outcomes(texts):
    """Each text's outcome through read_sequences, with read_sequence on
    every file the block reader declines, as load_dataset reads them."""
    raws = [text.encode() for text in texts]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        block = read_sequences(raws)
    assert caught == []  # warnings come from read_sequence alone
    return [
        (sequence, []) if sequence is not None else _outcome(read_sequence, raw.decode("utf-8"))
        for sequence, raw in zip(block, raws)
    ]


_VALID = "P 1e 0\nP 30 5\nR 1e 40\nR 30 60\n"
_CANONICAL_ERRORS = [
    "P 1e 0\nR 30 10\n",  # orphan release
    "P 1e 0\nR 1e 5\nR 1e 5\n",  # a second release of a key
    "P 1e 0\nP 30 5\n",  # never released
    "P 1e 7\nR 1e 5\n",  # first delta
    f"P 1e 0\nR 1e {MAX_DELTA_MS + 1}\n",  # delta
    f"P 1e 0\nR 1e {MAX_DELTA_MS}\nP 1e 1\nR 1e 0\n",  # running timestamp
]


@given(st.lists(capture_texts(), max_size=6))
@example([_CANONICAL_ERRORS[0], _VALID, _VALID])  # a bad file first in its block
@example([_VALID, _VALID, _CANONICAL_ERRORS[1]])  # and last
@example([_VALID.replace("\n", "\r\n"), _VALID[:-1], _VALID.upper(), "\n" + _VALID, ""])
def test_block_reader_matches_read_sequence(texts):
    expected = [_typed(_outcome(read_sequence, text)) for text in texts]
    assert [_typed(outcome) for outcome in _block_outcomes(texts)] == expected


# rollover, a zero-duration keystroke and ties on a 40 ms clock
_TIES = seq([("lshift", 0, 80), ("a", 40, 40), ("b", 40, 80), ("a", 80, 120)])


@given(
    st.lists(st.one_of(st.just(seq()), physical_sequences()), min_size=1, max_size=6),
    st.sampled_from([None, 1, 127, 129]),
)
@example([_TIES, seq(), seq([("key_1ff", 0, 5)])], 129)
def test_block_serializer_writes_each_sequence_and_reads_back(sequences, size):
    # a block of the drawn sequences, or of that many taken from them in turn
    block = sequences if size is None else [sequences[i % len(sequences)] for i in range(size)]
    texts = _serialize_block(block)
    assert texts == [reference_serialize_events(s) for s in block]
    assert texts == [serialize_events(s) for s in block]
    assert read_sequences([text.encode() for text in texts]) == block


@given(st.lists(physical_sequences(), max_size=6))
def test_block_reader_takes_every_file_serialize_writes(sequences):
    raws = [serialize_events(s).encode() for s in sequences]
    assert read_sequences(raws) == sequences


@pytest.mark.parametrize(
    "text, taken",
    [
        (_VALID, True),
        (_VALID.replace("30", "030"), True),  # a leading zero in a scancode
        (_VALID.replace(" 5\n", " 005\n"), True),  # leading zeros in a delta
        (_VALID.replace("\n", "\r\n"), False),
        (_VALID.replace("\n", "\r"), False),
        (_VALID[:-1], False),  # no final newline
        ("\n" + _VALID, False),  # a blank line
        (_VALID.replace("1e", "1E"), False),
        (_VALID.replace(" ", "\u3000"), False),
        (_VALID.replace(" ", "  "), False),
        *((text, False) for text in _CANONICAL_ERRORS),
    ],
)
def test_block_reader_declines_all_but_the_canonical_form(text, taken):
    assert (read_sequences([text.encode()])[0] is not None) is taken
    assert _typed(_block_outcomes([text])[0]) == _typed(_outcome(read_sequence, text))


# Bytes a mutation inserts or substitutes: the form's own, and an
# upper-case hex digit and whitespace it does not allow.
_MUTATION_BYTES = list(b"0123456789abcdefA PR\n\r\t")
_ONE_KEY = seq([("a", 0, 40)])  # "P 1e 0\nR 1e 40\n": its last delta is bytes 12 and 13


@given(
    st.lists(st.one_of(st.just(seq()), physical_sequences()), min_size=1, max_size=6),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.sampled_from(["insert", "delete", "substitute"]),
            st.integers(min_value=0, max_value=200),
            st.sampled_from(_MUTATION_BYTES),
        ),
        max_size=4,
    ),
)
@example([_ONE_KEY, seq()], [])  # an empty file is taken
@example([_ONE_KEY], [(0, "substitute", 12, ord("a"))])  # a hex digit in a delta
@example([_ONE_KEY], [(0, "substitute", 13, ord("R"))])  # an action byte in a delta
def test_block_reader_takes_only_the_reference_form(sequences, mutations):
    """Every file write_dataset writes is taken. After byte insertions,
    deletions and substitutions, every file the block reader still takes
    matches the reference form and reads as read_sequence reads it."""
    dataset = SubjectDataset()
    for i, sequence in enumerate(sequences):
        dataset.add(Sample("s", f"q{i}", Role.QUERY, sequence))
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(dataset, tmp)
        written = [Path(tmp, "s", f"q{i}.txt").read_bytes() for i in range(len(sequences))]
    assert read_sequences(written) == sequences
    raws = [bytearray(raw) for raw in written]
    for file, kind, at, byte in mutations:
        raw = raws[file % len(raws)]
        if kind == "insert":
            raw.insert(at % (len(raw) + 1), byte)
        elif raw and kind == "delete":
            del raw[at % len(raw)]
        elif raw:
            raw[at % len(raw)] = byte
    raws = [bytes(raw) for raw in raws]
    for raw, sequence in zip(raws, read_sequences(raws)):
        if sequence is not None:
            assert CANONICAL_FORM.fullmatch(raw)
            assert _typed((sequence, [])) == _typed(_outcome(read_sequence, raw.decode("ascii")))


def test_block_sums_past_int64_keep_the_other_files_exact():
    # 1,100 deltas of MAX_DELTA_MS wrap the block's int64 running sum
    # past 2**63: that file declines, and the files around it read exactly.
    wraps = "P 1e 0\n" + f"R 1e {MAX_DELTA_MS}\nP 1e {MAX_DELTA_MS}\n" * 550 + "R 1e 0\n"
    late = f"P 1e 0\nR 1e {MAX_DELTA_MS - 1}\nP 30 1\nR 30 0\n"  # ends at MAX_DELTA_MS
    texts = [late, wraps, late, _VALID]
    block = read_sequences([text.encode() for text in texts])
    assert block[1] is None
    assert block[3] == read_sequence(_VALID)
    assert block[0] == block[2] == seq(
        [("a", 0, MAX_DELTA_MS - 1), ("b", MAX_DELTA_MS, MAX_DELTA_MS)]
    )
    assert [_typed(o) for o in _block_outcomes(texts)] == [
        _typed(_outcome(read_sequence, text)) for text in texts
    ]


def _synthetic_sequences():
    dataset, _ = generate_synthetic(SynthConfig(n_subjects=2, shift_drop=0.1, seed=3))
    return [s.sequence for entry in dataset.subjects.values() for s in entry.templates]


_ROLLOVER = "P 2a 0\nP 1e 40\nR 2a 30\nP 30 20\nR 1e 10\nR 30 60\n"
# Every producer of sequences, each making a few from the same captures.
_PRODUCERS = {
    "read_sequences": lambda: read_sequences([_VALID.encode(), _ROLLOVER.encode()]),
    "read_sequence": lambda: [read_sequence(_VALID), read_sequence(_ROLLOVER)],
    "generate_synthetic": _synthetic_sequences,
    "align": lambda: [
        align(read_sequence(_ROLLOVER), read_sequence(_VALID))[0],
        align(read_sequence(_VALID), read_sequence(_ROLLOVER))[0],
    ],
    "truncate_align": lambda: [
        truncate_align(read_sequence(_ROLLOVER), read_sequence(_VALID)),
        truncate_align(read_sequence(_VALID), read_sequence(_ROLLOVER)),
    ],
    "discard_modifiers": lambda: [
        discard_modifiers(read_sequence(_ROLLOVER)),
        discard_modifiers(truncate_align(read_sequence(_ROLLOVER), read_sequence(_VALID))),
    ],
}


@pytest.mark.parametrize("produce", _PRODUCERS.values(), ids=_PRODUCERS)
def test_column_invariants(produce):
    """Every producer gives read-only int64 columns, so a write raises and
    cannot reach a buffer that other sequences share; keys are a tuple of
    str; pickle and deepcopy give an equal sequence with an equal hash."""
    sequences = produce()
    assert sequences and all(len(s) for s in sequences)
    before = [rows(s) for s in sequences]
    for s in sequences:
        for column in (s.press, s.release):
            assert type(column) is np.ndarray and column.dtype == np.int64
            assert column.shape == (len(s),) and not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = -1
            with pytest.raises(ValueError, match="read-only"):
                column += 1
        assert type(s.keys()) is tuple and len(s.keys()) == len(s)
        assert all(type(key) is str for key in s.keys())
        for again in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert type(again) is KeystrokeSequence
            assert again == s and hash(again) == hash(s) and again.aligned == s.aligned
    assert [rows(s) for s in sequences] == before
