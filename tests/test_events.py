import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from keygait import (
    Keystroke,
    KeystrokeSequence,
    Label,
    ParseError,
    Role,
    Sample,
    UnreleasedKeyWarning,
    key_name,
    pair_events,
    parse_raw_events,
    read_sequence,
    scancode_for,
    serialize_events,
)
from keygait.events import MAX_DELTA_MS


def seq(*keystrokes):
    return KeystrokeSequence(tuple(keystrokes))


def steps(text):
    """Every ``(is_press, scancode, delta_ms)`` step of ``text``, scanned
    eagerly, so a parse error is raised here."""
    return list(parse_raw_events(text))


class TestParsing:
    def test_basic(self):
        events = steps("P 1c 0\nR 1c 90\nP 39 30\nR 39 85\n")
        assert events == [(True, 0x1C, 0), (False, 0x1C, 90), (True, 0x39, 30), (False, 0x39, 85)]

    def test_scan_is_lazy(self):
        # the error is raised while the steps are iterated, not at the call
        events = parse_raw_events("P 1c 0\nX 1c 90\n")
        assert next(events) == (True, 0x1C, 0)
        with pytest.raises(ParseError, match="line 2"):
            next(events)

    def test_blank_lines_skipped(self):
        events = steps("\nP 1c 0\n\nR 1c 5\n\n")
        assert len(events) == 2

    def test_first_delta_must_be_zero(self):
        with pytest.raises(ParseError, match="line 1"):
            steps("P 1c 10\nR 1c 90\n")

    def test_bad_action(self):
        with pytest.raises(ParseError, match="line 2"):
            steps("P 1c 0\nX 1c 90\n")

    def test_bad_field_count(self):
        with pytest.raises(ParseError):
            steps("P 1c\n")

    def test_negative_delta(self):
        with pytest.raises(ParseError):
            steps("P 1c 0\nR 1c -4\n")

    def test_uppercase_hex_accepted(self):
        # lenient on input; serialization always emits lowercase
        assert steps("P 1C 0\n") == [(True, 0x1C, 0)]

    def test_empty_input(self):
        assert steps("") == []

    def test_negative_scancode(self):
        with pytest.raises(ParseError, match=r"line 2: bad scancode '-1'"):
            steps("P 1c 0\nP -1 0\n")

    @pytest.mark.parametrize(
        "read", [steps, read_sequence], ids=["parse_raw_events", "read_sequence"]
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
        "read", [steps, read_sequence], ids=["parse_raw_events", "read_sequence"]
    )
    def test_delta_above_float_exact_range_is_rejected(self, read):
        assert len(read(f"P 1e 0\nR 1e {MAX_DELTA_MS}\n")) == (2 if read is steps else 1)
        # 401 digits: past float's range, where feature extraction would overflow
        for token in (str(MAX_DELTA_MS + 1), "9" * 401):
            with pytest.raises(ParseError) as caught:
                read(f"P 1e 0\nR 1e {token}\n")
            assert str(caught.value) == f"line 2: bad delta {token!r}"


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


class TestPairing:
    def test_sequential_typing(self):
        events = parse_raw_events("P 1e 0\nR 1e 80\nP 30 40\nR 30 70\n")
        s = pair_events(events)
        assert s.keys() == ("a", "b")
        assert [(k.press_t, k.release_t) for k in s] == [(0, 80), (120, 190)]

    def test_rollover_overlapping_holds(self):
        # b pressed before a releases
        events = parse_raw_events("P 1e 0\nP 30 50\nR 1e 40\nR 30 60\n")
        s = pair_events(events)
        assert s.keys() == ("a", "b")
        a, b = s[0], s[1]
        assert (a.press_t, a.release_t) == (0, 90)
        assert (b.press_t, b.release_t) == (50, 150)

    def test_auto_repeat_reopens_keystroke(self):
        # second press of a key with no intervening release closes the
        # open keystroke at the new press time
        events = parse_raw_events("P 1e 0\nP 1e 30\nR 1e 25\n")
        s = pair_events(events)
        assert s.keys() == ("a", "a")
        assert (s[0].press_t, s[0].release_t) == (0, 30)
        assert (s[1].press_t, s[1].release_t) == (30, 55)

    def test_unreleased_press_closed_at_end_with_warning(self):
        events = parse_raw_events("P 1e 0\nP 30 20\nR 30 50\n")
        with pytest.warns(UnreleasedKeyWarning):
            s = pair_events(events)
        assert s.keys() == ("a", "b")
        assert s[0].release_t == 70  # final timestamp of the sample

    def test_unreleased_warnings_follow_last_press_order(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = pair_events(parse_raw_events("P 1e 0\nP 30 5\nP 1e 5\n"))
        assert [(k.key, k.press_t, k.release_t) for k in s] == [
            ("a", 0, 10), ("b", 5, 10), ("a", 10, 10)
        ]
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
        with pytest.raises(ValueError):
            seq(Keystroke("a", 10, 20), Keystroke("b", 5, 8))

    def test_aligned_allows_reordered_press_times(self):
        s = KeystrokeSequence(
            (Keystroke("a", 10, 20), Keystroke("b", 5, 8)), aligned=True
        )
        assert len(s) == 2

    def test_release_before_press_rejected(self):
        with pytest.raises(ValueError):
            Keystroke("a", 10, 9)

    def test_template_cannot_be_impostor(self):
        s = seq(Keystroke("a", 0, 10))
        with pytest.raises(ValueError):
            Sample("s1", "t1", Role.TEMPLATE, s, Label.IMPOSTOR)

    def test_template_defaults_to_genuine(self):
        s = Sample("s1", "t1", Role.TEMPLATE, seq(Keystroke("a", 0, 10)))
        assert s.label is Label.GENUINE


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
        s = seq(Keystroke("a", 0, 0), Keystroke("b", 0, 5))
        again = pair_events(parse_raw_events(serialize_events(s)))
        assert [(k.key, k.press_t, k.release_t) for k in again] == [
            ("a", 0, 0),
            ("b", 0, 5),
        ]

    def test_aligned_sequences_refuse_to_serialize(self):
        s = KeystrokeSequence((Keystroke("a", 0, 10),), aligned=True)
        with pytest.raises(ValueError):
            serialize_events(s)

    def test_nonzero_anchor_refuses(self):
        s = seq(Keystroke("a", 5, 10))
        with pytest.raises(ValueError):
            serialize_events(s)


@st.composite
def physical_sequences(draw):
    """Sequences a real keyboard could emit: anchored at 0, press-ordered,
    and never re-pressing a key that is still held."""
    n = draw(st.integers(min_value=1, max_value=8))
    names = ["a", "b", "c", "space", "lshift"]
    press = 0
    last_release = {k: -1 for k in names}
    keystrokes = []
    for i in range(n):
        if i > 0:
            press += draw(st.integers(min_value=0, max_value=300))
        available = [k for k in names if last_release[k] <= press]
        if not available:
            press = min(last_release.values())
            available = [k for k in names if last_release[k] <= press]
        key = draw(st.sampled_from(available))
        duration = draw(st.integers(min_value=0, max_value=250))
        keystrokes.append(Keystroke(key, press, press + duration))
        last_release[key] = press + duration
    return KeystrokeSequence(tuple(keystrokes))


@given(physical_sequences())
def test_serialize_parse_pair_round_trip(s):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnreleasedKeyWarning)
        again = pair_events(parse_raw_events(serialize_events(s)))
    assert [(k.key, k.press_t, k.release_t) for k in again] == [
        (k.key, k.press_t, k.release_t) for k in s
    ]


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
