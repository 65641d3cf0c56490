import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import strategies as st

from keygait import (
    AlignmentError,
    Keystroke,
    KeystrokeSequence,
    align,
    align_subject,
    audit_dataset,
    damerau_levenshtein,
    discard_modifiers,
    select_target,
    truncate_align,
)
from keygait.alignment import AuditReport, EntryKind, _summarize

from oracles import bfs_edit_distances, reference_align


def mkseq(keys, start=0, gap=100, duration=60):
    ks = []
    t = start
    for key in keys:
        ks.append(Keystroke(key, t, t + duration))
        t += gap
    return KeystrokeSequence(tuple(ks))


class TestAlign:
    def test_identity_on_equal_sequences(self):
        # repeated keys and merged shifts too: align_subject relies on it
        for keys in (["lshift", "j", "o", "space"], ["a", "lshift", "b", "a", "rshift", "a"]):
            s = mkseq(keys)
            for merge in (False, True):
                aligned, mapping = align(s, s, merge_shift_keys=merge)
                assert aligned.keystrokes == s.keystrokes
                assert all(e.kind is EntryKind.MATCHED for e in mapping.entries)
                assert [e.given_index for e in mapping.entries] == list(range(len(keys)))
                assert mapping.ignored == ()

    def test_output_length_equals_target_length(self):
        given = mkseq(["a", "b", "c", "d", "e"])
        target = mkseq(["b", "c", "x"])
        aligned, _ = align(given, target)
        assert len(aligned) == len(target)

    def test_mapping_injective_when_given_long_enough(self):
        given = mkseq(["a", "b", "c", "d"])
        target = mkseq(["d", "c", "b", "a"])
        _, mapping = align(given, target)
        used = [e.given_index for e in mapping.entries]
        assert len(set(used)) == len(used)

    def test_unique_key_in_both_must_match(self):
        given = mkseq(["x", "q", "y"])
        target = mkseq(["a", "q", "b"])
        _, mapping = align(given, target)
        assert mapping.entries[1].kind is EntryKind.MATCHED
        assert mapping.entries[1].given_index == 1

    def test_timestamps_never_modified(self):
        given = mkseq(["b", "a"], gap=77)
        target = mkseq(["a", "b"], start=5, gap=9)
        aligned, _ = align(given, target)
        original = {(k.key, k.press_t, k.release_t) for k in given}
        for k in aligned:
            assert (k.key, k.press_t, k.release_t) in original

    def test_dropped_leading_shift_and_transposition(self):
        # Target: Shift J Space Shift M. Given: the leading Shift was not
        # captured and the second Shift landed after Space's follower.
        target = mkseq(["lshift", "j", "space", "lshift", "m"])
        given = mkseq(["j", "space", "lshift", "m"])
        aligned, mapping = align(given, target)

        kinds = [e.kind for e in mapping.entries]
        picks = [e.given_index for e in mapping.entries]
        assert kinds == [
            EntryKind.MATCHED,  # target shift 0 takes the only given shift
            EntryKind.MATCHED,
            EntryKind.MATCHED,
            EntryKind.SUBSTITUTED,  # second target shift: reuse by position
            EntryKind.MATCHED,
        ]
        assert picks == [2, 0, 1, 3, 3]
        assert mapping.flagged  # given exhausted at the substitution step
        assert mapping.ignored == ()

        # aligned press times: [200, 0, 100, 300, 300] -> negative latency
        press = np.array([k.press_t for k in aligned])
        latencies = np.diff(press)
        assert latencies[0] < 0

    def test_given_shorter_reuses_last_and_flags(self):
        given = mkseq(["a"])
        target = mkseq(["a", "b", "c"])
        aligned, mapping = align(given, target)
        assert len(aligned) == 3
        assert mapping.flagged
        assert aligned.keys() == ("a", "a", "a")

    def test_merge_shift_keys(self):
        given = mkseq(["rshift", "a"])
        target = mkseq(["lshift", "a"])
        _, strict = align(given, target)
        _, merged = align(given, target, merge_shift_keys=True)
        assert strict.entries[0].kind is EntryKind.SUBSTITUTED
        assert merged.entries[0].kind is EntryKind.MATCHED

    def test_empty_raises(self):
        s = mkseq(["a"])
        empty = KeystrokeSequence(())
        with pytest.raises(AlignmentError):
            align(empty, s)
        with pytest.raises(AlignmentError):
            align(s, empty)

    def test_extra_given_keystrokes_ignored(self):
        given = mkseq(["a", "z", "b"])
        target = mkseq(["a", "b"])
        _, mapping = align(given, target)
        assert mapping.ignored == (1,)


@st.composite
def key_lists(draw, alphabet=("a", "b", "lshift"), min_size=1, max_size=6):
    return draw(
        st.lists(st.sampled_from(alphabet), min_size=min_size, max_size=max_size)
    )


@hgiven(key_lists(), key_lists())
def test_align_properties(given_keys, target_keys):
    given = mkseq(given_keys)
    target = mkseq(target_keys)
    aligned, mapping = align(given, target)
    assert len(aligned) == len(target)
    # every aligned keystroke is one of the given keystrokes, untouched
    pool = list(given.keystrokes)
    for k in aligned:
        assert k in pool
    # consumed indices are unique unless the reuse fallback fired
    if not mapping.flagged:
        picks = [e.given_index for e in mapping.entries]
        assert len(set(picks)) == len(picks)
    # matched entries really match on key name
    for i, e in enumerate(mapping.entries):
        if e.kind is EntryKind.MATCHED:
            assert given[e.given_index].key == target[i].key


@hgiven(
    key_lists(alphabet=("a", "b", "lshift", "rshift"), max_size=9),
    key_lists(alphabet=("a", "b", "lshift", "rshift"), max_size=9),
    st.booleans(),
)
def test_align_matches_exhaustive_reference(given_keys, target_keys, merge_shift_keys):
    given = mkseq(given_keys, gap=37)
    target = mkseq(target_keys, start=5)
    aligned, mapping = align(given, target, merge_shift_keys=merge_shift_keys)
    ref_aligned, ref_mapping = reference_align(given, target, merge_shift_keys=merge_shift_keys)
    assert aligned == ref_aligned
    assert mapping == ref_mapping


@pytest.mark.parametrize(
    "given_keys, target_keys",
    [
        ("aaaa", "aaaa"),  # repeated keys map in order
        ("abab", "baba"),  # ties between equally near repeats
        ("ab", "aabba"),  # given shorter: reuse-last fallback
        ("xaxbxaxbx", "ab"),  # given longer: extras ignored
        ("ba", "ab"),
    ],
)
@pytest.mark.parametrize("merge_shift_keys", [False, True])
def test_align_matches_reference_on_repeats(given_keys, target_keys, merge_shift_keys):
    given, target = mkseq(given_keys), mkseq(target_keys)
    assert align(given, target, merge_shift_keys=merge_shift_keys) == reference_align(
        given, target, merge_shift_keys=merge_shift_keys
    )


class TestBaselines:
    def test_truncate_pads_by_repeating_last(self):
        given = mkseq(["a", "b"])
        target = mkseq(["x", "y", "z"])
        out = truncate_align(given, target)
        assert out.keys() == ("a", "b", "b")

    def test_truncate_cuts_to_target_length(self):
        given = mkseq(["a", "b", "c", "d"])
        target = mkseq(["x", "y"])
        out = truncate_align(given, target)
        assert out.keys() == ("a", "b")

    def test_discard_modifiers(self):
        s = mkseq(["lshift", "a", "capslock", "b", "rshift"])
        out = discard_modifiers(s)
        assert out.keys() == ("a", "b")

    def test_select_target_shortest_first_on_ties(self):
        seqs = [mkseq(["a", "b", "c"]), mkseq(["x", "y"]), mkseq(["p", "q"])]
        assert select_target(seqs) == 1

    def test_align_subject_target_passthrough(self):
        templates = [mkseq(["a", "b", "c"]), mkseq(["a", "b"])]
        for method, query in (("align", ("a", "b")), ("truncate", ("b", "a")), ("discard", ("b", "a"))):
            aligned_t, aligned_q = align_subject(templates, [mkseq(["b", "a"])], method)
            # the target (the shortest template) comes back byte-for-byte
            assert aligned_t[1].keystrokes == templates[1].keystrokes
            assert aligned_t[0].keys() == ("a", "b")
            assert aligned_q[0].keys() == query

    def test_align_subject_marks_only_failing_sequences(self):
        templates = [mkseq(["lshift", "a", "b", "c"]), mkseq(["a", "b", "capslock", "c", "d"])]
        queries = [
            mkseq(["a", "b", "c"]),
            mkseq(["lshift", "capslock", "rshift"]),  # empty once modifiers go
            mkseq(["b", "a", "c", "d"]),
        ]
        aligned_t, aligned_q = align_subject(templates, queries, "discard")
        assert [s.keys() for s in aligned_t] == [("a", "b", "c")] * 2
        assert aligned_q[1] is None
        assert aligned_q[0].keys() == ("a", "b", "c")
        assert aligned_q[2].keys() == ("b", "a", "c")
        _, aligned_q = align_subject(templates, [KeystrokeSequence(()), queries[0]], "align")
        assert aligned_q[0] is None and aligned_q[1] is not None

    def test_align_subject_rejects_bad_input(self):
        with pytest.raises(AlignmentError):
            align_subject([], [mkseq(["a"])], "align")
        with pytest.raises(ValueError, match="alignment must be one of"):
            align_subject([mkseq(["a"])], [], "nope")


class TestEditDistance:
    def test_known_values(self):
        assert damerau_levenshtein("", "") == 0
        assert damerau_levenshtein("abc", "abc") == 0
        assert damerau_levenshtein("ab", "ba") == 1
        assert damerau_levenshtein("ca", "abc") == 2  # needs unrestricted edits
        assert damerau_levenshtein("abc", "") == 3
        assert damerau_levenshtein("kitten", "sitting") == 3

    def test_matches_bfs_oracle_on_short_strings(self):
        table = bfs_edit_distances(("a", "b", "c"), operand_len=3)
        for (x, y), expected in table.items():
            assert damerau_levenshtein(x, y) == expected, (x, y)

    @hgiven(key_lists(max_size=5), key_lists(max_size=5), key_lists(max_size=5))
    def test_metric_axioms(self, a, b, c):
        d_ab = damerau_levenshtein(a, b)
        assert d_ab == damerau_levenshtein(b, a)
        assert (d_ab == 0) == (a == b)
        assert d_ab <= damerau_levenshtein(a, c) + damerau_levenshtein(c, b)

    def test_operates_on_key_names_not_characters(self):
        assert damerau_levenshtein(["lshift", "a"], ["rshift", "a"]) == 1


class TestAudit:
    def test_counts_and_stats(self, small_dataset):
        report = audit_dataset(small_dataset)
        by_type = {r.comparison_type: r for r in report.rows}
        assert set(by_type) == {"template-template", "query-template"}
        tt = by_type["template-template"]
        n_subjects = len(small_dataset.subject_ids())
        assert tt.count_total == n_subjects * 6  # C(4,2) pairs per subject
        assert 0 <= tt.count_differing <= tt.count_total
        assert tt.mean_dl >= 0
        text = report.to_tsv()
        assert text.startswith(
            "comparison_type\tcount_total\tcount_differing\tmean_dl\tsd_dl\tmax_dl"
        )

    def test_matches_per_pair_reference(self, small_dataset):
        tt, qt = [], []
        for sid in small_dataset.subject_ids():
            entry = small_dataset.subjects[sid]
            t_keys = [x.sequence.keys() for x in entry.templates]
            for i, a in enumerate(t_keys):
                tt.extend(damerau_levenshtein(a, b) for b in t_keys[i + 1 :])
            for x in entry.queries:
                qt.extend(damerau_levenshtein(x.sequence.keys(), b) for b in t_keys)
        reference = AuditReport(
            (_summarize(tt, "template-template"), _summarize(qt, "query-template"))
        )
        assert 0 < reference.rows[0].count_differing < reference.rows[0].count_total
        assert audit_dataset(small_dataset).to_tsv() == reference.to_tsv()
