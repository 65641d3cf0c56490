from itertools import combinations

import numpy as np
import pytest
from hypothesis import given as hgiven
from hypothesis import strategies as st

from keygait import (
    AlignmentError,
    SynthConfig,
    align,
    align_subject,
    audit_dataset,
    damerau_levenshtein,
    discard_modifiers,
    generate_synthetic,
    select_target,
    truncate_align,
)
from keygait import alignment
from keygait.alignment import AuditReport, _match, _summarize
from keygait.config import ALIGNMENT_METHODS

from oracles import (
    bfs_edit_distances,
    reference_align,
    reference_align_subject,
    reference_damerau_levenshtein,
    rows,
    seq,
)


def mkseq(keys, start=0, gap=100, duration=60):
    times = [start + i * gap for i in range(len(keys))]
    return seq([(key, t, t + duration) for key, t in zip(keys, times)])


def gathered(templates, queries, method):
    """``align_subject``'s index matrix gathered from the subject's
    concatenated columns: per template and per query, its row as an
    aligned sequence, None where it has none (template rows, query rows);
    and every mapping, templates first."""
    index, mapped_t, mapped_q = align_subject(templates, queries, method)
    mappings = [*mapped_t, *mapped_q]
    assert index.shape[0] == sum(m is not None for m in mappings)
    columns = [r for s in (*templates, *queries) for r in rows(s)]
    index_rows = iter(index.tolist())
    out = [
        None if m is None else seq([columns[j] for j in next(index_rows)], aligned=True)
        for m in mappings
    ]
    return out[: len(templates)], out[len(templates) :], mappings


class TestAlign:
    def test_identity_on_equal_sequences(self):
        # repeated keys too: align_subject relies on it
        for keys in (["lshift", "j", "o", "space"], ["a", "lshift", "b", "a", "rshift", "a"]):
            s = mkseq(keys)
            aligned, mapping = align(s, s)
            assert rows(aligned) == rows(s)
            assert not any(mapping.substituted)
            assert mapping.index == tuple(range(len(keys)))
            assert mapping.ignored == ()

    def test_one_output_keystroke_per_target_position(self):
        given = mkseq(["a", "b", "c", "d", "e"])
        target = mkseq(["b", "c", "x"])
        aligned, _ = align(given, target)
        assert len(aligned) == len(target)

    def test_mapping_injective_when_given_long_enough(self):
        given = mkseq(["a", "b", "c", "d"])
        target = mkseq(["d", "c", "b", "a"])
        _, mapping = align(given, target)
        assert len(set(mapping.index)) == len(mapping.index)

    def test_unique_key_in_both_must_match(self):
        given = mkseq(["x", "q", "y"])
        target = mkseq(["a", "q", "b"])
        _, mapping = align(given, target)
        assert not mapping.substituted[1]
        assert mapping.index[1] == 1

    def test_timestamps_never_modified(self):
        given = mkseq(["b", "a"], gap=77)
        target = mkseq(["a", "b"], start=5, gap=9)
        aligned, _ = align(given, target)
        original = set(rows(given))
        for k in rows(aligned):
            assert k in original

    def test_dropped_leading_shift_and_transposition(self):
        # Target: Shift J Space Shift M. Given: the leading Shift was not
        # captured and the second Shift landed after Space's follower.
        target = mkseq(["lshift", "j", "space", "lshift", "m"])
        given = mkseq(["j", "space", "lshift", "m"])
        aligned, mapping = align(given, target)

        assert mapping.substituted == (
            False,  # target shift 0 takes the only given shift
            False,
            False,
            True,  # second target shift: reuse by position
            False,
        )
        assert mapping.index == (2, 0, 1, 3, 3)
        assert mapping.flagged  # given exhausted at the substitution step
        assert mapping.ignored == ()

        # aligned press times: [200, 0, 100, 300, 300] -> negative latency
        latencies = np.diff(aligned.press)
        assert latencies[0] < 0

    def test_given_shorter_reuses_last_and_flags(self):
        given = mkseq(["a"])
        target = mkseq(["a", "b", "c"])
        aligned, mapping = align(given, target)
        assert len(aligned) == 3
        assert mapping.flagged
        assert aligned.keys() == ("a", "a", "a")

    def test_left_and_right_shift_do_not_match(self):
        given = mkseq(["rshift", "a"])
        target = mkseq(["lshift", "a"])
        _, mapping = align(given, target)
        assert mapping.substituted == (True, False)

    def test_empty_raises(self):
        s = mkseq(["a"])
        empty = seq()
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
    pool = rows(given)
    for k in rows(aligned):
        assert k in pool
    # consumed indices are unique unless the reuse fallback fired
    if not mapping.flagged:
        assert len(set(mapping.index)) == len(mapping.index)
    # matched positions really match on key name
    for i, (j, substituted) in enumerate(zip(mapping.index, mapping.substituted)):
        if not substituted:
            assert given.keys()[j] == target.keys()[i]


@hgiven(
    key_lists(alphabet=("a", "b", "lshift", "rshift"), max_size=9),
    key_lists(alphabet=("a", "b", "lshift", "rshift"), max_size=9),
)
def test_align_matches_exhaustive_reference(given_keys, target_keys):
    given = mkseq(given_keys, gap=37)
    target = mkseq(target_keys, start=5)
    aligned, mapping = align(given, target)
    ref_aligned, ref_mapping = reference_align(given, target)
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
        # left and right Shift are different keys
        (["lshift", "a"], ["rshift", "a"]),
        (["lshift", "a", "rshift", "a"], ["rshift", "a", "lshift", "a"]),
        (["lshift", "lshift", "a"], ["rshift", "a"]),
        (["a", "lshift", "b", "rshift"], ["lshift", "a", "rshift", "b"]),
        (["lshift", "rshift"], ["rshift", "lshift"]),
    ],
)
def test_align_matches_reference_on_repeats(given_keys, target_keys):
    given, target = mkseq(given_keys), mkseq(target_keys)
    assert align(given, target) == reference_align(given, target)


@hgiven(
    key_lists(alphabet=("a", "b", "lshift", "rshift"), max_size=9),
    key_lists(alphabet=("a", "b", "lshift", "rshift"), max_size=9),
    st.integers(1, 10_000),
    st.integers(1, 500),
    st.integers(1, 500),
)
def test_a_repeated_key_pair_shares_its_mapping_and_keeps_its_own_times(
    given_keys, target_keys, start, gap, more
):
    # the same key names at two timings: the first call computes the
    # mapping, the second finds it and gathers its own sequence's times
    _match.cache_clear()
    first, second = mkseq(given_keys, gap=gap), mkseq(given_keys, start=start, gap=gap + more)
    target = mkseq(target_keys)
    aligned, mapping = align(first, target)
    assert _match.cache_info()[:2] == (0, 1)
    again, same = align(second, mkseq(target_keys, start=start))
    assert _match.cache_info()[:2] == (1, 1)
    assert same is mapping
    for given, result in ((first, (aligned, mapping)), (second, (again, same))):
        expected, expected_mapping = reference_align(given, target)
        assert result[1] == expected_mapping
        assert result[0] == expected
        assert result[0].press.dtype == result[0].release.dtype == np.int64
    # every press time of the second sequence is later than the first's
    assert (again.press > aligned.press).all()


def test_the_mapping_memo_stays_bounded():
    # more distinct key pairs than the memo holds: the oldest are dropped,
    # and a dropped pair is matched again to the same mapping
    maxsize = _match.cache_info().maxsize
    pairs = [
        (mkseq([("a", "b", "lshift")[(i // 3**k) % 3] for k in range(9)]), mkseq("ab" * (1 + i % 3)))
        for i in range(maxsize + 100)
    ]
    _match.cache_clear()
    for given, target in pairs:
        align(given, target)
    assert _match.cache_info().currsize == maxsize
    assert _match.cache_info().misses == len(pairs)
    given, target = pairs[0]
    assert align(given, target) == reference_align(given, target)
    assert _match.cache_info().misses == len(pairs) + 1
    assert _match.cache_info().currsize == maxsize


class TestBaselines:
    def test_truncate_pads_by_repeating_last(self):
        given = mkseq(["a", "b"])
        target = mkseq(["x", "y", "z"])
        out = truncate_align(given, target)
        assert out.keys() == ("a", "b", "b")

    def test_truncate_cuts_to_target_size(self):
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

    def test_select_target_skips_empty_sequences(self):
        seqs = [mkseq(["a", "b", "c"]), seq(), mkseq(["x", "y"])]
        assert select_target(seqs) == 2
        with pytest.raises(AlignmentError, match="no non-empty sequence"):
            select_target([seq()] * 2)

    def test_align_subject_target_passthrough(self):
        templates = [mkseq(["a", "b", "c"]), mkseq(["a", "b"])]
        for method, query in (("align", ("a", "b")), ("truncate", ("b", "a")), ("discard", ("b", "a"))):
            aligned_t, aligned_q, _ = gathered(templates, [mkseq(["b", "a"])], method)
            # the target (the shortest template) comes back byte-for-byte
            assert rows(aligned_t[1]) == rows(templates[1])
            assert aligned_t[0].keys() == ("a", "b")
            assert aligned_q[0].keys() == query

    def test_align_subject_marks_only_failing_sequences(self):
        templates = [mkseq(["lshift", "a", "b", "c"]), mkseq(["a", "b", "capslock", "c", "d"])]
        queries = [
            mkseq(["a", "b", "c"]),
            mkseq(["lshift", "capslock", "rshift"]),  # empty once modifiers go
            mkseq(["b", "a", "c", "d"]),
        ]
        aligned_t, aligned_q, _ = gathered(templates, queries, "discard")
        assert [s.keys() for s in aligned_t] == [("a", "b", "c")] * 2
        assert aligned_q[1] is None
        assert aligned_q[0].keys() == ("a", "b", "c")
        assert aligned_q[2].keys() == ("b", "a", "c")
        _, aligned_q, _ = gathered(templates, [seq(), queries[0]], "align")
        assert aligned_q[0] is None and aligned_q[1] is not None

    @pytest.mark.parametrize("method", ["align", "truncate", "discard"])
    def test_align_subject_empty_template_is_not_the_target(self, method):
        templates = [mkseq(["a", "b", "c"]), seq(), mkseq(["a", "b", "c", "d"])]
        if method == "discard":
            templates.append(mkseq(["lshift", "capslock"]))  # empty once modifiers go
        aligned_t, aligned_q, _ = gathered(templates, [mkseq(["a", "b", "c", "d"])], method)
        assert aligned_t[0].keys() == aligned_t[2].keys() == aligned_q[0].keys() == ("a", "b", "c")
        assert aligned_t[1] is None
        assert aligned_t[3:] == [None] * (len(templates) - 3)

    def test_align_subject_rejects_bad_input(self):
        with pytest.raises(AlignmentError):
            align_subject([], [mkseq(["a"])], "align")
        with pytest.raises(AlignmentError, match="no non-empty sequence"):
            align_subject([seq()], [mkseq(["a"])], "align")
        with pytest.raises(AlignmentError, match="no non-empty sequence"):
            align_subject([mkseq(["lshift", "capslock"])], [mkseq(["a"])], "discard")
        with pytest.raises(ValueError, match="alignment must be one of"):
            align_subject([mkseq(["a"])], [], "nope")


_KEYS = ("a", "b", "lshift", "rshift", "capslock")


@hgiven(
    st.lists(key_lists(alphabet=_KEYS, min_size=0, max_size=9), min_size=1, max_size=4),
    st.lists(key_lists(alphabet=_KEYS, min_size=0, max_size=9), max_size=4),
    st.sampled_from(ALIGNMENT_METHODS),
)
def test_index_rows_gather_what_each_sequence_aligns_to(template_keys, query_keys, method):
    # every sequence at its own times, so a row gathered from the wrong
    # sequence's columns shows
    templates = [mkseq(keys, start=1000 * k, gap=37) for k, keys in enumerate(template_keys)]
    queries = [mkseq(keys, start=1000 * (k + 10), gap=41) for k, keys in enumerate(query_keys)]
    try:
        expected = reference_align_subject(templates, queries, method)
    except ValueError:  # no template is non-empty after discarding
        with pytest.raises(AlignmentError, match="no non-empty sequence"):
            align_subject(templates, queries, method)
        return
    *aligned, mappings = gathered(templates, queries, method)
    assert tuple(aligned) == expected

    # every mapping is the one-sequence call's
    discard = method == "discard"
    prepared = [discard_modifiers(s) if discard else s for s in templates]
    target = prepared[select_target(prepared)]
    index, _, _ = align_subject(templates, queries, method)
    index_rows = iter(index.tolist())
    offset = 0
    for given, mapping in zip((*templates, *queries), mappings):
        kept = [j for j, key in enumerate(given.keys()) if not (discard and key in _KEYS[2:])]
        if mapping is None:
            assert not kept
        elif method == "align":
            assert mapping == reference_align(given, target)[1]
        else:
            one = truncate_align(discard_modifiers(given) if discard else given, target)
            assert one == seq([rows(given)[j] for j in mapping.index], aligned=True)
            assert mapping.substituted == (False,) * len(target)
            assert mapping.ignored == tuple(j for j in range(len(given)) if j not in mapping.index)
            assert mapping.flagged == (len(kept) < len(target))
        if mapping is not None:
            assert [j - offset for j in next(index_rows)] == list(mapping.index)
        offset += len(given)


class TestEditDistance:
    def test_known_values(self):
        assert damerau_levenshtein("", "") == 0
        assert damerau_levenshtein("abc", "abc") == 0
        assert damerau_levenshtein("ab", "ba") == 1
        assert damerau_levenshtein("ca", "abc") == 2  # needs unrestricted edits
        assert damerau_levenshtein("abc", "ca") == 2
        assert damerau_levenshtein("abc", "") == 3
        assert damerau_levenshtein("kitten", "sitting") == 3

    @pytest.mark.parametrize(
        "alphabet, operand_len, slack",
        [(("a", "b"), 5, 3), (("a", "b", "c"), 3, 3), (("a", "b", "c", "d"), 3, 1)],
    )
    def test_matches_bfs_oracle_on_short_strings(self, alphabet, operand_len, slack):
        table = bfs_edit_distances(alphabet, operand_len, slack)
        for (x, y), expected in table.items():
            assert damerau_levenshtein(x, y) == expected, (x, y)

    @hgiven(st.integers(min_value=2, max_value=4), st.data())
    def test_matches_full_program_on_short_strings(self, n_keys, data):
        keys = st.lists(st.sampled_from("abcd"[:n_keys]), max_size=9)
        a, b = data.draw(keys), data.draw(keys)
        assert damerau_levenshtein(a, b) == reference_damerau_levenshtein(a, b)

    def test_band_doubles_on_long_near_equal_names(self, monkeypatch):
        bands = []
        banded = alignment._banded_distance
        def recorded(a, b, band):
            bands.append(band)
            return banded(a, b, band)

        monkeypatch.setattr(alignment, "_banded_distance", recorded)
        rng = np.random.default_rng(5)
        letters = [chr(c) for c in range(ord("a"), ord("z") + 1)] + ["space", "lshift"]
        for n_edits in range(13):
            name = rng.choice(letters, size=220).tolist()
            other = list(name)
            for _ in range(n_edits):  # drop, add, swap or substitute a key
                i = int(rng.integers(len(other) - 1))
                edit = rng.integers(4)
                if edit == 0:
                    del other[i]
                elif edit == 1:
                    other.insert(i, "lshift")
                elif edit == 2:
                    other[i], other[i + 1] = other[i + 1], other[i]
                else:
                    other[i] = "capslock"
            for x, y in ((name, other), (other, name)):
                assert damerau_levenshtein(x, y) == reference_damerau_levenshtein(x, y)
        assert max(bands) >= 16

    def test_matches_full_program_on_every_audited_pair(self):
        dataset, _ = generate_synthetic(
            SynthConfig(n_subjects=300, shift_drop=0.05, shift_transpose=0.03, capslock_sub=0.02)
        )
        pairs = set()
        for entry in dataset.subjects.values():
            templates = [s.sequence.keys() for s in entry.templates]
            pairs.update(combinations(templates, 2))
            pairs.update((s.sequence.keys(), t) for s in entry.queries for t in templates)
        pairs = [(a, b) for a, b in pairs if a != b]
        assert len(pairs) > 2000
        for a, b in pairs:
            assert damerau_levenshtein(a, b) == reference_damerau_levenshtein(a, b), (a, b)

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
