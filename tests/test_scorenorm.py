import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from keygait import Label, ScoreNormConfig, ScoreRecord, ScoreSet, apply_normalization
from keygait.errors import ScoreNormError
from keygait.alignment import _summarize
from keygait.scorenorm import mean_sd, normalize_minmax, normalize_sd


def test_minmax_basic():
    assert normalize_minmax([2.0, 4.0, 6.0]) == [0.0, 0.5, 1.0]


def test_minmax_degenerate_maps_to_half():
    assert normalize_minmax([3.0, 3.0, 3.0]) == [0.5, 0.5, 0.5]


def test_minmax_empty():
    assert normalize_minmax([]) == []


def _left_to_right(values):
    total = 0.0
    for x in values:
        total += x
    return total


@pytest.mark.parametrize(
    "values", [[1e16, 1.0, -1e16, 0.0], [3.3, 3.3, 3.3, 0.001], [0, 3, 5, 4, 0, 6, 1]]
)
def test_sums_run_left_to_right(values):
    # On these a compensated sum, as the builtin sum of floats is from
    # Python 3.12 on, or an exact one (math.fsum) gives other bits: the
    # mean of the first is 0.0 left to right and 0.25 exactly. Scores
    # and audit rows keep the left-to-right bits on every Python.
    n = len(values)
    mean = _left_to_right(values) / n
    sd = math.sqrt(_left_to_right([(x - mean) ** 2 for x in values]) / n)
    exact_mean = math.fsum(values) / n
    exact_sd = math.sqrt(math.fsum([(x - exact_mean) ** 2 for x in values]) / n)
    assert (mean, sd) != (exact_mean, exact_sd)
    assert mean_sd(values) == (mean, sd)
    lo, width = mean - 2.0 * sd, 4.0 * sd
    assert normalize_sd(values) == [min(1.0, max(0.0, (x - lo) / width)) for x in values]
    if all(isinstance(x, int) for x in values):  # edit distances
        row = _summarize(values, "query-template")
        assert (row.mean_dl, row.sd_dl) == (mean, sd)


def test_sd_hand_values():
    # mean 0, population sd 1, h_s = 2: bounds [-2, 2], width 4
    scores = [-1.0, 1.0, -1.0, 1.0]
    out = normalize_sd(scores, h_s=2.0)
    assert out == pytest.approx([0.25, 0.75, 0.25, 0.75])


def test_sd_clamps_outliers():
    out = normalize_sd([0.0, 0.0, 0.0, 100.0], h_s=1.0)
    assert out[-1] == 1.0
    assert all(0.0 <= v <= 1.0 for v in out)


def test_sd_zero_variance_maps_to_half():
    assert normalize_sd([5.0, 5.0], h_s=2.0) == [0.5, 0.5]


def test_sd_needs_two_scores():
    with pytest.raises(ScoreNormError):
        normalize_sd([1.0], h_s=2.0)


@pytest.mark.parametrize("h_s", [0.0, math.nan])
def test_sd_rejects_nonpositive_width(h_s):
    with pytest.raises(ScoreNormError):
        normalize_sd([1.0, 2.0], h_s=h_s)


@pytest.mark.parametrize(
    "h_s, message",
    [
        (1e308, "h_s 1e+308 is too wide: the bound width 2 * h_s * sd overflows"),
        # a finite bound width, but both scores normalize to 0.5
        (1e200, "h_s 1e+200 is too wide: it maps distinct scores to one value"),
    ],
)
def test_sd_too_wide_width_is_a_plain_value_error(h_s, message):
    # not a ScoreNormError, which the pipeline would turn into a flagged
    # subject
    with pytest.raises(ValueError) as err:
        normalize_sd([1.0, 2.0], h_s=h_s)
    assert not isinstance(err.value, ScoreNormError)
    assert str(err.value) == message


def test_sd_huge_width_over_equal_scores_is_not_an_error():
    # the mean of three 0.1s is not 0.1, so sd is a rounding residue above 0;
    # equal scores have nothing distinct to collapse
    assert normalize_sd([0.1, 0.1, 0.1], h_s=1e200) == [0.5] * 3


def test_sd_underflowing_width_is_a_plain_value_error():
    # 2 * 1e-320 * 5e-11 is below the smallest subnormal: the width is 0
    with pytest.raises(ValueError) as err:
        normalize_sd([0.0, 1e-10], h_s=1e-320)
    assert not isinstance(err.value, ScoreNormError)
    assert str(err.value) == "h_s 1e-320 is too narrow: the bound width 2 * h_s * sd underflows"


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40), st.floats(0.5, 5.0))
def test_sd_range_and_order_preserved(scores, h_s):
    out = normalize_sd(scores, h_s=h_s)
    assert all(0.0 <= v <= 1.0 for v in out)
    for a, b in zip(scores, scores[1:]):
        ia, ib = scores.index(a), scores.index(b)
        if a <= b:
            assert out[ia] <= out[ib] + 1e-12


def _records():
    return [
        ScoreRecord("s1", "q1", -10.0, label=Label.GENUINE),
        ScoreRecord("s1", "q2", -20.0, label=Label.IMPOSTOR),
        ScoreRecord("s1", "q3", -30.0, label=Label.IMPOSTOR),
        ScoreRecord("s2", "q1", 5.0, label=Label.GENUINE),
        ScoreRecord("s2", "q2", 3.0, label=Label.IMPOSTOR),
    ]


def test_apply_minmax_per_subject():
    out = apply_normalization(ScoreSet(tuple(_records())), ScoreNormConfig(kind="minmax"))
    by_id = {(r.subject_id, r.sample_id): r.normalized_score for r in out}
    assert by_id[("s1", "q1")] == 1.0
    assert by_id[("s1", "q2")] == 0.5
    assert by_id[("s1", "q3")] == 0.0
    # s2 normalized against its own range, not s1's
    assert by_id[("s2", "q1")] == 1.0
    assert by_id[("s2", "q2")] == 0.0


def test_apply_none_copies_raw():
    out = apply_normalization(ScoreSet(tuple(_records())), ScoreNormConfig(kind="none"))
    for r in out:
        assert r.normalized_score == r.raw_score


def test_apply_sd_errors_name_subject():
    records = (ScoreRecord("s9", "q1", 1.0),)
    with pytest.raises(ScoreNormError, match="s9"):
        apply_normalization(ScoreSet(records), ScoreNormConfig(kind="sd"))


def test_flagged_records_excluded_and_pinned():
    records = tuple(_records()) + (
        ScoreRecord("s1", "q4", -math.inf, flagged=True, label=Label.GENUINE),
    )
    out = apply_normalization(ScoreSet(records), ScoreNormConfig(kind="minmax"))
    by_id = {(r.subject_id, r.sample_id): r for r in out}
    # statistics unchanged by the flagged record
    assert by_id[("s1", "q1")].normalized_score == 1.0
    assert by_id[("s1", "q3")].normalized_score == 0.0
    pinned = by_id[("s1", "q4")]
    assert pinned.flagged
    assert pinned.normalized_score == 0.0
    # record count in == record count out
    assert len(out.records) == len(records)


def test_none_passes_sentinel_through():
    records = tuple(_records()) + (
        ScoreRecord("s1", "q4", -math.inf, flagged=True),
    )
    out = apply_normalization(ScoreSet(records), ScoreNormConfig(kind="none"))
    by_id = {(r.subject_id, r.sample_id): r for r in out}
    assert by_id[("s1", "q4")].normalized_score == -math.inf


def test_scoreset_sorts_records():
    records = (
        ScoreRecord("s2", "q1", 1.0),
        ScoreRecord("s1", "q2", 2.0),
        ScoreRecord("s1", "q1", 3.0),
    )
    ordered = [(r.subject_id, r.sample_id) for r in ScoreSet(records)]
    assert ordered == [("s1", "q1"), ("s1", "q2"), ("s2", "q1")]


def test_ftc_count():
    records = (
        ScoreRecord("s1", "q1", 1.0),
        ScoreRecord("s1", "q2", -math.inf, flagged=True),
    )
    assert ScoreSet(records).ftc_count == 1


def test_scoreset_refuses_a_nan_normalized_score():
    # NaN marks "none" in the normalized column: it would read back as None
    # and the raw score would be written in its place
    with pytest.raises(ValueError, match="^normalized score of a/q is NaN$"):
        ScoreSet([ScoreRecord("b", "q", 0.5, 0.5), ScoreRecord("a", "q", 1.5, math.nan)])
    [record] = ScoreSet([ScoreRecord("a", "q", 1.5, None)])
    assert record.normalized_score is None and record.score == 1.5


_RECORDS = st.builds(
    ScoreRecord,
    st.sampled_from(["s1", "s2"]),
    st.sampled_from(["q1", "q2"]),
    st.sampled_from([0.0, -0.0, 1.5, math.inf, math.nan]),
    st.sampled_from([None, 0.0, -0.0, 0.25]),
    st.sampled_from([None, Label.GENUINE, Label.IMPOSTOR]),
    st.booleans(),
)


@given(st.lists(_RECORDS, max_size=3), st.lists(_RECORDS, max_size=3), st.data())
def test_scoreset_equality_is_record_equality(a, b, data):
    # against b, against a itself, and against a with each field of one record redrawn
    pairs = [(a, b), (a, a)]
    if a:
        i = data.draw(st.integers(0, len(a) - 1))
        for name in (f.name for f in fields(ScoreRecord)):
            redrawn = replace(a[i], **{name: getattr(data.draw(_RECORDS), name)})
            pairs.append((a, a[:i] + [redrawn] + a[i + 1 :]))
    for left, right in pairs:
        left, right = ScoreSet(left), ScoreSet(right)
        assert (left == right) is (left.records == right.records)
