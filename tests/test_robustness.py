"""Adversarial captures never break the pipeline.

Hypothesis builds datasets whose event files hold what real capture
hardware can produce at its worst: empty captures, a single keystroke,
all-equal timings, zero-duration keys, keys never released, deltas and
timestamps up to ``events.MAX_DELTA_MS``, and a 40 ms quantized clock.
Every capture goes through ``read_sequence``, then ``run_pipeline`` runs
under each alignment x score normalization setting for the Manhattan
and one-class SVM detectors. A query either gets a
usable score or comes back flagged; none is dropped, crashes the run, or
yields a NaN.
"""

import itertools
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from keygait import (
    DetectorConfig,
    Label,
    PipelineConfig,
    Role,
    Sample,
    ScoreNormConfig,
    SubjectDataset,
    UnreleasedKeyWarning,
    read_sequence,
    run_pipeline,
    scancode_for,
)
from keygait.config import ALIGNMENT_METHODS, SCORE_NORM_KINDS
from keygait.events import MAX_DELTA_MS

KEYS = ("a", "b", "c", "lshift", "capslock")

CONFIGS = [
    PipelineConfig(
        alignment=method,
        score_norm=ScoreNormConfig(kind=kind),
        detector=DetectorConfig(name=detector),
    )
    for method, kind, detector in itertools.product(
        ALIGNMENT_METHODS, SCORE_NORM_KINDS, ("manhattan", "ocsvm")
    )
]

# A clock style fixes how every delta of one dataset is drawn.
CLOCKS = {
    "free": st.one_of(st.integers(0, 400), st.integers(0, MAX_DELTA_MS), st.just(MAX_DELTA_MS)),
    "quantized": st.integers(0, 10).map(lambda k: 40 * k),
}


@st.composite
def captures(draw, word: tuple[str, ...], deltas: st.SearchStrategy[int]) -> str:
    """Event text of one attempt at typing ``word``: one keystroke after
    another, then at most one defect."""
    defect = draw(st.sampled_from(["none", "empty", "single", "unreleased", "rollover"]))
    if defect == "empty":
        return ""
    if defect == "single":
        word = word[:1]
    events = []  # (action, key), in time order
    for key in word:
        events += [("P", key), ("R", key)]
    if defect == "unreleased":
        del events[2 * draw(st.integers(0, len(word) - 1)) + 1]
    elif defect == "rollover" and len(word) > 1 and word[0] != word[1]:
        events[1], events[2] = events[2], events[1]  # next press before this release
    lines = []
    t = 0
    for i, (action, key) in enumerate(events):
        # A timestamp past MAX_DELTA_MS is a ParseError (test_events), so
        # the running time stops at the bound.
        delta = 0 if i == 0 else min(draw(deltas), MAX_DELTA_MS - t)
        t += delta
        lines.append(f"{action} {scancode_for(key):02x} {delta}")
    return "\n".join(lines) + "\n"


@st.composite
def datasets(draw) -> SubjectDataset:
    clock = draw(st.sampled_from(sorted(CLOCKS)))
    deltas = CLOCKS[clock]
    if draw(st.booleans()):  # all-equal timings
        deltas = st.just(draw(deltas))
    dataset = SubjectDataset()
    for s in range(draw(st.integers(1, 2))):
        subject_id = f"s{s}"
        word = tuple(draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=5)))
        for role, prefix, count in ((Role.TEMPLATE, "t", (1, 3)), (Role.QUERY, "q", (1, 3))):
            for i in range(draw(st.integers(*count))):
                typed = word if draw(st.integers(0, 3)) else tuple(draw(st.permutations(word)))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UnreleasedKeyWarning)
                    sequence = read_sequence(draw(captures(typed, deltas)))
                label = Label.GENUINE if role is Role.TEMPLATE else draw(st.sampled_from(Label))
                dataset.add(Sample(subject_id, f"{prefix}{i}", role, sequence, label))
    return dataset


@settings(max_examples=100)
@given(datasets())
def test_adversarial_captures_are_scored_or_flagged(dataset):
    queries = sorted(
        (q.subject_id, q.sample_id)
        for sid in dataset.subject_ids()
        for q in dataset.subjects[sid].queries
    )
    for config in CONFIGS:
        scores = run_pipeline(dataset, config)
        assert [(r.subject_id, r.sample_id) for r in scores] == queries
        for r in scores:
            assert math.isfinite(r.raw_score) or (r.flagged and r.raw_score == -math.inf), r
            if config.score_norm.kind == "none":
                assert r.normalized_score == r.raw_score, r
            else:
                assert 0.0 <= r.normalized_score <= 1.0, r
