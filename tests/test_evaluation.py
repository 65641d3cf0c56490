import json
import math
import pickle
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from keygait import (
    ContractiveAutoencoder,
    DatasetError,
    DetectorConfig,
    EvaluationError,
    Label,
    ManhattanDetector,
    PipelineConfig,
    Role,
    Sample,
    ScoreNormConfig,
    ScoreRecord,
    ScoreSet,
    SubjectDataset,
    SynthConfig,
    TrainingError,
    build_detector,
    derive_seed,
    generate_synthetic,
    global_eer,
    monte_carlo_validate,
    roc,
    run_pipeline,
    subject_eer,
)
from keygait import _processes, evaluation
from keygait.datasets import attach_labels, read_scores, write_scores, written_scores
from keygait.evaluation import SENTINEL_SCORE
from keygait.scorenorm import normalize_minmax, normalize_sd

from oracles import (
    by_subject,
    reference_align_subject,
    reference_eer,
    reference_global_eer,
    reference_normalize_scores,
    reference_normalized_features,
    reference_subject_eer,
    reference_write_scores,
    reference_written_scores,
    rows,
    seq,
)
from runtime_checks import counted_forks
from test_processes import assert_no_child_left


class TestRocEer:
    def test_perfect_separation_gives_zero(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert curve.eer() == 0.0

    def test_identical_class_multisets_give_half(self):
        curve = roc([0.3, 0.7, 0.3, 0.7], [True, True, False, False])
        assert curve.eer() == 0.5

    def test_hand_traced_crossover_is_one_third(self):
        # 5 genuine, 3 impostor; FAR is flat at 1/3 across the crossing,
        # so the interpolated EER is exactly 1/3.
        scores = [0.9, 0.8, 0.7, 0.6, 0.4, 0.75, 0.5, 0.3]
        genuine = [True] * 5 + [False] * 3
        curve = roc(scores, genuine)
        assert abs(curve.eer() - 1.0 / 3.0) < 1e-9

    def test_reversed_scores_give_one(self):
        curve = roc([0.1, 0.2, 0.8, 0.9], [True, True, False, False])
        assert curve.eer() == pytest.approx(1.0, abs=1e-9)

    def test_curve_spans_full_range(self):
        curve = roc([0.5, 0.4, 0.6, 0.3], [True, False, False, True])
        assert curve.far[0] == 0.0 and curve.frr[0] == 1.0
        assert curve.far[-1] == 1.0 and curve.frr[-1] == 0.0

    def test_validation_errors(self):
        with pytest.raises(EvaluationError):
            roc([], [])
        with pytest.raises(EvaluationError):
            roc([1.0, 2.0], [True, True])
        with pytest.raises(EvaluationError):
            roc([1.0, 2.0], [True])

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=30),
        st.data(),
    )
    def test_matches_reference_implementation(self, scores, data):
        n = len(scores)
        genuine = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(
                lambda g: any(g) and not all(g)
            )
        )
        assert roc(scores, genuine).eer() == pytest.approx(
            reference_eer(scores, genuine), abs=1e-12
        )

    # Coarse score grid: the invariants are about order structure, and a
    # grid keeps float rounding from merging scores that started distinct.
    _grid_scores = st.lists(
        st.integers(-50000, 50000).map(lambda i: i / 1000.0),
        min_size=2,
        max_size=25,
    )

    @given(_grid_scores, st.data(), st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    def test_eer_invariant_under_increasing_affine_map(self, scores, data, a, b):
        n = len(scores)
        genuine = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(
                lambda g: any(g) and not all(g)
            )
        )
        base = roc(scores, genuine).eer()
        mapped = roc([a * s + b for s in scores], genuine).eer()
        assert mapped == base  # identical count arrays -> identical arithmetic

    @given(_grid_scores, st.data())
    def test_minmax_keeps_subject_eer_bit_identical(self, raw, data):
        n = len(raw)
        genuine = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(
                lambda g: any(g) and not all(g)
            )
        )
        if len(set(raw)) == 1:
            return  # degenerate batch collapses both classes; roc rejects
        normalized = normalize_minmax(raw)
        assert roc(raw, genuine).eer() == roc(normalized, genuine).eer()


class TestSubjectEer:
    def _scores(self):
        return ScoreSet(
            (
                ScoreRecord("s1", "q1", 0.9, label=Label.GENUINE),
                ScoreRecord("s1", "q2", 0.1, label=Label.IMPOSTOR),
                ScoreRecord("s2", "q1", 0.2, label=Label.GENUINE),
                ScoreRecord("s2", "q2", 0.8, label=Label.IMPOSTOR),
            )
        )

    def test_per_subject_values_and_mean(self):
        report = subject_eer(self._scores())
        assert report.per_subject["s1"] == 0.0
        assert report.per_subject["s2"] == pytest.approx(1.0)
        assert report.mean == pytest.approx(0.5)
        assert report.sd == pytest.approx(0.5)  # population SD

    def test_single_class_subject_error_names_subject(self):
        scores = ScoreSet(
            (
                ScoreRecord("s1", "q1", 0.9, label=Label.GENUINE),
                ScoreRecord("s1", "q2", 0.1, label=Label.IMPOSTOR),
                ScoreRecord("s7", "q1", 0.5, label=Label.GENUINE),
            )
        )
        with pytest.raises(EvaluationError, match="s7"):
            subject_eer(scores)

    def test_empty_score_set_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="no scores to evaluate"):
                subject_eer(ScoreSet(()))

    def test_unlabeled_record_rejected(self):
        scores = ScoreSet((ScoreRecord("s1", "q1", 0.9),))
        with pytest.raises(EvaluationError):
            global_eer(scores)


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(42, "subject", "s001")
    assert a == derive_seed(42, "subject", "s001")
    assert 0 <= a < 2**63
    assert a != derive_seed(42, "subject", "s002")
    assert a != derive_seed(43, "subject", "s001")


def _mkseq(keys, gap=100, duration=60):
    return seq([(k, i * gap, i * gap + duration) for i, k in enumerate(keys)])


def _noisy_seq(rng, keys, gap_mu, dur_mu):
    # per-keystroke jitter; per-sample-constant timing would collapse the
    # fitted feature spread and clamp everything to the same vector
    t = 0
    ks = []
    for i, k in enumerate(keys):
        if i:
            t += max(1, int(round(rng.normal(gap_mu, 8))))
        d = max(1, int(round(rng.normal(dur_mu, 5))))
        ks.append((k, t, t + d))
    return seq(ks)


def _toy_dataset():
    ds = SubjectDataset()
    rng = np.random.default_rng(123)
    for sid in ("s1", "s2"):
        gap, dur = (90, 60) if sid == "s1" else (150, 100)
        other_gap, other_dur = (150, 100) if sid == "s1" else (90, 60)
        for i in range(3):
            ds.add(Sample(sid, f"t{i}", Role.TEMPLATE, _noisy_seq(rng, "abcd", gap, dur)))
        for i in range(2):
            ds.add(
                Sample(sid, f"g{i}", Role.QUERY, _noisy_seq(rng, "abcd", gap, dur), Label.GENUINE)
            )
        for i in range(2):
            ds.add(
                Sample(
                    sid,
                    f"i{i}",
                    Role.QUERY,
                    _noisy_seq(rng, "abcd", other_gap, other_dur),
                    Label.IMPOSTOR,
                )
            )
    return ds


def _per_subject_scores(prepared, config, detector_config=None, seed_offset=0):
    """Raw scores from fitting each subject's detector (by default the
    config's) on its own, seeded ``derive_seed(seed, subject) + seed_offset``,
    and scoring the subject's stacked query rows in one ``score_all`` call."""
    detector_config = detector_config or config.detector
    scores = []
    for p in prepared:
        assert p.query_rows == list(range(len(p.query_ids)))
        seed = derive_seed(config.seed, p.subject_id) + seed_offset
        detector = build_detector(detector_config, seed=seed).fit(p.template_matrix)
        scores.extend(detector.score_all(p.query_matrix).tolist())
    return scores


@pytest.mark.parametrize("alignment", ["align", "truncate", "discard"])
@pytest.mark.parametrize("h_f", [0.5, 1.0, 2.5])
def test_prepared_rows_match_per_sequence_features(small_dataset, alignment, h_f):
    config = PipelineConfig(alignment=alignment, h_f=h_f)
    for sid, p in zip(small_dataset.subject_ids(), evaluation.prepare(small_dataset, config)):
        entry = small_dataset.subjects[sid]
        templates = sorted(entry.templates, key=lambda s: s.sample_id)
        queries = sorted(entry.queries, key=lambda s: s.sample_id)
        aligned_t, aligned_q = reference_align_subject(
            [s.sequence for s in templates], [s.sequence for s in queries], alignment
        )
        assert None not in aligned_t and None not in aligned_q
        ref_t, ref_q = reference_normalized_features(aligned_t, aligned_q, h_f=config.h_f)
        assert p.template_matrix.tobytes() == np.stack(ref_t).tobytes()
        assert p.query_rows == list(range(len(ref_q)))
        assert p.query_matrix.tobytes() == np.stack(ref_q).tobytes()


def test_alignment_record_of_the_standard_fixture():
    # counted with the per-sequence ``align`` calls the index matrix replaced
    dataset, _ = generate_synthetic(
        SynthConfig(n_subjects=300, shift_drop=0.05, shift_transpose=0.03, capslock_sub=0.02, seed=0)
    )
    prepared = evaluation.prepare(dataset, PipelineConfig())
    records = [(m, False) for p in prepared for m in p.template_alignments]
    records += [(m, True) for p in prepared for m in p.query_alignments]
    assert len(records) == 7200 and all(m is not None for m, _ in records)
    exact = [
        m.index == tuple(range(len(m.index))) and not m.ignored and not any(m.substituted)
        for m, _ in records
    ]
    assert sum(exact) == 3251
    assert sum(m.substitution_count() > 0 for m, _ in records) == 2007
    assert sum(bool(m.ignored) for m, _ in records) == 1971
    assert sum(m.flagged for m, _ in records) == sum(m.flagged for m, query in records if query) == 394


def _swap_shift_sides(sequence):
    swap = {"lshift": "rshift", "rshift": "lshift"}
    return seq([(swap.get(k, k), p, r) for k, p, r in rows(sequence)])


@pytest.mark.parametrize("alignment", ["truncate", "discard"])
def test_shift_side_leaves_other_methods_alone(small_dataset, alignment):
    # truncate ignores key names and discard drops the Shift keys
    swapped = SubjectDataset()
    for sid, entry in small_dataset.subjects.items():
        swapped.subjects[sid] = type(entry)(
            templates=list(entry.templates),
            queries=[replace(q, sequence=_swap_shift_sides(q.sequence)) for q in entry.queries],
        )
    assert swapped.subjects != small_dataset.subjects
    config = PipelineConfig(alignment=alignment)
    assert _record_bits(run_pipeline(swapped, config)) == _record_bits(
        run_pipeline(small_dataset, config)
    )


class TestRunPipeline:
    def test_deterministic(self):
        ds = _toy_dataset()
        config = PipelineConfig(
            detector=DetectorConfig(name="autoencoder", params={"epochs": 20})
        )
        a = run_pipeline(ds, config)
        b = run_pipeline(ds, config)
        assert a == b

    def test_master_seed_changes_seeded_detector_scores(self):
        ds = _toy_dataset()
        mk = lambda seed: PipelineConfig(
            detector=DetectorConfig(name="autoencoder", params={"epochs": 20}),
            seed=seed,
        )
        a = run_pipeline(ds, mk(0))
        b = run_pipeline(ds, mk(1))
        assert any(
            x.raw_score != y.raw_score for x, y in zip(a.records, b.records)
        )

    def test_seed_irrelevant_for_manhattan(self):
        ds = _toy_dataset()
        a = run_pipeline(ds, PipelineConfig(seed=0))
        b = run_pipeline(ds, PipelineConfig(seed=99))
        assert a == b

    def test_separable_toy_data_scores_perfectly(self):
        # h_f wide enough that genuine jitter stays inside the fitted
        # bounds while the far-off impostors still clamp
        scores = run_pipeline(_toy_dataset(), PipelineConfig(h_f=3.0))
        assert global_eer(scores) == 0.0

    def test_empty_query_flagged_not_dropped(self):
        ds = _toy_dataset()
        ds.add(Sample("s1", "qz", Role.QUERY, seq(), Label.GENUINE))
        scores = run_pipeline(ds, PipelineConfig())
        assert len(scores.records) == 9
        bad = [r for r in scores if r.sample_id == "qz"][0]
        assert bad.flagged
        assert bad.raw_score == SENTINEL_SCORE
        assert bad.normalized_score == 0.0

    def test_failed_query_leaves_its_neighbours_unchanged(self):
        clean = run_pipeline(_toy_dataset(), PipelineConfig())
        ds = _toy_dataset()
        # sorts between g1 and i0, so the scored rows are not a prefix
        ds.add(Sample("s1", "h0", Role.QUERY, seq(), Label.GENUINE))
        scores = run_pipeline(ds, PipelineConfig())
        assert [r.sample_id for r in scores if r.flagged] == ["h0"]
        assert [r for r in scores if not r.flagged] == list(clean)

    def test_degenerate_target_fails_whole_subject(self):
        # a 1-keystroke template becomes the target; features need >= 2
        ds = _toy_dataset()
        ds.add(Sample("s1", "t9", Role.TEMPLATE, _mkseq("a")))
        scores = run_pipeline(ds, PipelineConfig())
        s1 = [r for r in scores if r.subject_id == "s1"]
        assert s1 and all(r.flagged for r in s1)
        s2 = [r for r in scores if r.subject_id == "s2"]
        assert s2 and not any(r.flagged for r in s2)

    @pytest.mark.parametrize("alignment", ["align", "truncate", "discard"])
    def test_empty_template_is_dropped_not_the_target(self, alignment):
        # the target is the shortest template that is non-empty after the
        # method's preprocessing; an empty template fails alone
        config = PipelineConfig(alignment=alignment)
        clean = run_pipeline(_toy_dataset(), config)
        assert not any(r.flagged for r in clean)
        ds = _toy_dataset()
        ds.add(Sample("s1", "t8", Role.TEMPLATE, seq()))
        if alignment == "discard":
            ds.add(Sample("s1", "t9", Role.TEMPLATE, _mkseq(["lshift", "capslock"])))
        assert run_pipeline(ds, config) == clean

    @pytest.mark.parametrize(
        "detector",
        [
            DetectorConfig(name="ocsvm", params={"nu": "0.5"}),
            DetectorConfig(
                name="ensemble",
                members=(DetectorConfig(name="manhattan"), DetectorConfig(name="ocsvm", params={"nu": "0.5"})),
            ),
        ],
        ids=["single", "ensemble-member"],
    )
    def test_ill_typed_param_raises_before_any_subject_is_prepared(self, monkeypatch, detector):
        # every subject fails preparation (a 1-keystroke target), so no
        # detector is ever fitted; the params are checked all the same
        ds = SubjectDataset()
        for sid in ("s1", "s2"):
            ds.add(Sample(sid, "t0", Role.TEMPLATE, _mkseq("a")))
            ds.add(Sample(sid, "q0", Role.QUERY, _mkseq("ab"), Label.GENUINE))
        assert all(r.flagged for r in run_pipeline(ds, PipelineConfig()))

        def prepare(*args):
            raise AssertionError("a subject was prepared")

        monkeypatch.setattr(evaluation, "_prepare_subject", prepare)
        message = "OneClassSvm.nu: expected a finite number, got '0.5'"
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            run_pipeline(ds, PipelineConfig(detector=detector))

    def test_labels_optional_for_scoring(self):
        ds = SubjectDataset()
        for i in range(3):
            ds.add(Sample("s1", f"t{i}", Role.TEMPLATE, _mkseq("abc")))
        ds.add(Sample("s1", "q1", Role.QUERY, _mkseq("abc")))
        ds.add(Sample("s1", "q2", Role.QUERY, _mkseq("abc", gap=140)))
        scores = run_pipeline(ds, PipelineConfig())
        assert all(r.normalized_score is not None for r in scores)
        with pytest.raises(EvaluationError):
            global_eer(scores)

    @pytest.mark.parametrize("name", ["autoencoder", "variational"])
    def test_group_fit_matches_per_subject_fits(self, small_dataset, name):
        config = PipelineConfig(detector=DetectorConfig(name=name, params={"epochs": 8}))
        prepared = evaluation.prepare(small_dataset, config)
        assert len({p.template_matrix.shape[1] for p in prepared}) > 1
        scores = run_pipeline(small_dataset, config)
        assert [r.raw_score for r in scores] == _per_subject_scores(prepared, config)

    @pytest.mark.parametrize("name", ["autoencoder", "variational"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_group_fit_isolates_a_diverging_subject(self, small_dataset, monkeypatch, name):
        config = PipelineConfig(detector=DetectorConfig(name=name, params={"epochs": 8}))
        prepared = evaluation.prepare(small_dataset, config)
        bad = prepared[2].subject_id
        prepare = evaluation._prepare_subject

        def poisoned(subject_id, *args):
            p = prepare(subject_id, *args)
            if subject_id == bad:
                p.template_matrix[0, 0] = 1e200
            return p

        monkeypatch.setattr(evaluation, "_prepare_subject", poisoned)
        scores = run_pipeline(small_dataset, config)
        assert {r.subject_id for r in scores if r.flagged} == {bad}
        expected = _per_subject_scores(prepared, config)
        for record, value in zip(scores, expected):
            if record.subject_id != bad:
                assert np.float64(record.raw_score).tobytes() == np.float64(value).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_subjects_fail_alone_on_the_standard_fixture(self):
        # Fault injection through a detector param alone: at this learning
        # rate four subjects' VAE loss turns non-finite in the first epoch.
        dataset, _ = generate_synthetic(
            SynthConfig(n_subjects=10, shift_drop=0.05, shift_transpose=0.03, capslock_sub=0.02, seed=0)
        )
        config = PipelineConfig(
            detector=DetectorConfig(name="variational", params={"learning_rate": 10.0, "epochs": 50})
        )
        diverging = {"s001", "s002", "s006", "s007"}
        scores = run_pipeline(dataset, config)
        for p in evaluation.prepare(dataset, config):
            records = [r for r in scores if r.subject_id == p.subject_id]
            detector = build_detector(config.detector, seed=derive_seed(config.seed, p.subject_id))
            if p.subject_id in diverging:
                with pytest.raises(TrainingError, match="^non-finite loss at epoch 0$"):
                    detector.fit(p.template_matrix)
                assert all(r.flagged and r.raw_score == SENTINEL_SCORE for r in records)
            else:
                assert p.query_rows == list(range(len(records)))
                expected = detector.fit(p.template_matrix).score_all(p.query_matrix)
                assert np.array([r.raw_score for r in records]).tobytes() == expected.tobytes()
                assert not any(r.flagged for r in records)

    def test_ocsvm_at_nu_one_flags_nothing(self):
        # 49 * (1 / 49) rounds below 1, which must not read as an infeasible dual
        dataset, _ = generate_synthetic(SynthConfig(n_subjects=2, n_templates=49, seed=0))
        scores = run_pipeline(
            dataset, PipelineConfig(detector=DetectorConfig(name="ocsvm", params={"nu": 1.0}))
        )
        assert len(scores) == 40
        assert scores.ftc_count == 0

    def test_identical_member_ensemble_matches_single(self):
        ds = _toy_dataset()
        single = run_pipeline(ds, PipelineConfig())
        pair = DetectorConfig(
            name="ensemble",
            members=(DetectorConfig(name="manhattan"), DetectorConfig(name="manhattan")),
        )
        joint = run_pipeline(ds, PipelineConfig(detector=pair))
        via_norm = run_pipeline(
            ds, PipelineConfig(detector=pair, ensemble_normalized=True)
        )
        for a, b, c in zip(single.records, joint.records, via_norm.records):
            assert a.raw_score == pytest.approx(b.raw_score)
            assert a.normalized_score == pytest.approx(b.normalized_score)
            assert a.normalized_score == pytest.approx(c.normalized_score)

    @pytest.mark.parametrize("ensemble_normalized", [False, True])
    @pytest.mark.parametrize(
        "members",
        [
            (DetectorConfig(name="autoencoder", params={"epochs": 8}),) * 2,
            (DetectorConfig(name="manhattan"), DetectorConfig(name="manhattan", params={"scaled": True})),
        ],
        ids=["autoencoders", "manhattans"],
    )
    def test_ensemble_averages_member_scores(self, small_dataset, members, ensemble_normalized):
        config = PipelineConfig(
            detector=DetectorConfig(name="ensemble", members=members),
            ensemble_normalized=ensemble_normalized,
            seed=5,
        )
        prepared = evaluation.prepare(small_dataset, config)
        # member i is fitted on its own with the subject's seed + 1 + i
        member_scores = [
            _per_subject_scores(prepared, config, member, seed_offset=1 + i)
            for i, member in enumerate(members)
        ]
        assert member_scores[0] != member_scores[1]
        mean = [float(np.mean(pair)) for pair in zip(*member_scores)]
        scores = run_pipeline(small_dataset, config)
        assert not any(r.flagged for r in scores)
        assert np.array(mean).tobytes() == np.array([r.raw_score for r in scores]).tobytes()

        def per_subject(values):
            out, start = [], 0
            for p in prepared:
                stop = start + len(p.query_ids)
                out.extend(normalize_sd(values[start:stop]))
                start = stop
            return out

        if ensemble_normalized:
            expected = [float(np.mean(pair)) for pair in zip(*map(per_subject, member_scores))]
        else:
            expected = per_subject(mean)
        assert expected == [r.normalized_score for r in scores]

    @pytest.mark.parametrize("ensemble_normalized", [False, True])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_ensemble_mean_overflow_is_flagged(self, monkeypatch, ensemble_normalized):
        # each member's score is finite, their sum is not
        monkeypatch.setattr(
            ManhattanDetector, "score_all", lambda self, queries: np.full(len(queries), -1.7e308)
        )
        pair = DetectorConfig(
            name="ensemble",
            members=(DetectorConfig(name="manhattan"), DetectorConfig(name="manhattan")),
        )
        config = PipelineConfig(
            detector=pair,
            ensemble_normalized=ensemble_normalized,
            score_norm=ScoreNormConfig(kind="minmax"),
        )
        scores = run_pipeline(_toy_dataset(), config)
        assert len(scores) == 8
        assert all(r.flagged for r in scores)
        assert all(r.raw_score == SENTINEL_SCORE for r in scores)
        assert all(r.normalized_score == 0.0 for r in scores)

    def test_non_finite_scores_are_flagged(self, monkeypatch):
        def score_all(self, queries):
            out = -np.arange(len(queries), dtype=np.float64)
            out[:2] = np.nan, np.inf
            return out

        monkeypatch.setattr(ManhattanDetector, "score_all", score_all)
        config = PipelineConfig(score_norm=ScoreNormConfig(kind="minmax"))
        for records in by_subject(run_pipeline(_toy_dataset(), config)).values():
            assert [r.flagged for r in records] == [True, True, False, False]
            assert [r.raw_score for r in records] == [SENTINEL_SCORE] * 2 + [-2.0, -3.0]
            assert [r.normalized_score for r in records] == [0.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("ensemble_normalized", [None, False, True])
    def test_subject_with_one_live_score_is_flagged_under_sd(self, ensemble_normalized):
        # sd normalization needs 2 live scores; s1 keeps 1 of its 4 queries
        config = PipelineConfig()
        if ensemble_normalized is not None:
            pair = (DetectorConfig(name="manhattan"), DetectorConfig(name="ocsvm"))
            config = PipelineConfig(
                detector=DetectorConfig(name="ensemble", members=pair),
                ensemble_normalized=ensemble_normalized,
            )
        ds = _toy_dataset()
        s1 = ds.subjects["s1"]
        s1.queries = [
            q if q.sample_id == "i1" else replace(q, sequence=seq())
            for q in s1.queries
        ]
        scores = by_subject(run_pipeline(ds, config))
        assert [r.flagged for r in scores["s1"]] == [True] * 4
        assert [r.raw_score for r in scores["s1"]] == [SENTINEL_SCORE] * 4
        assert [r.normalized_score for r in scores["s1"]] == [0.0] * 4
        # every other subject is scored as if s1 were intact
        assert scores["s2"] == by_subject(run_pipeline(_toy_dataset(), config))["s2"]

    @pytest.mark.parametrize("ensemble_normalized", [False, True])
    def test_flagged_ensemble_record_keeps_sentinel_under_none(self, ensemble_normalized):
        ds = _toy_dataset()
        ds.add(Sample("s1", "qz", Role.QUERY, seq(), Label.GENUINE))
        pair = DetectorConfig(
            name="ensemble",
            members=(DetectorConfig(name="manhattan"), DetectorConfig(name="ocsvm")),
        )
        config = PipelineConfig(
            detector=pair,
            ensemble_normalized=ensemble_normalized,
            score_norm=ScoreNormConfig(kind="none"),
        )
        scores = run_pipeline(ds, config)
        assert [r.sample_id for r in scores if r.flagged] == ["qz"]
        # under "none" every normalized score is the raw one, the
        # sentinel of the flagged record included
        assert [r.normalized_score for r in scores] == [r.raw_score for r in scores]
        assert [r.normalized_score for r in scores if r.flagged] == [SENTINEL_SCORE]

    @pytest.mark.parametrize(
        "cls, data, message",
        [
            (PipelineConfig, {"alignmnet": "truncate"}, "unknown PipelineConfig key(s): alignmnet"),
            (PipelineConfig, {"score_norm": {"hs": 1.0}}, "unknown ScoreNormConfig key(s): hs"),
            (PipelineConfig, {"detector": {"nme": "ocsvm"}}, "unknown DetectorConfig key(s): nme"),
            (DetectorConfig, {"name": "ocsvm", "param": {}}, "unknown DetectorConfig key(s): param"),
            (ScoreNormConfig, {"kind": "sd", "h": 1.0, "g": 2}, "unknown ScoreNormConfig key(s): g, h"),
            (SynthConfig, {"n_subject": 3}, "unknown SynthConfig key(s): n_subject"),
            # ill-typed values, one row per kind of field
            (
                PipelineConfig,
                {"ensemble_normalized": "false"},
                "PipelineConfig.ensemble_normalized: expected true or false, got 'false'",
            ),
            (PipelineConfig, {"seed": 1.7}, "PipelineConfig.seed: expected an integer, got 1.7"),
            (SynthConfig, {"seed": True}, "SynthConfig.seed: expected an integer, got True"),
            (SynthConfig, {"n_subjects": "5"}, "SynthConfig.n_subjects: expected an integer, got '5'"),
            (PipelineConfig, {"h_f": True}, "PipelineConfig.h_f: expected a finite number, got True"),
            (SynthConfig, {"shift_drop": "0.1"}, "SynthConfig.shift_drop: expected a finite number, got '0.1'"),
            (PipelineConfig, {"h_f": math.nan}, "PipelineConfig.h_f: expected a finite number, got nan"),
            (PipelineConfig, {"h_f": 2**1024}, f"PipelineConfig.h_f: expected a finite number, got {2**1024}"),
            (
                PipelineConfig,
                {"score_norm": {"h_s": math.inf}},
                "ScoreNormConfig.h_s: expected a finite number, got inf",
            ),
            (PipelineConfig, {"alignment": 1}, "PipelineConfig.alignment: expected a string, got 1"),
            (SynthConfig, {"name_length": 7}, "SynthConfig.name_length: expected a list of 2, got 7"),
            (
                SynthConfig,
                {"genuine_queries": [1, 2, 3]},
                "SynthConfig.genuine_queries: expected a list of 2, got [1, 2, 3]",
            ),
            (
                DetectorConfig,
                {"name": "ensemble", "members": {"name": "manhattan"}},
                "DetectorConfig.members: expected a list, got {'name': 'manhattan'}",
            ),
            (PipelineConfig, {"detector": "manhattan"}, "PipelineConfig.detector: expected an object, got 'manhattan'"),
            (PipelineConfig, {"detector": {"params": [1, 2]}}, "DetectorConfig.params: expected an object, got [1, 2]"),
            (PipelineConfig, [1, 2], "PipelineConfig: expected an object, got list"),
            # removed settings are unknown keys, not silently ignored
            (PipelineConfig, {"per_position": True}, "unknown PipelineConfig key(s): per_position"),
            (PipelineConfig, {"merge_shift_keys": True}, "unknown PipelineConfig key(s): merge_shift_keys"),
        ],
    )
    def test_config_rejects_unknown_keys(self, cls, data, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            cls.from_dict(data)

    @pytest.mark.parametrize(
        "config",
        [
            PipelineConfig(),
            PipelineConfig(
                alignment="discard",
                h_f=2.5,
                detector=DetectorConfig(
                    name="ensemble",
                    members=(
                        DetectorConfig(name="autoencoder", params={"hidden_sizes": [4, 3]}),
                        DetectorConfig(name="manhattan", params={"scaled": True}),
                    ),
                ),
                score_norm=ScoreNormConfig(kind="minmax", h_s=1.5),
                ensemble_normalized=True,
                seed=7,
            ),
            ScoreNormConfig(kind="none"),
            DetectorConfig(name="ocsvm", params={"nu": 0.3}),
            SynthConfig(name_length=(8, 9), shift_drop=0.1, impostor_source="victim"),
        ],
    )
    def test_config_json_round_trip(self, config):
        assert type(config).from_dict(json.loads(json.dumps(config.to_dict()))) == config

    @pytest.mark.parametrize("ensemble_normalized", [False, True])
    @pytest.mark.parametrize("n_members", [0, 1])
    def test_ensemble_needs_two_members(self, n_members, ensemble_normalized):
        data = {
            "detector": {"name": "ensemble", "members": [{"name": "manhattan"}] * n_members},
            "ensemble_normalized": ensemble_normalized,
        }
        with pytest.raises(ValueError, match="at least 2 members"):
            PipelineConfig.from_dict(data)

    @pytest.mark.parametrize(
        "cls, name", [(PipelineConfig, "h_f"), (ScoreNormConfig, "h_s"), (SynthConfig, "impostor_separation")]
    )
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_widths_must_be_positive_and_finite(self, cls, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be (positive|finite), got {value}$"):
            cls(**{name: value})

    def test_ensemble_members_are_single_detectors(self):
        pair = DetectorConfig(
            name="ensemble",
            members=(DetectorConfig(name="manhattan"), DetectorConfig(name="ocsvm")),
        )
        with pytest.raises(ValueError, match="single detectors"):
            DetectorConfig(name="ensemble", members=(pair, DetectorConfig(name="manhattan")))


@pytest.fixture(scope="module")
def one_live_dataset(small_dataset):
    """small_dataset with every query of its first subject but one emptied:
    that subject keeps one live score, too few for sd normalization."""
    ds = SubjectDataset()
    first = small_dataset.subject_ids()[0]
    for sid, entry in small_dataset.subjects.items():
        for s in entry.templates:
            ds.add(s)
        for i, q in enumerate(sorted(entry.queries, key=lambda s: s.sample_id)):
            ds.add(q if sid != first or i == 0 else replace(q, sequence=seq()))
    return ds


def _record_bits(scores):
    return [
        (
            r.subject_id,
            r.sample_id,
            np.float64(r.raw_score).tobytes(),
            np.float64(r.normalized_score).tobytes(),
            r.label,
            r.flagged,
        )
        for r in scores
    ]


class TestStages:
    PAIR = DetectorConfig(
        name="ensemble", members=(DetectorConfig(name="manhattan"), DetectorConfig(name="ocsvm"))
    )

    @pytest.mark.parametrize("alignment", ["align", "truncate", "discard"])
    @pytest.mark.parametrize(
        "detector, ensemble_normalized",
        [
            (DetectorConfig(name="manhattan"), False),
            (DetectorConfig(name="autoencoder", params={"epochs": 8}), False),
            (PAIR, False),
            (PAIR, True),
        ],
        ids=["manhattan", "autoencoder", "ensemble-raw", "ensemble-normalized"],
    )
    def test_every_norm_of_one_fit_equals_run_pipeline(
        self, one_live_dataset, alignment, detector, ensemble_normalized
    ):
        # how ablate fills one grid row: prepare and fit once, normalize per kind
        config = PipelineConfig(
            alignment=alignment, detector=detector, ensemble_normalized=ensemble_normalized
        )
        prepared = evaluation.prepare(one_live_dataset, config)
        raws = evaluation.raw_scores(prepared, config)
        n_queries = sum(len(e.queries) for e in one_live_dataset.subjects.values())
        first = one_live_dataset.subject_ids()[0]
        # sd first: it flags the first subject whole, which must not leak
        # into the raw scores the later kinds read
        for kind in ("sd", "minmax", "none"):
            cell = replace(config, score_norm=ScoreNormConfig(kind=kind))
            scores = evaluation.normalize_scores(prepared, raws, cell)
            assert _record_bits(scores) == _record_bits(run_pipeline(one_live_dataset, cell))
            assert len(scores) == n_queries
            live = [not r.flagged for r in by_subject(scores)[first]]
            assert sum(live) == (0 if kind == "sd" else 1)
            for r in scores:
                assert r.flagged == (r.raw_score == SENTINEL_SCORE)
                if kind == "none":
                    assert r.normalized_score == r.raw_score
                else:
                    assert 0.0 <= r.normalized_score <= 1.0


class TestSplitFits:
    """raw_scores fits and scores the subjects of an opted-in detector
    across processes, share 0 in this process and each other in a forked
    child, and leaves no child behind; the bits must not depend on how
    many shares there are."""

    CONTRACTIVE = DetectorConfig(name="contractive", params={"hidden_dim": 20, "epochs": 30})
    VARIATIONAL = DetectorConfig(name="variational", params={"epochs": 30})
    WORKERS = (1, 2, 3)

    @pytest.fixture(scope="class")
    def mixed_dataset(self, small_dataset):
        """small_dataset with one template dropped from its third and fourth
        subjects, so each member fits two groups, and every template
        dropped from its sixth, so that subject's preparation fails."""
        dataset = SubjectDataset()
        for n, sid in enumerate(small_dataset.subject_ids()):
            entry = small_dataset.subjects[sid]
            templates = sorted(entry.templates, key=lambda s: s.sample_id)
            keep = {2: 3, 3: 3, 5: 0}.get(n, len(templates))
            for s in [*templates[:keep], *entry.queries]:
                dataset.add(s)
        return dataset

    @staticmethod
    def _raws(prepared, config, monkeypatch):
        """raw_scores at each share count, checked bit-equal; each count
        of w shares forks w - 1 children where this process can fork."""
        runs, forks = {}, []
        for w in TestSplitFits.WORKERS:
            monkeypatch.setattr(_processes, "cpu_count", lambda: w)
            with counted_forks() as pids:
                runs[w] = evaluation.raw_scores(prepared, config)
            forks.append(len(pids))
        assert forks == [w - 1 if _processes._CAN_FORK else 0 for w in TestSplitFits.WORKERS]
        assert_no_child_left()
        for w in TestSplitFits.WORKERS[1:]:
            for a, b in zip(runs[1], runs[w], strict=True):
                assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))
        return runs

    @pytest.mark.parametrize(
        "detector",
        [
            CONTRACTIVE,
            DetectorConfig(name="autoencoder", params={"epochs": 30}),
            DetectorConfig(name="ensemble", members=(DetectorConfig(name="manhattan"), CONTRACTIVE)),
        ],
        ids=["contractive", "autoencoder", "ensemble"],
    )
    def test_raw_scores_do_not_depend_on_the_worker_count(self, small_dataset, detector, monkeypatch):
        config = PipelineConfig(detector=detector)
        prepared = evaluation.prepare(small_dataset, config)
        assert len({p.template_matrix.shape[0] for p in prepared}) == 1  # one group of 6
        self._raws(prepared, config, monkeypatch)

    @pytest.mark.parametrize(
        "detector",
        [
            VARIATIONAL,
            DetectorConfig(
                name="ensemble", members=(DetectorConfig(name="manhattan"), VARIATIONAL, CONTRACTIVE)
            ),
        ],
        ids=["variational", "ensemble"],
    )
    def test_shares_of_two_groups_and_a_failed_subject_keep_the_bits(self, mixed_dataset, detector, monkeypatch):
        config = PipelineConfig(detector=detector)
        prepared = evaluation.prepare(mixed_dataset, config)
        counts = [None if p.template_matrix is None else p.template_matrix.shape[0] for p in prepared]
        assert counts == [4, 4, 3, 3, 4, None]
        subjects = self._raws(prepared, config, monkeypatch)[1]
        assert all(np.isfinite(scores).all() for members in subjects[:5] for scores in members)
        assert all((scores == SENTINEL_SCORE).all() for scores in subjects[5])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_failed_fit_fails_alike_in_every_split(self, small_dataset, monkeypatch):
        config = PipelineConfig(detector=self.CONTRACTIVE)
        prepared = evaluation.prepare(small_dataset, config)
        prepared[2] = replace(prepared[2], template_matrix=prepared[2].template_matrix.copy())
        prepared[2].template_matrix[0, 0] = 1e200  # the first loss overflows
        fits = []
        fit_group = ContractiveAutoencoder.fit_group.__func__

        def recording(cls, detectors, templates):
            errors = fit_group(cls, detectors, templates)
            fits.append(list(zip(detectors, errors)))
            return errors

        monkeypatch.setattr(ContractiveAutoencoder, "fit_group", classmethod(recording))
        for w in self.WORKERS:
            for k in range(w):  # the share that process k of w fits and scores
                indices = range(len(prepared))[k::w]
                fits.clear()
                scores = evaluation._score_subjects(prepared[k::w], config)
                [group] = fits  # every subject has 6 templates
                assert [(type(e), str(e)) for _, e in group] == [
                    (TrainingError, "non-finite loss at epoch 0") if i == 2 else (type(None), "None")
                    for i in indices
                ]
                assert [d.params_ is None for d, _ in group] == [i == 2 for i in indices]
                assert [bool((s == SENTINEL_SCORE).all()) for [s] in scores] == [i == 2 for i in indices]
        records = {
            w: _record_bits(evaluation.normalize_scores(prepared, raws, config))
            for w, raws in self._raws(prepared, config, monkeypatch).items()
        }
        assert records[1] == records[2] == records[3]
        assert {r[0] for r in records[1] if r[5]} == {prepared[2].subject_id}

    def test_an_exception_from_a_fit_arrives_as_raised(self, small_dataset, monkeypatch):
        def fail(cls, detectors, templates):
            raise TrainingError("no fit today")

        config = PipelineConfig(detector=self.CONTRACTIVE)
        prepared = evaluation.prepare(small_dataset, config)
        monkeypatch.setattr(ContractiveAutoencoder, "fit_group", classmethod(fail))
        for w in self.WORKERS:
            monkeypatch.setattr(_processes, "cpu_count", lambda: w)
            with pytest.raises(TrainingError) as info:
                evaluation.raw_scores(prepared, config)
            assert type(info.value) is TrainingError and str(info.value) == "no fit today"
            assert_no_child_left()

    def test_fitted_detectors_never_cross_a_process_boundary(self, small_dataset, monkeypatch):
        def refuse(detector):
            raise pickle.PicklingError("a fitted detector was pickled")

        monkeypatch.setattr(ContractiveAutoencoder, "__reduce__", refuse, raising=False)
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(ContractiveAutoencoder())
        config = PipelineConfig(detector=self.CONTRACTIVE)
        self._raws(evaluation.prepare(small_dataset, config), config, monkeypatch)

    def test_only_detectors_that_gain_fit_across_processes(self):
        from keygait.detectors import _CLASSES

        assert {n for n, c in _CLASSES.items() if c.fit_across_processes} == {
            "autoencoder",
            "contractive",
            "variational",
        }


class TestMonteCarlo:
    def test_deterministic_and_shaped(self, small_dataset):
        config = replace(PipelineConfig(), seed=5)
        a = monte_carlo_validate(small_dataset, config, repetitions=2)
        b = monte_carlo_validate(small_dataset, config, repetitions=2)
        assert a == b
        assert len(a.eers) == 2
        assert a.mean_eer == pytest.approx(float(np.mean(a.eers)))
        assert a.sd_eer == pytest.approx(float(np.std(a.eers)))

    def test_seed_changes_splits(self, small_dataset):
        config = PipelineConfig()
        a = monte_carlo_validate(small_dataset, replace(config, seed=5), repetitions=2)
        b = monte_carlo_validate(small_dataset, replace(config, seed=6), repetitions=2)
        assert a.eers != b.eers

    def test_unlabeled_sample_rejected(self):
        ds = _toy_dataset()
        ds.add(Sample("s1", "qq", Role.QUERY, _mkseq("abcd")))
        with pytest.raises(EvaluationError, match="unlabeled"):
            monte_carlo_validate(ds, PipelineConfig(), repetitions=1)

    def test_too_few_genuine_rejected(self, small_dataset):
        with pytest.raises(EvaluationError, match="need at least"):
            monte_carlo_validate(
                small_dataset, PipelineConfig(), repetitions=1, n_templates=50
            )

    def test_repetitions_validated(self, small_dataset):
        with pytest.raises(EvaluationError):
            monte_carlo_validate(small_dataset, PipelineConfig(), repetitions=0)

    @pytest.mark.parametrize("repetitions", [10_001, 10**29])
    def test_repetitions_above_ten_thousand_rejected(self, repetitions):
        # checked before the dataset is read: an empty one would fail later
        message = f"repetitions must be at most 10000, got {repetitions}"
        with pytest.raises(EvaluationError, match=rf"^{re.escape(message)}$"):
            monte_carlo_validate(SubjectDataset(), PipelineConfig(), repetitions=repetitions)

    @pytest.mark.parametrize("n_templates", [0, -1])
    def test_n_templates_validated(self, small_dataset, n_templates):
        message = f"n_templates must be positive, got {n_templates}"
        with pytest.raises(EvaluationError, match=rf"^{re.escape(message)}$"):
            monte_carlo_validate(
                small_dataset, PipelineConfig(), repetitions=1, n_templates=n_templates
            )


def _outcome(compute):
    """What ``compute()`` returns, as bits where it is a float, or the
    message of the EvaluationError it raises."""
    try:
        value = compute()
    except EvaluationError as exc:
        return "error", str(exc)
    return "ok", np.float64(value).tobytes() if isinstance(value, float) else value


# a raw score: finite, with ties and signed zeros, or one a detector can
# give that stage 3 flags
_RAW = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, -math.inf, math.inf, math.nan]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
_IDS = st.text("ab1_", min_size=1, max_size=3)


@st.composite
def _stage2(draw):
    """Stage 1 and 2 results as ``prepare`` orders them, with the config
    that normalizes them: one detector or a two-member ensemble, under
    every score normalization. Labels are drawn per query; most subjects
    get both classes, and some draws leave one record unlabeled."""
    n_members = draw(st.sampled_from([1, 2]))
    prepared, raws = [], []
    for subject_id in sorted(draw(st.sets(_IDS, min_size=1, max_size=4))):
        query_ids = sorted(draw(st.sets(_IDS, min_size=2, max_size=6)))
        n = len(query_ids)
        labels = draw(st.lists(st.sampled_from(Label), min_size=n, max_size=n))
        if draw(st.integers(0, 7)):  # mostly both classes
            labels[0] = Label.IMPOSTOR if labels[-1] is Label.GENUINE else Label.GENUINE
        prepared.append(evaluation.PreparedSubject(subject_id, query_ids, labels))
        raws.append([np.array(draw(st.lists(_RAW, min_size=n, max_size=n)), np.float64) for _ in range(n_members)])
    if not draw(st.integers(0, 7)):
        p = draw(st.sampled_from(prepared))
        p.query_labels[draw(st.integers(0, len(p.query_ids) - 1))] = None
    norm = ScoreNormConfig(kind=draw(st.sampled_from(["none", "minmax", "sd"])))
    if n_members == 1:
        config = PipelineConfig(score_norm=norm)
    else:
        config = PipelineConfig(
            detector=TestStages.PAIR, score_norm=norm, ensemble_normalized=draw(st.booleans())
        )
    return prepared, raws, config


class TestColumnScorePath:
    """The column path from stage 3 to the score files and EERs equals the
    record-at-a-time reference of ``oracles``."""

    @given(_stage2(), st.randoms(use_true_random=False))
    def test_matches_the_record_reference(self, stage2, random):
        prepared, raws, config = stage2
        with np.errstate(invalid="ignore"):  # an ensemble mean of inf and -inf is NaN
            scores = evaluation.normalize_scores(prepared, raws, config)
            expected = reference_normalize_scores(prepared, raws, config)
        assert _record_bits(scores) == _record_bits(expected)
        assert scores.ftc_count == sum(r.flagged for r in expected)

        written = written_scores(scores)
        expected_written = reference_written_scores(expected)
        assert _record_bits(written) == _record_bits(expected_written)
        for ours, theirs in ((scores, expected), (written, expected_written)):
            assert _outcome(lambda: global_eer(ours)) == _outcome(lambda: reference_global_eer(theirs))
            report = _outcome(lambda: subject_eer(ours))
            if report[0] == "ok":
                report = "ok", (report[1].per_subject, report[1].mean, report[1].sd)
            assert report == _outcome(lambda: reference_subject_eer(theirs))

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.tsv"
            for normalized in (False, True):
                write_scores(scores, path, normalized=normalized)
                text = reference_write_scores(expected, normalized=normalized)
                assert path.read_text() == text
            # a score file in any row order reads back in (subject, sample) order
            lines = text.splitlines(keepends=True)
            random.shuffle(lines)
            path.write_text("".join(lines))
            back = read_scores(path)
        bare = [replace(r, label=None, flagged=False) for r in expected]
        assert _record_bits(back) == _record_bits(reference_written_scores(bare))
        labels = {(r.subject_id, r.sample_id): r.label for r in expected if r.label is not None}
        unlabeled = [r for r in expected if r.label is None]
        if unlabeled:
            with pytest.raises(DatasetError) as err:
                attach_labels(back, labels)
            assert str(err.value) == f"no label for {unlabeled[0].subject_id}/{unlabeled[0].sample_id}"
            return
        back = attach_labels(back, labels)
        expected_back = reference_written_scores(replace(r, flagged=False) for r in expected)
        assert _record_bits(back) == _record_bits(expected_back)
        assert _outcome(lambda: global_eer(back)) == _outcome(lambda: global_eer(written))
        assert _outcome(lambda: subject_eer(back).per_subject) == _outcome(
            lambda: reference_subject_eer(expected_back)[0]
        )
