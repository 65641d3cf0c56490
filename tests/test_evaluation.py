import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from keygait import (
    DetectorConfig,
    EvaluationError,
    Keystroke,
    KeystrokeSequence,
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
    align_subject,
    build_detector,
    derive_seed,
    generate_synthetic,
    global_eer,
    monte_carlo_validate,
    roc,
    run_pipeline,
    subject_eer,
)
from keygait import evaluation
from keygait.evaluation import SENTINEL_SCORE
from keygait.scorenorm import normalize_minmax, normalize_sd

from oracles import reference_eer, reference_normalized_features


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
    t = 0
    ks = []
    for k in keys:
        ks.append(Keystroke(k, t, t + duration))
        t += gap
    return KeystrokeSequence(tuple(ks))


def _noisy_seq(rng, keys, gap_mu, dur_mu):
    # per-keystroke jitter; per-sample-constant timing would collapse the
    # fitted feature spread and clamp everything to the same vector
    t = 0
    ks = []
    for i, k in enumerate(keys):
        if i:
            t += max(1, int(round(rng.normal(gap_mu, 8))))
        d = max(1, int(round(rng.normal(dur_mu, 5))))
        ks.append(Keystroke(k, t, t + d))
    return KeystrokeSequence(tuple(ks))


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


def _prepared(dataset, config):
    return [
        evaluation._prepare_subject(
            sid,
            sorted(dataset.subjects[sid].templates, key=lambda s: s.sample_id),
            sorted(dataset.subjects[sid].queries, key=lambda s: s.sample_id),
            config,
        )
        for sid in dataset.subject_ids()
    ]


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
@pytest.mark.parametrize("per_position", [False, True])
@pytest.mark.parametrize("merge_shift_keys", [False, True])
def test_prepared_rows_match_per_sequence_features(
    small_dataset, alignment, per_position, merge_shift_keys
):
    config = PipelineConfig(
        alignment=alignment, per_position=per_position, merge_shift_keys=merge_shift_keys
    )
    for sid, p in zip(small_dataset.subject_ids(), _prepared(small_dataset, config)):
        entry = small_dataset.subjects[sid]
        templates = sorted(entry.templates, key=lambda s: s.sample_id)
        queries = sorted(entry.queries, key=lambda s: s.sample_id)
        aligned_t, aligned_q = align_subject(
            [s.sequence for s in templates],
            [s.sequence for s in queries],
            alignment,
            merge_shift_keys=merge_shift_keys,
        )
        assert None not in aligned_t and None not in aligned_q
        ref_t, ref_q = reference_normalized_features(
            aligned_t, aligned_q, h_f=config.h_f, per_position=per_position
        )
        assert p.template_matrix.tobytes() == np.stack(ref_t).tobytes()
        assert p.query_rows == list(range(len(ref_q)))
        assert p.query_matrix.tobytes() == np.stack(ref_q).tobytes()


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
        ds.add(Sample("s1", "qz", Role.QUERY, KeystrokeSequence(()), Label.GENUINE))
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
        ds.add(Sample("s1", "h0", Role.QUERY, KeystrokeSequence(()), Label.GENUINE))
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
        ds.add(Sample("s1", "t8", Role.TEMPLATE, KeystrokeSequence(())))
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
        prepared = _prepared(small_dataset, config)
        assert len({p.template_matrix.shape[1] for p in prepared}) > 1
        scores = run_pipeline(small_dataset, config)
        assert [r.raw_score for r in scores] == _per_subject_scores(prepared, config)

    @pytest.mark.parametrize("name", ["autoencoder", "variational"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_group_fit_isolates_a_diverging_subject(self, small_dataset, monkeypatch, name):
        config = PipelineConfig(detector=DetectorConfig(name=name, params={"epochs": 8}))
        prepared = _prepared(small_dataset, config)
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        for p in _prepared(dataset, config):
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
        prepared = _prepared(small_dataset, config)
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
        for records in run_pipeline(_toy_dataset(), config).by_subject().values():
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
            q if q.sample_id == "i1" else replace(q, sequence=KeystrokeSequence(()))
            for q in s1.queries
        ]
        scores = run_pipeline(ds, config).by_subject()
        assert [r.flagged for r in scores["s1"]] == [True] * 4
        assert [r.raw_score for r in scores["s1"]] == [SENTINEL_SCORE] * 4
        assert [r.normalized_score for r in scores["s1"]] == [0.0] * 4
        # every other subject is scored as if s1 were intact
        assert scores["s2"] == run_pipeline(_toy_dataset(), config).by_subject()["s2"]

    @pytest.mark.parametrize("ensemble_normalized", [False, True])
    def test_flagged_ensemble_record_keeps_sentinel_under_none(self, ensemble_normalized):
        ds = _toy_dataset()
        ds.add(Sample("s1", "qz", Role.QUERY, KeystrokeSequence(()), Label.GENUINE))
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
                {"per_position": "false", "merge_shift_keys": "no"},
                "PipelineConfig.per_position: expected true or false, got 'false'",
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
                per_position=True,
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

    @pytest.mark.parametrize("n_templates", [0, -1])
    def test_n_templates_validated(self, small_dataset, n_templates):
        message = f"n_templates must be positive, got {n_templates}"
        with pytest.raises(EvaluationError, match=rf"^{re.escape(message)}$"):
            monte_carlo_validate(
                small_dataset, PipelineConfig(), repetitions=1, n_templates=n_templates
            )
