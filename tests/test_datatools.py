"""Dataset directory and TSV round-trips, the synthetic generator, and the
clock-resolution estimator."""

import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keygait import (
    DatasetError,
    KeystrokeSequence,
    Label,
    ResolutionError,
    Role,
    Sample,
    ScoreRecord,
    ScoreSet,
    SubjectDataset,
    SynthConfig,
    UnreleasedKeyWarning,
    attach_labels,
    collect_latencies,
    estimate_resolution,
    generate_synthetic,
    load_dataset,
    ordered_samples,
    read_labels,
    read_scores,
    write_dataset,
    write_labels,
    write_metrics,
    write_perturbations,
    write_scores,
)
from keygait.datasets import tsv
from keygait.events import check_id
from keygait.resolution import _find_peaks

from oracles import reference_find_peaks
from test_events import physical_sequences

TINY = SynthConfig(n_subjects=2, n_templates=3, genuine_queries=(2, 2), impostor_queries=(2, 2), seed=3)


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _accepted_id(value: str) -> bool:
    try:
        check_id("any", value)
    except ValueError:
        return False
    return True


# Any id check_id accepts, kept short: the file-name length limit belongs
# to the filesystem, not to the id rule.
ids = st.text(max_size=6).filter(_accepted_id)
# Line and field separators, each a character some flat file cannot carry.
ID_BREAKERS = ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestDatasetRoundTrip:
    def test_write_then_load_identical(self, small_dataset, tmp_path):
        root = tmp_path / "ds"
        write_dataset(small_dataset, root)
        loaded = load_dataset(root)
        assert loaded.subject_ids() == small_dataset.subject_ids()
        for sid in small_dataset.subject_ids():
            orig = small_dataset.subjects[sid]
            back = loaded.subjects[sid]
            assert back.templates == orig.templates
            assert back.queries == orig.queries

    @given(
        st.lists(
            st.tuples(ids, ids, st.sampled_from(Role), st.sampled_from([None, *Label]), physical_sequences()),
            max_size=6,
            unique_by=lambda row: row[:2],
        )
    )
    def test_any_accepted_ids_round_trip(self, rows):
        dataset = SubjectDataset()
        for subject_id, sample_id, role, label, sequence in rows:
            if role is Role.TEMPLATE and label is Label.IMPOSTOR:
                label = None  # a template is genuine by construction
            dataset.add(Sample(subject_id, sample_id, role, sequence, label))
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore", UnreleasedKeyWarning)
            write_dataset(dataset, tmp)
            loaded = load_dataset(tmp)

        def contents(ds):
            return {(s.subject_id, s.sample_id): (s.role, s.label, s.sequence) for s in ordered_samples(ds)}

        assert contents(loaded) == contents(dataset)

    def test_rewrite_is_byte_identical(self, small_dataset, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        write_dataset(small_dataset, a)
        write_dataset(load_dataset(a), b)
        assert tree_bytes(a) == tree_bytes(b)

    def test_withheld_label_round_trips_as_none(self, tmp_path):
        dataset, _ = generate_synthetic(TINY)
        entry = dataset.subjects["s001"]
        entry.queries[0] = replace(entry.queries[0], label=None)
        root = tmp_path / "ds"
        write_dataset(dataset, root)
        manifest = (root / "manifest.tsv").read_text()
        assert "\t?" in manifest
        loaded = load_dataset(root)
        assert loaded.subjects["s001"].queries[0].label is None

    def test_subject_named_like_the_manifest_is_refused_before_writing(self, tmp_path):
        dataset = SubjectDataset()
        dataset.add(Sample("manifest.tsv", "t01", Role.TEMPLATE, KeystrokeSequence(())))
        root = tmp_path / "ds"
        with pytest.raises(DatasetError, match="subject id 'manifest.tsv'"):
            write_dataset(dataset, root)
        assert not root.exists()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="no manifest.tsv"):
            load_dataset(tmp_path)

    def test_bad_header(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text("subject\tsample\trole\tlabel\n")
        with pytest.raises(DatasetError, match="first line"):
            load_dataset(tmp_path)

    def test_all_manifest_problems_reported_together(self, tmp_path):
        dataset, _ = generate_synthetic(TINY)
        root = tmp_path / "ds"
        write_dataset(dataset, root)
        manifest = root / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        lines.append("s001\tq01\tquery\tgenuine")  # duplicate of an existing row
        lines.append("s001\tzz9\tquery\tgenuine")  # no event file on disk
        lines.append("s001\tq01\tjudge\tgenuine")  # unknown role
        lines.append("s001\tq01\tquery\tmaybe")  # unknown label
        lines.append("s001\tq01\tquery")  # short row
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(root)
        message = str(err.value)
        assert "5 problem(s)" in message
        for needle in ("duplicate sample", "zz9", "unknown role", "unknown label", "expected 4 fields"):
            assert needle in message


    def test_bad_event_files_reported_together(self, tmp_path):
        dataset, _ = generate_synthetic(TINY)
        root = tmp_path / "ds"
        write_dataset(dataset, root)
        (root / "s001" / "t01.txt").write_text("P -1 0\nR -1 5\n")
        (root / "s002" / "q01.txt").write_text("P 1e 0\nR 30 5\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(root)
        message = str(err.value)
        assert "2 problem(s)" in message
        assert f"{root / 's001' / 't01.txt'}: line 1: bad scancode '-1'" in message
        assert f"{root / 's002' / 'q01.txt'}: release of" in message

    def test_delta_past_bound_is_reported_with_its_file(self, tmp_path):
        dataset, _ = generate_synthetic(TINY)
        root = tmp_path / "ds"
        write_dataset(dataset, root)
        huge = "9" * 401
        (root / "s001" / "q01.txt").write_text(f"P 1e 0\nR 1e {huge}\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(root)
        assert str(err.value).endswith(f"{root / 's001' / 'q01.txt'}: line 2: bad delta {huge!r}")


    @pytest.mark.parametrize("column", ["subject", "sample"])
    @pytest.mark.parametrize(
        "bad", ["", ".", "..", "../../outside", "a\\b", "a\0b", *(f"t{ch}1" for ch in ID_BREAKERS)]
    )
    def test_ids_must_be_plain_file_names(self, column, bad):
        ids = {"subject": "s1", "sample": "t1", column: bad}
        with pytest.raises(ValueError) as err:
            Sample(ids["subject"], ids["sample"], Role.TEMPLATE, KeystrokeSequence(()))
        assert str(err.value) == f"bad {column} id {bad!r}: not a plain file name"

    def test_manifest_ids_stay_inside_the_dataset(self, tmp_path):
        dataset, _ = generate_synthetic(TINY)
        root = tmp_path / "data" / "ds"
        write_dataset(dataset, root)
        # where "s001/../../outside.txt" points: a file that would be listed
        # as a parse problem if it were opened
        (tmp_path / "data" / "outside.txt").write_text("not a capture\n")
        manifest = root / "manifest.tsv"
        n_lines = len(manifest.read_text().splitlines())
        bad_rows = ["s001\t../../outside\tquery\tgenuine", "..\tq01\tquery\tgenuine", "s001\t\tquery\tgenuine"]
        manifest.write_text(manifest.read_text() + "\n".join(bad_rows) + "\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(root)
        assert str(err.value).splitlines() == [
            f"3 problem(s) loading {root}:",
            f"{manifest}:{n_lines + 1}: bad sample id '../../outside': not a plain file name",
            f"{manifest}:{n_lines + 2}: bad subject id '..': not a plain file name",
            f"{manifest}:{n_lines + 3}: bad sample id '': not a plain file name",
        ]


class TestScoreAndLabelFiles:
    def test_score_round_trip_at_six_decimals(self, tmp_path):
        scores = ScoreSet(
            (
                ScoreRecord("s1", "q1", 0.1234567),
                ScoreRecord("s1", "q2", -3.5),
                ScoreRecord("s2", "q1", float("-inf")),
            )
        )
        path = tmp_path / "scores.tsv"
        write_scores(scores, path)
        back = read_scores(path)
        assert [r.raw_score for r in back] == [pytest.approx(0.123457, abs=1e-12), -3.5, float("-inf")]
        assert [(r.subject_id, r.sample_id) for r in back] == [("s1", "q1"), ("s1", "q2"), ("s2", "q1")]

    @given(
        st.dictionaries(
            st.tuples(ids, ids),
            st.floats(allow_nan=False, allow_infinity=False) | st.just(-math.inf),
            max_size=6,
        )
    )
    def test_any_accepted_ids_score_round_trip(self, scores):
        records = tuple(ScoreRecord(s, q, v) for (s, q), v in scores.items())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.tsv"
            write_scores(ScoreSet(records), path)
            back = {(r.subject_id, r.sample_id): r.raw_score for r in read_scores(path)}
        # six-decimal text; -inf stays -inf
        assert back == {key: float(f"{v:.6f}") for key, v in scores.items()}

    @given(st.dictionaries(st.tuples(ids, ids), st.sampled_from(Label), max_size=6))
    def test_any_accepted_ids_label_round_trip(self, labels):
        records = [ScoreRecord(s, q, 0.0, label=label) for (s, q), label in labels.items()]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.tsv"
            write_labels(records, path)
            assert read_labels(path) == labels

    def test_normalized_written_when_present(self, tmp_path):
        rec = ScoreRecord("s1", "q1", -7.0, normalized_score=0.25)
        path = tmp_path / "scores.tsv"
        write_scores(ScoreSet((rec,)), path)
        assert path.read_text() == "s1\tq1\t0.250000\n"
        write_scores(ScoreSet((rec,)), path, normalized=False)
        assert path.read_text() == "s1\tq1\t-7.000000\n"

    def test_tsv_formats_floats_and_infinities(self):
        assert tsv([(float("-inf"),)]) == "-inf\n"
        assert tsv([(float("inf"),)]) == "inf\n"
        assert tsv([(1.5,)]) == "1.500000\n"

    def test_read_scores_rejects_short_rows(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("s1\tq1\n")
        with pytest.raises(DatasetError, match="expected 3 fields"):
            read_scores(path)

    def test_read_scores_rejects_bad_value(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("s1\tq1\tlow\n")
        with pytest.raises(DatasetError, match="bad score"):
            read_scores(path)

    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan", "inf", "+inf", "infinity"])
    def test_read_scores_rejects_nan_and_positive_infinity(self, tmp_path, token):
        # keygait writes a finite score or -inf, never NaN or +inf
        path = tmp_path / "scores.tsv"
        path.write_text(f"s1\tq1\t-inf\ns1\tq2\t{token}\n")
        with pytest.raises(DatasetError) as err:
            read_scores(path)
        assert str(err.value) == f"{path}:2: bad score {token!r}"
        path.write_text("s1\tq1\t-inf\n")
        assert [r.raw_score for r in read_scores(path)] == [float("-inf")]

    def test_read_scores_rejects_repeated_sample(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("s1\tq3\t0.5\ns2\tq3\t0.1\ns1\tq3\t0.5\ns1\tq3\t0.5\n")
        with pytest.raises(DatasetError) as err:
            read_scores(path)
        assert str(err.value) == f"{path}:3: duplicate sample s1/q3"

    def test_read_labels_rejects_repeated_sample(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("s1\tq1\tgenuine\ns2\tq1\timpostor\ns1\tq1\timpostor\n")
        with pytest.raises(DatasetError) as err:
            read_labels(path)
        assert str(err.value) == f"{path}:3: duplicate sample s1/q1"

    def test_label_round_trip_and_attach(self, tmp_path):
        scores = ScoreSet(
            (
                ScoreRecord("s1", "q1", 0.5, label=Label.GENUINE),
                ScoreRecord("s1", "q2", 0.5, label=Label.IMPOSTOR),
            )
        )
        path = tmp_path / "labels.tsv"
        write_labels(scores, path)
        labels = read_labels(path)
        assert labels == {("s1", "q1"): Label.GENUINE, ("s1", "q2"): Label.IMPOSTOR}
        bare = ScoreSet(tuple(replace(r, label=None) for r in scores))
        assert [r.label for r in attach_labels(bare, labels)] == [Label.GENUINE, Label.IMPOSTOR]

    def test_write_labels_requires_labels(self, tmp_path):
        with pytest.raises(DatasetError, match="no label"):
            write_labels(ScoreSet((ScoreRecord("s1", "q1", 0.5),)), tmp_path / "x.tsv")

    def test_attach_labels_missing_entry(self):
        scores = ScoreSet((ScoreRecord("s1", "q9", 0.5),))
        with pytest.raises(DatasetError, match="s1/q9"):
            attach_labels(scores, {})

    def test_read_labels_rejects_unknown(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("s1\tq1\tmaybe\n")
        with pytest.raises(DatasetError, match="unknown label"):
            read_labels(path)

    def test_write_metrics_formats(self, tmp_path):
        path = tmp_path / "metrics.tsv"
        write_metrics({"global_eer": 0.0653, "n_scores": 1800, "note": "ok"}, path)
        assert path.read_text() == "global_eer\t0.065300\nn_scores\t1800\nnote\tok\n"


class TestSynthesis:
    def test_same_seed_same_bytes(self, tmp_path):
        config = SynthConfig(n_subjects=3, shift_drop=0.1, hesitation_rate=0.2, seed=9)
        a, b = tmp_path / "a", tmp_path / "b"
        for root in (a, b):
            dataset, log = generate_synthetic(config)
            write_dataset(dataset, root)
            write_labels(ordered_samples(dataset), root / "ground_truth.tsv")
            write_perturbations(log, root / "perturbations.tsv")
        assert tree_bytes(a) == tree_bytes(b)

    def test_subject_stream_independent_of_population_size(self):
        few, _ = generate_synthetic(replace(TINY, n_subjects=2))
        many, _ = generate_synthetic(replace(TINY, n_subjects=5))
        for sid in ("s001", "s002"):
            assert many.subjects[sid].templates == few.subjects[sid].templates
            assert many.subjects[sid].queries == few.subjects[sid].queries

    def test_seed_changes_output(self):
        a, _ = generate_synthetic(TINY)
        b, _ = generate_synthetic(replace(TINY, seed=4))
        assert a.subjects["s001"].templates != b.subjects["s001"].templates

    def test_counts_and_labels(self):
        dataset, _ = generate_synthetic(TINY)
        assert dataset.subject_ids() == ["s001", "s002"]
        for sid in dataset.subject_ids():
            entry = dataset.subjects[sid]
            assert [s.sample_id for s in entry.templates] == ["t01", "t02", "t03"]
            assert [s.sample_id for s in entry.queries] == ["q01", "q02", "q03", "q04"]
            assert all(s.label is Label.GENUINE for s in entry.templates)
            labels = [s.label for s in entry.queries]
            assert labels.count(Label.GENUINE) == 2
            assert labels.count(Label.IMPOSTOR) == 2

    def test_clean_config_logs_nothing(self):
        _, log = generate_synthetic(TINY)
        assert log == []

    def test_perturbation_log_entries_are_consistent(self):
        config = replace(TINY, n_subjects=4, shift_drop=0.3, shift_transpose=0.2, capslock_sub=0.2, seed=21)
        dataset, log = generate_synthetic(config)
        assert log
        samples = {
            (sid, s.sample_id)
            for sid in dataset.subject_ids()
            for s in dataset.subjects[sid].templates + dataset.subjects[sid].queries
        }
        for record in log:
            assert record.kind in ("shift_drop", "shift_transpose", "capslock_sub")
            assert (record.subject_id, record.sample_id) in samples
            assert record.position >= 0

    def test_certain_capslock_replaces_every_shift(self):
        dataset, log = generate_synthetic(replace(TINY, capslock_sub=1.0))
        for sid in dataset.subject_ids():
            for s in dataset.subjects[sid].templates + dataset.subjects[sid].queries:
                keys = [k.key for k in s.sequence]
                assert "lshift" not in keys and "rshift" not in keys
                assert keys.count("capslock") == 2
        assert all(r.kind == "capslock_sub" for r in log)

    def test_certain_shift_drop_removes_both_shifts(self):
        dataset, log = generate_synthetic(replace(TINY, shift_drop=1.0))
        for sid in dataset.subject_ids():
            for s in dataset.subjects[sid].templates + dataset.subjects[sid].queries:
                assert all(k.key not in ("lshift", "rshift", "capslock") for k in s.sequence)
        assert all(r.kind == "shift_drop" for r in log)

    def test_quantized_clock_lands_on_lattice(self):
        dataset, _ = generate_synthetic(replace(TINY, clock_quantum_ms=40))
        for sid in dataset.subject_ids():
            for s in dataset.subjects[sid].templates + dataset.subjects[sid].queries:
                for k in s.sequence:
                    assert k.press_t % 40 == 0
                    assert k.release_t % 40 == 0

    def test_no_same_key_overlap_even_with_slow_modifiers(self):
        # long Shift holds must end before that Shift is pressed again,
        # or the event stream cannot be re-paired after serialization
        config = replace(TINY, n_subjects=6, modifier_between_sd=1.5, seed=7)
        dataset, _ = generate_synthetic(config)
        for sid in dataset.subject_ids():
            for s in dataset.subjects[sid].templates + dataset.subjects[sid].queries:
                last_release: dict[str, int] = {}
                for k in s.sequence:
                    assert last_release.get(k.key, -1) < k.press_t
                    last_release[k.key] = k.release_t

    def test_victim_impostors_type_the_victim_name(self):
        dataset, _ = generate_synthetic(replace(TINY, impostor_source="victim"))
        for sid in dataset.subject_ids():
            entry = dataset.subjects[sid]
            canonical = tuple(k.key for k in entry.templates[0].sequence)
            for s in entry.queries:
                assert tuple(k.key for k in s.sequence) == canonical

    def test_ground_truth_covers_all_samples(self, tmp_path):
        dataset, _ = generate_synthetic(TINY)
        path = tmp_path / "gt.tsv"
        write_labels(ordered_samples(dataset), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * (3 + 4)
        assert lines[0] == "s001\tt01\tgenuine"
        assert all(line.split("\t")[2] in ("genuine", "impostor") for line in lines)

    def test_ground_truth_requires_labels(self, tmp_path):
        dataset, _ = generate_synthetic(TINY)
        entry = dataset.subjects["s002"]
        entry.queries[1] = replace(entry.queries[1], label=None)
        with pytest.raises(DatasetError, match="s002/q02"):
            write_labels(ordered_samples(dataset), tmp_path / "gt.tsv")

    def test_perturbation_file_format(self, tmp_path):
        _, log = generate_synthetic(replace(TINY, shift_drop=1.0))
        path = tmp_path / "pert.tsv"
        write_perturbations(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "subject_id\tsample_id\tkind\tposition"
        assert len(lines) == len(log) + 1
        assert all(len(line.split("\t")) == 4 for line in lines[1:])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_subjects", 0),
            ("impostor_source", "other"),
            ("clock_quantum_ms", -1),
            ("impostor_separation", 0.0),
            ("impostor_separation", float("nan")),
            ("impostor_separation", float("inf")),
        ],
    )
    def test_config_validation(self, field, value):
        with pytest.raises(ValueError):
            SynthConfig(**{field: value})

    def test_config_dict_round_trip(self):
        config = replace(TINY, clock_quantum_ms=15, impostor_separation=0.5)
        assert SynthConfig.from_dict(config.to_dict()) == config


class TestResolution:
    def test_collect_latencies_counts(self, small_dataset):
        latencies = collect_latencies(small_dataset)
        expected = sum(
            max(0, len(s.sequence) - 1)
            for sid in small_dataset.subject_ids()
            for s in small_dataset.subjects[sid].templates + small_dataset.subjects[sid].queries
        )
        assert latencies.shape == (expected,)
        assert np.all(latencies >= 0)

    @pytest.mark.parametrize("quantum", [15, 40])
    def test_recovers_clock_quantum(self, quantum):
        dataset, _ = generate_synthetic(SynthConfig(n_subjects=8, clock_quantum_ms=quantum, seed=5))
        estimate = estimate_resolution(collect_latencies(dataset))
        assert abs(estimate - quantum) <= max(1.0, 0.1 * quantum)

    def test_too_few_values(self):
        with pytest.raises(ResolutionError, match="indeterminate"):
            estimate_resolution(np.array([120.0]))

    def test_single_mode_is_indeterminate(self):
        with pytest.raises(ResolutionError, match="indeterminate"):
            estimate_resolution(np.full(200, 130.0))

    def test_out_of_range_values_are_ignored(self):
        values = np.array([np.nan, np.inf, -5.0, 900.0, 120.0])
        with pytest.raises(ResolutionError, match="indeterminate"):
            estimate_resolution(values)

    @pytest.mark.parametrize("bandwidth", [0.0, float("nan")])
    def test_rejects_bad_parameters(self, bandwidth):
        with pytest.raises(ValueError):
            estimate_resolution(np.array([10.0, 20.0]), bandwidth=bandwidth)


# Densities built from runs of equal values, so plateaus, plateaus on an
# edge, all-equal arrays and lengths 0-3 all come up often.
_levels = st.one_of(st.integers(0, 3).map(float), st.floats(-10.0, 10.0))
_runs = st.lists(st.tuples(_levels, st.integers(1, 4)), max_size=8)


class TestPeakScan:
    @pytest.mark.parametrize(
        "x, height, expected",
        [
            ([0, 1, 1, 1, 0], 0.0, [2]),  # a plateau counts once, at its middle
            ([0, 1, 1, 0], 0.0, [1]),  # an even plateau's middle rounds down
            ([1, 1, 0, 2, 0], 0.0, [3]),  # a plateau on the left edge never counts
            ([0, 2, 0, 1, 1], 0.0, [1]),  # nor one on the right edge
            ([2, 0, 1, 0, 2], 0.0, [2]),  # nor an edge sample
            ([3, 3, 3], 0.0, []),
            ([0, 5, 0], 5.0, [1]),  # the height test is inclusive
            ([0, 5, 0], 5.5, []),
            ([], 0.0, []),
            ([7], 0.0, []),
            ([0, 7], 0.0, []),
        ],
    )
    def test_rules(self, x, height, expected):
        x = np.asarray(x, dtype=np.float64)
        assert _find_peaks(x, height).tolist() == expected
        assert reference_find_peaks(x, height).tolist() == expected

    @settings(max_examples=500)
    @given(_runs, st.data())
    def test_matches_scipy(self, runs, data):
        x = np.array([v for v, n in runs for _ in range(n)], dtype=np.float64)
        # a height equal to one of the values, a peak's included, or not
        height = data.draw(st.one_of(st.sampled_from(x.tolist() or [0.0]), _levels))
        got = _find_peaks(x, height)
        expected = reference_find_peaks(x, height)
        assert got.tolist() == expected.tolist()
        assert got.dtype == expected.dtype

