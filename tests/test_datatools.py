"""Dataset directory and TSV round-trips, the synthetic generator, and the
clock-resolution estimator."""

import copy
import gc
import math
import os
import pickle
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from keygait import (
    DatasetError,
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
from keygait import _processes, datasets, synthesis
from keygait.datasets import tsv, written_scores
from keygait.events import check_id, read_sequence, serialize_events
from keygait.scancodes import MODIFIER_KEYS, SHIFT_KEYS
from keygait.synthesis import _make_name, _make_profile, _perturb, _time_keys

from oracles import (
    broken_datasets,
    reference_make_profile,
    reference_perturb,
    reference_resolution,
    reference_time_keys,
    rows,
    seq,
)
from runtime_checks import counted_forks
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


def _tracked_growth(build):
    """What ``build()`` returns, and how many more objects the cyclic
    garbage collector tracks while it is kept. A first call warms caches
    and lazy imports; a collection on each side leaves only what stays."""
    build()
    gc.collect()
    before = len(gc.get_objects())
    kept = build()
    gc.collect()
    return kept, len(gc.get_objects()) - before


# Tracked objects a sample may add: its Sample, its sequence and a few
# more. An object per keystroke would add about 20 per sample.
_TRACKED_PER_SAMPLE = 4


@pytest.mark.parametrize("source", ["load_dataset", "generate_synthetic"])
def test_no_tracked_object_per_keystroke(tmp_path, source):
    config = SynthConfig(n_subjects=3, seed=0)
    if source == "load_dataset":
        write_dataset(generate_synthetic(config)[0], tmp_path / "ds")
        dataset, grown = _tracked_growth(lambda: load_dataset(tmp_path / "ds"))
    else:
        (dataset, _), grown = _tracked_growth(lambda: generate_synthetic(config))
    samples = [s for e in dataset.subjects.values() for s in e.templates + e.queries]
    assert sum(len(s.sequence) for s in samples) > 10 * len(samples)
    assert grown <= _TRACKED_PER_SAMPLE * len(samples) + 100


# What each case of oracles.broken_datasets loads to, byte for byte: a
# change to this file is a change to a problem line or a warning.
BROKEN_EXPECTED = Path(__file__).with_name("broken_datasets.expected")


def _load_outcome(root: str) -> str:
    """Each warning ``load_dataset(root)`` issues, then its
    ``DatasetError`` text or, where it loads, each sample's rows."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            lines = [f"{s.subject_id}/{s.sample_id}: {rows(s.sequence)}" for s in ordered_samples(load_dataset(root))]
        except DatasetError as exc:
            lines = [f"error: {exc}"]
    return "\n".join([f"warning: {w.category.__name__}: {w.message}" for w in caught] + lines)


@pytest.fixture(scope="module")
def broken_corpus(tmp_path_factory):
    return broken_datasets(tmp_path_factory.mktemp("broken"))


class TestDatasetRoundTrip:
    @pytest.mark.parametrize("forked", [False, True], ids=["inline", "3-shares"])
    def test_broken_corpus_loads_as_expected(self, broken_corpus, monkeypatch, forked):
        if forked and not _processes._CAN_FORK:
            pytest.skip("no fork here, or Python 3.12+, which warns when a process holding threads forks")
        if forked:  # blocks of 4 files over 3 shares: a set of 9 files or more forks 2 children
            monkeypatch.setattr(datasets, "_BLOCK_FILES", 4)
        monkeypatch.setattr(_processes, "cpu_count", lambda: 3 if forked else 1)
        sections = []
        with counted_forks() as pids:
            for name, cwd, root in broken_corpus:
                monkeypatch.chdir(cwd)
                sections.append(f"== {name!r} ==\n{_load_outcome(root)}\n")
        assert bool(pids) == forked
        expected = re.split(r"(?m)^(?=== )", BROKEN_EXPECTED.read_text(encoding="utf-8"))[1:]
        names = [f"== {name!r} ==" for name, _, _ in broken_corpus]
        assert sections == [section for section in expected if section.split("\n", 1)[0] in names]

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
    @example([("sé", "t01", Role.TEMPLATE, None, seq([("a", 0, 40)]))])  # a non-ASCII id
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

    def test_loaded_samples_are_the_values_the_constructor_makes(self, tmp_path):
        """load_dataset builds each Sample unchecked, with ``Sample._of``:
        it pickles, deep-copies, replaces, compares and hashes as the one
        ``Sample(...)`` makes from its fields, and stays frozen, with no
        ``__dict__``. No other module builds a sample that way."""
        dataset, _ = generate_synthetic(TINY)
        entry = dataset.subjects["s001"]
        entry.queries[0] = replace(entry.queries[0], label=None)
        write_dataset(dataset, tmp_path)
        manifest = tmp_path / "manifest.tsv"
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("\ttemplate\tgenuine", "\ttemplate\t?", 1), encoding="utf-8")
        loaded = list(ordered_samples(load_dataset(tmp_path)))
        assert loaded == list(ordered_samples(dataset))
        for s in loaded:
            made = Sample(s.subject_id, s.sample_id, s.role, s.sequence, s.label)
            assert s == made and hash(s) == hash(made)
            for again in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), replace(s)):
                assert type(again) is Sample and again == made and hash(again) == hash(made)
            assert not hasattr(s, "__dict__")
            with pytest.raises(AttributeError):
                s.label = None
        source = Path(datasets.__file__).parent
        callers = [p.name for p in source.rglob("*.py") if "Sample._of(" in p.read_text(encoding="utf-8")]
        assert callers == ["datasets.py"]

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
        dataset.add(Sample("manifest.tsv", "t01", Role.TEMPLATE, seq()))
        root = tmp_path / "ds"
        with pytest.raises(DatasetError, match="subject id 'manifest.tsv'"):
            write_dataset(dataset, root)
        assert not root.exists()

    @pytest.mark.parametrize(
        "sequence, message",
        [
            (seq([("a", 0, 10)], aligned=True), "aligned sequences"),
            (seq([("a", 5, 10)]), "anchored at t=0, first press is 5"),
            (seq([("a", 0, 10), ("nope", 9, 20)]), "unknown key name: 'nope'"),
        ],
        ids=["aligned", "unanchored", "unknown key"],
    )
    def test_unserializable_sample_is_refused_before_writing(self, sequence, message, tmp_path):
        dataset, _ = generate_synthetic(TINY)
        last = dataset.subject_ids()[-1]  # every other sample comes first in file order
        dataset.add(Sample(last, "q99", Role.QUERY, sequence, Label.GENUINE))
        for root in (tmp_path / "new", tmp_path):
            with pytest.raises(DatasetError, match=f"^{last}/q99: .*{message}"):
                write_dataset(dataset, root)
            assert not (tmp_path / "new").exists() and list(tmp_path.iterdir()) == []

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


    @pytest.mark.parametrize("block_files", [2, 256])
    def test_load_problems_keep_manifest_order_across_blocks(self, tmp_path, monkeypatch, block_files):
        # blocks of 2 files put block boundaries between the failing files
        monkeypatch.setattr(datasets, "_BLOCK_FILES", block_files)
        root = tmp_path / "ds"
        (root / "s1").mkdir(parents=True)
        rows = [
            "s1\tt1\ttemplate\tgenuine",
            "s1\tt2\ttemplate",
            "s1\tgone\tquery\tgenuine",
            "s1\tq1\tprobe\tgenuine",
            "s1\tparse\tquery\tgenuine",
            "s1\tpair\tquery\timpostor",
            "s1\tcrlf\tquery\tgenuine",
            "s1\tlatin\tquery\tgenuine",
            "s1\tt3\ttemplate\timpostor",
            "s1\tt1\ttemplate\tgenuine",
            "s1\tq2\tquery\t?",
        ]
        manifest = root / "manifest.tsv"
        manifest.write_text("subject_id\tsample_id\trole\tlabel\n" + "\n".join(rows) + "\n")
        valid = "P 1e 0\nP 30 5\nR 1e 40\nR 30 60\n"
        for name in ("t1", "t2", "q1", "t3", "q2"):
            (root / "s1" / f"{name}.txt").write_text(valid)
        (root / "s1" / "parse.txt").write_text("P 1e 0\nR 1e -4\n")
        (root / "s1" / "pair.txt").write_text("P 1e 0\nR 30 10\n")
        (root / "s1" / "crlf.txt").write_bytes(valid.replace("\n", "\r\n").encode())
        (root / "s1" / "latin.txt").write_bytes(b"P 1e 0\n\xff")
        with pytest.raises(DatasetError) as err:
            load_dataset(root)
        gone = root / "s1" / "gone.txt"
        assert str(err.value).splitlines() == [
            f"8 problem(s) loading {root}:",
            f"{manifest}:3: expected 4 fields, got 3",
            f"{gone}: [Errno 2] No such file or directory: '{gone}'",
            f"{manifest}:5: unknown role 'probe'",
            f"{root / 's1' / 'parse.txt'}: line 2: bad delta '-4'",
            f"{root / 's1' / 'pair.txt'}: release of 'b' at t=10 with no open press",
            f"{root / 's1' / 'latin.txt'}: 'utf-8' codec can't decode byte 0xff in position 7: "
            "invalid start byte",
            f"{manifest}:10: template s1/t3 cannot be labeled impostor",
            f"{manifest}:11: duplicate sample s1/t1",
        ]

    @pytest.mark.parametrize("forked", [False, True], ids=["inline", "forked"])
    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_non_regular_event_file_is_named_not_read(self, tmp_path, monkeypatch, kind, forked):
        if kind == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("no os.mkfifo here")
        if forked and not _processes._CAN_FORK:
            pytest.skip("no fork here, or Python 3.12+, which warns when a process holding threads forks")
        dataset, _ = generate_synthetic(TINY)
        root = tmp_path / "ds"
        write_dataset(dataset, root)
        path = root / "s001" / "q01.txt"
        path.unlink()
        if kind == "directory":
            path.mkdir()
        else:
            os.mkfifo(path)  # opened for reading, a FIFO with no writer blocks
        # blocks of 2 files over 3 shares: block 1, which a child reads, holds
        # the fourth file, s001/q01
        monkeypatch.setattr(datasets, "_BLOCK_FILES", 2)
        monkeypatch.setattr(_processes, "cpu_count", lambda: 3 if forked else 1)
        with counted_forks() as pids, pytest.raises(DatasetError) as err:
            load_dataset(root)
        assert len(pids) == (2 if forked else 0)
        problem = "[Errno 21] Is a directory" if kind == "directory" else "[Errno 22] Not a regular file"
        assert str(err.value).splitlines() == [
            f"1 problem(s) loading {root}:",
            f"{path}: {problem}: '{path}'",
        ]

    @pytest.mark.parametrize("root", [".", "./", ""])
    def test_missing_event_file_under_a_dot_root_is_named_one_way(self, tmp_path, monkeypatch, root):
        dataset, _ = generate_synthetic(TINY)
        write_dataset(dataset, tmp_path / "ds")
        (tmp_path / "ds" / "s001" / "q01.txt").unlink()
        monkeypatch.chdir(tmp_path / "ds")
        with pytest.raises(DatasetError) as err:
            load_dataset(root)
        assert str(err.value).splitlines() == [
            "1 problem(s) loading .:",
            "s001/q01.txt: [Errno 2] No such file or directory: 's001/q01.txt'",
        ]

    @pytest.mark.skipif(
        not _processes._CAN_FORK,
        reason="no fork here, or Python 3.12+, which warns when a process holding threads forks",
    )
    def test_forked_load_equals_inline_load(self, tmp_path, monkeypatch):
        # 12 subjects of 24 samples: 288 files, three blocks of at most 128
        config = SynthConfig(n_subjects=12, shift_drop=0.05, shift_transpose=0.03, capslock_sub=0.02, seed=0)
        root = tmp_path / "ds"
        write_dataset(generate_synthetic(config)[0], root)
        manifest = root / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        paths = [root / line.split("\t")[0] / f"{line.split(chr(9))[1]}.txt" for line in lines[1:]]
        assert len(paths) == 288
        # a file the block reader declines, in each block
        for i in (5, 130, 260):
            paths[i].write_bytes(paths[i].read_bytes().replace(b"\n", b"\r\n"))
        forks = []

        def load(forked):
            monkeypatch.setattr(_processes, "_CAN_FORK", forked)
            # three shares, so two children, whatever the CPUs of this machine
            monkeypatch.setattr(_processes, "cpu_count", lambda: 3 if forked else 1)
            with counted_forks() as pids:
                try:
                    loaded = load_dataset(root), None
                except DatasetError as exc:
                    loaded = None, str(exc)
            forks.append(len(pids))
            return loaded

        assert load(False) == load(True)
        assert forks == [0, 2]
        # a problem of each kind, in each block and so in each share
        paths[3].unlink()
        paths[140].unlink()
        paths[140].mkdir()
        paths[250].write_bytes(b"P 1e 0\n\xff\n")
        paths[10].write_text("P 1e 0\nR 30 10\n")
        lines[200] = lines[200] + "\textra"
        manifest.write_text("\n".join(lines) + "\n")
        inline, forked = load(False), load(True)
        assert inline[1] == forked[1]
        named = [str(paths[i]) for i in (3, 10, 140, 250)]
        problems = inline[1].splitlines()[1:]
        assert [line.split(": ")[0] for line in problems] == named[:3] + [f"{manifest}:201"] + named[3:]

    @pytest.mark.parametrize("forked", [False, True], ids=["inline", "forked"])
    def test_load_warning_names_its_file(self, tmp_path, monkeypatch, forked):
        if forked and not _processes._CAN_FORK:
            pytest.skip("no fork here, or Python 3.12+, which warns when a process holding threads forks")
        # 12 subjects of 24 samples: 288 files, three blocks of at most 128
        config = SynthConfig(n_subjects=12, shift_drop=0.05, shift_transpose=0.03, capslock_sub=0.02, seed=0)
        root = tmp_path / "ds"
        write_dataset(generate_synthetic(config)[0], root)
        assert len(list(root.glob("*/*.txt"))) == 288
        subject_id, sample_id = (root / "manifest.tsv").read_text().splitlines()[-1].split("\t")[:2]
        path = root / subject_id / f"{sample_id}.txt"
        # the last block's last file loses its final release
        text = path.read_text()
        assert text.splitlines()[-1].startswith("R ")
        path.write_text(text[: text.rstrip("\n").rindex("\n") + 1])
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            read_sequence(path.read_text())
        [expected] = alone
        monkeypatch.setattr(_processes, "_CAN_FORK", forked)
        # three shares, so two children, whatever the CPUs of this machine
        monkeypatch.setattr(_processes, "cpu_count", lambda: 3 if forked else 1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_dataset(root)
        assert [(w.category, str(w.message)) for w in caught] == [
            (UnreleasedKeyWarning, f"{path}: {expected.message}")
        ]

    def test_event_file_longer_than_one_read_loads_whole(self, tmp_path):
        # 6,000 keystrokes serialize to far more than one 64 KiB os.read
        sequence = seq([("a", 10 * i, 10 * i + 5) for i in range(6000)])
        text = serialize_events(sequence)
        assert len(text.encode()) > 65536
        root = tmp_path / "ds"
        (root / "s1").mkdir(parents=True)
        (root / "manifest.tsv").write_text("subject_id\tsample_id\trole\tlabel\ns1\tq1\tquery\t?\n")
        (root / "s1" / "q1.txt").write_text(text)
        [sample] = load_dataset(root).subjects["s1"].queries
        assert sample.sequence == read_sequence(text) == sequence

    def test_crlf_file_loads_equal_to_its_canonical_copy(self, small_dataset, tmp_path):
        root = tmp_path / "ds"
        write_dataset(small_dataset, root)
        canonical = load_dataset(root).subjects["s001"].queries
        for sample in canonical:
            path = root / "s001" / f"{sample.sample_id}.txt"
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        crlf = load_dataset(root).subjects["s001"].queries
        assert crlf == canonical

        def types(s):
            return [[type(v) for v in column] for column in (s.keys(), s.press, s.release)]

        for a, b in zip(crlf, canonical):
            assert types(a.sequence) == types(b.sequence)

    def test_undecodable_manifest_is_named(self, tmp_path):
        (tmp_path / "manifest.tsv").write_bytes(b"subject_id\tsample_id\trole\tlabel\n\xffs1\n")
        with pytest.raises(DatasetError) as err:
            load_dataset(tmp_path)
        assert str(err.value) == (
            f"{tmp_path / 'manifest.tsv'}: 'utf-8' codec can't decode byte 0xff in position 32: "
            "invalid start byte"
        )

    @pytest.mark.parametrize("column", ["subject", "sample"])
    @pytest.mark.parametrize(
        "bad", ["", ".", "..", "../../outside", "a\\b", "a\0b", *(f"t{ch}1" for ch in ID_BREAKERS)]
    )
    def test_ids_must_be_plain_file_names(self, column, bad):
        ids = {"subject": "s1", "sample": "t1", column: bad}
        with pytest.raises(ValueError) as err:
            Sample(ids["subject"], ids["sample"], Role.TEMPLATE, seq())
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
        assert {(r.subject_id, r.sample_id): r.raw_score for r in written_scores(ScoreSet(records))} == back

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
        # the written score, labels and flags kept
        [written] = written_scores(ScoreSet((replace(rec, label=Label.GENUINE, flagged=True),)))
        assert written == ScoreRecord("s1", "q1", 0.25, None, Label.GENUINE, True)

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
                keys = list(s.sequence.keys())
                assert "lshift" not in keys and "rshift" not in keys
                assert keys.count("capslock") == 2
        assert all(r.kind == "capslock_sub" for r in log)

    def test_certain_shift_drop_removes_both_shifts(self):
        dataset, log = generate_synthetic(replace(TINY, shift_drop=1.0))
        for sid in dataset.subject_ids():
            for s in dataset.subjects[sid].templates + dataset.subjects[sid].queries:
                assert all(k not in ("lshift", "rshift", "capslock") for k in s.sequence.keys())
        assert all(r.kind == "shift_drop" for r in log)

    def test_quantized_clock_lands_on_lattice(self):
        dataset, _ = generate_synthetic(replace(TINY, clock_quantum_ms=40))
        for sid in dataset.subject_ids():
            for s in dataset.subjects[sid].templates + dataset.subjects[sid].queries:
                assert (s.sequence.press % 40 == 0).all()
                assert (s.sequence.release % 40 == 0).all()

    def test_no_same_key_overlap_even_with_slow_modifiers(self, monkeypatch):
        # long Shift holds must end before that Shift is pressed again,
        # or the event stream cannot be re-paired after serialization;
        # keystrokes are built unchecked, so release >= press is asserted here
        monkeypatch.setattr(synthesis, "MODIFIER_BETWEEN_SD", 1.5)
        for quantum in (0, 40):
            for hesitation in (0.0, TINY.hesitation_rate, 1.0):
                config = replace(
                    TINY, n_subjects=6, seed=7,
                    clock_quantum_ms=quantum, hesitation_rate=hesitation,
                )
                dataset, _ = generate_synthetic(config)
                for sid in dataset.subject_ids():
                    for s in dataset.subjects[sid].templates + dataset.subjects[sid].queries:
                        last_release: dict[str, int] = {}
                        for key, press, release in rows(s.sequence):
                            assert release >= press
                            assert last_release.get(key, -1) < press
                            last_release[key] = release

    def test_victim_impostors_type_the_victim_name(self):
        dataset, _ = generate_synthetic(replace(TINY, impostor_source="victim"))
        for sid in dataset.subject_ids():
            entry = dataset.subjects[sid]
            canonical = entry.templates[0].sequence.keys()
            for s in entry.queries:
                assert s.sequence.keys() == canonical

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
            ("n_subjects", 1000),
            ("n_subjects", 99999999999999999999999),
            ("name_length", (5, 10)),
            ("name_length", (6, 1001)),
            ("name_length", (6, 10**12)),
            ("n_templates", 100),
            ("n_templates", 99999999999999999999999),
            ("genuine_queries", (90, 90)),
            ("impostor_queries", (0, 90)),
            ("genuine_queries", (-5, -5)),
            ("genuine_queries", (5, 3)),
            ("impostor_queries", (-3, -1)),
            ("impostor_queries", (-1, 2)),
            ("impostor_queries", (4, 3)),
            ("impostor_source", "other"),
            ("clock_quantum_ms", -1),
            ("clock_quantum_ms", 1001),
            ("impostor_separation", 0.0),
            ("impostor_separation", float("nan")),
            ("impostor_separation", float("inf")),
        ],
    )
    def test_config_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("quantum", [0, 40])
    def test_draws_match_scalar_reference(self, seed, quantum):
        # Same stream consumed in the same order: equal outputs and equal
        # generator state afterwards.
        config = SynthConfig(clock_quantum_ms=quantum, hesitation_rate=0.5, shift_drop=0.2)
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        canonical = _make_name(rngs[0], config, "lshift")
        assert _make_name(rngs[1], config, "lshift") == canonical
        keys = set(canonical) | MODIFIER_KEYS
        for scale in (1.0, 0.4):
            profile = _make_profile(rngs[0], keys, scale)
            assert reference_make_profile(rngs[1], keys, scale) == profile
        for _ in range(30):
            sample = _perturb(canonical, rngs[0], config, "s001", "t01", [])
            assert _perturb(canonical, rngs[1], config, "s001", "t01", []) == sample
            timed = _time_keys(sample, profile, rngs[0], config)
            assert reference_time_keys(sample, profile, rngs[1], config) == timed
        assert rngs[0].random() == rngs[1].random()

    @pytest.mark.parametrize("name_length", [(6, 6), (6, 8), (12, 30), (40, 60)])
    def test_no_built_name_has_a_shift_after_a_shift_or_last(self, name_length):
        # _perturb draws in one pass: a swapped Shift takes its partner
        # with it, so a Shift partner would skip that Shift's draw.
        config = SynthConfig(name_length=name_length)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            for shift in ("lshift", "rshift"):
                keys = _make_name(rng, config, shift)
                assert keys[-1] not in SHIFT_KEYS
                assert not any(a in SHIFT_KEYS and b in SHIFT_KEYS for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize(
        "rates",
        [
            (1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0),
            (0.3, 0.3, 0.4),
            (0.1, 0.2, 0.7),
            (0.5, 0.5, 0.0),
            (0.02, 0.05, 0.03),
        ],
    )
    def test_perturb_matches_two_pass_reference(self, rates):
        # Same renditions, same log and the same generator state as the
        # two-pass reference, on built names and their impostor renames.
        capslock_sub, shift_drop, shift_transpose = rates
        config = SynthConfig(
            name_length=(6, 20), capslock_sub=capslock_sub, shift_drop=shift_drop, shift_transpose=shift_transpose
        )
        for seed in range(60):
            rngs = [np.random.default_rng(seed) for _ in range(2)]
            names = [_make_name(rngs[0], config, "lshift")]
            assert _make_name(rngs[1], config, "lshift") == names[0]
            names.append(["rshift" if k in SHIFT_KEYS else k for k in names[0]])
            for name in names:
                for _ in range(5):
                    logs: list[list] = [[], []]
                    got = _perturb(name, rngs[0], config, "s001", "q01", logs[0])
                    assert reference_perturb(name, rngs[1], config, "s001", "q01", logs[1]) == got
                    assert logs[0] == logs[1]
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

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

    @pytest.mark.parametrize("quantum", [5, 10, 15, 25, 40, 50, 75, 100])
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

    @pytest.mark.parametrize("levels", [[40.0, 80.0], [0.0, 40.0]])
    def test_two_level_lattice_is_indeterminate(self, levels):
        # on two levels the largest coherent candidate is always half their
        # spacing, a quantum that a third level would have to confirm
        with pytest.raises(ResolutionError, match="indeterminate"):
            estimate_resolution(np.repeat(levels, 50))

    def test_lattice_of_three_points(self):
        assert estimate_resolution(np.repeat([40.0, 80.0, 120.0], 50)) == 40.0

    @pytest.mark.parametrize(
        "case",
        [
            "lattice-5",
            "lattice-25",
            "lattice-46.4-whole-ms",
            "lattice-100",
            "jittered-lattice-40",
            "offset-lattice-40",
            "continuous",
            "continuous-whole-ms",
            "empty",
            "all-nan",
        ],
    )
    def test_matches_one_shot_reference(self, case):
        rng = np.random.default_rng(0)
        uniform = rng.uniform(0.0, 500.0, 400)
        values = {
            "lattice-5": np.round(uniform * 0.6 / 5.0) * 5.0,
            "lattice-25": np.round(uniform / 25.0) * 25.0,
            "lattice-46.4-whole-ms": np.round(np.round(uniform / 46.4) * 46.4),
            "lattice-100": np.round(uniform / 100.0) * 100.0,
            "jittered-lattice-40": np.round(uniform / 40.0) * 40.0 + rng.uniform(-1.0, 1.0, 400),
            "offset-lattice-40": 7.0 + 40.0 * rng.integers(0, 12, 400),
            "continuous": uniform,
            "continuous-whole-ms": np.round(rng.gamma(4.0, 30.0, 400)),
            "empty": np.empty(0),
            "all-nan": np.full(5, np.nan),
        }[case]
        expected = reference_resolution(values)
        if expected is None:
            with pytest.raises(ResolutionError, match="indeterminate"):
                estimate_resolution(values)
        else:
            assert estimate_resolution(values) == expected

    def test_divisors_of_the_quantum_are_skipped(self):
        # 30, 20, 15, 12 and 10 ms are as coherent as 60 ms on a 60 ms lattice
        values = 60.0 * np.random.default_rng(1).integers(1, 8, 300)
        assert estimate_resolution(values) == 60.0

    def test_refines_within_the_coherent_run(self):
        # with 1 ms of jitter the run at R >= 0.9 reaches past 40.9 ms
        rng = np.random.default_rng(1)
        values = 40.0 * rng.integers(1, 12, 300) + rng.uniform(-1.0, 1.0, 300)
        assert estimate_resolution(values) == 40.0

    def test_weights_are_shares_not_counts(self):
        values = 25.0 * np.random.default_rng(2).integers(0, 20, 300)
        estimate = estimate_resolution(values)
        assert estimate_resolution(np.tile(values, 3)) == estimate
        assert estimate_resolution(values[::-1]) == estimate

    @pytest.mark.parametrize("seed", range(4))
    def test_recovers_a_non_integer_clock(self, seed):
        # millisecond-true press times read off a 46.4 ms clock and stored in
        # whole milliseconds: a non-integer quantum, like the one criterion 9
        # expects of the reference dataset
        dataset, _ = generate_synthetic(SynthConfig(n_subjects=20, seed=seed))
        latencies = [
            np.diff(np.round(np.floor(sample.sequence.press / 46.4) * 46.4))
            for sid in dataset.subject_ids()
            for sample in dataset.subjects[sid].templates + dataset.subjects[sid].queries
        ]
        assert abs(estimate_resolution(np.concatenate(latencies)) - 46.4) <= 3.0

    def test_working_set_is_bounded(self):
        values = np.round(np.random.default_rng(0).uniform(0.0, 500.0, 10_000) / 40.0) * 40.0
        tracemalloc.start()
        try:
            estimate_resolution(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_working_set_is_bounded_on_distinct_latencies(self):
        # every latency distinct, as floats read off a continuous clock
        values = np.random.default_rng(0).uniform(0.0, 500.0, 5_000)
        tracemalloc.start()
        try:
            with pytest.raises(ResolutionError, match="indeterminate"):
                estimate_resolution(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
