"""End-to-end checks of the command-line interface.

Everything goes through ``keygait.cli.main`` with an argv list, the same
path the console script takes.
"""

import json
import os
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import keygait
from keygait import load_dataset, write_dataset
from keygait.cli import build_parser, main

import runtime_checks
from oracles import seq


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Small labeled dataset produced by the synth subcommand itself."""
    root = tmp_path_factory.mktemp("cli") / "data"
    code = main(["synth", "--out", str(root), "--subjects", "4", "--seed", "7"])
    assert code == 0
    return root


class TestSynth:
    def test_outputs_and_banner(self, data_dir, capsys):
        for name in ("manifest.tsv", "ground_truth.tsv", "perturbations.tsv", "config.json"):
            assert (data_dir / name).is_file()
        assert sorted(p.name for p in data_dir.iterdir() if p.is_dir()) == ["s001", "s002", "s003", "s004"]
        code = main(["synth", "--out", str(data_dir.parent / "again"), "--subjects", "1", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote 24 samples for 1 subjects" in out

    def test_same_flags_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for root in (a, b):
            assert main(["synth", "--out", str(root), "--subjects", "2", "--seed", "5", "--quantum", "15"]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_flag_overrides_config_file(self, tmp_path):
        config_path = tmp_path / "synth.json"
        config_path.write_text(json.dumps({"n_subjects": 2, "seed": 1}))
        out = tmp_path / "ds"
        assert main(["synth", "--out", str(out), "--config", str(config_path), "--subjects", "3"]) == 0
        assert len(load_dataset(out).subject_ids()) == 3
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["n_subjects"] == 3
        assert snapshot["seed"] == 1

    @pytest.mark.parametrize("separation", ["1e308", "1e23"])
    def test_overflowing_timestamps_are_one_error_line(self, tmp_path, capsys, separation):
        out = tmp_path / "ds"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would escape main
            code = main(["synth", "--out", str(out), "--subjects", "2", "--separation", separation])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: a synthetic timestamp of ")
        assert "impostor_separation" in line
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, field, bound", [("--subjects", "n_subjects", 999), ("--templates", "n_templates", 99)]
    )
    def test_huge_count_is_refused_before_any_work(self, tmp_path, capsys, flag, field, bound):
        out = tmp_path / "ds"
        assert main(["synth", "--out", str(out), flag, "99999999999999999999999"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {field} must be between 1 and {bound}, got 99999999999999999999999\n"
        )
        assert not out.exists()


class TestEvaluate:
    def test_labeled_run_writes_metrics(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["evaluate", "--data", str(data_dir), "--out", str(out), "--seed", "3"])
        assert code == 0
        for name in ("scores.tsv", "raw_scores.tsv", "metrics.tsv", "roc.tsv", "score_hist.csv", "config.json"):
            assert (out / name).is_file()
        assert capsys.readouterr().out.startswith("global_eer\t")
        metrics = dict(
            line.split("\t") for line in (out / "metrics.tsv").read_text().splitlines()
        )
        assert 0.0 <= float(metrics["global_eer"]) <= 1.0
        assert metrics["n_scores"] == "80"

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="pinning a child to one CPU takes os.sched_setaffinity"
    )
    def test_repeat_runs_byte_identical(self, tmp_path):
        runtime_checks.network_reruns(tmp_path, ("autoencoder",))

    def test_unlabeled_data_scores_without_metrics(self, data_dir, tmp_path, capsys):
        dataset = load_dataset(data_dir)
        for sid in dataset.subject_ids():
            entry = dataset.subjects[sid]
            entry.queries[:] = [replace(q, label=None) for q in entry.queries]
        blind = tmp_path / "blind"
        write_dataset(dataset, blind)
        out = tmp_path / "run"
        assert main(["evaluate", "--data", str(blind), "--out", str(out)]) == 0
        assert "labels withheld" in capsys.readouterr().out
        assert (out / "scores.tsv").is_file()
        assert not (out / "metrics.tsv").exists()

    def test_undecodable_event_file_is_named(self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        query = data / "s002" / "q01.txt"
        query.write_bytes(b"P 1e 0\n\xff")
        assert main(["evaluate", "--data", str(data), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: 1 problem(s) loading {data}:\n"
            f"{query}: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n"
        )

    def test_pipeline_flags_override_config_file(self, data_dir, tmp_path):
        config_path = tmp_path / "pipe.json"
        config_path.write_text(json.dumps({"h_f": 1.5, "score_norm": {"kind": "none"}}))
        out = tmp_path / "run"
        code = main(
            [
                "evaluate", "--data", str(data_dir), "--out", str(out),
                "--config", str(config_path), "--score-norm", "sd", "--h-s", "2.5",
            ]
        )
        assert code == 0
        snapshot = json.loads((out / "config.json").read_text())
        assert snapshot["h_f"] == 1.5
        assert snapshot["score_norm"] == {"kind": "sd", "h_s": 2.5}


class TestEerCommand:
    def test_matches_evaluate_metrics(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["evaluate", "--data", str(data_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(
            [
                "eer", "--scores", str(out / "scores.tsv"),
                "--labels", str(data_dir / "ground_truth.tsv"),
                "--out", str(tmp_path / "eer"),
            ]
        )
        assert code == 0
        printed = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        metrics = dict(
            line.split("\t") for line in (out / "metrics.tsv").read_text().splitlines()
        )
        for key in ("global_eer", "subject_eer_mean", "subject_eer_sd"):
            assert printed[key] == metrics[key]
        for name in ("metrics.tsv", "roc.tsv", "score_hist.csv"):
            assert (tmp_path / "eer" / name).is_file()

    @pytest.mark.parametrize("flags", [(), ("--h-s", "1e15")], ids=["default", "h_s-1e15"])
    def test_writes_what_evaluate_wrote_from_its_scores(self, tmp_path, flags):
        runtime_checks.evaluate_matches_eer(tmp_path, (flags,))

    @pytest.mark.parametrize(
        "score_rows, label_rows, message",
        [
            (["s1\tq3\tnan", "s1\tq4\tnan"], [], "scores.tsv:3: bad score 'nan'"),
            (["s1\tq3\tinf", "s1\tq4\tinf"], [], "scores.tsv:3: bad score 'inf'"),
            (["s1\tq3\t0.5", "s1\tq3\t0.5"], [], "scores.tsv:4: duplicate sample s1/q3"),
            ([], ["s1\tq1\timpostor"], "labels.tsv:5: duplicate sample s1/q1"),
        ],
        ids=["nan", "inf", "repeated-score", "repeated-label"],
    )
    def test_bad_score_or_label_file_is_operational_error(
        self, tmp_path, capsys, score_rows, label_rows, message
    ):
        scores = tmp_path / "scores.tsv"
        scores.write_text("\n".join(["s1\tq1\t0.9", "s1\tq2\t0.1", *score_rows]) + "\n")
        label_rows = [
            "s1\tq1\tgenuine", "s1\tq2\tgenuine", "s1\tq3\timpostor", "s1\tq4\timpostor",
            *label_rows,
        ]
        labels = tmp_path / "labels.tsv"
        labels.write_text("\n".join(label_rows) + "\n")
        assert main(["eer", "--scores", str(scores), "--labels", str(labels)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path / message}\n"

    def test_empty_scores_are_one_error_line(self, tmp_path, capsys):
        (tmp_path / "scores.tsv").write_text("")
        (tmp_path / "labels.tsv").write_text("")
        argv = ["eer", "--scores", str(tmp_path / "scores.tsv"), "--labels", str(tmp_path / "labels.tsv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would escape main
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no scores to evaluate\n"

    def test_one_class_labels_give_the_error_evaluate_gives(self, tmp_path, capsys):
        # both commands build the pooled ROC first, so labels of one class
        # are one error line that names no subject, and evaluate writes
        # nothing: its metrics are computed before --out is made
        config = tmp_path / "genuine_only.json"
        config.write_text('{"impostor_queries": [0, 0]}')
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--out", str(data), "--subjects", "2", "--config", str(config)]) == 0
        capsys.readouterr()
        message = "error: need both genuine and impostor scores\n"
        assert main(["evaluate", "--data", str(data), "--out", str(run)]) == 1
        assert capsys.readouterr().err == message
        assert not run.exists()
        # the same scores with their labels withheld are written, and eer
        # on them with the one-class labels fails alike
        dataset = load_dataset(data)
        for entry in dataset.subjects.values():
            entry.queries[:] = [replace(q, label=None) for q in entry.queries]
        blind = tmp_path / "blind"
        write_dataset(dataset, blind)
        assert main(["evaluate", "--data", str(blind), "--out", str(run)]) == 0
        capsys.readouterr()
        argv = ["eer", "--scores", str(run / "scores.tsv"), "--labels", str(data / "ground_truth.tsv")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


class TestValidate:
    def test_prints_and_writes(self, data_dir, tmp_path, capsys):
        out = tmp_path / "mc"
        code = main(
            [
                "validate", "--data", str(data_dir), "--out", str(out),
                "--reps", "3", "--templates", "3", "--seed", "11",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "mean_eer\t" in printed and "sd_eer\t" in printed
        reps = (out / "reps.tsv").read_text().splitlines()
        assert reps[0] == "rep\teer"
        assert len(reps) == 4
        assert (out / "metrics.tsv").is_file() and (out / "config.json").is_file()

    @pytest.mark.parametrize("templates", ["0", "-1"])
    def test_templates_below_one_is_operational_error(self, data_dir, tmp_path, capsys, templates):
        out = tmp_path / "mc"
        argv = ["validate", "--data", str(data_dir), "--out", str(out), "--templates", templates]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: n_templates must be positive, got {templates}\n"
        assert not out.exists()


class TestAblate:
    def test_grid_covers_all_combinations(self, data_dir, tmp_path, capsys):
        out = tmp_path / "grid"
        assert main(["ablate", "--data", str(data_dir), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.splitlines()[0] == "method\tscore_norm\tglobal_eer"
        assert len(printed.splitlines()) == 10
        assert (out / "ablation.tsv").read_text() == printed

    @pytest.mark.parametrize("flag", [["--method", "truncate"], ["--score-norm", "none"]])
    def test_swept_settings_are_not_flags(self, data_dir, tmp_path, capsys, flag):
        # the grid covers every method and score norm, so fixing one is a usage error
        with pytest.raises(SystemExit) as err:
            main(["ablate", "--data", str(data_dir), "--out", str(tmp_path / "grid"), *flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "grid").exists()

    @pytest.mark.parametrize(
        "config, key, value",
        [
            ({"alignment": "discard"}, "alignment", "discard"),
            ({"score_norm": {"kind": "minmax"}}, "score_norm.kind", "minmax"),
            ({"alignment": "truncate", "score_norm": {"kind": "none", "h_s": 3.0}}, "alignment", "truncate"),
        ],
    )
    def test_swept_settings_are_not_config_keys(self, tmp_path, capsys, config, key, value):
        # the grid would ignore them, while config.json recorded them
        config_path = tmp_path / "pipe.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "grid"
        argv = ["ablate", "--data", str(tmp_path / "missing"), "--out", str(out), "--config", str(config_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ablate sweeps every {key}; the config sets it to {value!r}\n"
        assert not out.exists()

    def test_config_may_name_the_default_alignment_and_set_the_norm_width(self, data_dir, tmp_path, capsys):
        config_path = tmp_path / "pipe.json"
        config_path.write_text(json.dumps({"alignment": "align", "score_norm": {"kind": "sd", "h_s": 3.0}}))
        out = tmp_path / "grid"
        assert main(["ablate", "--data", str(data_dir), "--out", str(out), "--config", str(config_path)]) == 0
        assert json.loads((out / "config.json").read_text())["score_norm"] == {"kind": "sd", "h_s": 3.0}

    def test_each_alignment_is_prepared_and_fitted_once(self, data_dir, monkeypatch, capsys):
        # score norms read raw scores only, so the 9 cells share 3 preparations and fits
        from keygait import ManhattanDetector, evaluation

        prepared, fitted = Counter(), Counter()
        prepare_subject, fit_group = evaluation._prepare_subject, ManhattanDetector.fit_group

        def counting_prepare(subject_id, *args):
            prepared[subject_id] += 1
            return prepare_subject(subject_id, *args)

        def counting_fit(cls, detectors, templates):
            fitted[templates[0].shape[0]] += 1
            return fit_group(detectors, templates)

        monkeypatch.setattr(evaluation, "_prepare_subject", counting_prepare)
        monkeypatch.setattr(ManhattanDetector, "fit_group", classmethod(counting_fit))
        assert main(["ablate", "--data", str(data_dir), "--detector", "manhattan"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10
        assert prepared == Counter({sid: 3 for sid in ("s001", "s002", "s003", "s004")})
        assert fitted and set(fitted.values()) == {3}


class TestAuditCommand:
    def test_stdout_and_file_agree(self, data_dir, tmp_path, capsys):
        assert main(["audit", "--data", str(data_dir)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("comparison_type\t")
        path = tmp_path / "audit.tsv"
        assert main(["audit", "--data", str(data_dir), "--out", str(path)]) == 0
        assert path.read_text() == printed


class TestResolutionCommand:
    def test_quantized_dataset(self, tmp_path, capsys):
        root = tmp_path / "coarse"
        assert main(["synth", "--out", str(root), "--subjects", "6", "--seed", "2", "--quantum", "40"]) == 0
        capsys.readouterr()
        assert main(["resolution", "--data", str(root)]) == 0
        key, value = capsys.readouterr().out.strip().split("\t")
        assert key == "estimated_resolution_ms"
        assert abs(float(value) - 40.0) <= 4.0

    def test_indeterminate_is_operational_error(self, tmp_path, capsys):
        from keygait import Label, Role, Sample, SubjectDataset

        dataset = SubjectDataset()
        typed = seq([("a", 0, 60), ("b", 100, 170)])
        dataset.add(Sample("s001", "t01", Role.TEMPLATE, typed, Label.GENUINE))
        root = tmp_path / "tiny"
        write_dataset(dataset, root)
        assert main(["resolution", "--data", str(root)]) == 1
        assert "resolution indeterminate" in capsys.readouterr().err

    def test_millisecond_true_clock_is_one_error_line(self, tmp_path):
        runtime_checks.resolution(tmp_path)

    def test_data_is_the_only_setting(self, tmp_path):
        args = build_parser().parse_args(["resolution", "--data", str(tmp_path)])
        assert sorted(vars(args)) == ["command", "data", "func"]


class TestErrorHandling:
    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["synth"])
        assert err.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_dataset_is_operational_error(self, tmp_path, capsys):
        code = main(["evaluate", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_pipeline_key_is_operational_error(self, data_dir, tmp_path, capsys):
        config_path = tmp_path / "pipe.json"
        config_path.write_text(json.dumps({"alignmnet": "truncate"}))
        out = tmp_path / "run"
        code = main(["evaluate", "--data", str(data_dir), "--out", str(out), "--config", str(config_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown PipelineConfig key(s): alignmnet\n"
        assert not out.exists()

    def test_unknown_synth_key_is_operational_error(self, tmp_path, capsys):
        config_path = tmp_path / "synth.json"
        config_path.write_text(json.dumps({"n_subjects": 2, "n_subject": 3}))
        code = main(["synth", "--out", str(tmp_path / "ds"), "--config", str(config_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown SynthConfig key(s): n_subject\n"

    def test_unknown_detector_param_is_operational_error(self, data_dir, tmp_path, capsys):
        config_path = tmp_path / "pipe.json"
        config_path.write_text(
            json.dumps({"detector": {"name": "ocsvm", "params": {"nu": 0.3, "gama": 0.5}}})
        )
        out = tmp_path / "run"
        code = main(["evaluate", "--data", str(data_dir), "--out", str(out), "--config", str(config_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: detector 'ocsvm' takes no parameter(s) gama\n"

    def test_ill_typed_param_is_operational_error_when_every_subject_fails(self, tmp_path, capsys):
        from keygait import Role, Sample, SubjectDataset

        # every target has one keystroke, so every subject fails preparation
        dataset = SubjectDataset()
        for sid in ("s001", "s002"):
            dataset.add(Sample(sid, "t01", Role.TEMPLATE, seq([("a", 0, 60)])))
            dataset.add(Sample(sid, "q01", Role.QUERY, seq([("a", 0, 60), ("b", 100, 170)])))
        root = tmp_path / "failing"
        write_dataset(dataset, root)
        config_path = tmp_path / "pipe.json"
        config_path.write_text(json.dumps({"detector": {"name": "ocsvm", "params": {"nu": "0.5"}}}))
        out = tmp_path / "run"
        code = main(["evaluate", "--data", str(root), "--out", str(out), "--config", str(config_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: OneClassSvm.nu: expected a finite number, got '0.5'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "validate", "ablate"])
    def test_ill_typed_param_is_reported_before_the_dataset_is_loaded(self, tmp_path, capsys, command):
        config_path = tmp_path / "pipe.json"
        config_path.write_text(json.dumps({"detector": {"name": "ocsvm", "params": {"nu": "0.5"}}}))
        out = tmp_path / "out"
        argv = [command, "--data", str(tmp_path / "missing"), "--out", str(out), "--config", str(config_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: OneClassSvm.nu: expected a finite number, got '0.5'\n"
        assert not out.exists()

    def test_width_too_large_to_allocate_is_reported_before_the_dataset_is_loaded(self, tmp_path, capsys):
        config_path = tmp_path / "pipe.json"
        config_path.write_text(json.dumps({"detector": {"name": "contractive", "params": {"hidden_dim": 10**12}}}))
        out = tmp_path / "out"
        argv = ["evaluate", "--data", str(tmp_path / "missing"), "--out", str(out), "--config", str(config_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: hidden_dim must be at most 10000, got 1000000000000\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "command, text, key",
        [
            # json.load alone would keep the last value of a repeated key
            ("evaluate", '{"alignment": "truncate", "alignment": "align"}', "alignment"),
            ("evaluate", '{"detector": {"name": "ocsvm", "name": "manhattan"}}', "name"),
            ("synth", '{"seed": 1, "n_subjects": 2, "seed": 3}', "seed"),
        ],
    )
    def test_repeated_config_key_is_reported_before_the_dataset_is_loaded(self, tmp_path, capsys, command, text, key):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        out = tmp_path / "out"
        data = ["--data", str(tmp_path / "missing")] if command == "evaluate" else []
        assert main([command, *data, "--out", str(out), "--config", str(config_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {config_path}: duplicate key {key!r}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", "--reps", "0"], "repetitions must be positive, got 0"),
            # each repetition runs the whole pipeline: 10**29 would never finish
            (["validate", "--reps", str(10**29)], f"repetitions must be at most 10000, got {10**29}"),
            (["validate", "--templates", "0"], "n_templates must be positive, got 0"),
        ],
    )
    def test_bad_command_setting_is_reported_before_the_dataset_is_loaded(self, tmp_path, capsys, argv, message):
        command, *setting = argv
        assert main([command, "--data", str(tmp_path / "missing"), *setting]) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {message}") and captured.out == ""

    @pytest.mark.parametrize(
        "command, text, message",
        [
            # an old config that sets a removed setting
            (
                "evaluate",
                '{"detector": {"params": {"scaled": "false"}}}',
                "detector 'manhattan' takes no parameter(s) scaled",
            ),
            # the pipeline seeds each detector; a config cannot
            (
                "evaluate",
                '{"detector": {"name": "variational", "params": {"seed": 1}}}',
                "detector 'variational' takes no parameter(s) seed",
            ),
            ("evaluate", '{"per_position": true}', "unknown PipelineConfig key(s): per_position"),
            ("evaluate", '{"merge_shift_keys": true}', "unknown PipelineConfig key(s): merge_shift_keys"),
            ("evaluate", '{"ensemble_normalized": false}', "unknown PipelineConfig key(s): ensemble_normalized"),
            (
                "evaluate",
                '{"detector": {"name": "ocsvm"}, "ensemble_normalized": true}',
                "unknown PipelineConfig key(s): ensemble_normalized",
            ),
            ("evaluate", '{"h_f": NaN}', "PipelineConfig.h_f: expected a finite number, got nan"),
            ("evaluate", '{"score_norm": {"h_s": Infinity}}', "ScoreNormConfig.h_s: expected a finite number, got inf"),
            ("evaluate", "[1, 2]", "PipelineConfig: expected an object, got list"),
            (
                "evaluate",
                '{"detector": {"name": "contractive", "params": {"epochs": 2.0}}}',
                "ContractiveAutoencoder.epochs: expected an integer, got 2.0",
            ),
            (
                "evaluate",
                '{"detector": {"name": "contractive", "params": {"learning_rate": -0.01}}}',
                "learning_rate must be positive, got -0.01",
            ),
            (
                "evaluate",
                '{"detector": {"name": "contractive", "params": {"hidden_dim": 1000000000000}}}',
                "hidden_dim must be at most 10000, got 1000000000000",
            ),
            (
                "evaluate",
                '{"detector": {"name": "autoencoder", "params": {"hidden_sizes": [5, 1000000000000]}}}',
                "hidden_sizes[1] must be at most 10000, got 1000000000000",
            ),
            (
                "evaluate",
                '{"detector": {"name": "variational", "params": {"latent_dim": 1000000000000}}}',
                "latent_dim must be at most 10000, got 1000000000000",
            ),
            ("synth", '{"n_subjects": 2.5}', "SynthConfig.n_subjects: expected an integer, got 2.5"),
            ("synth", '{"name_length": 7}', "SynthConfig.name_length: expected a list of 2, got 7"),
            ("synth", '{"genuine_queries": [5, 3]}', "genuine_queries must satisfy 0 <= lo <= hi, got (5, 3)"),
            # a name drawn a letter at a time: 10**12 keys would never finish
            (
                "synth",
                '{"n_subjects": 1, "name_length": [6, 1000000000000]}',
                "name_length must satisfy 6 <= lo <= hi <= 1000, got (6, 1000000000000)",
            ),
            ("synth", '{"letter_duration_ms": 90}', "unknown SynthConfig key(s): letter_duration_ms"),
            # ensemble settings on a single detector, and detector params on an ensemble
            (
                "evaluate",
                '{"detector": {"name": "manhattan", "members": [{"name": "ocsvm"}, {"name": "variational"}]}}',
                "members: only an ensemble has members, not 'manhattan'",
            ),
            (
                "evaluate",
                '{"detector": {"name": "ensemble", "params": {"nu": 0.3},'
                ' "members": [{"name": "ocsvm"}, {"name": "manhattan"}]}}',
                "params: an ensemble takes none; set them on its members",
            ),
        ],
    )
    def test_ill_typed_config_is_operational_error(self, data_dir, tmp_path, capsys, command, text, message):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        out = tmp_path / "out"
        data = ["--data", str(data_dir)] if command == "evaluate" else []
        code = main([command, *data, "--out", str(out), "--config", str(config_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evaluate", "--h-f", "nan"], "h_f must be positive, got nan"),
            (["evaluate", "--h-s", "nan"], "h_s must be positive, got nan"),
            (["synth", "--separation", "nan"], "impostor_separation must be positive, got nan"),
        ],
    )
    def test_nan_flag_is_operational_error(self, data_dir, tmp_path, capsys, argv, message):
        data = ["--data", str(data_dir)] if argv[0] == "evaluate" else []
        assert main([*argv, *data, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evaluate", "--h-f", "inf"], "h_f must be finite, got inf"),
            (["evaluate", "--h-s", "inf"], "h_s must be finite, got inf"),
            (["synth", "--separation", "inf"], "impostor_separation must be finite, got inf"),
            # finite, but the bound width overflows to inf
            (["evaluate", "--h-f", "1e308"], "h_f 1e+308 is too wide: the bound width 2 * h_f * sigma overflows"),
            (["evaluate", "--h-s", "1e308"], "h_s 1e+308 is too wide: the bound width 2 * h_s * sd overflows"),
            # finite bound widths that map a subject's distinct values to one
            (["evaluate", "--h-f", "1e200"], "h_f 1e+200 is too wide: it maps distinct template durations to one value"),
            (["evaluate", "--h-f", "1e300"], "h_f 1e+300 is too wide: it maps distinct template durations to one value"),
            (["evaluate", "--h-s", "1e200"], "h_s 1e+200 is too wide: it maps distinct scores to one value"),
            # positive, but the bound width underflows to 0 on scores whose sd is below 1/2
            (
                ["evaluate", "--detector", "ocsvm", "--h-s", "5e-324"],
                "h_s 5e-324 is too narrow: the bound width 2 * h_s * sd underflows",
            ),
        ],
    )
    def test_infinite_width_flag_is_operational_error(self, data_dir, tmp_path, capsys, argv, message):
        data = ["--data", str(data_dir)] if argv[0] == "evaluate" else []
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would escape main
            assert main([*argv, *data, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_written_configs_load_back(self, data_dir, tmp_path):
        from keygait import PipelineConfig, SynthConfig, load_config

        assert main(["evaluate", "--data", str(data_dir), "--out", str(tmp_path / "run")]) == 0
        assert main(["validate", "--data", str(data_dir), "--out", str(tmp_path / "mc"), "--reps", "1"]) == 0
        for run in ("run", "mc"):
            config = load_config(tmp_path / run / "config.json", PipelineConfig)
            assert config == PipelineConfig()
        assert load_config(data_dir / "config.json", SynthConfig) == SynthConfig(n_subjects=4, seed=7)


def test_every_flat_file_names_its_encoding(tmp_path):
    """Each command reads and writes its files as UTF-8 by name: under
    ``-X warn_default_encoding`` with that warning an error, a file opened
    in the locale's encoding would fail the command."""
    commands = [
        ["synth", "--out", "b", "--subjects", "3"],
        ["evaluate", "--data", "b", "--out", "e"],
        ["eer", "--scores", "e/scores.tsv", "--labels", "b/ground_truth.tsv", "--out", "r"],
        ["validate", "--data", "b", "--reps", "2", "--config", "e/config.json", "--out", "v"],
        ["ablate", "--data", "b", "--out", "a"],
        ["audit", "--data", "b", "--out", "audit.tsv"],
    ]
    code = f"""
import sys
from keygait.cli import main
for argv in {commands!r}:
    if main(argv) != 0:
        sys.exit(f"keygait {{argv[0]}} failed")
"""
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(keygait.__file__).resolve().parents[1])},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


HUGE = str(10**29)
RATES = {"0", "-0.0", "1e-320"}  # a probability: [0, 1]
WIDTHS = {"1e308", "1e-320", HUGE}  # positive and finite
# (commands, flag, the setting it sets, whether argparse reads an int, the
# sweep values the setting accepts)
SWEEP = [
    (("evaluate", "validate", "ablate"), "--h-s", "h_s", False, WIDTHS),
    (("evaluate", "validate", "ablate"), "--h-f", "h_f", False, WIDTHS),
    (("evaluate", "validate", "ablate", "synth"), "--seed", "seed", True, {"0", "-1", HUGE}),
    (("validate",), "--reps", "repetitions", True, set()),
    (("validate",), "--templates", "n_templates", True, {HUGE}),
    (("synth",), "--subjects", "n_subjects", True, set()),
    (("synth",), "--templates", "n_templates", True, set()),
    (("synth",), "--shift-drop", "shift_drop", False, RATES),
    (("synth",), "--shift-transpose", "shift_transpose", False, RATES),
    (("synth",), "--capslock-sub", "capslock_sub", False, RATES),
    (("synth",), "--hesitation", "hesitation_rate", False, RATES),
    (("synth",), "--quantum", "clock_quantum_ms", True, {"0"}),
    (("synth",), "--separation", "impostor_separation", False, {"1e-320"}),
]
SWEEP_VALUES = ("0", "-0.0", "-1", "nan", "inf", "1e308", "1e-320", HUGE)


class TestNumericFlagSweep:
    """Every command's numeric flags at values at and past every edge, with
    a missing --data: each run is a usage error naming the flag, one error
    line naming the setting, or, for a value the setting takes, the missing
    manifest (a clean synth run for synth)."""

    def test_the_sweep_covers_every_numeric_flag(self):
        import argparse

        [commands] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        numeric = {
            (name, flag, action.type is int)
            for name, parser in commands.choices.items()
            for action in parser._actions
            if action.type in (int, float)
            for flag in action.option_strings
        }
        assert numeric == {(name, flag, reads_int) for names, flag, _, reads_int, _ in SWEEP for name in names}

    @pytest.mark.parametrize(
        "command, flag, setting, reads_int, accepted, value",
        [
            pytest.param(
                command, flag, setting, reads_int, accepted, value,
                id=f"{command} {flag} {'10**29' if value == HUGE else value}",
            )
            for commands, flag, setting, reads_int, accepted in SWEEP
            for command in commands
            for value in SWEEP_VALUES
        ],
    )
    def test_value(self, tmp_path, capsys, command, flag, setting, reads_int, accepted, value):
        out, missing = tmp_path / "out", tmp_path / "missing"
        if command == "synth":
            argv = ["synth", "--out", str(out), *([] if flag == "--subjects" else ["--subjects", "1"])]
        else:
            argv = [command, "--data", str(missing), "--out", str(out)]
        try:
            code = main([*argv, flag, value])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if reads_int and not value.lstrip("-").isdigit():
            assert code == 2
            assert f"argument {flag}: invalid int value: '{value}'" in captured.err
        elif value in accepted and command == "synth":
            assert code == 0 and captured.err == ""
        elif value in accepted:
            assert code == 1 and captured.err == f"error: no manifest.tsv in {missing}\n"
        else:
            assert code == 1
            [line] = captured.err.splitlines()
            assert line.startswith("error: ") and setting in line
        if code:
            assert not out.exists()
