"""Every setting is checked. The table below has a row per init field of
each config class and each detector: a bad value and the text its error
carries (the setting's name, or the ``Class.key`` of the codec), or ANY
for a seed or a bool, which takes every value of its type. The rows must
name exactly the class's init fields, so a new setting without a check,
or a row left for a removed one, fails here."""

import re
from dataclasses import fields
from typing import get_type_hints

import pytest

from keygait import DetectorConfig, PipelineConfig, ScoreNormConfig, SynthConfig
from keygait.detectors import DETECTOR_NAMES, build_detector

ANY = "any"

CONFIG_ROWS = {
    SynthConfig: [
        ("n_subjects", 0, "n_subjects"),
        ("name_length", [5, 10], "name_length"),
        ("n_templates", 100, "n_templates"),
        ("genuine_queries", [3, 2], "genuine_queries"),
        ("impostor_queries", [-1, 2], "impostor_queries"),
        ("shift_drop", 1.5, "shift_drop"),
        ("shift_transpose", -0.5, "shift_transpose"),
        ("capslock_sub", 2.0, "capslock_sub"),
        ("hesitation_rate", -0.1, "hesitation_rate"),
        ("clock_quantum_ms", -1, "clock_quantum_ms"),
        ("impostor_separation", 0.0, "impostor_separation"),
        ("impostor_source", "self", "impostor_source"),
        ("seed", ANY),
    ],
    PipelineConfig: [
        ("alignment", "none", "alignment"),
        ("h_f", 0.0, "h_f"),
        ("detector", "manhattan", "PipelineConfig.detector"),
        ("score_norm", "sd", "PipelineConfig.score_norm"),
        ("ensemble_normalized", True, "ensemble_normalized"),
        ("seed", ANY),
    ],
    ScoreNormConfig: [
        ("kind", "z", "kind"),
        ("h_s", 0.0, "h_s"),
    ],
    DetectorConfig: [
        ("name", "nope", "unknown detector 'nope'"),
        ("params", {"bogus": 1}, "bogus"),
        ("members", [{"name": "ocsvm"}, {"name": "manhattan"}], "members"),
    ],
}

DETECTOR_ROWS = {
    "manhattan": [
        ("scaled", ANY),
    ],
    "ocsvm": [
        ("nu", 0.0, "nu"),
        ("gamma", 0.0, "gamma"),
    ],
    "autoencoder": [
        ("hidden_sizes", [], "hidden_sizes"),
        ("learning_rate", 0.0, "learning_rate"),
        ("epochs", -1, "epochs"),
        ("seed", ANY),
    ],
    "contractive": [
        ("hidden_dim", 0, "hidden_dim"),
        ("reg_weight", -1.0, "reg_weight"),
        ("learning_rate", 0.0, "learning_rate"),
        ("epochs", -1, "epochs"),
        ("seed", ANY),
    ],
    "variational": [
        ("hidden_sizes", [0], "hidden_sizes[0]"),
        ("latent_dim", 0, "latent_dim"),
        ("learning_rate", -1.0, "learning_rate"),
        ("batch_size", 0, "batch_size"),
        ("epochs", -1, "epochs"),
        ("seed", ANY),
    ],
}


def _config_build(cls):
    """``cls`` built from a JSON object of settings, as a run builds it."""
    if cls is DetectorConfig:
        return lambda data: PipelineConfig(detector=DetectorConfig.from_dict(data))
    return cls.from_dict


def _detector_build(name):
    return lambda data: build_detector(DetectorConfig(name=name, params=data))


CASES = [(cls, rows, _config_build(cls)) for cls, rows in CONFIG_ROWS.items()] + [
    (type(build_detector(DetectorConfig(name=name))), rows, _detector_build(name))
    for name, rows in DETECTOR_ROWS.items()
]


def test_every_detector_has_rows():
    assert sorted(DETECTOR_ROWS) == sorted(DETECTOR_NAMES)


@pytest.mark.parametrize("cls, rows, build", CASES, ids=[c[0].__name__ for c in CASES])
def test_every_setting_is_checked(cls, rows, build):
    assert [row[0] for row in rows] == [f.name for f in fields(cls) if f.init]
    for name, *rest in rows:
        if rest == [ANY]:
            samples = (False, True) if name != "seed" else (-1, 0, 2**64)
            assert name == "seed" or get_type_hints(cls)[name] is bool
            for value in samples:
                build({name: value})
            continue
        bad, carries = rest
        with pytest.raises(ValueError, match=re.escape(carries)):
            build({name: bad})
