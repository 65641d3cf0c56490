"""Every setting is checked. The table below has a row per init field of
each config class and each detector: a bad value and the text its error
carries (the setting's name, or the ``Class.key`` of the codec), or ANY
for a config's master seed, which takes every integer. A detector's seed
is the pipeline's to set, so its row is the refusal of any value. The
rows must name exactly the class's init fields, so a new setting without
a check, or a row left for a removed one, fails here."""

import json
import re
from dataclasses import fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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
    "manhattan": [],
    "ocsvm": [
        ("nu", 0.0, "nu"),
        ("gamma", 0.0, "gamma"),
    ],
    "autoencoder": [
        ("hidden_sizes", [], "hidden_sizes"),
        ("learning_rate", 0.0, "learning_rate"),
        ("epochs", -1, "epochs"),
        ("seed", 5, "takes no parameter(s) seed"),
    ],
    "contractive": [
        ("hidden_dim", 0, "hidden_dim"),
        ("reg_weight", -1.0, "reg_weight"),
        ("learning_rate", 0.0, "learning_rate"),
        ("epochs", -1, "epochs"),
        ("seed", 5, "takes no parameter(s) seed"),
    ],
    "variational": [
        ("hidden_sizes", [0], "hidden_sizes[0]"),
        ("latent_dim", 0, "latent_dim"),
        ("learning_rate", -1.0, "learning_rate"),
        ("batch_size", 0, "batch_size"),
        ("epochs", -1, "epochs"),
        ("seed", 5, "takes no parameter(s) seed"),
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
            assert name == "seed"
            for value in (-1, 0, 2**64):
                build({name: value})
            continue
        bad, carries = rest
        with pytest.raises(ValueError, match=re.escape(carries)):
            build({name: bad})


# Every setting's name, across the config classes and the detectors.
SETTING_NAMES = {f.name for cls, _, _ in CASES for f in fields(cls) if f.init}
# Values a setting takes or nearly takes, besides arbitrary JSON.
_NEAR_VALID = ["align", "truncate", "sd", "none", "ensemble", *DETECTOR_NAMES, "victim"]


def _json_values():
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(max_size=6),
        st.sampled_from(_NEAR_VALID),
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.sampled_from(sorted(SETTING_NAMES | {"bogus"})), inner, max_size=3),
        ),
        max_leaves=8,
    )


def _like(value):
    """JSON values of the kind of the default ``value``, most of them valid."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(min_value=-1, max_value=2 * value + 2)
    if isinstance(value, float):
        return st.floats(min_value=0.0, max_value=2 * value + 1)
    if isinstance(value, str):
        return st.sampled_from(_NEAR_VALID)
    if isinstance(value, list):
        return st.lists(_like(value[0]), min_size=len(value), max_size=len(value))
    return st.just(value)


@st.composite
def _documents(draw):
    """A config class and a JSON object of some of its settings, or of an
    unknown one: each the default, a value of the default's kind, or any
    JSON value."""
    cls, _, build = draw(st.sampled_from(CASES[: len(CONFIG_ROWS)]))
    defaults = cls().to_dict()
    defaults["members"] = [{"name": "manhattan"}, {"name": "ocsvm"}]  # None by default
    names = draw(st.sets(st.sampled_from([f.name for f in fields(cls)] + ["bogus"]), max_size=3))
    document = {}
    for name in sorted(names):
        values = [_json_values()]
        if name in defaults:
            values += [st.just(defaults[name]), _like(defaults[name])]
        document[name] = draw(st.one_of(values))
    return cls, build, document


@given(_documents())
@example((SynthConfig, SynthConfig.from_dict, {"shift_drop": 1.0, "shift_transpose": 1.0}))
def test_every_config_document_builds_or_names_a_setting(case):
    """A config read from JSON either builds, and writes the same JSON
    back, or is a ValueError naming a setting: the codec's ``Class.key``,
    an unknown key, or the setting a check rejected."""
    cls, build, document = case
    try:
        built = build(json.loads(json.dumps(document)))
    except ValueError as exc:
        words = set(re.findall(r"\w+", str(exc)))
        assert words & SETTING_NAMES or "bogus" in words, (document, str(exc))
        return
    if cls is DetectorConfig:
        built = built.detector
    again = cls.from_dict(json.loads(json.dumps(built.to_dict())))
    assert again == built and again.to_dict() == built.to_dict()
