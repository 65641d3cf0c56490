"""The benchmark tracer (perfbench/spans.py) wraps package functions and
detector methods by name, so a traced run fails with AttributeError once a
name it wraps is renamed or deleted. spans.py imports only the standard
library, so it is loaded here by path, unedited."""

import importlib
import importlib.util
from pathlib import Path

from keygait import PipelineConfig, alignment, load_dataset, run_pipeline, write_dataset

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _spans()
    for _, module_name, attr in spans.FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    for module_name, class_name in spans.DETECTOR_CLASSES.values():
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in spans.DETECTOR_METHODS:
            assert callable(getattr(cls, method, None)), f"{class_name}.{method}"


def test_tracer_sees_the_pipeline_align_calls(small_dataset):
    original = alignment.align
    tracer = _spans().Tracer()
    with tracer.installed():
        scores = run_pipeline(small_dataset, PipelineConfig())
    assert alignment.align is original
    # every template, the target included, and every query is aligned once
    n_sequences = sum(
        len(entry.templates) + len(entry.queries) for entry in small_dataset.subjects.values()
    )
    assert tracer.calls["alignment.align"] == n_sequences
    # each subject's queries are scored in one score_all call
    assert tracer.calls["detectors.manhattan.score_all"] == len(small_dataset.subjects)
    assert tracer.calls["detectors.manhattan.score"] == 0
    assert len(scores) == sum(len(entry.queries) for entry in small_dataset.subjects.values())
    # the tracer's counts are read off each mapping: they equal direct
    # calls against each subject's target template, and neither is zero
    mappings = []
    for entry in small_dataset.subjects.values():
        templates = [s.sequence for s in entry.templates]
        target = templates[alignment.select_target(templates)]
        mappings += [
            alignment.align(s.sequence, target)[1] for s in (*entry.templates, *entry.queries)
        ]
    assert len(mappings) == n_sequences
    substitutions = sum(m.substitution_count() for m in mappings)
    flagged = sum(m.flagged for m in mappings)
    assert tracer.counts["alignment.align.substitutions"] == substitutions > 0
    assert tracer.counts["alignment.align.flagged"] == flagged > 0


def test_tracer_times_the_parse_and_feature_path(small_dataset, tmp_path):
    write_dataset(small_dataset, tmp_path)
    tracer = _spans().Tracer()
    with tracer.installed():
        scores = run_pipeline(load_dataset(tmp_path), PipelineConfig())
    # every file write_dataset writes is read by the block reader, so the
    # line scanner and the pairing loop never run
    assert tracer.calls["events.parse_raw_events"] == 0
    assert tracer.calls["events.pair_events"] == 0
    # every subject prepares, into one feature matrix normalized in one call
    assert len({r.subject_id for r in scores if not r.flagged}) == len(small_dataset.subjects)
    assert tracer.calls["features.extract_features"] == len(small_dataset.subjects)
    assert tracer.calls["features.normalize_features"] == len(small_dataset.subjects)
    # each file the block reader declines is scanned and paired once
    declined = [tmp_path / "s001" / "t01.txt", tmp_path / "s002" / "q01.txt", tmp_path / "s006" / "q09.txt"]
    for path in declined:
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    tracer = _spans().Tracer()
    with tracer.installed():
        load_dataset(tmp_path)
    assert tracer.calls["events.parse_raw_events"] == len(declined)
    assert tracer.calls["events.pair_events"] == len(declined)
