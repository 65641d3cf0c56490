"""The benchmark tracer (perfbench/spans.py) wraps package functions and
detector methods by name, so a traced run fails with AttributeError once a
name it wraps is renamed or deleted. spans.py imports only the standard
library, so it is loaded here by path, unedited."""

import importlib
import importlib.util
from pathlib import Path

from keygait import PipelineConfig, alignment, run_pipeline

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
    assert tracer.calls["detectors.manhattan.score"] == len(scores)
