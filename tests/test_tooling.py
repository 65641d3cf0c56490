"""The benchmark tracer (perfbench/spans.py) wraps package functions and
detector methods by name, so a traced run fails with AttributeError once a
name it wraps is renamed or deleted. spans.py imports only the standard
library, so it is loaded here by path, unedited.

The CI workflow's ``runtime`` step checks nothing itself: it installs the
package without the test extra and runs ``tests/runtime_checks.py``, whose
checks tier-1 runs too. The workflow is read as plain text, so this needs
no YAML parser."""

import importlib
import importlib.util
from pathlib import Path

from keygait import PipelineConfig, alignment, evaluation, load_dataset, run_pipeline, write_dataset

from oracles import reference_align

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


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
    # the pipeline aligns each subject through one index matrix, not align
    assert tracer.calls["alignment.align"] == 0
    # each subject's queries are scored in one score_all call
    assert tracer.calls["detectors.manhattan.score_all"] == len(small_dataset.subjects)
    assert tracer.calls["detectors.manhattan.score"] == 0
    assert len(scores) == sum(len(entry.queries) for entry in small_dataset.subjects.values())
    # one alignment record per template, the target included, and per
    # query; their counts equal direct calls against each subject's target
    # template, and neither is zero
    records = [
        m for p in evaluation.prepare(small_dataset, PipelineConfig())
        for m in (*p.template_alignments, *p.query_alignments)
    ]
    mappings = []
    for entry in small_dataset.subjects.values():
        templates = [s.sequence for s in sorted(entry.templates, key=lambda s: s.sample_id)]
        target = templates[alignment.select_target(templates)]
        mappings += [reference_align(s.sequence, target)[1] for s in (*entry.templates, *entry.queries)]
    assert len(records) == len(mappings)
    substitutions = sum(m.substitution_count() for m in mappings)
    flagged = sum(m.flagged for m in mappings)
    assert sum(m.substitution_count() for m in records) == substitutions > 0
    assert sum(m.flagged for m in records) == flagged > 0


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


def _run_block(step: str) -> list[str]:
    """The commands in the ``run: |`` block of the workflow step named
    ``step``, without blank lines and comments."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {step}")
    run = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    commands = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        if line.strip() and not line.strip().startswith("#"):
            commands.append(line.strip())
    return commands


def test_the_runtime_step_only_installs_and_runs_the_checks_module():
    # no cmp, test, grep or diff here: a new check goes into
    # tests/runtime_checks.py, where tier-1 runs it as well
    assert _run_block("runtime") == [
        'python -m venv "$RUNNER_TEMP/runtime"',
        '"$RUNNER_TEMP/runtime/bin/pip" install .',
        '"$RUNNER_TEMP/runtime/bin/python" -c "import importlib.util as u, sys;'
        " sys.exit(u.find_spec('scipy') is not None)\"",
        '"$RUNNER_TEMP/runtime/bin/keygait" synth --out "$RUNNER_TEMP/smoke" --subjects 1',
        '"$RUNNER_TEMP/runtime/bin/python" tests/runtime_checks.py',
    ]
