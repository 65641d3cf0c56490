"""In-memory span tracer that wraps keygait's public functions from outside.

A span is (id, name, start, end, parent id). The tracer never edits the
package: for the length of a traced pass it replaces every module
attribute that holds a traced function with a timing wrapper, because
each caller looks the function up in its own namespace (``cli`` calls
``keygait.cli.load_dataset``, ``run_pipeline`` calls
``keygait.evaluation.align``). Detector methods are wrapped on each
concrete class. Everything is put back when the pass ends.

A span's self time is its duration minus the time covered by its child
spans. Counts are read from return values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (span name, defining module, function). ``config``, ``scancodes`` and
# ``errors`` do no timed work and are not traced.
FUNCTIONS = (
    ("events.parse_raw_events", "keygait.events", "parse_raw_events"),
    ("events.pair_events", "keygait.events", "pair_events"),
    ("events.serialize_events", "keygait.events", "serialize_events"),
    ("datasets.load_dataset", "keygait.datasets", "load_dataset"),
    ("datasets.write_dataset", "keygait.datasets", "write_dataset"),
    ("datasets.write_scores", "keygait.datasets", "write_scores"),
    ("datasets.read_scores", "keygait.datasets", "read_scores"),
    ("alignment.align", "keygait.alignment", "align"),
    ("alignment.truncate_align", "keygait.alignment", "truncate_align"),
    ("alignment.discard_modifiers", "keygait.alignment", "discard_modifiers"),
    ("alignment.select_target", "keygait.alignment", "select_target"),
    ("alignment.damerau_levenshtein", "keygait.alignment", "damerau_levenshtein"),
    ("alignment.audit_dataset", "keygait.alignment", "audit_dataset"),
    ("features.extract_features", "keygait.features", "extract_features"),
    ("features.fit_feature_normalizer", "keygait.features", "fit_feature_normalizer"),
    ("features.normalize_features", "keygait.features", "normalize_features"),
    ("scorenorm.apply_normalization", "keygait.scorenorm", "apply_normalization"),
    ("scorenorm.normalize_minmax", "keygait.scorenorm", "normalize_minmax"),
    ("scorenorm.normalize_sd", "keygait.scorenorm", "normalize_sd"),
    ("evaluation.run_pipeline", "keygait.evaluation", "run_pipeline"),
    ("evaluation.monte_carlo_validate", "keygait.evaluation", "monte_carlo_validate"),
    ("evaluation.global_eer", "keygait.evaluation", "global_eer"),
    ("evaluation.subject_eer", "keygait.evaluation", "subject_eer"),
    ("evaluation.roc", "keygait.evaluation", "roc"),
    ("synthesis.generate_synthetic", "keygait.synthesis", "generate_synthetic"),
    ("resolution.collect_latencies", "keygait.resolution", "collect_latencies"),
    ("resolution.estimate_resolution", "keygait.resolution", "estimate_resolution"),
    ("cli.main", "keygait.cli", "main"),
)

DETECTOR_CLASSES = {
    "manhattan": ("keygait.detectors.manhattan", "ManhattanDetector"),
    "ocsvm": ("keygait.detectors.ocsvm", "OneClassSvm"),
    "autoencoder": ("keygait.detectors.autoencoder", "TiedAutoencoder"),
    "contractive": ("keygait.detectors.contractive", "ContractiveAutoencoder"),
    "variational": ("keygait.detectors.variational", "VariationalAutoencoder"),
}
DETECTOR_METHODS = ("fit", "score", "score_all")

TOP_SPAN = "pass"

SPAN_NAMES = tuple(name for name, _, _ in FUNCTIONS) + tuple(
    f"detectors.{det}.{method}" for det in DETECTOR_CLASSES for method in DETECTOR_METHODS
)

# Counts read from return values, by metric name.
COUNT_NAMES = (
    "alignment.align.substitutions",
    "alignment.align.flagged",
    "datasets.load_dataset.bytes",
    "detectors.ocsvm.n_iter",
    "detectors.ocsvm.converged",
)


def _count_align(args, kwargs, result, counts: Counter) -> None:
    _, mapping = result
    counts["alignment.align.substitutions"] += mapping.substitution_count()
    counts["alignment.align.flagged"] += int(mapping.flagged)


def _count_load(args, kwargs, result, counts: Counter) -> None:
    root = Path(args[0] if args else kwargs["root"])
    total = (root / "manifest.tsv").stat().st_size
    for entry in result.subjects.values():
        for sample in (*entry.templates, *entry.queries):
            total += (root / sample.subject_id / f"{sample.sample_id}.txt").stat().st_size
    counts["datasets.load_dataset.bytes"] += total


def _count_ocsvm_fit(args, kwargs, result, counts: Counter) -> None:
    # ``fit`` leaves ``n_iter_ == max_iter`` both when it runs out of
    # iterations and when it meets the tolerance in the last one, so this
    # counts the latter as not converged: a lower bound.
    counts["detectors.ocsvm.n_iter"] += result.n_iter_
    counts["detectors.ocsvm.converged"] += int(result.n_iter_ < result.max_iter)


COUNTERS = {
    "alignment.align": _count_align,
    "datasets.load_dataset": _count_load,
    "detectors.ocsvm.fit": _count_ocsvm_fit,
}


class Tracer:
    """Collects spans, per-name call counts and self times, and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, child time, start]
        self._next_id = 0

    def _open(self) -> None:
        self._stack.append([self._next_id, 0.0, time.perf_counter()])
        self._next_id += 1

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        span_id, child_s, start = self._stack.pop()
        duration = end - start
        parent_id = -1
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent_id = parent[0]
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        self.spans.append((span_id, name, start, end, parent_id))

    def _wrapper(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name)
            if counter is not None:
                t0 = time.perf_counter()
                counter(args, kwargs, result, self.counts)
                # Counting is the tracer's work: charge it to no span.
                if self._stack:
                    self._stack[-1][1] += time.perf_counter() - t0
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        """Time the body of a ``with`` block as one span."""
        self._open()
        try:
            yield
        finally:
            self._close(name)

    @contextmanager
    def installed(self):
        """Wrap every traced function and method; restore them on exit."""
        restore: list[tuple[object, str, object, bool]] = []
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "keygait"]
        try:
            for name, module_name, attr in FUNCTIONS:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrapper(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, value, True))
                            setattr(module, key, wrapper)
            for det, (module_name, class_name) in DETECTOR_CLASSES.items():
                cls = getattr(importlib.import_module(module_name), class_name)
                for method in DETECTOR_METHODS:
                    original = getattr(cls, method)
                    restore.append((cls, method, original, method in vars(cls)))
                    setattr(cls, method, self._wrapper(f"detectors.{det}.{method}", original))
            yield self
        finally:
            for owner, key, value, owned in reversed(restore):
                if owned:
                    setattr(owner, key, value)
                else:
                    delattr(owner, key)
