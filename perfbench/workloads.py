"""Workload process of the keygait benchmark.

Started by ``run.py`` in one of three modes, each in a fresh process:

    probe    import keygait and report how long the import took
    prepare  also write the workload's on-disk inputs (kboc-evaluate only)
    run      also run timed passes of the workload, check every pass, and
             report the metrics as one JSON line

Every mode reports its cold ``import keygait`` time, which ``run.py``
pools into ``setup_s``. The package is driven only through its public
entry points: ``keygait.cli.main``, ``run_pipeline``,
``generate_synthetic`` and ``write_dataset``.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()
import keygait  # noqa: E402  (timed: this is the set-up every CLI user pays)

IMPORT_S = time.perf_counter() - _IMPORT_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import keygait.cli  # noqa: E402
import keygait.datasets  # noqa: E402
import keygait.evaluation  # noqa: E402
from keygait import DetectorConfig, PipelineConfig, SynthConfig  # noqa: E402

from spans import COUNT_NAMES, DETECTOR_CLASSES, SPAN_NAMES, TOP_SPAN, Tracer  # noqa: E402

# Perturbation rates of the standard fixture.
FIXTURE = {"shift_drop": 0.05, "shift_transpose": 0.03, "capslock_sub": 0.02}
NEURAL_DETECTORS = ("ocsvm", "contractive", "variational", "autoencoder")
# EERs of seed 0, the standard fixture, at full size. The EERs are
# deterministic, so a pass on seed 0 that worsens one by more than
# EER_TOLERANCE fails the gate.
SEED0_EERS = {
    "kboc-evaluate": {"quality.global_eer": 0.04666666666666667,
                      "quality.subject_eer_mean": 0.041666666666666664},
    "neural-train": {"quality.global_eer": 0.17, "quality.subject_eer_mean": 0.1775},
    "study": {"quality.global_eer": 0.0981, "quality.subject_eer_mean": 0.059},
}
EER_TOLERANCE = 1e-6


def _synth_config(n_subjects: int, seed: int) -> SynthConfig:
    return SynthConfig(n_subjects=n_subjects, seed=seed, **FIXTURE)


# A step of a pass: one timed call into the package, returning the
# problems it found. Passes are split into steps so that the reference
# work (see ``reference_s``) can run between them, outside the timing.
Step = Callable[[], list[str]]


def _cli_step(argv: list[str]) -> Step:
    """One ``keygait`` command with its output swallowed."""

    def run() -> list[str]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = keygait.cli.main(argv)
        return [] if code == 0 else [f"keygait {argv[0]} exited {code}"]

    return run


# --- kboc-evaluate: the reference set's shape, read from disk -------------


def _kboc_prepare(work: Path, seed: int, tiny: bool) -> None:
    dataset, _ = keygait.generate_synthetic(_synth_config(4 if tiny else 300, seed))
    keygait.datasets.write_dataset(dataset, work / "data")


def _kboc_load(work: Path, seed: int, tiny: bool) -> Path:
    return work / "data"


def _kboc_steps(data: Path, out: Path, seed: int, tiny: bool) -> list[Step]:
    return [_cli_step(["evaluate", "--data", str(data), "--out", str(out / "run"),
                       "--detector", "manhattan", "--method", "align", "--score-norm", "sd"])]


# --- neural-train: detector fit on in-memory subjects ---------------------


def _neural_load(work: Path, seed: int, tiny: bool):
    dataset, _ = keygait.generate_synthetic(_synth_config(2 if tiny else 10, seed))
    return dataset


def _neural_steps(dataset, out: Path, seed: int, tiny: bool) -> list[Step]:
    def step(name: str) -> Step:
        def run() -> list[str]:
            keygait.evaluation.run_pipeline(
                dataset, PipelineConfig(detector=DetectorConfig(name=name))
            )
            return []

        return run

    return [step(name) for name in NEURAL_DETECTORS]


# --- study: the README quick start, in order ------------------------------


def _study_steps(_, out: Path, seed: int, tiny: bool) -> list[Step]:
    bench, coarse, run = str(out / "bench"), str(out / "coarse"), str(out / "run")
    fixture = ["--shift-drop", "0.05", "--shift-transpose", "0.03", "--capslock-sub", "0.02"]
    commands = [
        ["synth", "--out", bench, "--subjects", "4" if tiny else "50",
         "--seed", str(seed), *fixture],
        ["evaluate", "--data", bench, "--out", run, "--detector", "manhattan",
         "--score-norm", "sd"],
        ["ablate", "--data", bench],
        ["audit", "--data", bench, "--out", str(out / "audit.tsv")],
        ["synth", "--out", coarse, "--subjects", "8", "--quantum", "40",
         "--seed", str(seed)],
        ["resolution", "--data", coarse],
        ["validate", "--data", bench, "--reps", "2" if tiny else "10", "--templates", "4"],
        ["eer", "--scores", str(out / "run" / "scores.tsv"),
         "--labels", str(out / "bench" / "ground_truth.tsv")],
    ]
    return [_cli_step(argv) for argv in commands]


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Path, int, bool], None] | None
    load: Callable[[Path, int, bool], object]
    steps: Callable[[object, Path, int, bool], list[Step]]


WORKLOADS = {
    "kboc-evaluate": Workload(_kboc_prepare, _kboc_load, _kboc_steps),
    "neural-train": Workload(None, _neural_load, _neural_steps),
    "study": Workload(None, lambda work, seed, tiny: None, _study_steps),
}


class PipelineRuns:
    """Keeps (queries in, config, scores) of every run_pipeline call.

    Installed for the whole process at every name that holds
    ``run_pipeline``, so runs made inside the CLI and inside
    ``monte_carlo_validate`` are seen too. It costs one extra Python call
    per pipeline run.
    """

    def __init__(self) -> None:
        self.runs: list[tuple[int, PipelineConfig, object]] = []
        original = keygait.evaluation.run_pipeline

        def run_pipeline(dataset, config):
            scores = original(dataset, config)
            n_queries = sum(len(entry.queries) for entry in dataset.subjects.values())
            self.runs.append((n_queries, config, scores))
            return scores

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "keygait" and getattr(module, "run_pipeline", None) is original:
                module.run_pipeline = run_pipeline


def check_runs(runs, scratch: Path) -> tuple[list[str], str]:
    """Correctness gate of one pass: problems found, and a digest of every
    run's ``scores.tsv`` bytes for comparing passes."""
    problems: list[str] = []
    if not runs:
        problems.append("no pipeline run")
    digest = hashlib.sha256()
    for i, (n_in, config, scores) in enumerate(runs):
        if len(scores) != n_in:
            problems.append(f"run {i}: {len(scores)} records for {n_in} queries")
        for r in scores:
            where = f"run {i}: {r.subject_id}/{r.sample_id}"
            if r.flagged:
                if r.raw_score != -math.inf:
                    problems.append(f"{where}: flagged with raw score {r.raw_score}")
            elif not math.isfinite(r.raw_score):
                problems.append(f"{where}: raw score {r.raw_score} not flagged")
            norm = r.normalized_score
            if config.score_norm.kind == "none":
                if norm != r.raw_score:
                    problems.append(f"{where}: kind none changed the score")
            elif norm is None or not 0.0 <= norm <= 1.0:
                problems.append(f"{where}: normalized score {norm} outside [0, 1]")
        path = scratch / "gate_scores.tsv"
        keygait.datasets.write_scores(scores, path)
        digest.update(path.read_bytes())
    return problems, digest.hexdigest()


def quality(runs) -> dict[str, float]:
    """EERs (mean over the pass's pipeline runs, and per detector) and the
    share of query records flagged as failure to capture."""
    global_eers: dict[str, list[float]] = {}
    subject_eers: list[float] = []
    records = flagged = 0
    for _, config, scores in runs:
        global_eers.setdefault(config.detector.name, []).append(keygait.evaluation.global_eer(scores))
        subject_eers.append(keygait.evaluation.subject_eer(scores).mean)
        records += len(scores)
        flagged += scores.ftc_count
    pooled = [e for eers in global_eers.values() for e in eers]
    out = {
        "quality.global_eer": statistics.fmean(pooled),
        "quality.subject_eer_mean": statistics.fmean(subject_eers),
        "quality.ftc_frac": flagged / records,
        "quality.records": records,
    }
    for det in DETECTOR_CLASSES:
        eers = global_eers.get(det)
        out[f"detectors.{det}.global_eer"] = statistics.fmean(eers) if eers else 0.0
    return out


def environment() -> dict[str, object]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "keygait_threads": os.environ.get("KEYGAIT_THREADS", "unset"),
    }


class _Key:
    __slots__ = ("code", "name", "times")

    def __init__(self, code: int, name: str, times: tuple[int, int]) -> None:
        self.code, self.name, self.times = code, name, times


def reference_s() -> float:
    """Time a fixed piece of work that exercises the interpreter the way
    the package does: text parsing, small objects, dicts, sorting and tiny
    numpy operations, in small batches so it adds little to peak memory.
    It lives in the benchmark, so no change to the package can alter it;
    only the speed of the machine can."""
    gc.collect()
    t0 = time.perf_counter()
    for batch in range(12):
        groups: dict[int, list[_Key]] = {}
        for k in range(batch * 3_000, (batch + 1) * 3_000):
            code, name, _ = f"{k}\tkey{k % 97}\tpress".split("\t")
            groups.setdefault(k % 300, []).append(_Key(int(code), name, (k, k + 1)))
        for keys in groups.values():
            keys.sort(key=lambda key: -key.code)
    x = np.ones((4, 40))
    w = np.full((40, 20), 0.01)
    for _ in range(2_400):
        x = x - 0.001 * (np.tanh(x @ w) @ w.T)
    return time.perf_counter() - t0


def measure(name: str, work: Path, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run passes for ``seconds`` (at least two) and return the metrics.

    A pass is a list of steps. Untraced, each step is timed on the wall
    clock and divided by the mean time of ``reference_s`` measured just
    before and just after it; ``pass_ref`` is the sum of these ratios over
    the pass. It cancels most of the drift in speed of a shared machine,
    which moves raw pass times by a third from one minute to the next.

    Untraced, every pass counts. Traced, the first half of the time runs
    untraced passes and the second half traced ones, so the traced run
    reports its own pass time and the tracing overhead. Every pass goes
    through the correctness gate, and all passes must write the same
    ``scores.tsv`` bytes. On seed 0 the EERs must be no worse than
    ``SEED0_EERS``.
    """
    workload = WORKLOADS[name]
    state = workload.load(work, seed, tiny)
    collector = PipelineRuns()
    out = work / "pass"
    passes: dict[bool, list[tuple[float, float, Tracer | None]]] = {False: [], True: []}
    refs: list[float] = []
    digests: list[str] = []
    failed = 0
    first_quality: dict[str, float] = {}
    start = time.perf_counter()
    phases = [(False, seconds / 2), (True, seconds)] if trace else [(False, seconds)]
    min_passes = 1 if trace else 2
    for traced, until in phases:
        iteration_s = 0.0
        # Start another pass only if it should end inside the window.
        while len(passes[traced]) < min_passes or (
            time.perf_counter() - start + iteration_s <= until
        ):
            iteration_start = time.perf_counter()
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            collector.runs.clear()
            steps = workload.steps(state, out, seed, tiny)
            problems: list[str] = []
            if traced:
                tracer = Tracer()
                with tracer.installed():
                    t0 = time.perf_counter()
                    with tracer.span(TOP_SPAN):
                        for step in steps:
                            problems += step()
                    pass_s = time.perf_counter() - t0
                passes[True].append((pass_s, 0.0, tracer))
            else:
                # Each step's time over the mean of the reference times
                # measured just before and just after it.
                refs.append(reference_s())
                pass_s = pass_ref = 0.0
                for step in steps:
                    t0 = time.perf_counter()
                    problems += step()
                    step_s = time.perf_counter() - t0
                    refs.append(reference_s())
                    pass_s += step_s
                    pass_ref += 2 * step_s / (refs[-2] + refs[-1])
                passes[False].append((pass_s, pass_ref, None))
            print(f"pass {len(passes[traced])}{' traced' if traced else ''}: {pass_s:.3f} s",
                  file=sys.stderr)

            gate, digest = check_runs(collector.runs, work)
            problems += gate
            if digests and digest != digests[0]:
                problems.append("scores.tsv bytes differ from the first pass")
            digests.append(digest)
            if not first_quality and collector.runs:
                first_quality = quality(collector.runs)
                if seed == 0 and not tiny:
                    for key, expected in SEED0_EERS[name].items():
                        if first_quality[key] > expected + EER_TOLERANCE:
                            problems.append(f"{key} {first_quality[key]} worse than {expected}")
            if problems:
                failed += 1
                print(f"pass failed: {problems[:5]}", file=sys.stderr)
            iteration_s = time.perf_counter() - iteration_start

    untraced_s = statistics.median(p[0] for p in passes[False])
    raw = {
        "pass_s": untraced_s,
        "queries_per_s": first_quality.get("quality.records", 0) / untraced_s,
    }
    result = {
        "attempted": len(passes[False]) + len(passes[True]),
        "failed": failed,
        "environment": environment(),
        "quality": first_quality,
        "raw": raw,
    }
    if not trace:
        result["metrics"] = {
            "pass_ref": statistics.median(p[1] for p in passes[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return result
    tracers = [p[2] for p in passes[True]]
    last = tracers[-1]
    traced_s = statistics.median(p[0] for p in passes[True])
    metrics: dict[str, float] = {
        "pass.untraced_s": untraced_s,
        "pass.queries_per_s": raw["queries_per_s"],
        "pass.reference_s": statistics.median(refs),
        "pass.traced_s": traced_s,
        "pass.overhead_s": traced_s - untraced_s,
        "pass.self_s": statistics.median(t.self_s[TOP_SPAN] for t in tracers),
    }
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = last.calls[span]
        metrics[f"{span}.self_s"] = statistics.median(t.self_s[span] for t in tracers)
    for count in COUNT_NAMES:
        metrics[count] = last.counts[count]
    fits = last.calls["detectors.ocsvm.fit"]
    metrics["detectors.ocsvm.converged_frac"] = (
        last.counts["detectors.ocsvm.converged"] / fits if fits else 0.0
    )
    metrics.update(first_quality)
    result["metrics"] = metrics
    result["spans"] = last.spans
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "prepare", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--work", type=Path, help="scratch directory of this run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--tiny", action="store_true", help="a few subjects, for the smoke test")
    args = parser.parse_args(argv)
    result: dict[str, object] = {}
    if args.mode == "prepare" and WORKLOADS[args.workload].prepare is not None:
        WORKLOADS[args.workload].prepare(args.work, args.seed, args.tiny)
    elif args.mode == "run":
        result = measure(args.workload, args.work, args.seed, args.seconds, bool(args.trace), args.tiny)
        spans = result.pop("spans", None)
        if spans is not None and args.spans is not None:
            with open(args.spans, "w") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
    result["import_s"] = IMPORT_S
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
