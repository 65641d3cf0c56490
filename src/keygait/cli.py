"""Command-line entry points.

Subcommands:
    synth       generate a labeled synthetic dataset
    audit       edit-distance audit of sequence agreement within subjects
    resolution  estimate the capture clock resolution from latencies
    evaluate    run the scoring pipeline over a dataset directory
    eer         compute EER metrics from a score file plus labels
    validate    Monte Carlo template/query splits on a labeled dataset
    ablate      alignment x score-normalization grid on a labeled dataset

Exit codes: 0 success, 1 operational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .alignment import audit_dataset
from .config import (
    ALIGNMENT_METHODS,
    SCORE_NORM_KINDS,
    DetectorConfig,
    PipelineConfig,
    ScoreNormConfig,
    load_config,
    write_config_snapshot,
)
from .datasets import (
    attach_labels,
    load_dataset,
    ordered_samples,
    read_labels,
    read_scores,
    tsv,
    write_dataset,
    write_labels,
    write_metrics,
    write_scores,
    written_scores,
)
from .detectors import DETECTOR_NAMES
from .errors import KeygaitError
from .evaluation import (
    RocCurve,
    check_split_counts,
    effective_scores,
    global_eer,
    monte_carlo_validate,
    normalize_scores,
    prepare,
    raw_scores,
    roc,
    run_pipeline,
    subject_eer,
)
from .resolution import collect_latencies, estimate_resolution
from .scorenorm import ScoreSet
from .synthesis import SynthConfig, generate_synthetic, write_perturbations


def _add_pipeline_flags(parser: argparse.ArgumentParser, *, grid: bool = False) -> None:
    parser.add_argument("--config", type=Path, help="pipeline config JSON")
    if not grid:  # a grid command sweeps every alignment method and score norm
        parser.add_argument("--method", choices=ALIGNMENT_METHODS, help="alignment method")
        parser.add_argument("--score-norm", choices=SCORE_NORM_KINDS, help="score normalization")
    parser.add_argument(
        "--detector",
        choices=DETECTOR_NAMES,
        help="detector name (ensembles need a config file)",
    )
    parser.add_argument("--h-s", type=float, help="score normalization width")
    parser.add_argument("--h-f", type=float, help="feature normalization width")
    parser.add_argument("--seed", type=int, help="master seed")


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    config = (
        load_config(args.config, PipelineConfig) if args.config else PipelineConfig()
    )
    if args.method is not None:
        config = replace(config, alignment=args.method)
    if args.detector is not None:
        config = replace(config, detector=DetectorConfig(name=args.detector))
    if args.score_norm is not None or args.h_s is not None:
        kind = args.score_norm if args.score_norm is not None else config.score_norm.kind
        h_s = args.h_s if args.h_s is not None else config.score_norm.h_s
        config = replace(config, score_norm=ScoreNormConfig(kind=kind, h_s=h_s))
    if args.h_f is not None:
        config = replace(config, h_f=args.h_f)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_synth(args: argparse.Namespace) -> int:
    config = load_config(args.config, SynthConfig) if args.config else SynthConfig()
    flags = {f.name: getattr(args, f.name, None) for f in fields(SynthConfig)}
    config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    dataset, log = generate_synthetic(config)
    out = Path(args.out)
    write_dataset(dataset, out)
    write_labels(ordered_samples(dataset), out / "ground_truth.tsv")
    write_perturbations(log, out / "perturbations.tsv")
    write_config_snapshot(config, out)
    print(f"wrote {dataset.n_samples()} samples for {len(dataset.subject_ids())} subjects to {out}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    text = audit_dataset(load_dataset(args.data)).to_tsv()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_resolution(args: argparse.Namespace) -> int:
    value = estimate_resolution(collect_latencies(load_dataset(args.data)))
    sys.stdout.write(tsv([("estimated_resolution_ms", value)]))
    return 0


def _eer_metrics(scores: ScoreSet) -> tuple[dict[str, object], RocCurve, np.ndarray, np.ndarray]:
    """The ``metrics.tsv`` rows of labeled scores, each computed once, with
    the pooled ROC and the scores and genuine flags it was built from."""
    values, genuine = effective_scores(scores)
    curve = roc(values, genuine)
    report = subject_eer(scores)
    metrics: dict[str, object] = {
        "global_eer": curve.eer(),
        "subject_eer_mean": report.mean,
        "subject_eer_sd": report.sd,
        "n_subjects": len(report.per_subject),
        "n_scores": len(values),
        "n_flagged": scores.ftc_count,
    }
    return metrics, curve, values, genuine


def _write_eer_outputs(
    out: Path, metrics: dict[str, object], curve: RocCurve, values: np.ndarray, gen: np.ndarray
) -> None:
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(metrics, out / "metrics.tsv")
    (out / "roc.tsv").write_text(curve.to_tsv(), encoding="utf-8")

    finite = np.isfinite(values)
    bins: list[tuple] = []
    if finite.any():
        lo, hi = float(values[finite].min()), float(values[finite].max())
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, 51)
        g_counts, _ = np.histogram(values[finite & gen], bins=edges)
        i_counts, _ = np.histogram(values[finite & ~gen], bins=edges)
        bins = list(zip(edges[:-1].tolist(), edges[1:].tolist(), g_counts.tolist(), i_counts.tolist()))
    header = ("bin_lo", "bin_hi", "genuine", "impostor")
    (out / "score_hist.csv").write_text(tsv(bins, header, sep=","), encoding="utf-8")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    dataset = load_dataset(args.data)
    scores = run_pipeline(dataset, config)
    # metrics first, from the scores.tsv values, so `keygait eer` on that
    # file agrees; labels that cannot give an EER fail before --out exists
    labeled = None not in scores.labels
    if labeled:
        metrics, *pooled = _eer_metrics(written_scores(scores))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_scores(scores, out / "scores.tsv", normalized=True)
    write_scores(scores, out / "raw_scores.tsv", normalized=False)
    write_config_snapshot(config, out)
    if labeled:
        _write_eer_outputs(out, metrics, *pooled)
        sys.stdout.write(tsv([("global_eer", metrics["global_eer"])]))
    else:
        print(f"scored {len(scores)} queries (labels withheld; no metrics)")
    return 0


def _cmd_eer(args: argparse.Namespace) -> int:
    scores = attach_labels(read_scores(args.scores), read_labels(args.labels))
    metrics, *pooled = _eer_metrics(scores)
    sys.stdout.write(tsv((key, metrics[key]) for key in ("global_eer", "subject_eer_mean", "subject_eer_sd")))
    if args.out:
        _write_eer_outputs(Path(args.out), metrics, *pooled)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    check_split_counts(args.reps, args.templates)
    dataset = load_dataset(args.data)
    result = monte_carlo_validate(dataset, config, repetitions=args.reps, n_templates=args.templates)
    metrics = {"mean_eer": result.mean_eer, "sd_eer": result.sd_eer}
    sys.stdout.write(tsv(metrics.items()))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        metrics.update(repetitions=args.reps, n_templates=args.templates)
        write_metrics(metrics, out / "metrics.tsv")
        (out / "reps.tsv").write_text(tsv(enumerate(result.eers), ("rep", "eer")), encoding="utf-8")
        write_config_snapshot(config, out)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    base = _pipeline_config(args)
    for key, value, default in (
        ("alignment", base.alignment, PipelineConfig.alignment),
        ("score_norm.kind", base.score_norm.kind, ScoreNormConfig.kind),
    ):
        if value != default:
            raise ValueError(f"ablate sweeps every {key}; the config sets it to {value!r}")
    dataset = load_dataset(args.data)
    rows: list[tuple[str, str, float]] = []
    for method in ALIGNMENT_METHODS:  # score norms read raw scores only: fit once per method
        config = replace(base, alignment=method)
        prepared = prepare(dataset, config)
        raws = raw_scores(prepared, config)
        for kind in SCORE_NORM_KINDS:
            cell = replace(config, score_norm=replace(base.score_norm, kind=kind))
            rows.append((method, kind, global_eer(normalize_scores(prepared, raws, cell))))
    text = tsv(rows, ("method", "score_norm", "global_eer"))
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablation.tsv").write_text(text, encoding="utf-8")
        write_config_snapshot(base, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keygait",
        description="Keystroke-dynamics anomaly detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", type=Path, required=True, help="output dataset directory")
    p.add_argument("--config", type=Path, help="generator config JSON")
    # each flag's dest is the SynthConfig field it overrides
    p.add_argument("--subjects", dest="n_subjects", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--templates", dest="n_templates", type=int)
    p.add_argument("--shift-drop", type=float)
    p.add_argument("--shift-transpose", type=float)
    p.add_argument("--capslock-sub", type=float)
    p.add_argument("--hesitation", dest="hesitation_rate", type=float)
    p.add_argument(
        "--quantum", dest="clock_quantum_ms", type=int, help="clock quantum in ms (0 = exact)"
    )
    p.add_argument(
        "--separation", dest="impostor_separation", type=float, help="impostor separation factor"
    )
    p.add_argument("--impostor-source", choices=("independent", "victim"))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("audit", help="sequence-agreement audit")
    p.add_argument("--data", type=Path, required=True, help="dataset directory")
    p.add_argument("--out", type=Path, help="output TSV (default stdout)")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("resolution", help="estimate clock resolution")
    p.add_argument("--data", type=Path, required=True, help="dataset directory")
    p.set_defaults(func=_cmd_resolution)

    p = sub.add_parser("evaluate", help="score every query in a dataset")
    p.add_argument("--data", type=Path, required=True, help="dataset directory")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("eer", help="EER metrics from score + label files")
    p.add_argument("--scores", type=Path, required=True)
    p.add_argument("--labels", type=Path, required=True)
    p.add_argument("--out", type=Path, help="directory for metrics/roc/histogram")
    p.set_defaults(func=_cmd_eer)

    p = sub.add_parser("validate", help="Monte Carlo split validation")
    p.add_argument("--data", type=Path, required=True, help="labeled dataset directory")
    p.add_argument("--out", type=Path, help="output directory")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--templates", type=int, default=4)
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("ablate", help="alignment x score-norm EER grid")
    p.add_argument("--data", type=Path, required=True, help="labeled dataset directory")
    p.add_argument("--out", type=Path, help="output directory")
    _add_pipeline_flags(p, grid=True)
    p.set_defaults(func=_cmd_ablate, method=None, score_norm=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeygaitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
