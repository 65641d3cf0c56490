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
from dataclasses import replace
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
    read_labels,
    read_scores,
    write_dataset,
    write_metrics,
    write_scores,
)
from .detectors import DETECTOR_NAMES
from .errors import KeygaitError
from .evaluation import (
    effective_scores,
    global_eer,
    monte_carlo_validate,
    roc,
    run_pipeline,
    subject_eer,
)
from .resolution import collect_latencies, estimate_resolution
from .scorenorm import ScoreSet
from .synthesis import (
    SynthConfig,
    generate_synthetic,
    write_ground_truth,
    write_perturbations,
)

def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="pipeline config JSON")
    parser.add_argument("--method", choices=ALIGNMENT_METHODS, help="alignment method")
    parser.add_argument(
        "--detector",
        choices=DETECTOR_NAMES,
        help="detector name (ensembles need a config file)",
    )
    parser.add_argument("--score-norm", choices=SCORE_NORM_KINDS, help="score normalization")
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
    overrides = {
        "n_subjects": args.subjects,
        "seed": args.seed,
        "n_templates": args.templates,
        "shift_drop": args.shift_drop,
        "shift_transpose": args.shift_transpose,
        "capslock_sub": args.capslock_sub,
        "hesitation_rate": args.hesitation,
        "clock_quantum_ms": args.quantum,
        "impostor_separation": args.separation,
        "impostor_source": args.impostor_source,
    }
    applied = {k: v for k, v in overrides.items() if v is not None}
    if applied:
        config = SynthConfig.from_dict({**config.to_dict(), **applied})
    dataset, log = generate_synthetic(config)
    out = Path(args.out)
    write_dataset(dataset, out)
    write_ground_truth(dataset, out / "ground_truth.tsv")
    write_perturbations(log, out / "perturbations.tsv")
    write_config_snapshot(config, out)
    print(f"wrote {dataset.n_samples()} samples for {len(dataset.subject_ids())} subjects to {out}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    report = audit_dataset(dataset)
    text = report.to_tsv()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_resolution(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.data)
    latencies = collect_latencies(dataset)
    value = estimate_resolution(latencies, bandwidth=args.bandwidth)
    print(f"estimated_resolution_ms\t{value:.6f}")
    return 0


def _write_eer_outputs(scores: ScoreSet, out: Path) -> dict[str, object]:
    values, genuine = effective_scores(scores)
    curve = roc(values, genuine)
    report = subject_eer(scores)
    metrics: dict[str, object] = {
        "global_eer": curve.eer(),
        "subject_eer_mean": report.mean,
        "subject_eer_sd": report.sd,
        "n_subjects": len(report.per_subject),
        "n_scores": len(values),
        "n_flagged": sum(1 for r in scores if r.flagged),
    }
    out.mkdir(parents=True, exist_ok=True)
    write_metrics(metrics, out / "metrics.tsv")
    (out / "roc.tsv").write_text(curve.to_tsv())

    arr = np.asarray(values)
    gen = np.asarray(genuine)
    finite = np.isfinite(arr)
    lines = ["bin_lo,bin_hi,genuine,impostor"]
    if finite.any():
        lo, hi = float(arr[finite].min()), float(arr[finite].max())
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, 51)
        g_counts, _ = np.histogram(arr[finite & gen], bins=edges)
        i_counts, _ = np.histogram(arr[finite & ~gen], bins=edges)
        for b in range(50):
            lines.append(
                f"{edges[b]:.6f},{edges[b + 1]:.6f},{g_counts[b]},{i_counts[b]}"
            )
    (out / "score_hist.csv").write_text("\n".join(lines) + "\n")
    return metrics


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    dataset = load_dataset(args.data)
    scores = run_pipeline(dataset, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_scores(scores, out / "scores.tsv", normalized=True)
    write_scores(scores, out / "raw_scores.tsv", normalized=False)
    write_config_snapshot(config, out)
    if all(r.label is not None for r in scores):
        metrics = _write_eer_outputs(scores, out)
        print(f"global_eer\t{metrics['global_eer']:.6f}")
    else:
        print(f"scored {len(scores.records)} queries (labels withheld; no metrics)")
    return 0


def _cmd_eer(args: argparse.Namespace) -> int:
    scores = read_scores(args.scores)
    labels = read_labels(args.labels)
    scores = attach_labels(scores, labels)
    eer_value = global_eer(scores)
    report = subject_eer(scores)
    print(f"global_eer\t{eer_value:.6f}")
    print(f"subject_eer_mean\t{report.mean:.6f}")
    print(f"subject_eer_sd\t{report.sd:.6f}")
    if args.out:
        _write_eer_outputs(scores, Path(args.out))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    dataset = load_dataset(args.data)
    result = monte_carlo_validate(
        dataset,
        config,
        repetitions=args.reps,
        n_templates=args.templates,
        seed=args.seed,
    )
    print(f"mean_eer\t{result.mean_eer:.6f}")
    print(f"sd_eer\t{result.sd_eer:.6f}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_metrics(
            {
                "mean_eer": result.mean_eer,
                "sd_eer": result.sd_eer,
                "repetitions": args.reps,
                "n_templates": args.templates,
            },
            out / "metrics.tsv",
        )
        lines = ["rep\teer"] + [
            f"{i}\t{e:.6f}" for i, e in enumerate(result.eers)
        ]
        (out / "reps.tsv").write_text("\n".join(lines) + "\n")
        write_config_snapshot(config, out)
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    base = _pipeline_config(args)
    dataset = load_dataset(args.data)
    rows: list[tuple[str, str, float]] = []
    for method in ALIGNMENT_METHODS:
        for kind in SCORE_NORM_KINDS:
            config = replace(
                base,
                alignment=method,
                score_norm=ScoreNormConfig(kind=kind, h_s=base.score_norm.h_s),
            )
            scores = run_pipeline(dataset, config)
            rows.append((method, kind, global_eer(scores)))
    lines = ["method\tscore_norm\tglobal_eer"]
    for method, kind, value in rows:
        lines.append(f"{method}\t{kind}\t{value:.6f}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablation.tsv").write_text(text)
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
    p.add_argument("--subjects", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--templates", type=int)
    p.add_argument("--shift-drop", type=float)
    p.add_argument("--shift-transpose", type=float)
    p.add_argument("--capslock-sub", type=float)
    p.add_argument("--hesitation", type=float)
    p.add_argument("--quantum", type=int, help="clock quantum in ms (0 = exact)")
    p.add_argument("--separation", type=float, help="impostor separation factor")
    p.add_argument("--impostor-source", choices=("independent", "victim"))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("audit", help="sequence-agreement audit")
    p.add_argument("--data", type=Path, required=True, help="dataset directory")
    p.add_argument("--out", type=Path, help="output TSV (default stdout)")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("resolution", help="estimate clock resolution")
    p.add_argument("--data", type=Path, required=True, help="dataset directory")
    p.add_argument("--bandwidth", type=float, default=3.0, help="KDE bandwidth in ms")
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
    _add_pipeline_flags(p)
    p.set_defaults(func=_cmd_ablate)

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
