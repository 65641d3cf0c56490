"""Run every workload once and print its metrics by name, with units.

    python3 perfbench/report.py [--seed 0] [--trace] [--out FILE]

Prints, per workload, the end-to-end metrics of ``BENCHMARK.json`` plus
the failure-to-capture share and the EERs (mean over the pass's pipeline
runs). With ``--trace`` it adds a traced run per workload and prints each
layer's share of the traced pass and, per detector, fit and score self
time next to that detector's EER. ``--out`` also writes everything as
JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spans import DETECTOR_CLASSES

ROOT = Path(__file__).resolve().parents[1]
QUALITY = (
    ("ftc_frac", "quality.ftc_frac"),
    ("global_eer", "quality.global_eer"),
    ("subject_eer_mean", "quality.subject_eer_mean"),
)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("info "))
    return info, json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true", help="add a traced run per workload")
    parser.add_argument("--out", type=Path, help="also write the results here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        info, result = run(workload, args.seed, seconds, 0)
        metrics = dict(result["metrics"])
        for name, key in QUALITY:
            metrics[name] = {"value": info["quality"][key], "unit": "ratio"}
        print(f"== {workload} (seed {args.seed}, correct={result['correct']}, "
              f"{result['failed']}/{result['attempted']} passes failed)")
        for name, m in metrics.items():
            print(f"  {name:<18} {m['value']:>14.6g} {m['unit']}")
        entry = {"info": info, "correct": result["correct"], "metrics": metrics}
        if args.trace:
            _, traced = run(workload, args.seed, seconds, 1)
            layer = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer"] = layer
            total = layer["pass.traced_s"]
            shares: dict[str, float] = {}
            for key, value in layer.items():
                if key.endswith(".self_s") and not key.startswith("pass."):
                    top = key.split(".")[0]
                    shares[top] = shares.get(top, 0.0) + value / total
            print(f"  traced pass {total:.3f} s, overhead {layer['pass.overhead_s']:+.3f} s, "
                  f"self time left outside every span {layer['pass.self_s']:.3f} s")
            print("  self time share: " + ", ".join(
                f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
            for det in DETECTOR_CLASSES:
                fit = f"detectors.{det}.fit"
                if layer[f"{fit}.calls"]:
                    print(f"  {det:<12} fit {layer[fit + '.self_s']:8.3f} s  "
                          f"score {layer[f'detectors.{det}.score.self_s']:8.3f} s  "
                          f"EER {layer[f'detectors.{det}.global_eer']:.4f}")
        report[workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
