"""keygait benchmark: one workload, one seed, one JSON result line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload kboc-evaluate --seed 0 --seconds 25 --trace 0

The workloads and metrics are declared in ``BENCHMARK.json``. Each run
starts fresh Python processes that import the package from ``src/``
(``perfbench/workloads.py``): two that only import it, one that writes
the workload's on-disk inputs, and the workload process itself. Their
cold import times give ``setup_s`` (median of four); the workload process
gives everything else. ``KEYGAIT_THREADS`` is removed from every child's
environment so the package runs its default single-threaded path.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones from a traced run, whose spans go to
``.bench_work/spans/<workload>-seed<seed>.jsonl``. The line before it
(``info {...}``) records the machine, versions, commit and EERs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".bench_work"
PROBES = 2
# Every run must end within 180 s; leave room to clean up.
RUN_LIMIT_S = 170.0


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _child(mode: str, args: argparse.Namespace, work: Path, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workloads.py"), mode,
        "--workload", args.workload, "--work", str(work), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.spans is not None:
        cmd += ["--spans", str(args.spans)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process ({mode}) exited {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    # On SIGTERM, unwind: subprocess.run kills the running child and the
    # scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few subjects, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "keygait" / "__init__.py").is_file():
        print(f"error: no keygait package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {k: v for k, v in os.environ.items() if k != "KEYGAIT_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    args.spans = None
    if args.trace:
        (WORK_ROOT / "spans").mkdir(parents=True, exist_ok=True)
        args.spans = WORK_ROOT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        imports = [_child("probe", args, work, env, deadline)["import_s"] for _ in range(PROBES)]
        imports.append(_child("prepare", args, work, env, deadline)["import_s"])
        result = _child("run", args, work, env, deadline)
        imports.append(result["import_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(imports)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        **result["environment"],
        "setup_samples_s": imports,
        "quality": result["quality"],
        "raw": result["raw"],
    }
    print("info " + json.dumps(info))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: workload reported no {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
