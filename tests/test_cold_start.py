"""No path loads scipy.

scipy is a test-only reference (``tests/oracles.py``), so each check runs
in a fresh interpreter: this test process has long since imported scipy
through the oracles. Importing the package, a Manhattan pipeline and the
resolution estimator load no scipy module, and the sigmoid detectors fit
and evaluate with scipy blocked outright.
"""

import os
import subprocess
import sys
from pathlib import Path

import keygait

SRC = Path(keygait.__file__).resolve().parents[1]

SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _run(code: str, cwd: Path | None = None) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy():
    _run(f"import keygait\nassert not {SCIPY_LOADED}, {SCIPY_LOADED}")


def test_manhattan_run_and_resolution_load_no_scipy():
    _run(
        f"""
from keygait import (PipelineConfig, SynthConfig, collect_latencies,
                     estimate_resolution, generate_synthetic, run_pipeline)
dataset, _ = generate_synthetic(SynthConfig(n_subjects=3, clock_quantum_ms=40, seed=0))
scores = run_pipeline(dataset, PipelineConfig())
assert scores.records and not any(r.flagged for r in scores)
estimate_resolution(collect_latencies(dataset))
assert not {SCIPY_LOADED}, {SCIPY_LOADED}
"""
    )


def test_sigmoid_detectors_fit_and_evaluate_with_scipy_blocked(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    _run(
        """
sys.modules["scipy"] = None
import numpy as np
from keygait import ContractiveAutoencoder, VariationalAutoencoder
from keygait.cli import main
X = np.random.default_rng(0).random((4, 6))
ContractiveAutoencoder(epochs=2, seed=0).fit(X).score_all(X)
VariationalAutoencoder(epochs=2, seed=0).fit(X).score_all(X)
assert main(["synth", "--out", "b", "--subjects", "3"]) == 0
assert main(["evaluate", "--data", "b", "--out", "r", "--detector", "variational"]) == 0
""",
        cwd=tmp_path,
    )
    assert (tmp_path / "r" / "metrics.tsv").is_file()
