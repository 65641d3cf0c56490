"""scipy stays off the Manhattan and resolution paths.

Each check runs in a fresh interpreter, because this test process has
long since imported scipy through the oracles. Importing the package and
running a Manhattan pipeline or the resolution estimator must load no
scipy module; only a sigmoid detector loads ``scipy.special``, on its
first sigmoid call.
"""

import os
import subprocess
import sys
from pathlib import Path

import keygait

SRC = Path(keygait.__file__).resolve().parents[1]

SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _run(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
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


def test_sigmoid_detector_loads_expit_on_first_use():
    _run(
        """
import numpy as np
from keygait import ContractiveAutoencoder
from keygait.detectors import _nn
assert "scipy.special" not in sys.modules and "sigmoid" not in vars(_nn)
ContractiveAutoencoder(epochs=2, seed=0).fit(np.random.default_rng(0).random((4, 6)))
import scipy.special
assert vars(_nn)["sigmoid"] is scipy.special.expit
assert "scipy.signal" not in sys.modules
try:
    _nn.expit
except AttributeError:
    pass
else:
    raise AssertionError("_nn.expit resolved")
"""
    )
