"""One-class detectors that fit a subject's templates and score queries.

All detectors share the fit/score contract in :mod:`.base`; higher
scores mean more likely genuine. `build_detector` turns a declarative
DetectorConfig into an instance, injecting a seed so per-subject
instances stay independently and reproducibly seeded. An ensemble is not
a detector: ``run_pipeline`` fits and scores each member and averages
their scores.

The pipeline fits one group of subjects with the same template count at
a time through `Detector.fit_group`. The autoencoder and the VAE train
a group in one stacked loop (see `._nn`); every other detector fits its
subjects one by one. Either way each subject's fit is bit-identical to
fitting it alone.
"""

from __future__ import annotations

from ..config import DetectorConfig
from .autoencoder import TiedAutoencoder
from .base import Detector
from .contractive import ContractiveAutoencoder
from .manhattan import ManhattanDetector
from .ocsvm import OneClassSvm
from .variational import VariationalAutoencoder

__all__ = [
    "Detector",
    "ManhattanDetector",
    "TiedAutoencoder",
    "ContractiveAutoencoder",
    "VariationalAutoencoder",
    "OneClassSvm",
    "build_detector",
    "DETECTOR_NAMES",
]

_SEEDED = {"autoencoder", "contractive", "variational"}

_CLASSES = {
    "manhattan": ManhattanDetector,
    "autoencoder": TiedAutoencoder,
    "contractive": ContractiveAutoencoder,
    "variational": VariationalAutoencoder,
    "ocsvm": OneClassSvm,
}

DETECTOR_NAMES = tuple(sorted(_CLASSES))


def build_detector(config: DetectorConfig, seed: int = 0) -> Detector:
    """Instantiate a detector from its config.

    Hyperparameters come from ``config.params``; ``seed`` overrides any
    seed in the params so the pipeline's per-subject derivation wins.
    An ``ensemble`` config is combined by ``run_pipeline`` and builds no
    detector.
    """
    cls = _CLASSES.get(config.name)
    if cls is None:
        raise ValueError(
            f"unknown detector {config.name!r}; expected one of {DETECTOR_NAMES}"
        )
    params = dict(config.params)
    if config.name in _SEEDED:
        params["seed"] = seed
    else:
        params.pop("seed", None)
    return cls(**params)
