"""One-class detectors that fit a subject's templates and score queries.

All detectors share the contract in :mod:`.base`: ``fit_group`` trains
and ``score_all`` scores, and higher scores mean more likely genuine.
`build_detector` turns a declarative DetectorConfig into an instance,
injecting a seed so per-subject instances stay independently and
reproducibly seeded. An ensemble is not a detector: ``run_pipeline``
fits and scores each member and averages their raw scores.

The pipeline fits one group of subjects with the same template count at
a time through `Detector.fit_group`; ``fit`` is the group of one. Each
subject's fit is bit-identical to fitting it alone, and a subject whose
training fails gets its error back without stopping the others. So for
a class whose ``fit_across_processes`` is true (the three networks) the
pipeline fits and scores the subjects across processes
(``_processes.across_processes``), with the same bits.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache
from typing import Any, get_type_hints

from ..config import DetectorConfig, decode_fields
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

    Hyperparameters come from ``config.params``, each checked against its
    field's type hint by the config codec (`config.decode_fields`). A
    config cannot set a detector's seed: ``seed`` in the params is refused
    like any other unknown parameter, and ``seed`` here, the pipeline's
    per-subject derivation, goes to a detector that takes one. An
    ``ensemble`` config is combined by ``run_pipeline`` and builds no
    detector.

    Raises:
        ValueError: unknown name, a parameter the detector does not take,
            or a parameter value of the wrong type.
    """
    cls = _CLASSES.get(config.name)
    if cls is None:
        raise ValueError(
            f"unknown detector {config.name!r}; expected one of {DETECTOR_NAMES}"
        )
    hints = _init_hints(cls)
    unknown = sorted(set(config.params) - (set(hints) - {"seed"}))
    if unknown:
        raise ValueError(f"detector {config.name!r} takes no parameter(s) {', '.join(unknown)}")
    params = decode_fields(cls.__name__, hints, config.params)
    if "seed" in hints:
        params["seed"] = seed
    return cls(**params)


@cache
def _init_hints(cls: type[Detector]) -> dict[str, Any]:
    """The type hint of each of ``cls``'s init fields, resolved once per
    class: ``get_type_hints`` costs about 70 us, and every subject builds
    a detector. Callers must not mutate the returned dict."""
    types = get_type_hints(cls)
    return {f.name: types[f.name] for f in fields(cls) if f.init}
