"""Clock-resolution estimation by phase coherence.

Timestamps captured on a coarse clock collapse onto a lattice, so every
press-to-press latency is a whole number of clock quanta. A candidate
quantum q is scored by the coherence of the latencies' phases,

    R(q) = |sum_i w_i exp(2 pi i u_i / q)|,

over the distinct finite latencies u_i in [0, 500] ms, each weighted by
its share w_i of all latencies. R is 1 when every latency is a multiple
of q and stays well below 1 on a millisecond-true clock.

The candidates are whole tenths of a millisecond, from 2.0 ms up to half
the latency range: a lattice needs three occupied points, so a larger
quantum cannot be confirmed, and fewer than three distinct latencies
confirm none. Every divisor q0 / k of a true quantum q0 is
coherent as well, so the estimate is the largest candidate with
R >= 0.9, refined to the most coherent candidate of the contiguous run
at or above 0.9 that holds it. When no candidate reaches 0.9 the clock
is not a lattice, and that is a ResolutionError.

R is summed one distinct latency at a time, so the working set is a few
arrays of at most 2,481 candidates, whatever the number of latencies.
"""

from __future__ import annotations

import numpy as np

from .errors import ResolutionError
from .events import SubjectDataset

_MAX_LATENCY_MS = 500.0
_MIN_COHERENCE = 0.9


def collect_latencies(dataset: SubjectDataset) -> np.ndarray:
    """Press-to-press latencies pooled over every sample in the dataset."""
    out: list[np.ndarray] = []
    for subject_id in dataset.subject_ids():
        entry = dataset.subjects[subject_id]
        for sample in entry.templates + entry.queries:
            press = sample.sequence.press.astype(np.float64)
            if press.size >= 2:
                out.append(np.diff(press))
    if not out:
        return np.empty(0)
    return np.concatenate(out)


def estimate_resolution(latencies: np.ndarray) -> float:
    """The capture clock's quantum in milliseconds, to a tenth of a ms.

    Scores each candidate quantum from 2.0 ms to half the range of the
    finite latencies in [0, 500] ms by its phase coherence R, and returns
    the most coherent candidate of the contiguous run at R >= 0.9 that
    holds the largest such candidate. Raises ResolutionError when fewer
    than three distinct latencies are left, since on two levels the
    largest coherent candidate is always half their spacing, and when no
    candidate reaches 0.9, which happens for continuous
    (millisecond-true) clocks.
    """
    values = np.asarray(latencies, dtype=np.float64)
    values = values[np.isfinite(values) & (values >= 0.0) & (values <= _MAX_LATENCY_MS)]
    distinct, counts = np.unique(values, return_counts=True)
    if distinct.size < 3:
        raise ResolutionError("resolution indeterminate")
    top = int(5.0 * (distinct[-1] - distinct[0]))
    quanta = np.arange(20, top + 1) / 10.0
    turn = 2j * np.pi / quanta
    phasor = np.zeros(quanta.size, dtype=np.complex128)
    for value, share in zip(distinct.tolist(), (counts / values.size).tolist()):
        phasor += share * np.exp(value * turn)
    coherence = np.abs(phasor)
    coherent = np.flatnonzero(coherence >= _MIN_COHERENCE)
    if coherent.size == 0:
        raise ResolutionError("resolution indeterminate")
    # the run of coherent candidates that ends at the largest one
    last = first = int(coherent[-1])
    while first > 0 and coherence[first - 1] >= _MIN_COHERENCE:
        first -= 1
    return float(quanta[first + int(np.argmax(coherence[first : last + 1]))])
