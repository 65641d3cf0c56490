"""Clock-resolution estimation from latency histograms.

Timestamps captured on a coarse clock collapse onto a lattice, so the
distribution of press-to-press latencies shows evenly spaced modes. The
estimator smooths the latencies with a small fixed-width Gaussian kernel,
finds the modes, and reports their mean spacing in milliseconds.

The modes are found by `_find_peaks`, a numpy local-maximum scan that
keeps the rules of ``scipy.signal.find_peaks(x, height=h)``: a flat top
counts once, at its middle index rounded down; a sample or plateau on
either edge never counts; the height test is inclusive; an input shorter
than 3 has no peaks.

The kernel density is summed in a fixed working set, whatever the number
of latencies: one (``_ROWS``, ``_CHUNK``) float64 buffer of 1 MB, filled
in place for one block of grid rows against one chunk of latencies at a
time. The whole (grid, chunk) difference matrix and its temporaries would
peak near 47 MB on 10,000 latencies. ``_CHUNK`` stays 4096 because the
chunk boundaries fix each grid row's summation order: another chunk size
would move the density's last bits.
"""

from __future__ import annotations

import math

import numpy as np

from .config import check_positive_finite
from .errors import ResolutionError
from .events import SubjectDataset

# Latencies per pass and grid rows per block: 32 * 4096 float64 is 1 MB.
_CHUNK = 4096
_ROWS = 32
# KDE grid (ms) and the smallest mode height, as a fraction of the tallest.
_GRID_STEP = 1.0
_GRID_MAX = 500.0
_MIN_HEIGHT_FRAC = 0.05


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


def _kernel_scale(bandwidth: float) -> float:
    """The Gaussian kernel's exponent scale, 1 / (2 * bandwidth**2).

    ValueError unless it is positive and finite: a bandwidth below
    ~1e-154 overflows it (or its denominator underflows to 0), and one
    above ~1e154 makes it 0, a flat kernel.
    """
    check_positive_finite("bandwidth", bandwidth)
    twice_var = 2.0 * bandwidth * bandwidth
    inv = 1.0 / twice_var if twice_var > 0.0 else math.inf
    if not 0.0 < inv < math.inf:
        raise ValueError(f"bandwidth {bandwidth} is out of range: 1 / (2 * bandwidth**2) is {inv}")
    return inv


def _kde_grid(values: np.ndarray, grid: np.ndarray, inv: float) -> np.ndarray:
    """Sum over ``values`` of exp(-(g - v)**2 * inv) at every grid point g."""
    density = np.zeros(grid.size)
    buf = np.empty(_ROWS * _CHUNK)
    for start in range(0, values.size, _CHUNK):
        chunk = values[start : start + _CHUNK]
        for r0 in range(0, grid.size, _ROWS):
            rows = grid[r0 : r0 + _ROWS]
            # exp(-(d * d) * inv) in place; the density's bits depend on this order
            d = buf[: rows.size * chunk.size].reshape(rows.size, chunk.size)
            np.subtract(rows[:, None], chunk[None, :], out=d)
            np.multiply(d, d, out=d)
            np.negative(d, out=d)
            np.multiply(d, inv, out=d)
            np.exp(d, out=d)
            density[r0 : r0 + rows.size] += d.sum(axis=1)
    return density


def _find_peaks(x: np.ndarray, height: float) -> np.ndarray:
    """Indices of the local maxima of ``x`` that are at least ``height``.

    Equal neighbours are compressed into runs; a run higher than the runs
    on both sides is a peak, reported at its middle index rounded down.
    The first and last runs have no neighbour on one side, so they never
    count.
    """
    if x.size < 3:
        return np.empty(0, dtype=np.intp)
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:], x.size] - 1
    v = x[starts]
    inner = v[1:-1]
    peak = (inner > v[:-2]) & (inner > v[2:]) & (inner >= height)
    return ((starts[1:-1] + ends[1:-1]) // 2)[peak]


def estimate_resolution(latencies: np.ndarray, bandwidth: float = 3.0) -> float:
    """Mean spacing between latency modes, in milliseconds.

    Raises ResolutionError when fewer than two modes stand out, which
    happens for continuous (millisecond-true) clocks and for degenerate
    inputs. Raises ValueError for a bandwidth whose kernel scale
    1 / (2 * bandwidth**2) is not positive and finite.
    """
    inv = _kernel_scale(bandwidth)
    values = np.asarray(latencies, dtype=np.float64)
    values = values[np.isfinite(values)]
    values = values[(values >= 0.0) & (values <= _GRID_MAX)]
    if values.size < 2:
        raise ResolutionError("resolution indeterminate")
    grid = np.arange(0.0, _GRID_MAX + _GRID_STEP, _GRID_STEP)
    density = _kde_grid(values, grid, inv)
    peaks = _find_peaks(density, height=_MIN_HEIGHT_FRAC * float(density.max()))
    if peaks.size < 2:
        raise ResolutionError("resolution indeterminate")
    spacings = np.diff(grid[peaks])
    return float(spacings.mean())
