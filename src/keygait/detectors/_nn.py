"""Shared numerics for the from-scratch neural detectors.

The autoencoder and the VAE train every subject of a group in one loop.
Each parameter tensor is stacked on a leading subject axis and
zero-padded to the widest subject, and all stacked tensors are views
into one flat buffer, so an optimizer step is one update of that buffer.
Every stacked op computes each subject's values exactly as a fit of that
subject alone would: elementwise ops and matmuls over samples or hidden
units run once for the stack, and contractions over the feature width
run per subject on the unpadded slice (`width_matmul`).

The contractive autoencoder's ``fit_group`` loops over its subjects, one
training loop each: stacked, each (subjects, d, 400) weight array of 10
subjects is ~1.6 MB and overflows L2, and a padded stack ran at
0.67-0.82x that speed and was not bit-exact. Its weight is stored as
(d, hidden), the layout in which every product of its epoch reads
contiguous memory. Within a process every fit here runs on one core; the
pipeline uses more by dealing the subjects into strided shares, one
process each (``evaluation.raw_scores``).

An epoch makes dozens of numpy calls on arrays of tens to hundreds of
elements, so its cost is the calls, not the arithmetic. Each network's
loss and gradients are therefore a function built once per fit: it
allocates every array an epoch writes, and cuts the transposed weights,
bias columns and unpadded `width_matmul` slices, once. Those views stay
valid because the optimizer updates the parameters in place. Every call
then runs the same ufunc and BLAS calls on arrays of the same shapes and
layouts as a fresh computation would, so it writes the same bits. Each
``fit_group`` enters ``np.errstate`` once, ignoring every floating-point
warning: a subject whose loss turns non-finite is reported by its
``TrainingError``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..errors import KeygaitError, TrainingError
from .base import as_matrix

Params = dict[str, Any]  # name -> tensor or list of tensors


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)), written into ``out`` when given (it may be ``z``
    itself); exp overflows to inf below z ~ -709, giving 0."""
    with np.errstate(over="ignore"):
        return logistic(z, out)


def logistic(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`sigmoid` for a caller that already ignores overflow (a fit, under
    its own ``np.errstate``)."""
    out = np.negative(z, out=np.empty(np.shape(z)) if out is None else out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def softplus(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.logaddexp(0.0, z, out=out)


def xavier_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


def T(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def unflatten(vec: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive C-ordered views into ``vec``, one of each shape."""
    out = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape))
        out.append(vec[offset : offset + size].reshape(shape))
        offset += size
    if offset != vec.size:
        raise ValueError(f"vector has {vec.size} entries, the shapes need {offset}")
    return out


def leaves(params: Params) -> list[np.ndarray]:
    """Every tensor of a parameter dict, in key order."""
    return [a for v in params.values() for a in (v if isinstance(v, list) else [v])]


def _like(params: Params, arrays: list[np.ndarray]) -> Params:
    """A parameter dict shaped like ``params`` holding ``arrays``."""
    it = iter(arrays)
    return {k: [next(it) for _ in v] if isinstance(v, list) else next(it) for k, v in params.items()}


def as_stack(params: Params) -> Params:
    """Views of one subject's parameters as a stack of one."""
    return _like(params, [a[None] for a in leaves(params)])


def _unpadded(a: np.ndarray) -> tuple[slice, ...]:
    return tuple(slice(0, n) for n in a.shape)


def pad_stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Stack on a new leading axis, zero-padding to the largest shape."""
    out = np.zeros((len(arrays), *np.max([a.shape for a in arrays], axis=0)))
    for s, a in enumerate(arrays):
        out[s][_unpadded(a)] = a
    return out


def stack_templates(templates: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """(subjects, m, widest d) zero-padded template stack and each width."""
    mats = [as_matrix(t) for t in templates]
    if len({x.shape[0] for x in mats}) != 1:
        raise ValueError("a group fit needs the same number of templates per subject")
    return pad_stack(mats), [x.shape[1] for x in mats]


def width_matmul(
    A: np.ndarray, B: np.ndarray, out: np.ndarray, widths: list[int]
) -> Callable[[], None]:
    """A function writing A[s, :, :w] @ B[s, :w, :] into ``out[s]`` for
    each subject's feature width w, from the arrays' values at the call.

    The unpadded slices are cut once, here. One BLAS call per subject:
    padding the contracted axis would change the order of the sums.
    """
    products = [(A[s, :, :w], B[s, :w, :], out[s]) for s, w in enumerate(widths)]

    def run() -> None:
        for a, b, o in products:
            np.matmul(a, b, out=o)

    return run


def width_mask(widths: list[int]) -> np.ndarray:
    """(subjects, 1, widest d): 1.0 in each subject's columns, else 0.0."""
    return (np.arange(max(widths)) < np.array(widths)[:, None])[:, None, :].astype(np.float64)


class StackedParams:
    """Per-subject networks of one architecture, trained as one.

    ``params`` and ``grads`` are parameter dicts of stacked, zero-padded
    tensors that are views into ``flat`` and ``grad_flat``. Padded entries
    get zero gradients, so they stay zero.
    """

    def __init__(self, per_subject: list[Params]) -> None:
        self.per_subject = per_subject
        stacked = [pad_stack(group) for group in zip(*(leaves(p) for p in per_subject))]
        self.flat = np.concatenate([a.ravel() for a in stacked])
        self.grad_flat = np.zeros_like(self.flat)
        shapes = [a.shape for a in stacked]
        self.params = _like(per_subject[0], unflatten(self.flat, shapes))
        self.grads = _like(per_subject[0], unflatten(self.grad_flat, shapes))

    def unstack(self) -> list[Params]:
        """Copy each subject's slice back into its own tensors and return them."""
        for s, params in enumerate(self.per_subject):
            for a, t in zip(leaves(params), leaves(self.params)):
                a[...] = t[s][_unpadded(a)]
        return self.per_subject

    def subject_grads(self, s: int) -> Params:
        """Subject ``s``'s gradients, unpadded."""
        own = leaves(self.per_subject[s])
        return _like(self.grads, [g[s][_unpadded(a)] for g, a in zip(leaves(self.grads), own)])


def note_failures(errors: list[KeygaitError | None], loss: np.ndarray, epoch: int) -> bool:
    """Record a TrainingError for each subject whose loss is newly
    non-finite; True once every subject has failed. A failed subject's
    values stay in the stack but never reach another subject's."""
    if np.isfinite(loss).all():
        return False
    for s in np.flatnonzero(~np.isfinite(loss)):
        if errors[s] is None:
            errors[s] = TrainingError(f"non-finite loss at epoch {epoch}")
    return all(e is not None for e in errors)


class Adam:
    """Standard Adam with bias correction, one fused update of a flat
    parameter buffer, whose two scratch arrays are allocated once. The
    moment decays are fixed at ``beta1`` 0.9 and ``beta2`` 0.999, and the
    denominator offset at ``eps`` 1e-8."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: np.ndarray, learning_rate: float = 0.001) -> None:
        self.learning_rate = learning_rate
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.scratch = (np.empty_like(params), np.empty_like(params))
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m, v = self.m, self.v
        step, denom = self.scratch
        m *= b1
        m += np.multiply(1 - b1, grads, out=step)
        v *= b2
        np.multiply(1 - b2, grads, out=step)
        v += np.multiply(step, grads, out=step)
        np.divide(m, 1 - b1**self.t, out=step)  # m_hat
        np.divide(v, 1 - b2**self.t, out=denom)  # v_hat
        np.multiply(self.learning_rate, step, out=step)
        np.sqrt(denom, out=denom)
        denom += self.eps
        params -= np.divide(step, denom, out=step)
