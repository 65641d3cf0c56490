"""Shared numerics for the from-scratch neural detectors.

The autoencoder and the VAE train every subject of a group as one stack.
Each parameter tensor is stacked on a leading subject axis and
zero-padded to the widest subject, and all stacked tensors are views
into one flat buffer, so an optimizer step is one update of that buffer.
Every stacked op computes each subject's values exactly as a fit of that
subject alone would: elementwise ops and matmuls over samples or hidden
units run once for the stack, and contractions over the feature width
run per subject on the unpadded slice (`width_matmul`).

The contractive autoencoder trains its subjects one after another, each
as a stack of one in `StackedParams`: stacked, each (subjects, d, 400)
weight array of 10 subjects is ~1.6 MB and overflows L2, and a padded
stack ran at 0.67-0.82x that speed and was not bit-exact. Its weight is
stored as (d, hidden), the layout in which every product of its epoch
reads contiguous memory. Every network thus keeps its parameters in one
store, steps them in place (`StackedParams.descend`, or `Adam` on the
same flat buffer) and hands them back through `StackedParams.unstack`.
Within a process every fit here runs on one core; the pipeline uses more
by spreading the subjects across processes (``evaluation.raw_scores``).

An epoch makes dozens of numpy calls on arrays of tens to hundreds of
elements, so its cost is the calls, not the arithmetic. Each network's
loss and gradients are therefore a function built once per fit: it
allocates every array an epoch writes, and cuts the transposed weights,
bias columns and unpadded `width_matmul` slices, once. Those views stay
valid because the optimizer updates the parameters in place. Every call
then runs the same ufunc and BLAS calls on arrays of the same shapes and
layouts as a fresh computation would, so it writes the same bits.

Every network fits through `train`, the one training loop, which makes
each ``TrainingError``. It runs under the fits' one ``np.errstate``,
which ignores every floating-point warning and restores the caller's
state after: a subject whose loss turns non-finite is reported by its
``TrainingError`` alone.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..errors import TrainingError
from .base import Detector, as_matrix

Params = dict[str, Any]  # name -> tensor or list of tensors


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-z)), written into ``out`` when given (it may be ``z``
    itself); exp overflows to inf below z ~ -709, giving 0."""
    with np.errstate(over="ignore"):
        return logistic(z, out)


def logistic(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`sigmoid` for a caller that already ignores overflow (a fit, under
    the ``np.errstate`` of `train`)."""
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

    def descend(self, learning_rate: float) -> None:
        """One plain gradient step of every parameter: ``flat -= lr * grad``,
        with the product written over the gradients."""
        self.flat -= np.multiply(learning_rate, self.grad_flat, out=self.grad_flat)

    def subject(self, s: int, stacked: Params) -> Params:
        """Subject ``s``'s unpadded views into ``stacked`` (``params`` or
        ``grads``)."""
        own = leaves(self.per_subject[s])
        return _like(stacked, [t[s][_unpadded(a)] for t, a in zip(leaves(stacked), own)])

    def unstack(self, detectors: Sequence[Detector], errors: Sequence[TrainingError | None]) -> None:
        """Copy each subject's slice back into its own tensors and give them
        to its detector as ``params_``, None where its fit failed."""
        for s, (detector, params, error) in enumerate(zip(detectors, self.per_subject, errors)):
            for a, t in zip(leaves(params), leaves(self.subject(s, self.params))):
                a[...] = t
            detector.params_ = params if error is None else None


def train(
    steps: Iterable[tuple[int, Callable[[], Sequence[float]]]], update: Callable[[], None], n: int
) -> list[TrainingError | None]:
    """Fit ``n`` subjects: for each ``(epoch, step)``, ``step()`` returns
    every subject's loss and writes the gradients, then ``update()`` applies
    them. A subject gets a TrainingError at its first loss that is not
    finite; its values stay in the stack but never reach another
    subject's. The loop stops once every subject has failed, before that
    step's update."""
    errors: list[TrainingError | None] = [None] * n
    with np.errstate(all="ignore"):
        for epoch, step in steps:
            losses = step()
            if not all(map(math.isfinite, losses)):
                for s, loss in enumerate(losses):
                    if errors[s] is None and not math.isfinite(loss):
                        errors[s] = TrainingError(f"non-finite loss at epoch {epoch}")
                if None not in errors:
                    break
            update()
    return errors


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
