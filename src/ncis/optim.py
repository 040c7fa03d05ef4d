"""Flat parameter storage and the Adam update shared by the trainable modules.

A model's parameters live in one flat float64 buffer; ``params[name]`` is a
reshaped view of its slice, so code that reads the dict (inference, artifact
files) is unchanged, while the optimizer works on whole vectors.
"""

from dataclasses import dataclass

import numpy as np


def views_like(flat, params):
    """Views of consecutive slices of ``flat`` shaped like ``params``' arrays."""
    views = {}
    offset = 0
    for name, value in params.items():
        shape = np.shape(value)
        size = int(np.prod(shape))
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


def flatten_params(params):
    """Move every array of ``params`` into one flat buffer, in place.

    Afterwards each ``params[name]`` is a view of the returned buffer with its
    former shape and values.
    """
    flat = np.concatenate([np.ravel(np.asarray(v, dtype=np.float64)) for v in params.values()])
    params.update(views_like(flat, params))
    return flat


@dataclass
class AdamState:
    """First/second moment accumulators for adaptive per-parameter scaling,
    and two vectors of their size that ``adam_update`` writes its
    intermediates into, so a step allocates no parameter-sized array."""

    first: np.ndarray
    second: np.ndarray
    scratch: tuple
    step: int = 0


def adam_init(flat) -> AdamState:
    return AdamState(np.zeros_like(flat), np.zeros_like(flat),
                     (np.empty_like(flat), np.empty_like(flat)))


def adam_update(flat, grad, state, learning_rate,
                beta1=0.9, beta2=0.999, eps=1e-8):
    """One in-place update of the flat parameter vector from ``grad``.

    An entry whose gradient has always been exactly zero is left untouched
    (its moments stay zero), so parameters outside the gradient path never
    drift.  The arithmetic is that of
    ``m = beta1 * m + (1 - beta1) * grad``,
    ``v = beta2 * v + (1 - beta2) * (grad * grad)`` and
    ``flat -= learning_rate * (m / bc1) / (sqrt(v / bc2) + eps)``,
    operation for operation.
    """
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    m, v = state.first, state.second
    a, b = state.scratch
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, out=a)
    v *= beta2
    np.multiply(grad, grad, out=a)
    v += np.multiply(a, 1.0 - beta2, out=a)
    np.multiply(np.divide(m, bc1, out=a), learning_rate, out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), eps, out=b)
    flat -= np.divide(a, b, out=a)
