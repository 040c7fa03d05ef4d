"""The plain numpy primitives the training loops and the cVPN share:
log-sum-exp, log-sigmoid with its slope, and the Cayley rotation with its
adjoint.  The autodiff tape built on them, the reference the hand-written
gradients are checked against, is part of the test suite (``tests/tape.py``),
not of the package.  The module is still named ``autodiff`` because the
benchmark's tracer imports ``ncis.autodiff``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ContractError


def log_sigmoid_with_slope(xv):
    """log(1 / (1 + exp(-x))) of an array and its derivative sigmoid(-x),
    both computed without overflow."""
    t = np.exp(-np.abs(xv))
    return (np.where(xv >= 0, -np.log1p(t), xv - np.log1p(t)),
            np.where(xv >= 0, t / (1.0 + t), 1.0 / (1.0 + t)))


def logsumexp(x):
    """log sum exp over the last axis, with max subtraction for stability."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ContractError("logsumexp needs a non-empty last axis")
    m = np.max(x, axis=-1, keepdims=True)
    return np.squeeze(m, axis=-1) + np.log(np.sum(np.exp(x - m), axis=-1))


@lru_cache(maxsize=64)
def _triu_indices(dim):
    return np.triu_indices(dim, 1)


def skew_matrix(flat, dim):
    """Build the skew-symmetric matrix whose strict upper triangle is ``flat``.

    A ``(B, dim*(dim-1)/2)`` stack of parameter vectors gives a ``(B, dim,
    dim)`` stack of matrices.
    """
    flat = np.asarray(flat, dtype=np.float64)
    expected = dim * (dim - 1) // 2
    if flat.ndim not in (1, 2) or flat.shape[-1] != expected:
        raise ContractError(f"skew parameters must have length {expected}, got {flat.shape}")
    m = np.zeros(flat.shape[:-1] + (dim, dim))
    m[(..., *_triu_indices(dim))] = flat
    return m - np.swapaxes(m, -1, -2)


def cayley_rotation(flat, dim, transpose=False):
    """The rotation Q = (I + S)^-1 (I - S) for skew-symmetric S; det Q = +1.

    ``transpose`` negates S, which gives Q^T.  A stack of parameter vectors
    gives a stack of rotations from one stacked solve, each equal bit for
    bit to its own call.
    """
    s = skew_matrix(flat, dim)
    if transpose:
        s = -s
    eye = np.eye(dim)
    return np.linalg.solve(eye + s, eye - s)


def cayley_adjoint(q, x, g):
    """Adjoints of the rows ``x @ q.T``, for ``q = cayley_rotation(flat, dim)``.

    ``x`` and the output gradient ``g`` are ``(N, dim)`` batches.  Returns the
    gradients with respect to ``flat`` and to ``x``.  With A = I + S,
    dQ = -2 A^-1 dS A^-1, and A^-1 = (Q + I) / 2 needs no further solve.
    """
    inv_a = 0.5 * (q + np.eye(q.shape[0]))
    full = -2.0 * ((g @ inv_a).T @ (x @ inv_a.T))
    iu = _triu_indices(q.shape[0])
    return full[iu] - full.T[iu], g @ q
