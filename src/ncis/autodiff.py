"""Reverse-mode automatic differentiation over a small, fixed operation set.

Values are float64 numpy arrays: scalars (shape ``()``), parameter vectors
and matrices, and sample batches ``(B, n)``.  The row-wise operations
(``pick``, ``embed_rows``, ``cayley_matvec``) take batches only; ``matvec``
also takes the one embedding vector of the toy denoiser's ``predict``.
Every operation accepts plain arrays as well as :class:`Node` instances:
arrays in give arrays out with nothing recorded, and nodes in give a tape.
The cVPN's forward and inverse maps are plain numpy and do not use them.

The numeric primitives are addition, elementwise multiplication,
matrix-vector products, tanh, log-sigmoid, log-sum-exp, sum-of-squares and a
Cayley-parameterized orthogonal matrix-vector product.  The remaining
operations (narrow, concat, pick, embed_rows, vsum, expand/squeeze) are index
plumbing and fixed-order batch reductions with trivial adjoints.  Reductions
accumulate in a fixed order, so repeated evaluation of the same graph is
bitwise reproducible.

The tape is the reference for every gradient the pipeline descends: the two
training loops and the embedding loop use hand-written batched backward
passes (``invariant_training.invariant_loss_and_grad``,
``ood_classifier.classifier_loss_and_grad`` and
``embedding.LinearToyDenoiser.loss_and_grad``), which the test suite checks
against the tape versions of the same losses (built on ``cvpn.apply_blocks``,
on ``ood_classifier._ce_term`` and ``_ood_term``, and on the denoiser's
``predict``), and the tape against central finite differences.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import ContractError, NumericError

Array = np.ndarray


def _all_finite(value) -> bool:
    return bool(np.isfinite(value).all())


class Node:
    """A tape entry: a value plus the closure that backpropagates through it."""

    __slots__ = ("value", "op", "parents", "vjp")

    def __init__(self, value, op="leaf", parents=(), vjp=None):
        value = np.asarray(value, dtype=np.float64)
        if not _all_finite(value):
            raise NumericError(f"non-finite value produced by op '{op}'")
        self.value = value
        self.op = op
        self.parents = parents
        self.vjp = vjp

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


def value_of(x):
    """The float64 array behind ``x``, whether it is a Node or a plain array."""
    if isinstance(x, Node):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _record(op, out, inputs, vjp_all):
    live = tuple(p for p in inputs if isinstance(p, Node))
    if not live:
        return out
    mask = tuple(isinstance(p, Node) for p in inputs)

    def vjp(g):
        return tuple(gr for gr, m in zip(vjp_all(g), mask) if m)

    return Node(out, op, live, vjp)


def _unbroadcast(g, shape):
    # Reduce a broadcast gradient back to the shape of its parent.
    g = np.asarray(g, dtype=np.float64)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# numeric primitives
# ---------------------------------------------------------------------------

def add(a, b):
    av, bv = value_of(a), value_of(b)
    out = av + bv
    return _record(
        "add", out, (a, b),
        lambda g: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape)),
    )


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    out = av * bv
    return _record(
        "mul", out, (a, b),
        lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)),
    )


def neg(x):
    return mul(x, -1.0)


def sub(a, b):
    return add(a, neg(b))


def matvec(w, x):
    """``w @ x`` for a vector ``x``; applied row-wise when ``x`` is a batch."""
    wv, xv = value_of(w), value_of(x)
    if wv.ndim != 2:
        raise ContractError(f"matvec expects a 2-d matrix, got shape {wv.shape}")
    if xv.ndim == 1:
        if xv.shape[0] != wv.shape[1]:
            raise ContractError(f"matvec shape mismatch: {wv.shape} @ {xv.shape}")
        out = wv @ xv

        def vjp_all(g):
            return (np.outer(g, xv), wv.T @ g)

    elif xv.ndim == 2:
        if xv.shape[1] != wv.shape[1]:
            raise ContractError(f"matvec shape mismatch: {wv.shape} @ {xv.shape}")
        out = xv @ wv.T

        def vjp_all(g):
            return (g.T @ xv, g @ wv)

    else:
        raise ContractError(f"matvec expects a vector or batch, got ndim {xv.ndim}")
    return _record("matvec", out, (w, x), vjp_all)


def tanh(x):
    xv = value_of(x)
    out = np.tanh(xv)
    return _record("tanh", out, (x,), lambda g: ((1.0 - out * out) * g,))


def log_sigmoid_with_slope(xv):
    """log(1 / (1 + exp(-x))) of an array and its derivative sigmoid(-x),
    both computed without overflow."""
    t = np.exp(-np.abs(xv))
    return (np.where(xv >= 0, -np.log1p(t), xv - np.log1p(t)),
            np.where(xv >= 0, t / (1.0 + t), 1.0 / (1.0 + t)))


def log_sigmoid(x):
    """log(1 / (1 + exp(-x))), computed without overflow."""
    out, slope = log_sigmoid_with_slope(value_of(x))
    return _record("log_sigmoid", out, (x,), lambda g: (g * slope,))


def logsumexp(x):
    """log sum exp over the last axis, with max subtraction for stability."""
    xv = value_of(x)
    if xv.ndim == 0 or xv.shape[-1] == 0:
        raise ContractError("logsumexp needs a non-empty last axis")
    m = np.max(xv, axis=-1, keepdims=True)
    out = np.squeeze(m, axis=-1) + np.log(np.sum(np.exp(xv - m), axis=-1))

    def vjp_all(g):
        soft = np.exp(xv - np.expand_dims(out, -1))
        return (soft * np.expand_dims(np.asarray(g), -1),)

    return _record("logsumexp", out, (x,), vjp_all)


def sumsq(x):
    """Sum of squares of all elements, as a scalar."""
    xv = value_of(x)
    out = np.sum(xv * xv)
    return _record("sumsq", out, (x,), lambda g: (2.0 * g * xv,))


def vsum(x):
    """Sum of all elements (fixed-order batch reduction), as a scalar."""
    xv = value_of(x)
    out = np.sum(xv)
    return _record("vsum", out, (x,), lambda g: (np.broadcast_to(g, xv.shape).copy(),))


def mean(x):
    xv = value_of(x)
    if xv.size == 0:
        raise ContractError("mean of an empty array")
    return mul(vsum(x), 1.0 / xv.size)


# ---------------------------------------------------------------------------
# index plumbing
# ---------------------------------------------------------------------------

def narrow(x, start, stop):
    """Slice ``[start:stop]`` of the last axis."""
    xv = value_of(x)
    if not (0 <= start < stop <= xv.shape[-1]):
        raise ContractError(f"narrow [{start}:{stop}] out of range for shape {xv.shape}")
    out = xv[..., start:stop].copy()

    def vjp_all(g):
        z = np.zeros_like(xv)
        z[..., start:stop] = g
        return (z,)

    return _record("narrow", out, (x,), vjp_all)


def concat(a, b):
    """Concatenate along the last axis."""
    av, bv = value_of(a), value_of(b)
    if av.ndim != bv.ndim:
        raise ContractError(f"concat rank mismatch: {av.shape} vs {bv.shape}")
    out = np.concatenate([av, bv], axis=-1)
    split = av.shape[-1]

    def vjp_all(g):
        return (g[..., :split].copy(), g[..., split:].copy())

    return _record("concat", out, (a, b), vjp_all)


def pick(x, index):
    """Select one entry of the last axis per batch row: ``x[arange(B), idx]``."""
    xv = value_of(x)
    idx = np.asarray(index, dtype=np.int64)
    if xv.ndim != 2 or idx.shape != (xv.shape[0],):
        raise ContractError(f"pick needs a (B, n) batch and one index per row, got {xv.shape}")
    if np.any(idx < 0) or np.any(idx >= xv.shape[1]):
        raise ContractError("pick index out of range")
    rows = np.arange(xv.shape[0])
    out = xv[rows, idx]

    def vjp_all(g):
        z = np.zeros_like(xv)
        z[rows, idx] = g
        return (z,)

    return _record("pick", out, (x,), vjp_all)


def embed_rows(table, index):
    """Row lookup in a ``(C, E)`` table, one row per index."""
    tv = value_of(table)
    if tv.ndim != 2:
        raise ContractError("embed_rows expects a 2-d table")
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1 or np.any(idx < 0) or np.any(idx >= tv.shape[0]):
        raise ContractError("embed_rows index out of range")
    out = tv[idx]

    def vjp_all(g):
        z = np.zeros_like(tv)
        np.add.at(z, idx, g)
        return (z,)

    return _record("embed_rows", out, (table,), vjp_all)


def expand_last(x):
    """Append a trailing axis of size 1."""
    xv = value_of(x)
    out = xv[..., None].copy()
    return _record("expand_last", out, (x,), lambda g: (np.asarray(g)[..., 0].copy(),))


def squeeze_last(x):
    """Drop a trailing axis of size 1."""
    xv = value_of(x)
    if xv.ndim == 0 or xv.shape[-1] != 1:
        raise ContractError(f"squeeze_last expects trailing axis 1, got shape {xv.shape}")
    out = xv[..., 0].copy()
    return _record("squeeze_last", out, (x,), lambda g: (np.asarray(g)[..., None].copy(),))


# ---------------------------------------------------------------------------
# Cayley orthogonal matrix-vector product
# ---------------------------------------------------------------------------

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
    s = skew_matrix(value_of(flat), dim)
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


def cayley_matvec(flat, x):
    """Apply the Cayley rotation of ``flat`` to each row of ``x``.

    The rotation matrix is an exact function of the skew parameters, so the
    adjoint with respect to ``flat`` is computed analytically
    (:func:`cayley_adjoint`); it is checked against finite differences like
    every other primitive.
    """
    xv = value_of(x)
    if xv.ndim != 2:
        raise ContractError(f"cayley_matvec expects a (B, n) batch, got shape {xv.shape}")
    q = cayley_rotation(flat, xv.shape[-1])
    out = xv @ q.T
    return _record("cayley_matvec", out, (flat, x),
                   lambda g: cayley_adjoint(q, xv, np.asarray(g, dtype=np.float64)))


# ---------------------------------------------------------------------------
# gradient driver
# ---------------------------------------------------------------------------

def _backward(out):
    topo = []
    visited = set()
    stack = [(out, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    grads = {id(out): np.ones((), dtype=np.float64)}
    for node in reversed(topo):
        g = grads.get(id(node))
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
    return grads


def eval_and_grad(fn, params: Mapping[str, Array]):
    """Evaluate ``fn`` on tape leaves for ``params`` and backpropagate.

    ``fn`` receives a dict mapping each parameter name to a leaf Node and must
    return a scalar (a Node, or a plain scalar if no parameter is used).
    Returns ``(value, gradients)`` where the gradients dict has exactly one
    finite entry per requested parameter; parameters the output does not
    depend on get zero gradients.
    """
    leaves = {k: Node(np.asarray(v, dtype=np.float64)) for k, v in params.items()}
    out = fn(leaves)
    if not isinstance(out, Node):
        out_val = np.asarray(out, dtype=np.float64)
        if out_val.shape != ():
            raise ContractError(f"graph output must be a scalar, got shape {out_val.shape}")
        return float(out_val), {k: np.zeros_like(n.value) for k, n in leaves.items()}
    if out.value.shape != ():
        raise ContractError(f"graph output must be a scalar, got shape {out.value.shape}")

    grads = _backward(out)
    result = {}
    for name, leaf in leaves.items():
        g = grads.get(id(leaf))
        if g is None:
            g = np.zeros_like(leaf.value)
        else:
            g = np.asarray(g, dtype=np.float64)
            if g.shape != leaf.value.shape:
                g = np.broadcast_to(g, leaf.value.shape).copy()
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        result[name] = g
    return float(out.value), result


def finite_diff_grad(f: Callable[[Array], float], point, h: float = 1e-5):
    """Central-difference gradient of a scalar function at ``point``."""
    x = np.array(point, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        fp, fm = float(f(xp)), float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError("non-finite evaluation in finite differences")
        grad[idx] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def finite_diff_grad_params(f, params: Mapping[str, Array], h: float = 1e-5):
    """Central-difference gradients for a function of a parameter dict."""
    grads = {}
    for name in params:
        def f_one(x, _name=name):
            probe = dict(params)
            probe[_name] = x
            return f(probe)

        grads[name] = finite_diff_grad(f_one, params[name], h=h)
    return grads
