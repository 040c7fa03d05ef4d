"""A small reverse-mode autodiff tape, and the package's losses written on
it: the reference the hand-written gradients are checked against.

Every operation takes float64 arrays or :class:`Node` instances: arrays in
give arrays out with nothing recorded, and nodes in give a tape.  The
row-wise operations (``pick``, ``embed_rows``, ``cayley_matvec``) take
``(B, n)`` batches only.  Log-sum-exp, log-sigmoid and the Cayley product
take their values (and the Cayley product its adjoint) from the plain
primitives in ``ncis.autodiff``, so no arithmetic exists twice.
Reductions accumulate in a fixed order, so repeated evaluation of the same
graph is bitwise reproducible.  The package ships none of this.
"""

from __future__ import annotations

import numpy as np

from ncis import autodiff as ad, cvpn, ood_classifier as oc
from ncis.errors import ContractError, NumericError


class Node:
    """A tape entry: a value plus the closure that backpropagates through it."""

    __slots__ = ("value", "op", "parents", "vjp")

    def __init__(self, value, op="leaf", parents=(), vjp=None):
        value = np.asarray(value, dtype=np.float64)
        if not np.isfinite(value).all():
            raise NumericError(f"non-finite value produced by op '{op}'")
        self.value = value
        self.op = op
        self.parents = parents
        self.vjp = vjp


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
# operations
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


def log_sigmoid(x):
    """log(1 / (1 + exp(-x))), computed without overflow."""
    out, slope = ad.log_sigmoid_with_slope(value_of(x))
    return _record("log_sigmoid", out, (x,), lambda g: (g * slope,))


def logsumexp(x):
    """log sum exp over the last axis, with max subtraction for stability."""
    xv = value_of(x)
    out = ad.logsumexp(xv)

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


def cayley_matvec(flat, x):
    """Apply the Cayley rotation of ``flat`` to each row of ``x``.

    The rotation matrix is an exact function of the skew parameters, so the
    adjoint with respect to ``flat`` is computed analytically
    (``ncis.autodiff.cayley_adjoint``); it is checked against finite
    differences like every other primitive.
    """
    xv = value_of(x)
    if xv.ndim != 2:
        raise ContractError(f"cayley_matvec expects a (B, n) batch, got shape {xv.shape}")
    q = ad.cayley_rotation(value_of(flat), xv.shape[-1])
    out = xv @ q.T
    return _record("cayley_matvec", out, (flat, x),
                   lambda g: ad.cayley_adjoint(q, xv, np.asarray(g, dtype=np.float64)))


# ---------------------------------------------------------------------------
# backpropagation
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
        stack.extend((parent, False) for parent in node.parents)

    grads = {id(out): np.ones((), dtype=np.float64)}
    for node in reversed(topo):
        g = grads.get(id(node))
        if g is None or node.vjp is None:
            continue
        for parent, pg in zip(node.parents, node.vjp(g)):
            pid = id(parent)
            grads[pid] = grads[pid] + pg if pid in grads else pg
    return grads


def eval_and_grad(fn, params):
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


def finite_diff_grad(f, point, h=1e-5):
    """Central-difference gradient of a scalar function at ``point``."""
    x = np.array(point, dtype=np.float64)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        fp, fm = float(f(xp)), float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError("non-finite evaluation in finite differences")
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def finite_diff_grad_params(f, params, h=1e-5):
    """Central-difference gradients for a function of a parameter dict."""
    grads = {}
    for name in params:
        def f_one(x, _name=name):
            probe = dict(params)
            probe[_name] = x
            return f(probe)

        grads[name] = finite_diff_grad(f_one, params[name], h=h)
    return grads


# ---------------------------------------------------------------------------
# the package's models on the tape, and the cVPN's finite-difference Jacobian
# ---------------------------------------------------------------------------

def tanh_mlp(layers, x):
    """``mlp.tanh_mlp`` for a batch ``(N, n_in)``: the same operations in the
    same order, so the values agree bit for bit."""
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        x = add(matvec(w, x), b)
        if i < last:
            x = tanh(x)
    return x


def coupling_shift(x, translation, split):
    """Shift the first ``split`` coordinates by ``translation``; keep the rest."""
    head = narrow(x, 0, split)
    rest = narrow(x, split, value_of(x).shape[-1])
    return concat(add(head, translation), rest)


def coupling(model, P, block, x, labels):
    """One block's conditional coupling layer of the cVPN."""
    d = cvpn.ceil_half(model.dim)
    rest = narrow(x, d, model.dim)
    rows = embed_rows(P["class_embed"], labels)
    t = tanh_mlp(cvpn.translation_layers(P, block), concat(rest, rows))
    return coupling_shift(x, t, d)


def apply_blocks(model, P, x, labels):
    """``cvpn.cvpn_forward_batch`` on the tape: per block, rotate, then couple."""
    for i in range(model.num_blocks):
        x = cayley_matvec(P[f"block{i}.orth_skew"], x)
        x = coupling(model, P, i, x, labels)
    return x


def score(P, x):
    """The classifier's OOD score of each row: the scoring head of its energy."""
    energy = neg(logsumexp(tanh_mlp(oc._clf_layers(P), x)))
    return squeeze_last(tanh_mlp(oc._phi_layers(P), expand_last(energy)))


def ce_term(P, x, labels):
    """The classifier's mean softmax cross-entropy."""
    logits = tanh_mlp(oc._clf_layers(P), x)
    per_sample = sub(logsumexp(logits), pick(logits, labels))
    return mean(per_sample)


def ood_term(P, id_x, ood_x):
    """The separation term: mean -log sigmoid(score) on ID rows plus mean
    -log sigmoid(-score) on outlier rows."""
    id_part = mean(neg(log_sigmoid(score(P, id_x))))
    ood_part = mean(neg(log_sigmoid(neg(score(P, ood_x)))))
    return add(ood_part, id_part)


def predict(den, noisy, t, embedding):
    """The toy denoiser's noise prediction ``noisy - A @ embedding``."""
    return sub(noisy, matvec(den.matrix, embedding))


MAX_FD_JACOBIAN_DIM = 16


def jacobian_det_fd(model, e, label, h=1e-5):
    """Determinant of the central-difference Jacobian of the forward map at ``e``.

    The 2·D probe rows ``e ± h·I`` go through one forward call.  Dense finite
    differencing only; refuses dimensions above ``MAX_FD_JACOBIAN_DIM``.
    """
    if model.dim > MAX_FD_JACOBIAN_DIM:
        raise ContractError(
            f"finite-difference Jacobian limited to dim <= {MAX_FD_JACOBIAN_DIM}")
    e, labels = cvpn._check_batch(model, np.reshape(e, (1, -1)), [label])
    step = h * np.eye(model.dim)
    out = cvpn.cvpn_forward_batch(model, np.concatenate([e + step, e - step]),
                                  np.repeat(labels, 2 * model.dim))
    jac = (out[:model.dim] - out[model.dim:]).T / (2.0 * h)
    return float(np.linalg.det(jac))
