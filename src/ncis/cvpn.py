"""Class-conditioned volume-preserving bijection of the embedding space.

The network alternates two kinds of layers:

* an orthogonal layer, a rotation obtained as the Cayley transform
  Q = (I - S)(I + S)^-1 of a skew-symmetric parameter matrix S, which is
  exactly orthogonal with det Q = +1 and provides coordinate mixing;
* a conditional coupling layer, which shifts the first ``d = ceil(D/2)``
  coordinates by an MLP of the remaining coordinates and of a learned
  per-class embedding vector, leaving the rest unchanged.  Its Jacobian is
  unit lower-triangular, so the determinant is 1 and the inverse is the same
  shift subtracted.

Both layer types are unimodular, hence so is the whole map, and each is
invertible in closed form.  The first ``num_invariants`` output coordinates
are the learned invariants: functions that training drives toward zero on
each class's own points.

The final MLP layer and all skew parameters are zero-initialized, so a
freshly built model is the exact identity map for every class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError
from .mlp import tanh_mlp


def ceil_half(dim: int) -> int:
    return (dim + 1) // 2


@dataclass
class CvpnModel:
    dim: int
    num_invariants: int
    class_count: int
    num_blocks: int
    hidden_width: int
    seed: int
    params: dict


def build_cvpn(dim, num_invariants, num_blocks, class_count, hidden_width, seed) -> CvpnModel:
    """Construct a model that is the identity map for every class."""
    if not 1 <= num_invariants < dim:
        raise ContractError(f"num_invariants must lie in [1, {dim - 1}], got {num_invariants}")
    if num_blocks < 1:
        raise ContractError("num_blocks must be at least 1")
    if class_count < 1:
        raise ContractError("class_count must be at least 1")
    if hidden_width < 1:
        raise ContractError("hidden_width must be at least 1")

    rng = np.random.default_rng(seed)
    d = ceil_half(dim)
    embed_dim = d
    t_in = (dim - d) + embed_dim
    skew_len = dim * (dim - 1) // 2

    params = {"class_embed": 0.01 * rng.standard_normal((class_count, embed_dim))}
    for i in range(num_blocks):
        params[f"block{i}.orth_skew"] = np.zeros(skew_len)
        params[f"block{i}.t_w1"] = rng.standard_normal((hidden_width, t_in)) / np.sqrt(t_in)
        params[f"block{i}.t_b1"] = np.zeros(hidden_width)
        params[f"block{i}.t_w2"] = rng.standard_normal((hidden_width, hidden_width)) / np.sqrt(hidden_width)
        params[f"block{i}.t_b2"] = np.zeros(hidden_width)
        params[f"block{i}.t_w3"] = np.zeros((d, hidden_width))
        params[f"block{i}.t_b3"] = np.zeros(d)
    return CvpnModel(dim, num_invariants, class_count, num_blocks, hidden_width, seed, params)


def translation_layers(P, block):
    """The ``(W, b)`` layers of one block's translation net, input to output."""
    base = f"block{block}.t_"
    return [(P[f"{base}w{j}"], P[f"{base}b{j}"]) for j in (1, 2, 3)]


# ---------------------------------------------------------------------------
# public batch interface: the plain forward and inverse maps
# ---------------------------------------------------------------------------

def _check_batch(model, xs, labels):
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.dim:
        raise ContractError(f"expected shape (N, {model.dim}), got {xs.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (xs.shape[0],):
        raise ContractError("labels must match the batch length")
    if labels.size and (labels.min() < 0 or labels.max() >= model.class_count):
        raise ContractError("unknown class label in batch")
    return xs, labels


def _rotations(model, transpose=False):
    """Every block's Cayley rotation (or its transpose), from one stacked solve."""
    skews = np.stack([model.params[f"block{i}.orth_skew"] for i in range(model.num_blocks)])
    return ad.cayley_rotation(skews, model.dim, transpose)


def cvpn_forward_batch(model, xs, labels, saved=None, out=None):
    """The forward map of each row under its class label.  If ``saved`` is a
    list, each block appends ``(q, x_in, layers, inputs)`` for the backward
    pass.  ``out`` holds one ``mlp.step_buffers`` per block, for a training
    step's translation nets."""
    x, labels = _check_batch(model, xs, labels)
    P, d = model.params, ceil_half(model.dim)
    class_rows = P["class_embed"][labels]
    for i, q in enumerate(_rotations(model)):
        rotated = x @ q.T
        layers = translation_layers(P, i)
        t, inputs = tanh_mlp(layers, np.concatenate([rotated[:, d:], class_rows], axis=1),
                             None if out is None else out[i])
        if saved is not None:
            saved.append((q, x, layers, inputs))
        x = np.concatenate([rotated[:, :d] + t, rotated[:, d:]], axis=1)
    return x


def cvpn_inverse_batch(model, vs, labels):
    """Undo :func:`cvpn_forward_batch`: per block in reverse, unshift, then apply Q^T."""
    v, labels = _check_batch(model, vs, labels)
    P, d = model.params, ceil_half(model.dim)
    class_rows = P["class_embed"][labels]
    q_t = _rotations(model, transpose=True)
    for i in reversed(range(model.num_blocks)):
        t, _ = tanh_mlp(translation_layers(P, i), np.concatenate([v[:, d:], class_rows], axis=1))
        v = np.concatenate([v[:, :d] - t, v[:, d:]], axis=1)
        v = v @ q_t[i].T
    return v


def invariants_batch(model, xs, labels):
    """First ``num_invariants`` coordinates of the forward map of each row."""
    return cvpn_forward_batch(model, xs, labels)[:, : model.num_invariants]
