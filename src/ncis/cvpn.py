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

    def block_param_names(self, block):
        base = f"block{block}."
        return [base + s for s in ("orth_skew", "t_w1", "t_b1", "t_w2", "t_b2", "t_w3", "t_b3")]


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


# ---------------------------------------------------------------------------
# layer application (works on plain arrays and on tape nodes)
# ---------------------------------------------------------------------------

def translation_layers(P, block):
    """The ``(W, b)`` layers of one block's translation net, input to output."""
    base = f"block{block}.t_"
    return [(P[f"{base}w{j}"], P[f"{base}b{j}"]) for j in (1, 2, 3)]


def _translation(P, block, x_rest, class_rows):
    tin = ad.concat(x_rest, class_rows)
    (w1, b1), (w2, b2), (w3, b3) = translation_layers(P, block)
    h1 = ad.tanh(ad.add(ad.matvec(w1, tin), b1))
    h2 = ad.tanh(ad.add(ad.matvec(w2, h1), b2))
    return ad.add(ad.matvec(w3, h2), b3)


def coupling_shift(x, translation, split, sign=1.0):
    """Shift the first ``split`` coordinates by ``translation``; keep the rest."""
    head = ad.narrow(x, 0, split)
    rest = ad.narrow(x, split, ad.value_of(x).shape[-1])
    shifted = ad.add(head, translation) if sign > 0 else ad.sub(head, translation)
    return ad.concat(shifted, rest)


def _coupling(model, P, block, x, labels, sign):
    d = ceil_half(model.dim)
    rest = ad.narrow(x, d, model.dim)
    rows = ad.embed_rows(P["class_embed"], labels)
    t = _translation(P, block, rest, rows)
    return coupling_shift(x, t, d, sign)


def apply_blocks(model, P, x, labels, inverse=False):
    """Run all layers forward, or all inverses in reverse order."""
    if not inverse:
        for i in range(model.num_blocks):
            x = ad.cayley_matvec(P[f"block{i}.orth_skew"], x)
            x = _coupling(model, P, i, x, labels, sign=1.0)
    else:
        for i in reversed(range(model.num_blocks)):
            x = _coupling(model, P, i, x, labels, sign=-1.0)
            x = ad.cayley_matvec(P[f"block{i}.orth_skew"], x, transpose=True)
    return x


# ---------------------------------------------------------------------------
# public single-vector and batch interfaces
# ---------------------------------------------------------------------------

def _check_vector(model, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.dim,):
        raise ContractError(f"expected a vector of dimension {model.dim}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ContractError("input vector must be finite")
    return x


def _check_label(model, label):
    lab = int(label)
    if not 0 <= lab < model.class_count:
        raise ContractError(f"unknown class label {label!r} (class_count={model.class_count})")
    return lab


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


def cvpn_forward(model, e, label):
    e = _check_vector(model, e)
    lab = _check_label(model, label)
    return apply_blocks(model, model.params, e, lab)


def cvpn_inverse(model, v, label):
    v = _check_vector(model, v)
    lab = _check_label(model, label)
    return apply_blocks(model, model.params, v, lab, inverse=True)


def cvpn_forward_batch(model, xs, labels):
    xs, labels = _check_batch(model, xs, labels)
    if xs.shape[0] == 0:
        return xs.copy()
    return apply_blocks(model, model.params, xs, labels)


def cvpn_inverse_batch(model, vs, labels):
    vs, labels = _check_batch(model, vs, labels)
    if vs.shape[0] == 0:
        return vs.copy()
    return apply_blocks(model, model.params, vs, labels, inverse=True)


def invariants(model, e, label):
    """First ``num_invariants`` coordinates of the forward map."""
    return cvpn_forward(model, e, label)[: model.num_invariants]


def invariants_batch(model, xs, labels):
    return cvpn_forward_batch(model, xs, labels)[:, : model.num_invariants]


def coupling_forward(model, block, x, label):
    """Apply only the conditional coupling layer of one block."""
    x = _check_vector(model, x)
    lab = _check_label(model, label)
    return _coupling(model, model.params, block, x, lab, sign=1.0)


def coupling_inverse(model, block, y, label):
    y = _check_vector(model, y)
    lab = _check_label(model, label)
    return _coupling(model, model.params, block, y, lab, sign=-1.0)


def orthogonal_apply(model, block, x, direction="forward"):
    """Apply only the orthogonal layer of one block (forward: Qx, inverse: Q^T x)."""
    x = _check_vector(model, x)
    if direction not in ("forward", "inverse"):
        raise ContractError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return ad.cayley_matvec(model.params[f"block{block}.orth_skew"], x,
                            transpose=(direction == "inverse"))


def orthogonal_matrix(model, block):
    return ad.cayley_rotation(model.params[f"block{block}.orth_skew"], model.dim)


MAX_FD_JACOBIAN_DIM = 16


def jacobian_det_fd(model, e, label, h=1e-5):
    """Determinant of the finite-difference Jacobian of the forward map.

    Dense finite differencing only; refuses dimensions above
    ``MAX_FD_JACOBIAN_DIM``.
    """
    if model.dim > MAX_FD_JACOBIAN_DIM:
        raise ContractError(
            f"finite-difference Jacobian limited to dim <= {MAX_FD_JACOBIAN_DIM}")
    e = _check_vector(model, e)
    lab = _check_label(model, label)
    jac = np.empty((model.dim, model.dim))
    for j in range(model.dim):
        ep = e.copy()
        ep[j] += h
        em = e.copy()
        em[j] -= h
        jac[:, j] = (apply_blocks(model, model.params, ep, lab)
                     - apply_blocks(model, model.params, em, lab)) / (2.0 * h)
    return float(np.linalg.det(jac))
