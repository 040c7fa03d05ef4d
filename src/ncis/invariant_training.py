"""Fitting the volume-preserving network so class invariants vanish on ID data.

Training minimizes the mean squared norm of the invariant outputs over the
labeled embeddings.  The volume-preserving structure of the network rules out
the degenerate solution of contracting everything to a constant, so no
penalty term is needed; the layers keep their unimodular Jacobians at every
step by construction.

The loop reads its seed and its ``cvpn.train_*`` hyperparameters from the
pipeline's ``RunConfig``, which checks their ranges when it is built.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import autodiff as ad
from . import cvpn
from .config import RunConfig, check_range
from .data import LabeledEmbeddingSet, as_rows, require_min_class_size
from .errors import ContractError, NumericError
from .mlp import step_buffers, tanh_mlp_backward
from .optim import adam_init, adam_update, flatten_params, views_like


def select_num_invariants(data: LabeledEmbeddingSet, variance_percent: float) -> int:
    """Pick the invariant count from per-class PCA spectra.

    For each class, count how many of the smallest covariance eigenvalues
    jointly hold less than ``variance_percent`` percent of the total variance;
    the result is the rounded (half-up) mean over classes, clamped to
    [1, D-1].  A degenerate class (zero total variance) contributes D-1 with
    a warning.
    """
    check_range("invariants.p", variance_percent)
    require_min_class_size(data, 2)
    dim = data.dim
    fraction = variance_percent / 100.0

    per_class = []
    for label in range(data.class_count):
        evals = np.linalg.eigvalsh(data.class_moments(label)[2])  # ascending
        total = float(evals.sum())
        if total <= 0.0:
            warnings.warn(f"class {label} is degenerate (zero variance); using K={dim - 1}")
            per_class.append(dim - 1)
            continue
        cum = np.cumsum(evals) / total
        per_class.append(int(np.sum(cum < fraction)))

    mean_k = float(np.mean(per_class))
    k = int(np.floor(mean_k + 0.5))  # round half up
    return max(1, min(dim - 1, k))


def invariant_loss(model, embeddings, labels) -> float:
    """Mean squared invariant norm over a batch."""
    g = cvpn.invariants_batch(model, as_rows(embeddings, nonempty=True), labels)
    return float(np.mean(np.sum(g * g, axis=1)))


def invariant_loss_and_grad(model, x, labels, grads, out=None) -> float:
    """Batch loss ``sum(y[:, :k] ** 2) / B`` of ``y = cvpn.cvpn_forward_batch`` and its gradient.

    A hand-written reverse pass over the blocks the forward call saved, checked
    against the forward map on the test suite's autodiff tape (``apply_blocks``
    in ``tests/tape.py``).  Each gradient of ``model.params[name]`` is written
    into ``grads[name]``.  ``out`` holds one ``mlp.step_buffers`` per block's
    translation net; the blocks may share their gradient and slope arrays,
    since each block's input gradient is used up before the next block's
    backward pass starts.
    """
    saved = []
    x = cvpn.cvpn_forward_batch(model, x, labels, saved, out)
    batch, dim = x.shape
    d = cvpn.ceil_half(dim)
    scale = 1.0 / batch
    inv = x[:, :model.num_invariants]
    loss = float(np.sum(inv * inv) * scale)

    g = np.zeros_like(x)
    g[:, :model.num_invariants] = (2.0 * scale) * inv
    g_rows = np.zeros((batch, model.params["class_embed"].shape[1]))
    for i in range(model.num_blocks - 1, -1, -1):
        q, x_in, layers, inputs = saved[i]
        g_tin = tanh_mlp_backward(layers, inputs, g[:, :d], cvpn.translation_layers(grads, i),
                                  None if out is None else out[i])
        g[:, d:] += g_tin[:, :dim - d]
        g_rows += g_tin[:, dim - d:]
        grads[f"block{i}.orth_skew"][...], g = ad.cayley_adjoint(q, x_in, g)
    g_embed = grads["class_embed"]
    g_embed[...] = 0.0
    np.add.at(g_embed, labels, g_rows)
    return loss


def train_cvpn(model, data: LabeledEmbeddingSet, cfg: RunConfig):
    """Minimize the invariant loss in place; returns (model, loss history).

    Runs ``cfg.cvpn_train_iterations`` Adam steps at ``cfg.cvpn_train_lr`` on
    mini-batches of ``cfg.cvpn_train_batch`` drawn with ``cfg.seed``.  The
    history is an ``(iterations, 2)`` array of (iteration, batch loss
    before the update).  Identical seeds give identical histories.  The
    model's parameters end up as views of one flat buffer (see ``optim``).
    """
    if data.dim != model.dim:
        raise ContractError(f"data dimension {data.dim} does not match model dim {model.dim}")
    if data.class_count > model.class_count:
        raise ContractError("data has more classes than the model")
    if len(data) == 0:
        raise ContractError("cannot train on an empty embedding set")

    rng = np.random.default_rng(cfg.seed)
    flat = flatten_params(model.params)
    grad = np.zeros_like(flat)
    grads = views_like(grad, model.params)
    state = adam_init(flat)
    n = len(data)
    bs = min(cfg.cvpn_train_batch, n)
    history = np.empty((cfg.cvpn_train_iterations, 2))
    # each block keeps its activations for the backward pass, which runs one
    # block at a time and uses up a block's input gradient before the next:
    # every block borrows block 0's gradient and slope arrays
    out = [step_buffers(cvpn.translation_layers(model.params, 0), bs)]
    out += [step_buffers(cvpn.translation_layers(model.params, i), bs, backward=out[0])
            for i in range(1, model.num_blocks)]

    # the finite check below reports a non-finite step with its position
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.cvpn_train_iterations):
            idx = rng.choice(n, size=bs, replace=False)
            loss = invariant_loss_and_grad(model, data.embeddings[idx], data.labels[idx], grads, out)
            if not (math.isfinite(loss) and np.isfinite(grad).all()):
                raise NumericError(f"training aborted at iteration {it}: non-finite loss or gradient")
            history[it, 0] = it
            history[it, 1] = loss
            adam_update(flat, grad, state, cfg.cvpn_train_lr)
    return model, history
