"""Energy-regularized classifier with a learned ID/OOD scoring head.

The classifier is an MLP producing class logits.  Its energy is the negative
log-sum-exp of the logits, and a small scalar-to-scalar MLP head maps the
energy to an ID-vs-OOD logit; that composed value is the OOD score (larger
means more in-distribution).  :func:`score_rows` is the one inference pass:
it gives each row's predicted label, energy and score together.  Training
combines softmax cross-entropy on labeled ID embeddings with a
regularization term that pushes the score up on ID batches and down on
synthesized outlier batches.

Training reads its seed and its ``classifier.*`` hyperparameters from the
pipeline's ``RunConfig``, which checks their ranges when it is built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import RunConfig, check_range
from .data import LabeledEmbeddingSet, as_rows
from .errors import ContractError, NumericError
from .mlp import step_buffers, tanh_mlp, tanh_mlp_backward
from .optim import adam_init, adam_update, flatten_params, views_like


@dataclass
class EnergyClassifier:
    dim: int
    class_count: int
    hidden_width: int
    phi_hidden: int
    beta: float
    seed: int
    params: dict


def classifier_layout(dim, class_count, hidden_width, phi_hidden, beta, seed):
    """The number of parameter arrays of a classifier with these fields and
    their ``(name, shape)`` in record order; a field out of range raises
    ``ContractError`` naming it."""
    if dim < 1 or class_count < 1:
        raise ContractError("dim and class_count must be positive")
    check_range("classifier.hidden_width", hidden_width)
    check_range("classifier.phi_hidden", phi_hidden)
    check_range("classifier.beta", beta)
    check_range("seed", seed)
    shapes = {"clf.w1": (hidden_width, dim), "clf.b1": (hidden_width,),
              "clf.w2": (hidden_width, hidden_width), "clf.b2": (hidden_width,),
              "clf.w3": (class_count, hidden_width), "clf.b3": (class_count,),
              "phi.w1": (phi_hidden, 1), "phi.b1": (phi_hidden,),
              "phi.w2": (1, phi_hidden), "phi.b2": ()}
    return len(shapes), shapes.items()


def build_energy_classifier(dim, class_count, hidden_width=RunConfig.classifier_hidden_width,
                            phi_hidden=RunConfig.classifier_phi_hidden,
                            beta=RunConfig.classifier_beta, seed=0) -> EnergyClassifier:
    """Fresh classifier; the scoring head's output layer starts at zero, so the
    score is identically zero before training."""
    _, layout = classifier_layout(dim, class_count, hidden_width, phi_hidden, beta, seed)
    params = {name: np.zeros(shape) for name, shape in layout}
    rng = np.random.default_rng(seed)
    for name in ("clf.w1", "clf.w2", "clf.w3"):
        params[name] = rng.standard_normal(params[name].shape) / np.sqrt(params[name].shape[1])
    # gentle slopes keep the tanh units unsaturated over the energy range,
    # so the separation term can keep shaping the energies themselves
    params["phi.w1"] = 0.1 * rng.standard_normal(params["phi.w1"].shape)
    return EnergyClassifier(dim, class_count, hidden_width, phi_hidden,
                            float(beta), seed, params)


# ---------------------------------------------------------------------------
# network layers
# ---------------------------------------------------------------------------

def _clf_layers(P):
    return [(P[f"clf.w{j}"], P[f"clf.b{j}"]) for j in (1, 2, 3)]


def _phi_layers(P):
    return [(P[f"phi.w{j}"], P[f"phi.b{j}"]) for j in (1, 2)]


def _energy_of_logits(logits):
    return -ad.logsumexp(logits)


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------

Scored = namedtuple("Scored", "labels energies scores")

BLOCK = 256  # rows per stack of one-row passes in score_rows


def score_rows(clf, xs) -> Scored:
    """Each row's predicted label (the arg-max class of its logits), energy
    (the negative log-sum-exp of its logits) and score (the scoring head of
    its energy; larger means more ID), for the rows of ``xs``.

    Each row goes through its own matrix-vector products (a stack of 1-row
    matmuls), so a row's results do not depend on the rows batched with it;
    a plain (N, D) matmul would change the last bits with N.  The stacks run
    over blocks of at most ``BLOCK`` rows, so the memory a call holds beyond
    its three result arrays does not grow with the row count.
    """
    xs = as_rows(xs, clf.dim)
    clf_layers, phi_layers = _clf_layers(clf.params), _phi_layers(clf.params)
    scored = Scored(np.empty(len(xs), dtype=np.intp), np.empty(len(xs)), np.empty(len(xs)))
    for start in range(0, len(xs), BLOCK):
        block = slice(start, start + BLOCK)
        logits, _ = tanh_mlp(clf_layers, xs[block, None, :])
        energies = _energy_of_logits(logits)
        scores, _ = tanh_mlp(phi_layers, energies[..., None])
        np.argmax(logits[:, 0], axis=1, out=scored.labels[block])
        scored.energies[block] = energies[:, 0]
        scored.scores[block] = scores[:, 0, 0]
    return scored


def classifier_loss_and_grad(P, id_x, id_y, ood_x, beta, grads, out=None):
    """One training step's ``(ce, separation)`` terms and the gradient of
    ``ce + beta * separation``.

    A hand-written reverse pass, checked against the same terms on the test
    suite's autodiff tape (``ce_term`` and ``ood_term`` in ``tests/tape.py``).
    The ID and outlier rows share one pass through the classifier.  With
    ``beta == 0`` the separation term is not computed (it reads 0.0) and the
    scoring head's gradients are exactly zero.  The gradient of each ``P[name]`` is written
    into ``grads[name]``, an array of the same shape.  ``out`` holds the
    ``mlp.step_buffers`` of the classifier and of the scoring head.
    """
    clf_out, phi_out = (None, None) if out is None else out
    n_id = id_x.shape[0]
    x = id_x if beta == 0.0 else np.concatenate([id_x, ood_x])
    clf_layers = _clf_layers(P)
    logits, clf_inputs = tanh_mlp(clf_layers, x, clf_out)
    lse = ad.logsumexp(logits)
    soft = np.exp(logits - lse[:, None])
    rows = np.arange(n_id)
    ce = float(np.sum(lse[:n_id] - logits[rows, id_y]) * (1.0 / n_id))
    separation = 0.0

    if beta == 0.0:
        g_logits = soft * (1.0 / n_id)
        for gw, gb in _phi_layers(grads):
            gw[...] = 0.0
            gb[...] = 0.0
    else:
        n_ood = x.shape[0] - n_id
        phi_layers = _phi_layers(P)
        u, phi_inputs = tanh_mlp(phi_layers, -lse[:, None], phi_out)
        ls_id, d_id = ad.log_sigmoid_with_slope(u[:n_id, 0])
        ls_ood, d_ood = ad.log_sigmoid_with_slope(-u[n_id:, 0])
        separation = float(np.sum(-ls_ood) * (1.0 / n_ood) + np.sum(-ls_id) * (1.0 / n_id))
        g_u = np.concatenate([-(beta / n_id) * d_id, (beta / n_ood) * d_ood])
        g_energy = tanh_mlp_backward(phi_layers, phi_inputs, g_u[:, None], _phi_layers(grads),
                                     phi_out)
        g_logits = soft * g_energy * -1.0   # energy = -logsumexp(logits)
        g_logits[:n_id] += soft[:n_id] * (1.0 / n_id)
    g_logits[rows, id_y] -= 1.0 / n_id
    tanh_mlp_backward(clf_layers, clf_inputs, g_logits, _clf_layers(grads), clf_out)
    return ce, separation


def train_energy_classifier(id_data: LabeledEmbeddingSet, outliers,
                            cfg: RunConfig) -> EnergyClassifier:
    """Jointly fit the classifier and scoring head by mini-batch updates.

    Runs ``cfg.classifier_epochs`` epochs of Adam at ``cfg.classifier_lr`` on
    mini-batches of ``cfg.classifier_batch``, shuffled with ``cfg.seed``,
    with the model's shape and ``beta`` from the other ``classifier_*``
    fields.  Every step pairs an ID mini-batch with an equally sized outlier
    mini-batch.  With ``beta == 0`` the regularization term is dropped
    entirely, so the scoring head keeps its initialization.  The returned
    classifier's parameters are views of one flat buffer (see ``optim``).
    """
    ood_x = as_rows(getattr(outliers, "embeddings", outliers), id_data.dim, "outliers",
                    nonempty=True)

    clf = build_energy_classifier(id_data.dim, id_data.class_count,
                                  hidden_width=cfg.classifier_hidden_width,
                                  phi_hidden=cfg.classifier_phi_hidden,
                                  beta=cfg.classifier_beta, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    flat = flatten_params(clf.params)
    grad = np.zeros_like(flat)
    grads = views_like(grad, clf.params)
    state = adam_init(flat)
    n_id = len(id_data)
    n_ood = ood_x.shape[0]
    bs = min(cfg.classifier_batch, n_id)
    steps = math.ceil(n_id / bs)
    rows = bs if clf.beta == 0.0 else 2 * bs
    out = (step_buffers(_clf_layers(clf.params), rows), step_buffers(_phi_layers(clf.params), rows))

    # the finite check below reports a non-finite step with its position
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.classifier_epochs):
            order_id = rng.permutation(n_id)
            need = steps * bs
            tiles = [rng.permutation(n_ood) for _ in range(math.ceil(need / n_ood))]
            order_ood = np.concatenate(tiles)[:need]
            for step in range(steps):
                bi = order_id[step * bs:(step + 1) * bs]
                bo = order_ood[step * bs:step * bs + bi.size]
                ce, separation = classifier_loss_and_grad(
                    clf.params, id_data.embeddings[bi], id_data.labels[bi], ood_x[bo], clf.beta,
                    grads, out)
                loss = ce + clf.beta * separation
                if not (math.isfinite(loss) and np.isfinite(grad).all()):
                    raise NumericError(f"training aborted at epoch {epoch}: non-finite loss or gradient")
                adam_update(flat, grad, state, cfg.classifier_lr)
    return clf
