"""Class-conditional Gaussian densities in the invariant space.

Each class gets a mean and a biased (1/N) covariance estimated from its
invariant-space vectors, regularized by ``lam * I`` before the Cholesky
factorization.  The regularizer keeps the factorization well-posed even when
invariant dimensions have collapsed to near-zero variance, and it is also the
knob that inflates those dimensions when sampling outliers.

Because the network mapping embeddings to invariant space has a unit Jacobian
determinant everywhere, the Gaussian density evaluated at the mapped point is
already the exact density in embedding space; no volume correction is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cvpn
from .errors import ContractError, NumericError

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class ClassGaussianBank:
    lam: float
    means: np.ndarray        # (C, D)
    covariances: np.ndarray  # (C, D, D)
    cholesky: np.ndarray     # (C, D, D), factors of covariance + lam * I
    train_logdens: list      # per class: ascending array of training log-densities

    @property
    def class_count(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


def _check_label(bank, label):
    lab = int(label)
    if not 0 <= lab < bank.class_count:
        raise ContractError(f"unknown class label {label!r} (class_count={bank.class_count})")
    return lab


def _logdens(mean, chol, points):
    # One single-right-hand-side solve per row (a stacked solve), so a row's
    # value does not depend on the rows batched with it; a multi-RHS
    # ``solve(chol, diff.T)`` changes the last bits with the batch.
    diff = np.atleast_2d(points) - mean
    y = np.linalg.solve(chol, diff[:, :, None])[:, :, 0]
    maha = np.sum(y * y, axis=1)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (mean.shape[0] * _LOG_2PI + logdet + maha)


def fit_class_gaussians(vectors, labels, lam, class_count=None) -> ClassGaussianBank:
    """Fit one Gaussian per class with biased covariance and lam*I regularization."""
    if lam <= 0:
        raise ContractError("lam must be positive")
    vectors = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if vectors.ndim != 2:
        raise ContractError("vectors must be (N, D)")
    if labels.shape != (vectors.shape[0],):
        raise ContractError("labels must have one entry per vector")
    if not np.all(np.isfinite(vectors)):
        raise ContractError("vectors contain non-finite values")
    if class_count is None:
        class_count = int(labels.max()) + 1 if labels.size else 0
    if class_count < 1:
        raise ContractError("need at least one class")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ContractError("labels must lie in [0, class_count)")

    dim = vectors.shape[1]
    means = np.empty((class_count, dim))
    covs = np.empty((class_count, dim, dim))
    chols = np.empty((class_count, dim, dim))
    logdens = []
    eye = np.eye(dim)

    for label in range(class_count):
        pts = vectors[labels == label]
        if pts.shape[0] < 2:
            raise ContractError(f"class {label} needs at least 2 vectors, got {pts.shape[0]}")
        mu = pts.mean(axis=0)
        diff = pts - mu
        cov = diff.T @ diff / pts.shape[0]
        cov = 0.5 * (cov + cov.T)
        try:
            chol = np.linalg.cholesky(cov + lam * eye)
        except np.linalg.LinAlgError as err:
            raise NumericError(f"Cholesky factorization failed for class {label}") from err
        means[label] = mu
        covs[label] = cov
        chols[label] = chol
        logdens.append(np.sort(_logdens(mu, chol, pts)))

    return ClassGaussianBank(float(lam), means, covs, chols, logdens)


def log_density_v(bank, v, label) -> float:
    """Gaussian log-density of one invariant-space vector: a one-row call of
    :func:`log_density_v_batch`."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (bank.dim,):
        raise ContractError(f"expected a vector of dimension {bank.dim}, got shape {v.shape}")
    return float(log_density_v_batch(bank, v[None], label)[0])


def log_density_v_batch(bank, vs, label):
    """Gaussian log-density of each row of ``vs``; each row's value is the
    same whatever it is batched with."""
    lab = _check_label(bank, label)
    vs = np.asarray(vs, dtype=np.float64)
    if vs.ndim != 2 or vs.shape[1] != bank.dim:
        raise ContractError(f"expected shape (N, {bank.dim}), got {vs.shape}")
    return _logdens(bank.means[lab], bank.cholesky[lab], vs)


def log_density_e(bank, model, e, label) -> float:
    """Log-density of an embedding: evaluate in invariant space, no Jacobian term."""
    return log_density_v(bank, cvpn.cvpn_forward(model, e, label), label)


def log_density_e_batch(bank, model, es, label):
    es = np.asarray(es, dtype=np.float64)
    labels = np.full(es.shape[0], int(label), dtype=np.int64)
    return log_density_v_batch(bank, cvpn.cvpn_forward_batch(model, es, labels), label)
