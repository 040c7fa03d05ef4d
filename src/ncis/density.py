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
from .config import check_range
from .data import LabeledEmbeddingSet, as_labels, as_rows, require_min_class_size
from .errors import NumericError

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


def _logdens(mean, chol, points):
    # One single-right-hand-side solve per row (a stacked solve), so a row's
    # value does not depend on the rows batched with it; a multi-RHS
    # ``solve(chol, diff.T)`` changes the last bits with the batch.
    diff = np.atleast_2d(points) - mean
    y = np.linalg.solve(chol, diff[:, :, None])[:, :, 0]
    maha = np.sum(y * y, axis=1)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (mean.shape[0] * _LOG_2PI + logdet + maha)


def regularized_cholesky(cov, lam, name):
    """Lower Cholesky factor of ``cov + lam * I``; ``NumericError`` naming
    ``cov`` as ``name`` when that matrix is not positive definite."""
    try:
        return np.linalg.cholesky(cov + lam * np.eye(cov.shape[0]))
    except np.linalg.LinAlgError as err:
        raise NumericError(f"{name} plus lam * I is not positive definite") from err


def fit_class_gaussians(vectors, labels, lam, class_count=None) -> ClassGaussianBank:
    """Fit one Gaussian per class with biased covariance and lam*I regularization."""
    check_range("density.lambda", lam)
    labels = np.asarray(labels, dtype=np.int64)
    if class_count is None:
        class_count = int(labels.max()) + 1 if labels.size else 0
    data = LabeledEmbeddingSet(vectors, labels, class_count)
    require_min_class_size(data, 2)

    dim = data.dim
    means = np.empty((class_count, dim))
    covs = np.empty((class_count, dim, dim))
    chols = np.empty((class_count, dim, dim))
    logdens = []
    for label in range(class_count):
        pts, means[label], covs[label] = data.class_moments(label)
        chols[label] = regularized_cholesky(covs[label], lam, f"covariance of class {label}")
        logdens.append(np.sort(_logdens(means[label], chols[label], pts)))
    return ClassGaussianBank(float(lam), means, covs, chols, logdens)


def log_density_v_batch(bank, vs, label):
    """Gaussian log-density of each row of ``vs``; each row's value is the
    same whatever it is batched with."""
    lab = int(as_labels(label, bank.class_count))
    return _logdens(bank.means[lab], bank.cholesky[lab], as_rows(vs, bank.dim))


def log_density_e_batch(bank, model, es, label):
    """Log-density of each embedding row: evaluated in invariant space, with
    no Jacobian term."""
    es = np.asarray(es, dtype=np.float64)
    labels = np.full(es.shape[0], int(label), dtype=np.int64)
    return log_density_v_batch(bank, cvpn.cvpn_forward_batch(model, es, labels), label)
