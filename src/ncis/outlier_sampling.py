"""Boundary outlier synthesis by exact tail draws in invariant space.

Each class's outliers come from its fitted (lam-inflated) Gaussian
conditioned on a log-density below the class's acceptance threshold: the
``q``-quantile of the log-densities the training points achieved under the
same Gaussian.  That condition bounds the draw's radius in the Gaussian's
whitened coordinates from below, so the conditioned law is drawn exactly,
as a uniform direction times a truncated chi radius, whatever the
threshold's tail mass.  The outliers are mapped back to embedding space
through the exact inverse of the network.

Because the Gaussian's covariance is the regularized one, raising ``lam``
inflates precisely the collapsed invariant dimensions, pushing the outliers
further off the class manifold; the threshold recalibrates itself from the
training quantiles at every ``lam``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cvpn
from .config import RunConfig, check_range
from .data import as_labels
from .density import log_density_v_batch
from .errors import ContractError, SamplingError


@dataclass
class OutlierSet:
    """Synthesized outliers with their sampling metadata."""

    embeddings: np.ndarray     # (N, D)
    labels: np.ndarray         # (N,)
    log_densities: np.ndarray  # (N,) invariant-space log-density at acceptance
    lam: float
    q: float
    seed: int
    attempts: np.ndarray       # (C,) radius proposals drawn per class

    def __len__(self):
        return self.embeddings.shape[0]

    @property
    def dim(self):
        return self.embeddings.shape[1]


def acceptance_threshold(bank, label, q) -> float:
    """The q-quantile of the class's training log-densities.

    numpy's default ("linear") quantile rule, step for step, read off the
    class's ascending array: ``np.quantile`` returns the same bits, but
    imports ``numpy.ma`` on its way (numpy 2.x), which every sampling process
    would pay for.
    """
    check_range("sample.q", q)
    values = bank.train_logdens[int(as_labels(label, bank.class_count))]
    n = len(values)
    v = (n - 1) * q
    lo = math.floor(v)
    a, b = values[lo], values[min(lo + 1, n - 1)]
    g = v - lo
    return float(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)


def _tail_radii(rng, a, t, size):
    """``size`` proposals for Gamma(a, 1) truncated below at ``t``, and which
    are accepted: the gamma itself up to its mode, beyond it ``t`` plus an
    exponential at Dagpunar's (1978) rate (1 when ``a <= 1``)."""
    if t <= max(a - 1.0, 0.0):
        s = rng.gamma(a, size=size)
        return s, s > t
    rate = 1.0 if a <= 1 else (t - a + math.hypot(t - a, 2.0 * math.sqrt(t))) / (2.0 * t)
    peak = t if a <= 1 else t + 1.0 / rate  # where s**(a-1) * exp(-(1-rate)*s) peaks on s > t
    s = t + rng.standard_exponential(size) / rate
    log_ratio = (a - 1.0) * np.log(s / peak) - (1.0 - rate) * (s - peak)
    return s, rng.random(size) <= np.exp(log_ratio)


def tail_sample_invariant(bank, label, q, rng, threshold=None, n=1):
    """``n`` invariant-space outliers of one class, drawn exactly from its
    Gaussian conditioned on a log-density below the threshold.

    ``mu + L z`` is below the threshold exactly when ``||z||^2 > r^2``, so a
    draw is a uniform direction times a radius whose half square is
    Gamma(D/2, 1) truncated at ``r^2 / 2``.  Each round proposes a radius and
    a direction for every open row, and closes the rows whose radius is
    accepted and whose computed log-density is below the threshold.  Returns
    ``(vs, log_densities, attempts)``, ``attempts`` counting radius
    proposals.  ``threshold`` overrides the quantile rule (``np.inf``
    accepts every draw); -inf or NaN, which no draw passes, raises
    :class:`SamplingError`.
    """
    if threshold is None:
        threshold = acceptance_threshold(bank, label, q)
    lab = int(label)
    if not threshold > -math.inf:
        raise SamplingError(f"class {lab}: no draw has a log-density below {threshold} (q={q})")
    check_range("sample.n_per_class", n)
    mu, chol = bank.means[lab], bank.cholesky[lab]
    # the log-density at the mean minus the threshold is r^2 / 2
    t = log_density_v_batch(bank, mu[None], lab)[0] - threshold
    vs, lds = np.empty((n, bank.dim)), np.empty(n)
    todo = np.arange(n)
    attempts = 0
    while todo.size:
        s, ok = _tail_radii(rng, bank.dim / 2, t, todo.size)
        attempts += todo.size
        z = rng.standard_normal((todo.size, bank.dim))
        z *= np.sqrt(2.0 * s / np.sum(z * z, axis=1))[:, None]
        # a stack of matrix-vector products: each row equals ``chol @ z[i]``
        v = mu + (chol @ z[:, :, None])[:, :, 0]
        ld = log_density_v_batch(bank, v, lab)
        ok &= ld < threshold
        vs[todo[ok]] = v[ok]
        lds[todo[ok]] = ld[ok]
        todo = todo[~ok]
    return vs, lds, attempts


def synthesize_outliers(model, bank, n_per_class, q=RunConfig.sample_q, seed=0) -> OutlierSet:
    """Exactly ``n_per_class`` outliers for every class.

    Each class consumes its own generator seeded with ``seed ^ label``, so
    classes are reproducible independently of each other.
    """
    check_range("sample.n_per_class", n_per_class)
    check_range("sample.q", q)
    if bank.dim != model.dim:
        raise ContractError("bank dimension does not match the model")

    embeddings = []
    all_lds = []
    all_labels = []
    attempts = np.zeros(bank.class_count, dtype=np.int64)

    for label in range(bank.class_count):
        rng = np.random.default_rng(seed ^ label)
        vs, lds, attempts[label] = tail_sample_invariant(bank, label, q, rng, n=n_per_class)
        labels = np.full(n_per_class, label, dtype=np.int64)
        embeddings.append(cvpn.cvpn_inverse_batch(model, vs, labels))
        all_lds.append(lds)
        all_labels.append(labels)

    return OutlierSet(
        embeddings=np.concatenate(embeddings, axis=0),
        labels=np.concatenate(all_labels),
        log_densities=np.concatenate(all_lds),
        lam=bank.lam,
        q=float(q),
        seed=int(seed),
        attempts=attempts,
    )


def mean_invariant_magnitude(model, outliers: OutlierSet) -> float:
    """Mean Euclidean norm of the invariant coordinates of the outliers."""
    if len(outliers) == 0:
        raise ContractError("empty outlier set")
    g = cvpn.invariants_batch(model, outliers.embeddings, outliers.labels)
    return float(np.mean(np.sqrt(np.sum(g * g, axis=1))))
