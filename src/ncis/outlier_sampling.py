"""Boundary outlier synthesis by rejection sampling in invariant space.

Proposals are drawn from each class's fitted (lam-inflated) Gaussian and kept
only when their log-density falls below the class's acceptance threshold: the
``q``-quantile of the log-densities the training points achieved under the
same Gaussian.  Accepted invariant-space points are mapped back to embedding
space through the exact inverse of the network.

Because the proposal covariance is the regularized one, raising ``lam``
inflates precisely the collapsed invariant dimensions, pushing accepted
samples further off the class manifold; the threshold recalibrates itself
from the training quantiles at every ``lam``.

Proposals are drawn in blocks: ``rng.standard_normal((B, D))`` fills a block
in the same order as ``B`` one-row draws, every proposal's log-density is the
same whatever it is batched with, and the first ``n`` accepted proposals are
kept.  So a class accepts exactly the proposals that drawing and testing them
one at a time would accept, from the same per-class stream, and the surplus
drawn past the ``n``-th acceptance is never used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cvpn
from .config import RunConfig
from .density import log_density_v_batch
from .errors import ContractError, SamplingError

BLOCK = 1024  # proposals drawn and scored per step of the sampler


@dataclass
class OutlierSet:
    """Synthesized outliers with their sampling metadata."""

    embeddings: np.ndarray     # (N, D)
    labels: np.ndarray         # (N,)
    log_densities: np.ndarray  # (N,) invariant-space log-density at acceptance
    lam: float
    q: float
    seed: int
    attempts: np.ndarray       # (C,) proposals drawn per class

    def __len__(self):
        return self.embeddings.shape[0]

    @property
    def dim(self):
        return self.embeddings.shape[1]


def acceptance_threshold(bank, label, q) -> float:
    """The q-quantile of the class's training log-densities."""
    if not 0.0 < q < 1.0:
        raise ContractError("q must lie in (0, 1)")
    lab = int(label)
    if not 0 <= lab < bank.class_count:
        raise ContractError(f"unknown class label {label!r}")
    return float(np.quantile(bank.train_logdens[lab], q))


def rejection_sample_invariant(bank, label, q, max_attempts, rng, threshold=None, n=1):
    """Draw the first ``n`` accepted invariant-space outliers of one class.

    Proposals are drawn ``BLOCK`` at a time (fewer when less of the budget
    remains) and scored in one call.  Returns ``(vs, log_densities,
    attempts)``: the accepted proposals in draw order, their log-densities,
    and the number of proposals up to and including the ``n``-th accepted
    one.  ``threshold`` overrides the quantile rule (pass ``np.inf`` to
    accept every draw).  Raises :class:`SamplingError` when fewer than ``n``
    of the first ``max_attempts`` proposals are accepted.
    """
    if threshold is None:
        threshold = acceptance_threshold(bank, label, q)
    lab = int(label)
    max_attempts = int(max_attempts)
    if max_attempts < 1:
        raise ContractError("max_attempts must be at least 1")
    if n < 1:
        raise ContractError("n must be at least 1")
    mu = bank.means[lab]
    chol = bank.cholesky[lab]
    vs, lds = [], []
    found = 0
    used = 0
    while used < max_attempts:
        size = min(BLOCK, max_attempts - used)
        z = rng.standard_normal((size, bank.dim))
        # a stack of matrix-vector products: each row equals ``chol @ z[i]``
        v = mu + (chol @ z[:, :, None])[:, :, 0]
        ld = log_density_v_batch(bank, v, lab)
        hit = np.flatnonzero(ld < threshold)[:n - found]
        vs.append(v[hit])
        lds.append(ld[hit])
        found += hit.size
        if found == n:
            return np.concatenate(vs), np.concatenate(lds), used + int(hit[-1]) + 1
        used += size
    raise SamplingError(
        f"class {lab}: accepted {found}/{n} outliers in {max_attempts} attempts "
        f"(acceptance rate {found / max_attempts:.5f}, q={q})")


def default_max_attempts(n_per_class, q) -> int:
    # expected tail draws with a 10x safety factor
    return int(math.ceil(10.0 * n_per_class / q))


def synthesize_outliers(model, bank, n_per_class, q=RunConfig.sample_q, max_attempts=None,
                        seed=0) -> OutlierSet:
    """Exactly ``n_per_class`` accepted outliers for every class.

    Each class consumes its own generator seeded with ``seed ^ label``, so
    classes are reproducible independently of each other.
    """
    if n_per_class < 1:
        raise ContractError("n_per_class must be at least 1")
    if not 0.0 < q < 1.0:
        raise ContractError("q must lie in (0, 1)")
    if bank.dim != model.dim:
        raise ContractError("bank dimension does not match the model")
    if max_attempts is None:
        max_attempts = default_max_attempts(n_per_class, q)

    embeddings = []
    all_lds = []
    all_labels = []
    attempts = np.zeros(bank.class_count, dtype=np.int64)

    for label in range(bank.class_count):
        rng = np.random.default_rng(seed ^ label)
        vs, lds, attempts[label] = rejection_sample_invariant(
            bank, label, q, max_attempts, rng, n=n_per_class)
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
