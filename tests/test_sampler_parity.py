"""The tail sampler against the one-proposal-at-a-time rejection loop it
replaced, in distribution.

The reference below draws one proposal from the class's Gaussian, solves one
triangular system and keeps the proposal when its log-density is below the
threshold, as the sampler did before it drew from the tail directly.  Both
draw from the same conditioned law, so two-sample Kolmogorov-Smirnov
statistics between their draws stay below the 5% critical value.
"""

import math

import numpy as np
import pytest

from ncis import cvpn, density, outlier_sampling as osmp


def one_row_logdens(bank, v, label):
    """The log-density of one vector, computed as the one-row path used to."""
    mean, chol = bank.means[label], bank.cholesky[label]
    diff = np.atleast_2d(v) - mean
    y = np.linalg.solve(chol, diff.T)
    maha = np.sum(y * y, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float((-0.5 * (mean.shape[0] * math.log(2.0 * math.pi) + logdet + maha))[0])


def one_at_a_time(bank, label, q, rng, n):
    """Draw proposals one by one until ``n`` are accepted."""
    threshold = osmp.acceptance_threshold(bank, label, q)
    mu, chol = bank.means[label], bank.cholesky[label]
    vs, lds = [], []
    while len(vs) < n:
        v = mu + chol @ rng.standard_normal(bank.dim)
        ld = one_row_logdens(bank, v, label)
        if ld < threshold:
            vs.append(v)
            lds.append(ld)
    return np.array(vs), np.array(lds)


def make_bank(dim, lam, seed):
    """Two classes whose data spans only part of the space, like invariants."""
    rng = np.random.default_rng(seed)
    spread = np.where(np.arange(dim) < max(dim // 2, 1), 1.0, 1e-3)
    pts, labels = [], []
    for label in range(2):
        mix = rng.standard_normal((dim, dim)) * 0.3 + np.eye(dim)
        pts.append((rng.standard_normal((300, dim)) * spread) @ mix + 2.0 * label)
        labels.append(np.full(300, label))
    return density.fit_class_gaussians(np.concatenate(pts), np.concatenate(labels), lam)


def ks_statistic(a, b):
    """The largest gap between the empirical distribution functions of two
    samples."""
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, at, side="right") / len(a)
                               - np.searchsorted(b, at, side="right") / len(b))))


@pytest.mark.parametrize("dim", [1, 2, 3, 16])
def test_tail_draws_match_one_at_a_time_in_distribution(dim):
    # at D=16, Student-t (df=30) data: heavier tails than the fitted Gaussian,
    # but light enough for the reference to accept ~6.5% of its proposals
    if dim == 16:
        pts = np.random.default_rng(dim).standard_t(30, (200, dim))
        bank = density.fit_class_gaussians(pts, np.zeros(200, dtype=int), lam=1e-5)
    else:
        bank = make_bank(dim, 1e-4, dim)
    want_vs, want_lds = one_at_a_time(bank, 0, 0.05, np.random.default_rng(100 + dim), 4000)
    vs, lds, _ = osmp.tail_sample_invariant(bank, 0, 0.05, np.random.default_rng(dim), n=4000)
    # 1.36 * sqrt(2 / 4000) = 0.0304 is the 5% critical value
    assert ks_statistic(lds, want_lds) < 0.030
    assert ks_statistic(vs[:, 0], want_vs[:, 0]) < 0.030


# (dim, lam, label, q, n, seed)
CASES = [
    (1, 1e-5, 0, 0.05, 1, 0),           # a single draw
    (1, 1e-3, 1, 0.05, 200, 1),
    (1, 1e-6, 0, 0.10, 30, 2),
    (2, 1e-6, 0, 0.05, 150, 3),
    (2, 1e-5, 1, 0.05, 60, 4),
    (2, 1e-4, 0, 0.02, 40, 5),
    (2, 1e-2, 1, 0.05, 120, 6),
    (2, 1e-5, 0, 0.05, 1024, 7),        # many draws
    (8, 1e-6, 0, 0.05, 100, 8),
    (8, 1e-4, 1, 0.05, 25, 9),
    (8, 1e-2, 0, 0.10, 250, 10),
    (8, 1e-3, 1, 0.05, 80, 11),
]


@pytest.mark.parametrize("dim,lam,label,q,n,seed", CASES)
def test_tail_draws_score_as_one_row_below_the_threshold(dim, lam, label, q, n, seed):
    # every draw's reported log-density is the one-row path's, bit for bit,
    # and below the class's threshold; the same stream gives the same draws
    bank = make_bank(dim, lam, seed)
    vs, lds, attempts = osmp.tail_sample_invariant(bank, label, q, np.random.default_rng(seed),
                                                   n=n)
    assert vs.shape == (n, dim) and lds.shape == (n,)
    assert np.array_equal(lds, [one_row_logdens(bank, v, label) for v in vs])
    assert np.all(lds < osmp.acceptance_threshold(bank, label, q))
    assert attempts >= n
    again = osmp.tail_sample_invariant(bank, label, q, np.random.default_rng(seed), n=n)
    assert np.array_equal(again[0], vs) and np.array_equal(again[1], lds) and again[2] == attempts


def test_synthesize_matches_the_tail_sampler_per_class(toy_run):
    # each class draws from its own seed ^ label stream and is mapped back
    # through the exact inverse of the network
    outs = osmp.synthesize_outliers(toy_run.model, toy_run.bank, 200, q=0.05, seed=5)
    for label in range(toy_run.bank.class_count):
        vs, lds, attempts = osmp.tail_sample_invariant(
            toy_run.bank, label, 0.05, np.random.default_rng(5 ^ label), n=200)
        mine = outs.labels == label
        assert np.array_equal(outs.log_densities[mine], lds)
        assert outs.attempts[label] == attempts
        assert np.array_equal(outs.embeddings[mine],
                              cvpn.cvpn_inverse_batch(toy_run.model, vs, outs.labels[mine]))
