"""The block sampler against the one-proposal-at-a-time loop it replaced.

The reference below draws one proposal, solves one triangular system and
tests one log-density per attempt, exactly as the sampler did before it drew
blocks.  The block sampler must accept the same proposals from the same
stream: equal embeddings, log-densities and attempt counts, bit for bit.
"""

import math

import numpy as np
import pytest

from ncis import density, outlier_sampling as osmp
from ncis.errors import SamplingError


def one_row_logdens(bank, v, label):
    """The log-density of one vector, computed as the one-row path used to."""
    mean, chol = bank.means[label], bank.cholesky[label]
    diff = np.atleast_2d(v) - mean
    y = np.linalg.solve(chol, diff.T)
    maha = np.sum(y * y, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float((-0.5 * (mean.shape[0] * math.log(2.0 * math.pi) + logdet + maha))[0])


def one_at_a_time(bank, label, q, max_attempts, rng, n):
    """Draw proposals one by one until ``n`` are accepted or the budget is spent."""
    threshold = osmp.acceptance_threshold(bank, label, q)
    mu, chol = bank.means[label], bank.cholesky[label]
    vs, lds = [], []
    used = 0
    while len(vs) < n and used < max_attempts:
        used += 1
        v = mu + chol @ rng.standard_normal(bank.dim)
        ld = one_row_logdens(bank, v, label)
        if ld < threshold:
            vs.append(v)
            lds.append(ld)
    if len(vs) < n:
        raise SamplingError(
            f"class {label}: accepted {len(vs)}/{n} outliers in {used} attempts "
            f"(acceptance rate {len(vs) / max(used, 1):.5f}, q={q})")
    return np.array(vs), np.array(lds), used


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


# (dim, lam, label, q, n, max_attempts, seed); BLOCK is 1024
CASES = [
    (1, 1e-5, 0, 0.05, 1, 200, 0),           # a single acceptance
    (1, 1e-3, 1, 0.05, 200, 100000, 1),      # acceptance crosses block boundaries
    (1, 1e-6, 0, 0.10, 30, 700, 2),          # budget smaller than one block
    (2, 1e-6, 0, 0.05, 150, 100000, 3),
    (2, 1e-5, 1, 0.05, 60, 2500, 4),         # budget not a multiple of the block
    (2, 1e-4, 0, 0.02, 40, 5000, 5),
    (2, 1e-2, 1, 0.05, 120, 100000, 6),
    (2, 1e-5, 0, 0.05, 1024, 10 ** 6, 7),    # many blocks
    (8, 1e-6, 0, 0.05, 100, 100000, 8),
    (8, 1e-4, 1, 0.05, 25, 900, 9),          # budget smaller than one block
    (8, 1e-2, 0, 0.10, 250, 3333, 10),       # budget not a multiple of the block
    (8, 1e-3, 1, 0.05, 80, 100000, 11),
]


@pytest.mark.parametrize("dim,lam,label,q,n,max_attempts,seed", CASES)
def test_block_sampler_matches_one_at_a_time(dim, lam, label, q, n, max_attempts, seed):
    bank = make_bank(dim, lam, seed)
    want = one_at_a_time(bank, label, q, max_attempts, np.random.default_rng(seed), n)
    got = osmp.rejection_sample_invariant(bank, label, q, max_attempts,
                                          np.random.default_rng(seed), n=n)
    assert got[0].shape == (n, dim)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


@pytest.mark.parametrize("dim,block", [(1, 1), (2, 7), (8, 64)])
def test_small_blocks_match_one_at_a_time(monkeypatch, dim, block):
    monkeypatch.setattr(osmp, "BLOCK", block)
    bank = make_bank(dim, 1e-4, 20 + dim)
    want = one_at_a_time(bank, 0, 0.05, 1500, np.random.default_rng(dim), 40)
    got = osmp.rejection_sample_invariant(bank, 0, 0.05, 1500, np.random.default_rng(dim), n=40)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


@pytest.mark.parametrize("dim,n,max_attempts", [(1, 50, 300), (2, 400, 2100), (8, 500, 1024)])
def test_exhaustion_raises_the_same_message(dim, n, max_attempts):
    bank = make_bank(dim, 1e-4, 30 + dim)
    with pytest.raises(SamplingError) as want:
        one_at_a_time(bank, 1, 0.05, max_attempts, np.random.default_rng(dim), n)
    with pytest.raises(SamplingError) as got:
        osmp.rejection_sample_invariant(bank, 1, 0.05, max_attempts,
                                        np.random.default_rng(dim), n=n)
    assert str(got.value) == str(want.value)
    assert "acceptance rate" in str(got.value)


def test_synthesize_matches_one_at_a_time_per_class(toy_run):
    outs = osmp.synthesize_outliers(toy_run.model, toy_run.bank, 200, q=0.05, seed=5)
    for label in range(toy_run.bank.class_count):
        _, lds, used = one_at_a_time(toy_run.bank, label, 0.05,
                                     osmp.default_max_attempts(200, 0.05),
                                     np.random.default_rng(5 ^ label), 200)
        assert np.array_equal(outs.log_densities[outs.labels == label], lds)
        assert outs.attempts[label] == used
