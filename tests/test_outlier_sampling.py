import numpy as np
import pytest

from ncis import cvpn, density, outlier_sampling as osmp
from ncis.errors import ContractError, SamplingError


def one_d_bank(n=20000, seed=0, lam=1e-5):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 1))
    return density.fit_class_gaussians(pts, np.zeros(n, dtype=int), lam=lam), pts


def test_threshold_override_accepts_first_draw():
    bank, _ = one_d_bank(n=100)
    vs, lds, attempts = osmp.rejection_sample_invariant(
        bank, 0, q=0.05, max_attempts=10, rng=np.random.default_rng(1), threshold=np.inf)
    assert attempts == 1
    assert vs.shape == (1, 1)
    assert np.isfinite(lds[0])


def test_one_d_tail_acceptance_matches_analytic_quantile():
    bank, pts = one_d_bank()
    q = 0.05
    cutoff = np.quantile(np.abs(pts[:, 0] - bank.means[0, 0]), 1.0 - q)
    vs, _, attempts_total = osmp.rejection_sample_invariant(
        bank, 0, q, 100000, np.random.default_rng(2), n=500)
    accepted = np.abs(vs[:, 0] - bank.means[0, 0])
    # every accepted draw sits beyond the (1-q) magnitude quantile of the data
    assert accepted.min() > cutoff * 0.999
    rate = len(accepted) / attempts_total
    assert 0.03 < rate < 0.07  # analytic tail mass is q = 0.05


def test_rejection_deterministic_under_seed():
    bank, _ = one_d_bank(n=500)
    a = osmp.rejection_sample_invariant(bank, 0, 0.05, 10000, np.random.default_rng(42))
    b = osmp.rejection_sample_invariant(bank, 0, 0.05, 10000, np.random.default_rng(42))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]


def test_sampling_failure_reports_rate():
    bank, _ = one_d_bank(n=500)
    with pytest.raises(SamplingError, match="acceptance rate"):
        osmp.rejection_sample_invariant(bank, 0, 0.05, 1, np.random.default_rng(0),
                                        threshold=-np.inf)


def test_synthesize_counts_and_balance(toy_run):
    outs = osmp.synthesize_outliers(toy_run.model, toy_run.bank, 100, q=0.05, seed=3)
    assert len(outs) == 300
    assert all(np.sum(outs.labels == c) == 100 for c in range(3))
    assert outs.embeddings.shape == (300, 2)


def test_synthesize_zero_per_class_rejected(toy_run):
    with pytest.raises(ContractError):
        osmp.synthesize_outliers(toy_run.model, toy_run.bank, 0, seed=0)


def test_synthesize_deterministic(toy_run):
    a = osmp.synthesize_outliers(toy_run.model, toy_run.bank, 50, q=0.05, seed=9)
    b = osmp.synthesize_outliers(toy_run.model, toy_run.bank, 50, q=0.05, seed=9)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert np.array_equal(a.log_densities, b.log_densities)
    assert np.array_equal(a.attempts, b.attempts)


def test_accepted_densities_below_threshold(toy_run):
    outs = toy_run.outliers
    for label in range(3):
        tau = osmp.acceptance_threshold(toy_run.bank, label, outs.q)
        lds = outs.log_densities[outs.labels == label]
        assert np.all(lds < tau)


def test_exhausted_budget_raises_with_diagnostics(toy_run):
    with pytest.raises(SamplingError, match="accepted"):
        osmp.synthesize_outliers(toy_run.model, toy_run.bank, 500, q=0.05,
                                 max_attempts=20, seed=0)


def test_outlier_embedding_identity_model():
    model = cvpn.build_cvpn(2, 1, 2, 2, 8, 0)
    v = np.array([[0.4, -1.1]])
    assert np.array_equal(cvpn.cvpn_inverse_batch(model, v, np.array([1])), v)


def test_outlier_round_trip_and_density_identity(toy_run):
    outs = toy_run.outliers
    for i in (0, len(outs) // 2, len(outs) - 1):
        label = int(outs.labels[i])
        v = cvpn.cvpn_forward(toy_run.model, outs.embeddings[i], label)
        ld = density.log_density_v(toy_run.bank, v, label)
        assert ld == pytest.approx(outs.log_densities[i], abs=1e-9)
        e_density = density.log_density_e(toy_run.bank, toy_run.model,
                                          outs.embeddings[i], label)
        assert e_density == pytest.approx(outs.log_densities[i], abs=1e-9)


def test_outliers_lie_off_the_class_manifold(toy_run):
    train = toy_run.bench.train
    for label in range(3):
        pts = train.class_points(label)
        d_intra = np.sort(np.linalg.norm(pts[:, None] - pts[None, :], axis=2), axis=1)[:, 1]
        cutoff = np.quantile(d_intra, 0.95)
        outs = toy_run.outliers.embeddings[toy_run.outliers.labels == label]
        nearest = np.min(np.linalg.norm(outs[:, None] - pts[None, :], axis=2), axis=1)
        assert np.median(nearest) > cutoff


def test_lambda_difficulty_monotone(toy_run):
    mags = []
    for lam in (1e-6, 1e-5, 1e-4, 1e-3):
        bank = density.fit_class_gaussians(toy_run.train_vectors,
                                           toy_run.bench.train.labels, lam, class_count=3)
        outs = osmp.synthesize_outliers(toy_run.model, bank, 334, q=0.05, seed=7)
        mags.append(osmp.mean_invariant_magnitude(toy_run.model, outs))
    assert all(b >= a for a, b in zip(mags, mags[1:]))


def test_default_attempt_budget():
    assert osmp.default_max_attempts(200, 0.05) == 40000
