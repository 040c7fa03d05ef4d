import math

import numpy as np
import pytest

from ncis import cvpn, density
from ncis.errors import ContractError


def test_fit_hand_example():
    vectors = np.array([[0.0, 0.0], [2.0, 0.0]])
    bank = density.fit_class_gaussians(vectors, np.zeros(2, dtype=int), lam=0.25)
    assert np.array_equal(bank.means[0], np.array([1.0, 0.0]))
    assert np.array_equal(bank.covariances[0], np.array([[1.0, 0.0], [0.0, 0.0]]))
    reg = bank.cholesky[0] @ bank.cholesky[0].T
    assert np.allclose(reg, np.array([[1.25, 0.0], [0.0, 0.25]]), atol=1e-15)


def test_fit_repeated_point():
    vectors = np.tile([0.5, -1.0], (4, 1))
    bank = density.fit_class_gaussians(vectors, np.zeros(4, dtype=int), lam=1e-5)
    assert np.array_equal(bank.covariances[0], np.zeros((2, 2)))
    reg = bank.cholesky[0] @ bank.cholesky[0].T
    assert np.allclose(reg, 1e-5 * np.eye(2), atol=1e-20)


def test_fit_matches_outer_product_oracle():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 2)) @ np.array([[1.0, 0.3], [0.0, 0.5]])
    bank = density.fit_class_gaussians(pts, np.zeros(50, dtype=int), lam=1e-5)
    mu = pts.mean(axis=0)
    cov = np.zeros((2, 2))
    for p in pts:
        cov += np.outer(p - mu, p - mu)
    cov /= len(pts)
    assert np.abs(bank.covariances[0] - cov).max() < 1e-12


def test_fit_validates_inputs():
    pts = np.random.default_rng(1).standard_normal((10, 2))
    labels = np.zeros(10, dtype=int)
    with pytest.raises(ContractError):
        density.fit_class_gaussians(pts, labels, lam=0.0)
    with pytest.raises(ContractError):
        density.fit_class_gaussians(pts, labels, lam=1e-5, class_count=2)  # class 1 empty


def test_log_density_standard_normal_peak():
    # choose points so the biased variance plus regularizer equals 1
    a = 0.9
    bank = density.fit_class_gaussians(np.array([[-a], [a]]), np.zeros(2, dtype=int),
                                       lam=1.0 - a * a)
    got = density.log_density_v(bank, np.zeros(1), 0)
    assert got == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
    assert got == pytest.approx(-0.9189385332046727, abs=1e-9)


def test_log_density_at_mean_is_normalizer():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((40, 3))
    bank = density.fit_class_gaussians(pts, np.zeros(40, dtype=int), lam=1e-3)
    got = density.log_density_v(bank, bank.means[0], 0)
    sign, logdet = np.linalg.slogdet(bank.covariances[0] + 1e-3 * np.eye(3))
    assert sign > 0
    assert got == pytest.approx(-0.5 * (3 * math.log(2 * math.pi) + logdet), abs=1e-10)


def test_log_density_matches_dense_inverse_oracle():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((60, 3)) @ rng.standard_normal((3, 3))
    labels = rng.integers(0, 2, 60)
    labels[:2] = [0, 1]
    bank = density.fit_class_gaussians(pts, labels, lam=1e-4)
    for _ in range(50):
        v = rng.standard_normal(3) * 2
        label = int(rng.integers(0, 2))
        reg = bank.covariances[label] + 1e-4 * np.eye(3)
        diff = v - bank.means[label]
        _, logdet = np.linalg.slogdet(reg)
        want = -0.5 * (3 * math.log(2 * math.pi) + logdet + diff @ np.linalg.inv(reg) @ diff)
        assert density.log_density_v(bank, v, label) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 12, 16])
def test_log_density_rows_independent_of_batch(dim):
    rng = np.random.default_rng(40 + dim)
    pts = rng.standard_normal((200, dim)) @ rng.standard_normal((dim, dim))
    bank = density.fit_class_gaussians(pts, np.zeros(200, dtype=int), lam=1e-4)
    vs = rng.standard_normal((300, dim)) * 3.0
    batch = density.log_density_v_batch(bank, vs, 0)
    assert np.array_equal(batch, [density.log_density_v(bank, v, 0) for v in vs])
    perm = rng.permutation(vs.shape[0])
    assert np.array_equal(density.log_density_v_batch(bank, vs[perm], 0), batch[perm])


def test_log_density_unknown_class():
    bank = density.fit_class_gaussians(np.array([[0.0], [1.0]]), np.zeros(2, dtype=int), lam=0.1)
    with pytest.raises(ContractError):
        density.log_density_v(bank, np.zeros(1), 1)


def test_log_density_e_identity_model_equals_v():
    model = cvpn.build_cvpn(2, 1, 2, 2, 8, 0)
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((30, 2))
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    bank = density.fit_class_gaussians(pts, labels, lam=1e-4, class_count=2)
    e = rng.standard_normal(2)
    assert density.log_density_e(bank, model, e, 1) == density.log_density_v(bank, e, 1)


def test_id_points_denser_than_off_manifold(toy_run):
    ids = []
    oods = []
    for label in range(3):
        held = toy_run.bench.heldout.class_points(label)
        ids.extend(density.log_density_e_batch(toy_run.bank, toy_run.model, held, label))
        oods.extend(density.log_density_e_batch(toy_run.bank, toy_run.model,
                                                toy_run.bench.ood, label))
    assert np.median(ids) > np.median(oods)


def test_lambda_inflates_zero_variance_direction():
    # data varies only along the second axis; probe off the first
    rng = np.random.default_rng(5)
    pts = np.stack([np.zeros(100), rng.standard_normal(100)], axis=1)
    labels = np.zeros(100, dtype=int)
    # inflation raises tail density as long as lam stays below the probe offset squared
    probe = np.array([0.05, 0.0])
    values = []
    for lam in (1e-6, 1e-5, 1e-4, 1e-3):
        bank = density.fit_class_gaussians(pts, labels, lam=lam)
        values.append(density.log_density_v(bank, probe + bank.means[0], 0))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_quadrature_mass_identity_model():
    # sanity for the quadrature approach itself on an exact Gaussian
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((400, 2)) * np.array([0.6, 1.4])
    bank = density.fit_class_gaussians(pts, np.zeros(400, dtype=int), lam=1e-5)
    model = cvpn.build_cvpn(2, 1, 1, 1, 4, 0)
    lo = bank.means[0] - 7 * np.sqrt(np.diag(bank.covariances[0]))
    hi = bank.means[0] + 7 * np.sqrt(np.diag(bank.covariances[0]))
    n = 400
    xs = lo[0] + (np.arange(n) + 0.5) * (hi[0] - lo[0]) / n
    ys = lo[1] + (np.arange(n) + 0.5) * (hi[1] - lo[1]) / n
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    cell = ((hi[0] - lo[0]) / n) * ((hi[1] - lo[1]) / n)
    mass = np.exp(density.log_density_e_batch(bank, model, grid, 0)).sum() * cell
    assert mass == pytest.approx(1.0, abs=0.01)
