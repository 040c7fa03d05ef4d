import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ncis
from ncis import artifacts, cvpn, density, outlier_sampling as osmp, pipeline
from ncis.config import parse_config
from ncis.data import LabeledEmbeddingSet
from ncis.errors import ContractError, SamplingError


def one_d_bank(n=20000, seed=0, lam=1e-5):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 1))
    return density.fit_class_gaussians(pts, np.zeros(n, dtype=int), lam=lam), pts


def test_threshold_override_accepts_first_draw():
    bank, _ = one_d_bank(n=100)
    vs, lds, attempts = osmp.tail_sample_invariant(
        bank, 0, q=0.05, rng=np.random.default_rng(1), threshold=np.inf)
    assert attempts == 1
    assert vs.shape == (1, 1)
    assert np.isfinite(lds[0])


def test_one_d_tail_draws_lie_beyond_the_analytic_quantile():
    bank, pts = one_d_bank()
    q = 0.05
    cutoff = np.quantile(np.abs(pts[:, 0] - bank.means[0, 0]), 1.0 - q)
    vs, _, _ = osmp.tail_sample_invariant(bank, 0, q, np.random.default_rng(2), n=500)
    accepted = np.abs(vs[:, 0] - bank.means[0, 0])
    # every draw sits beyond the (1-q) magnitude quantile of the data
    assert accepted.min() > cutoff * 0.999


def test_tail_draws_deterministic_under_seed():
    bank, _ = one_d_bank(n=500)
    a = osmp.tail_sample_invariant(bank, 0, 0.05, np.random.default_rng(42), n=20)
    b = osmp.tail_sample_invariant(bank, 0, 0.05, np.random.default_rng(42), n=20)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) and a[2] == b[2]


@pytest.mark.parametrize("threshold", [-np.inf, np.nan])
def test_impassable_threshold_raises(threshold):
    bank, _ = one_d_bank(n=500)
    with pytest.raises(SamplingError, match="class 0: no draw"):
        osmp.tail_sample_invariant(bank, 0, 0.05, np.random.default_rng(0),
                                   threshold=threshold)


def test_two_d_radius_needs_no_second_proposal():
    # at D=2 the half squared radius beyond the threshold is exactly the
    # threshold's plus Exp(1), so every radius proposal is accepted
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((300, 2)) * [1.0, 0.01]
    bank = density.fit_class_gaussians(pts, np.zeros(300, dtype=int), lam=1e-5)
    vs, lds, attempts = osmp.tail_sample_invariant(bank, 0, 0.05, rng, n=500)
    assert attempts == 500
    assert np.all(lds < osmp.acceptance_threshold(bank, 0, 0.05))


def test_heavy_tailed_class_does_not_starve():
    # Student-t (df=3) points leave the 5% threshold in the far tail of the
    # fitted Gaussian: a rejection loop accepted 27 of its first 20,000
    # proposals here
    pts = np.random.default_rng(0).standard_t(3, (200, 16))
    bank = density.fit_class_gaussians(pts, np.zeros(200, dtype=int), lam=1e-5)
    vs, lds, attempts = osmp.tail_sample_invariant(bank, 0, 0.05, np.random.default_rng(1),
                                                   n=100)
    assert vs.shape == (100, 16)
    assert np.all(lds < osmp.acceptance_threshold(bank, 0, 0.05))
    assert attempts < 200


def write_heavy_tailed_csvs(directory, seed=0):
    """Three classes in D=16, class c at 3c plus t(3) noise in every
    coordinate, with 200 train and 100 held-out rows each, and 300 OOD rows
    from N(0, 100 I).  Returns the config lines of a small run on them."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for name, n in (("train", 200), ("heldout", 100)):
        labels = np.repeat(np.arange(3), n)
        points = 3.0 * labels[:, None] + rng.standard_t(3, (len(labels), 16))
        artifacts.save_embeddings_csv(LabeledEmbeddingSet(points, labels, 3),
                                      directory / f"{name}.csv")
    artifacts.save_points_csv(rng.normal(0.0, 10.0, (300, 16)), directory / "ood.csv")
    return (f"embed.source = csv\ndata.train_csv = {directory / 'train.csv'}\n"
            f"data.heldout_csv = {directory / 'heldout.csv'}\n"
            f"data.ood_csv = {directory / 'ood.csv'}\n"
            "cvpn.train_iterations = 10\nsample.n_per_class = 100\nclassifier.epochs = 2\n")


def test_heavy_tailed_csv_run_samples_every_class(tmp_path):
    # run-all on these inputs used to stop at sample-outliers with
    # "class 0: accepted 15/100 outliers in 20000 attempts"
    cfg = parse_config(write_heavy_tailed_csvs(tmp_path / "data"), environ={})
    pipeline.run_pipeline(cfg, tmp_path / "run")
    outs = artifacts.load_outliers_csv(tmp_path / "run" / "outliers.csv")
    assert np.bincount(outs.labels).tolist() == [100, 100, 100]
    assert (tmp_path / "run" / "metrics.csv").exists()


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


def test_threshold_equals_numpy_quantile():
    # the linear rule read off the ascending array, bit for bit
    rng = np.random.default_rng(0)
    qs = [1e-6, 1e-3, 0.05, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 0.95, 0.999999]
    for n in [*range(1, 130), 499, 500, 1000, 4999, 5000]:
        values = np.sort(rng.standard_normal(n) * 10.0 - 5.0)
        bank = SimpleNamespace(train_logdens=[values], class_count=1)
        for q in [*qs, *rng.uniform(0.0, 1.0, 4)]:
            got = osmp.acceptance_threshold(bank, 0, float(q))
            assert np.float64(got).tobytes() == np.quantile(values, q).tobytes(), (n, q)


def test_a_run_imports_no_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma (numpy 2.x), ~10-20 ms in each process
    # that samples, forked sweep workers included; numpy 1.x imports it with
    # numpy itself, so only a module the run added counts
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import numpy
        before = "numpy.ma" in sys.modules
        from ncis import RunConfig, run_pipeline
        run_pipeline(RunConfig(benchmark_n_per_class=30, benchmark_ood_count=60,
                               cvpn_train_iterations=10, sample_n_per_class=20,
                               classifier_epochs=2), sys.argv[2])
        assert before or "numpy.ma" not in sys.modules, "the run imported numpy.ma"
    """)
    package_root = Path(ncis.__file__).parent.parent
    subprocess.run([sys.executable, "-I", "-c", code, str(package_root), str(tmp_path / "run")],
                   check=True, timeout=300)
    assert (tmp_path / "run" / "metrics.csv").exists()


def test_outlier_embedding_identity_model():
    model = cvpn.build_cvpn(2, 1, 2, 2, 8, 0)
    v = np.array([[0.4, -1.1]])
    assert np.array_equal(cvpn.cvpn_inverse_batch(model, v, np.array([1])), v)


def test_outlier_round_trip_and_density_identity(toy_run):
    outs = toy_run.outliers
    for i in (0, len(outs) // 2, len(outs) - 1):
        label = int(outs.labels[i])
        e = outs.embeddings[i:i + 1]
        v = cvpn.cvpn_forward_batch(toy_run.model, e, np.array([label]))
        ld = density.log_density_v_batch(toy_run.bank, v, label)[0]
        assert ld == pytest.approx(outs.log_densities[i], abs=1e-9)
        e_density = density.log_density_e_batch(toy_run.bank, toy_run.model, e, label)[0]
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
