"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are asserted exactly as stated; the expensive
toy pipeline runs are shared through the session-scoped fixtures.
"""

import time

import numpy as np
import pytest

from ncis import artifacts, cvpn, density, embedding as emb
from ncis import evalharness as ev
from ncis import invariant_training as it
from ncis import ood_classifier as oc
from ncis import outlier_sampling as osmp
from ncis import pipeline
from ncis.config import RunConfig, parse_config
from ncis.data import LabeledEmbeddingSet

from conftest import full_toy_run, rel_err
import tape


def _report(number, name, detail, started):
    print(f"criterion {number} ({name}): PASS [{detail}] ({time.time() - started:.1f}s)")


def _synthetic_set(dim, seed, n=240, classes=3):
    # classes on affine slabs so invariants exist in every dimension
    rng = np.random.default_rng(seed)
    pts, labels = [], []
    for c in range(classes):
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        scales = np.ones(dim)
        scales[: max(1, dim // 2)] = 0.05
        z = rng.standard_normal((n // classes, dim)) * scales
        pts.append(z @ basis.T + rng.standard_normal(dim))
        labels.append(np.full(n // classes, c))
    return LabeledEmbeddingSet(np.concatenate(pts), np.concatenate(labels), classes)


_MODELS = {}


def _trained_model(dim):
    """A briefly trained model per dimension (seeded, cached per session)."""
    if dim == 2:
        return full_toy_run(7).model
    if dim not in _MODELS:
        data = _synthetic_set(dim, seed=dim)
        model = cvpn.build_cvpn(dim, max(1, dim // 2), 2, 3, 16, seed=dim)
        model, _ = it.train_cvpn(model, data, RunConfig(cvpn_train_iterations=200,
                                                        cvpn_train_batch=64, seed=dim))
        _MODELS[dim] = model
    return _MODELS[dim]


def test_criterion_01_bijectivity():
    started = time.time()
    worst = 0.0
    for dim in (2, 4, 8):
        for model in (cvpn.build_cvpn(dim, 1, 4, 3, 16, seed=dim), _trained_model(dim)):
            rng = np.random.default_rng(100 + dim)
            xs = rng.uniform(-3, 3, (1000, dim))
            labels = rng.integers(0, model.class_count, 1000)
            v = cvpn.cvpn_forward_batch(model, xs, labels)
            back = cvpn.cvpn_inverse_batch(model, v, labels)
            worst = max(worst, float(np.abs(back - xs).max()))
    assert worst < 1e-9
    _report(1, "bijectivity", f"max round-trip error {worst:.3e}", started)


def test_criterion_02_unimodularity():
    started = time.time()
    worst = 0.0
    for dim in (2, 4, 8):
        model = _trained_model(dim)
        rng = np.random.default_rng(200 + dim)
        for _ in range(100):
            e = rng.uniform(-3, 3, dim)
            label = int(rng.integers(0, model.class_count))
            det = tape.jacobian_det_fd(model, e, label)
            worst = max(worst, abs(det - 1.0))
    assert worst < 1e-4
    _report(2, "unimodularity", f"max |det J - 1| {worst:.3e}", started)


def _grad_config_cvpn(rng):
    dim = int(rng.integers(2, 5))
    model = cvpn.build_cvpn(dim, int(rng.integers(1, dim)), int(rng.integers(1, 3)),
                            int(rng.integers(2, 4)), int(rng.integers(4, 7)),
                            seed=int(rng.integers(0, 1000)))
    for name in model.params:
        model.params[name] = model.params[name] + 0.1 * rng.standard_normal(model.params[name].shape)
    xs = rng.standard_normal((5, dim))
    labels = rng.integers(0, model.class_count, 5)

    def loss(P):
        out = tape.apply_blocks(model, P, xs, labels)
        return tape.mul(tape.sumsq(tape.narrow(out, 0, model.num_invariants)), 0.2)

    return model.params, loss


def _grad_config_classifier(rng):
    dim = int(rng.integers(2, 4))
    classes = int(rng.integers(2, 4))
    clf = oc.build_energy_classifier(dim, classes, hidden_width=6, phi_hidden=4,
                                     beta=float(rng.uniform(0.2, 2.0)),
                                     seed=int(rng.integers(0, 1000)))
    for name in clf.params:
        clf.params[name] = clf.params[name] + 0.1 * rng.standard_normal(clf.params[name].shape)
    id_x = rng.standard_normal((5, dim))
    id_y = rng.integers(0, classes, 5)
    ood_x = rng.standard_normal((4, dim))
    beta = clf.beta

    def loss(P):
        ce = tape.ce_term(P, id_x, id_y)
        return tape.add(ce, tape.mul(tape.ood_term(P, id_x, ood_x), beta))

    return clf.params, loss


def _grad_config_embedding(rng):
    dim = int(rng.integers(2, 4))
    schedule = emb.NoiseSchedule.linear(20)
    den = emb.LinearToyDenoiser(np.eye(dim) + 0.2 * rng.standard_normal((dim, dim)))
    x0 = rng.standard_normal(dim)
    ts = rng.integers(1, 21, size=8)
    eps = rng.standard_normal((8, dim))
    ab = schedule.alpha_bar[ts - 1][:, None]
    noisy = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps

    def loss(P):
        return tape.mul(tape.sumsq(tape.sub(eps, tape.predict(den, noisy, ts, P["e"]))), 0.125)

    return {"e": rng.standard_normal(dim)}, loss


def test_criterion_03_gradient_suite():
    started = time.time()
    makers = [_grad_config_cvpn] * 20 + [_grad_config_classifier] * 20 + [_grad_config_embedding] * 10
    worst = 0.0
    for i, maker in enumerate(makers):
        rng = np.random.default_rng(300 + i)
        params, loss = maker(rng)
        _, grads = tape.eval_and_grad(loss, params)
        fd = tape.finite_diff_grad_params(lambda P: float(loss(P)), params)
        for name in params:
            if np.linalg.norm(fd[name]) < 1e-9:
                assert np.linalg.norm(grads[name]) < 1e-9
                continue
            err = rel_err(grads[name], fd[name])
            worst = max(worst, err)
            assert err < 1e-5, (i, name, err)
    _report(3, "gradient suite", f"50 configs, worst rel err {worst:.3e}", started)


def test_criterion_04_density_quadrature():
    started = time.time()
    run = full_toy_run(7)
    masses = []
    for label in range(3):
        cov = run.bank.covariances[label] + run.bank.lam * np.eye(2)
        evals, evecs = np.linalg.eigh(cov)
        sig = np.sqrt(evals)
        angles = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        shell = run.bank.means[label] + (
            evecs @ (6.5 * sig[:, None] * np.stack([np.cos(angles), np.sin(angles)]))).T
        radii = np.linspace(0, 6.5, 16)
        disk = np.concatenate([
            run.bank.means[label] + (
                evecs @ (r * sig[:, None] * np.stack([np.cos(angles[::12]), np.sin(angles[::12])]))).T
            for r in radii])
        probe = np.concatenate([shell, disk])
        back = cvpn.cvpn_inverse_batch(run.model, probe, np.full(len(probe), label))
        lo = back.min(axis=0)
        hi = back.max(axis=0)
        pad = 0.1 * (hi - lo)
        lo -= pad
        hi += pad
        step = float(np.sqrt(evals.min())) / 2.0
        nx = int(np.ceil((hi[0] - lo[0]) / step))
        ny = int(np.ceil((hi[1] - lo[1]) / step))
        xs = lo[0] + (np.arange(nx) + 0.5) * (hi[0] - lo[0]) / nx
        ys = lo[1] + (np.arange(ny) + 0.5) * (hi[1] - lo[1]) / ny
        cell = ((hi[0] - lo[0]) / nx) * ((hi[1] - lo[1]) / ny)
        grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        mass = 0.0
        for i in range(0, len(grid), 200000):
            ld = density.log_density_e_batch(run.bank, run.model, grid[i:i + 200000], label)
            mass += float(np.exp(ld).sum()) * cell
        masses.append(mass)
        assert mass == pytest.approx(1.0, abs=0.02), label
    _report(4, "density normalization",
            "masses " + ", ".join(f"{m:.4f}" for m in masses), started)


def test_criterion_05_invariant_learning():
    started = time.time()
    run = full_toy_run(7)
    final = it.invariant_loss(run.model, run.bench.heldout.embeddings,
                              run.bench.heldout.labels)
    ratio = final / run.untrained_heldout_msq
    assert ratio <= 0.05
    for own in range(3):
        pts = run.bench.heldout.class_points(own)
        own_msq = it.invariant_loss(run.model, pts, np.full(len(pts), own))
        for other in range(3):
            if other == own:
                continue
            other_msq = it.invariant_loss(run.model, pts, np.full(len(pts), other))
            assert own_msq < other_msq, (own, other)
    _report(5, "invariant learning", f"held-out ratio {ratio:.4%}, all class pairs ordered", started)


def test_criterion_06_lambda_difficulty_monotone():
    started = time.time()
    run = full_toy_run(7)
    magnitudes = []
    for lam in (1e-6, 1e-5, 1e-4, 1e-3):
        bank = density.fit_class_gaussians(run.train_vectors, run.bench.train.labels,
                                           lam, class_count=3)
        outs = osmp.synthesize_outliers(run.model, bank, 334, q=0.05, seed=7)
        assert len(outs) >= 1000
        magnitudes.append(osmp.mean_invariant_magnitude(run.model, outs))
    assert all(b >= a for a, b in zip(magnitudes, magnitudes[1:]))
    _report(6, "lambda difficulty",
            "magnitudes " + " <= ".join(f"{m:.5f}" for m in magnitudes), started)


def test_criterion_07_end_to_end_detection():
    started = time.time()
    aurocs, fprs, gaps, accs = [], [], [], []
    for seed in (7, 8, 9):
        run = full_toy_run(seed)
        ids = oc.score_rows(run.clf_beta1, run.bench.heldout.embeddings)
        oods = oc.score_rows(run.clf_beta1, run.bench.ood)
        samples = ev.scores_to_samples(ids.scores, oods.scores)
        ids0 = -oc.score_rows(run.clf_beta0, run.bench.heldout.embeddings).energies
        oods0 = -oc.score_rows(run.clf_beta0, run.bench.ood).energies
        baseline = ev.auroc(ev.scores_to_samples(ids0, oods0))
        aurocs.append(ev.auroc(samples))
        fprs.append(ev.fpr_at_tpr(samples, 0.95))
        gaps.append(aurocs[-1] - baseline)
        accs.append(ev.classification_accuracy(ids.labels, run.bench.heldout.labels))
    assert np.median(aurocs) >= 0.95
    assert np.median(fprs) <= 0.30
    assert np.median(gaps) >= 0.05
    assert np.median(accs) >= 0.9
    _report(7, "end-to-end detection",
            f"median auroc {np.median(aurocs):.4f}, fpr95 {np.median(fprs):.3f}, "
            f"gap over energy baseline {np.median(gaps):+.4f}, acc {np.median(accs):.3f}",
            started)


def test_criterion_08_metric_oracles():
    started = time.time()
    rng = np.random.default_rng(800)
    for _ in range(100):
        n = int(rng.integers(1, 101))
        m = int(rng.integers(1, 101))
        ids = np.round(rng.standard_normal(n) * 2, 1)
        oods = np.round(rng.standard_normal(m) * 2, 1)
        samples = ev.scores_to_samples(ids, oods)
        wins = ties = 0
        for a in ids:
            for b in oods:
                wins += a > b
                ties += a == b
        assert ev.auroc(samples) == (wins + 0.5 * ties) / (n * m)
        tau = None
        for cand in sorted(set(ids.tolist()), reverse=True):
            if np.sum(ids >= cand) / n >= 0.95:
                tau = cand
                break
        assert ev.fpr_at_tpr(samples, 0.95) == float(np.sum(oods >= tau) / m)
    _report(8, "metric oracles", "100 random score sets, exact agreement", started)


def test_criterion_09_embedding_loop():
    started = time.time()
    schedule = emb.NoiseSchedule.linear(50)
    rng = np.random.default_rng(3)
    den = emb.LinearToyDenoiser(np.eye(2) + 0.3 * rng.standard_normal((2, 2)))
    x0 = np.array([1.5, -0.7])
    target = den.closed_form_embedding(x0, schedule)
    cfg = RunConfig(embed_iterations=200, embed_batch_size=256, embed_learning_rate=0.02, seed=11)
    e = emb.embed_dataset([x0], [0], [np.zeros(2)], den, schedule, cfg,
                          item_seeds=[cfg.seed]).embeddings[0]
    rel = float(np.linalg.norm(e - target) / np.linalg.norm(target))
    assert rel < 0.05
    anchor = np.array([0.123456789, -9.87654321])
    out = emb.embed_dataset([x0], [0], [anchor], den, schedule, RunConfig(embed_iterations=0),
                            item_seeds=[4]).embeddings[0]
    assert np.array_equal(out, anchor)
    _report(9, "embedding loop", f"relative distance to minimizer {rel:.4f}", started)


def test_criterion_10_run_all_determinism(tmp_path):
    started = time.time()
    cfg = parse_config("", environ={})
    pipeline.run_pipeline(cfg, tmp_path / "first")
    pipeline.run_pipeline(cfg, tmp_path / "second")
    first = (tmp_path / "first" / "metrics.csv").read_bytes()
    second = (tmp_path / "second" / "metrics.csv").read_bytes()
    assert first == second
    rows = artifacts.load_metrics_csv(tmp_path / "first" / "metrics.csv")
    assert len(rows) == 1
    assert rows[0][3] >= 0.95  # the default full run clears the detection bar
    _report(10, "run-all determinism",
            f"byte-identical metrics, auroc {rows[0][3]:.4f}", started)
