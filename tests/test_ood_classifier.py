import math
import tracemalloc

import numpy as np
import pytest

from ncis import ood_classifier as oc
from ncis.config import RunConfig
from ncis.data import LabeledEmbeddingSet
from ncis.errors import ContractError, NumericError

import tape

LN2 = math.log(2.0)


# energy --------------------------------------------------------------------

def row_energy(logits):
    """The batch energy of one row of logits."""
    return float(oc._energy_of_logits(np.array([logits], dtype=np.float64))[0])


def test_energy_two_zero_logits():
    assert row_energy([0.0, 0.0]) == pytest.approx(-LN2, abs=1e-15)


def test_energy_hand_value():
    assert row_energy([1.0, 0.0]) == pytest.approx(-math.log(math.e + 1.0), abs=1e-12)
    assert row_energy([1.0, 0.0]) == pytest.approx(-1.3132616875182228, abs=1e-12)


def test_energy_large_logits_no_overflow():
    assert row_energy([1000.0, 1000.0]) == pytest.approx(-1000.0 - LN2, abs=1e-12)


def test_energy_empty_rejected():
    with pytest.raises(ContractError):
        oc._energy_of_logits(np.empty((1, 0)))


def test_energy_shift_property():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((20, 5)) * 3
    c = rng.standard_normal((20, 1)) * 10
    np.testing.assert_allclose(oc._energy_of_logits(logits + c),
                               oc._energy_of_logits(logits) - c[:, 0], rtol=0, atol=1e-12)


# loss terms of the fused training pass ------------------------------------

def fused_terms(clf, id_x, id_y, ood_x, beta=None):
    """``(ce, separation, grads)`` of one training step on these batches."""
    grads = {name: np.full(np.shape(v), np.nan) for name, v in clf.params.items()}
    ce, separation = oc.classifier_loss_and_grad(
        clf.params, np.asarray(id_x, dtype=np.float64), np.asarray(id_y, dtype=np.int64),
        np.asarray(ood_x, dtype=np.float64), clf.beta if beta is None else beta, grads)
    return ce, separation, grads


def test_ood_loss_two_ln2_at_init():
    clf = oc.build_energy_classifier(2, 3, seed=0)
    rng = np.random.default_rng(1)
    _, separation, _ = fused_terms(clf, rng.standard_normal((6, 2)), rng.integers(0, 3, 6),
                                   rng.standard_normal((4, 2)))
    assert separation == pytest.approx(2.0 * LN2, abs=1e-12)


def test_ood_loss_saturated_limit():
    # hand-built network: score +50 on the ID input, -50 on the OOD input
    clf = oc.build_energy_classifier(1, 2, hidden_width=1, phi_hidden=1, seed=0)
    clf.params["clf.w1"] = np.array([[5.0]])
    clf.params["clf.b1"] = np.zeros(1)
    clf.params["clf.w2"] = np.array([[5.0]])
    clf.params["clf.b2"] = np.zeros(1)
    clf.params["clf.w3"] = np.array([[10.0], [0.0]])
    clf.params["clf.b3"] = np.zeros(2)
    e_id, e_ood = oc.score_rows(clf, np.array([[1.0], [-1.0]])).energies
    mid = 0.5 * (e_id + e_ood)
    half = 0.5 * (e_ood - e_id)
    clf.params["phi.w1"] = np.array([[1.0]])
    clf.params["phi.b1"] = np.array([-mid])
    clf.params["phi.w2"] = np.array([[-50.0 / math.tanh(half)]])
    clf.params["phi.b2"] = np.zeros(())
    u_id, u_ood = oc.score_rows(clf, np.array([[1.0], [-1.0]])).scores
    assert u_id == pytest.approx(50.0, abs=1e-9)
    assert u_ood == pytest.approx(-50.0, abs=1e-9)
    _, separation, _ = fused_terms(clf, [[1.0]], [0], [[-1.0]])
    assert separation < 1e-20


def test_ood_loss_matches_per_sample_oracle(toy_run):
    clf = toy_run.clf_beta1
    rng = np.random.default_rng(2)
    id_batch = rng.uniform(-2, 2, (7, 2))
    ood_batch = rng.uniform(-2, 2, (5, 2))
    _, got, _ = fused_terms(clf, id_batch, rng.integers(0, 3, 7), ood_batch)

    def softplus(v):
        return math.log1p(math.exp(-abs(v))) + max(v, 0.0)

    id_part = np.mean([softplus(-oc.score_rows(clf, x[None]).scores[0]) for x in id_batch])
    ood_part = np.mean([softplus(oc.score_rows(clf, x[None]).scores[0]) for x in ood_batch])
    assert got == pytest.approx(id_part + ood_part, abs=1e-12)


def test_total_loss_beta_zero_is_pure_ce():
    clf = oc.build_energy_classifier(2, 3, beta=0.0, seed=1)
    rng = np.random.default_rng(3)
    id_x = rng.standard_normal((8, 2))
    id_y = rng.integers(0, 3, 8)
    ce, separation, _ = fused_terms(clf, id_x, id_y, rng.standard_normal((8, 2)))
    assert separation == 0.0
    assert ce == pytest.approx(float(tape.ce_term(clf.params, id_x, id_y)), abs=1e-12)


def test_total_loss_uniform_logits_ln3():
    clf = oc.build_energy_classifier(2, 3, seed=2)
    clf.params["clf.w3"] = np.zeros_like(clf.params["clf.w3"])
    rng = np.random.default_rng(4)
    ce, _, _ = fused_terms(clf, rng.standard_normal((5, 2)), rng.integers(0, 3, 5),
                           rng.standard_normal((3, 2)))
    assert ce == pytest.approx(math.log(3.0), abs=1e-12)


def test_total_loss_additivity(toy_run):
    # the terms do not depend on beta, and the gradient is that of ce + beta * separation
    clf = toy_run.clf_beta1
    rng = np.random.default_rng(5)
    batches = (rng.uniform(-2, 2, (6, 2)), rng.integers(0, 3, 6), rng.uniform(-2, 2, (6, 2)))
    ce0, _, g0 = fused_terms(clf, *batches, beta=0.0)
    ce1, sep1, g1 = fused_terms(clf, *batches, beta=1.0)
    ce2, sep2, g2 = fused_terms(clf, *batches, beta=2.5)
    assert ce1 == ce2 == pytest.approx(ce0, abs=1e-12)
    assert sep1 == sep2 > 0.0
    for name in g0:
        np.testing.assert_allclose(g2[name], g0[name] + 2.5 * (g1[name] - g0[name]),
                                   rtol=1e-9, atol=1e-12, err_msg=name)


# scoring -------------------------------------------------------------------

def test_score_zero_at_init():
    clf = oc.build_energy_classifier(2, 3, seed=3)
    rng = np.random.default_rng(6)
    assert np.array_equal(oc.score_rows(clf, rng.standard_normal((10, 2))).scores, np.zeros(10))


def test_score_batch_context_invariant(toy_run):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2, 2, (5, 2))
    solo = [oc.score_rows(toy_run.clf_beta1, x[None]) for x in xs]
    batch = oc.score_rows(toy_run.clf_beta1, xs)
    for field in batch._fields:
        assert np.array_equal([getattr(s, field)[0] for s in solo], getattr(batch, field)), field


def test_predict_labels_batch_context_invariant(toy_run):
    xs = toy_run.bench.heldout.embeddings
    batch = oc.score_rows(toy_run.clf_beta1, xs)
    for i in range(len(xs)):
        solo = oc.score_rows(toy_run.clf_beta1, xs[i:i + 1])
        for field in batch._fields:
            assert getattr(solo, field)[0] == getattr(batch, field)[i], (i, field)


def test_trained_scores_separate_id_from_outliers(toy_run):
    id_scores = oc.score_rows(toy_run.clf_beta1, toy_run.bench.heldout.embeddings).scores
    out_scores = oc.score_rows(toy_run.clf_beta1, toy_run.outliers.embeddings).scores
    assert np.median(id_scores) > np.median(out_scores)


def test_score_dimension_checked(toy_run):
    with pytest.raises(ContractError):
        oc.score_rows(toy_run.clf_beta1, np.zeros((1, 3)))


def score_peak_bytes(clf, xs):
    """How far ``score_rows(clf, xs)`` raises the traced peak."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        oc.score_rows(clf, xs)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_scoring_memory_grows_only_by_its_results(toy_run):
    # ten times the rows costs only the three result arrays' growth, 8 bytes
    # per row each, give or take a few hundred bytes of interpreter objects;
    # one (N, 1, 64) activation alone would grow by 512 bytes per row
    rng = np.random.default_rng(8)
    small, large = rng.uniform(-2, 2, (2560, 2)), rng.uniform(-2, 2, (25600, 2))
    for xs in (small, large):  # the first calls of each size fill lazy caches
        score_peak_bytes(toy_run.clf_beta1, xs)
    growth = (score_peak_bytes(toy_run.clf_beta1, large)
              - score_peak_bytes(toy_run.clf_beta1, small))
    assert growth <= 3 * 8 * (len(large) - len(small)) + 4096, growth


# training ------------------------------------------------------------------

def test_beta_zero_leaves_scoring_head_untouched(toy_bench, toy_run):
    clf = toy_run.clf_beta0
    fresh = oc.build_energy_classifier(toy_bench.train.dim, 3,
                                       hidden_width=clf.hidden_width,
                                       phi_hidden=clf.phi_hidden,
                                       beta=0.0, seed=clf.seed)
    for name in ("phi.w1", "phi.b1", "phi.w2", "phi.b2"):
        assert np.array_equal(clf.params[name], fresh.params[name])


def test_training_requires_outliers(toy_bench):
    with pytest.raises(ContractError):
        oc.train_energy_classifier(toy_bench.train, np.empty((0, 2)),
                                   RunConfig(classifier_epochs=1, seed=0))


def test_training_aborts_on_nonfinite_with_epoch():
    rng = np.random.default_rng(0)
    data = LabeledEmbeddingSet(rng.standard_normal((20, 2)), rng.integers(0, 2, 20), 2)
    outliers = rng.standard_normal((10, 2))
    outliers[3] = np.nan
    with pytest.raises(NumericError, match="epoch 0"):
        oc.train_energy_classifier(data, outliers, RunConfig(classifier_epochs=2, seed=0))


def test_training_deterministic(toy_bench, toy_run):
    cfg = RunConfig(classifier_epochs=3, seed=11)
    a = oc.train_energy_classifier(toy_bench.train, toy_run.outliers, cfg)
    b = oc.train_energy_classifier(toy_bench.train, toy_run.outliers, cfg)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_heldout_accuracy(toy_run):
    pred = oc.score_rows(toy_run.clf_beta1, toy_run.bench.heldout.embeddings).labels
    assert np.mean(pred == toy_run.bench.heldout.labels) >= 0.9


def test_config_validation():
    with pytest.raises(ContractError, match="classifier.beta out of range"):
        RunConfig(classifier_beta=-0.5)
    with pytest.raises(ContractError, match="classifier.epochs out of range"):
        RunConfig(classifier_epochs=0)
