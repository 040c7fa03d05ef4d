import math

import numpy as np
import pytest

from ncis import ood_classifier as oc
from ncis.data import LabeledEmbeddingSet
from ncis.errors import ContractError, NumericError

LN2 = math.log(2.0)


# energy --------------------------------------------------------------------

def test_energy_two_zero_logits():
    assert oc.energy(np.array([0.0, 0.0])) == pytest.approx(-LN2, abs=1e-15)


def test_energy_hand_value():
    assert oc.energy(np.array([1.0, 0.0])) == pytest.approx(-math.log(math.e + 1.0), abs=1e-12)
    assert oc.energy(np.array([1.0, 0.0])) == pytest.approx(-1.3132616875182228, abs=1e-12)


def test_energy_large_logits_no_overflow():
    assert oc.energy(np.array([1000.0, 1000.0])) == pytest.approx(-1000.0 - LN2, abs=1e-12)


def test_energy_empty_rejected():
    with pytest.raises(ContractError):
        oc.energy(np.array([]))


def test_energy_shift_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.standard_normal(5) * 3
        c = float(rng.standard_normal()) * 10
        assert oc.energy(logits + c) == pytest.approx(oc.energy(logits) - c, abs=1e-12)


# regularization loss -------------------------------------------------------

def test_ood_loss_two_ln2_at_init():
    clf = oc.build_energy_classifier(2, 3, seed=0)
    rng = np.random.default_rng(1)
    loss = oc.ood_regularization_loss(clf, rng.standard_normal((6, 2)),
                                      rng.standard_normal((4, 2)))
    assert loss == pytest.approx(2.0 * LN2, abs=1e-12)


def test_ood_loss_saturated_limit():
    # hand-built network: score +50 on the ID input, -50 on the OOD input
    clf = oc.build_energy_classifier(1, 2, hidden_width=1, phi_hidden=1, seed=0)
    t = math.tanh(5.0)
    clf.params["clf.w1"] = np.array([[5.0]])
    clf.params["clf.b1"] = np.zeros(1)
    clf.params["clf.w2"] = np.array([[5.0]])
    clf.params["clf.b2"] = np.zeros(1)
    clf.params["clf.w3"] = np.array([[10.0], [0.0]])
    clf.params["clf.b3"] = np.zeros(2)
    e_id = oc.sample_energy(clf, np.array([1.0]))
    e_ood = oc.sample_energy(clf, np.array([-1.0]))
    mid = 0.5 * (e_id + e_ood)
    half = 0.5 * (e_ood - e_id)
    clf.params["phi.w1"] = np.array([[1.0]])
    clf.params["phi.b1"] = np.array([-mid])
    clf.params["phi.w2"] = np.array([[-50.0 / math.tanh(half)]])
    clf.params["phi.b2"] = np.zeros(())
    assert oc.ood_score(clf, np.array([1.0])) == pytest.approx(50.0, abs=1e-9)
    assert oc.ood_score(clf, np.array([-1.0])) == pytest.approx(-50.0, abs=1e-9)
    loss = oc.ood_regularization_loss(clf, np.array([[1.0]]), np.array([[-1.0]]))
    assert loss < 1e-20


def test_ood_loss_matches_per_sample_oracle(toy_run):
    clf = toy_run.clf_beta1
    rng = np.random.default_rng(2)
    id_batch = rng.uniform(-2, 2, (7, 2))
    ood_batch = rng.uniform(-2, 2, (5, 2))
    got = oc.ood_regularization_loss(clf, id_batch, ood_batch)

    def softplus(v):
        return math.log1p(math.exp(-abs(v))) + max(v, 0.0)

    id_part = np.mean([softplus(-oc.ood_score(clf, x)) for x in id_batch])
    ood_part = np.mean([softplus(oc.ood_score(clf, x)) for x in ood_batch])
    assert got == pytest.approx(id_part + ood_part, abs=1e-12)


def test_ood_loss_empty_batch_rejected():
    clf = oc.build_energy_classifier(2, 2, seed=0)
    with pytest.raises(ContractError):
        oc.ood_regularization_loss(clf, np.empty((0, 2)), np.ones((1, 2)))
    with pytest.raises(ContractError):
        oc.ood_regularization_loss(clf, np.ones((1, 2)), np.empty((0, 2)))


# total loss ----------------------------------------------------------------

def test_total_loss_beta_zero_is_pure_ce():
    clf = oc.build_energy_classifier(2, 3, beta=0.0, seed=1)
    rng = np.random.default_rng(3)
    report = oc.total_loss(clf, rng.standard_normal((8, 2)),
                           rng.integers(0, 3, 8), rng.standard_normal((8, 2)))
    assert report.total == report.cross_entropy


def test_total_loss_uniform_logits_ln3():
    clf = oc.build_energy_classifier(2, 3, seed=2)
    clf.params["clf.w3"] = np.zeros_like(clf.params["clf.w3"])
    rng = np.random.default_rng(4)
    report = oc.total_loss(clf, rng.standard_normal((5, 2)),
                           rng.integers(0, 3, 5), rng.standard_normal((3, 2)))
    assert report.cross_entropy == pytest.approx(math.log(3.0), abs=1e-12)


def test_total_loss_additivity(toy_run):
    clf = toy_run.clf_beta1
    rng = np.random.default_rng(5)
    id_batch = rng.uniform(-2, 2, (6, 2))
    labels = rng.integers(0, 3, 6)
    ood_batch = rng.uniform(-2, 2, (6, 2))
    report = oc.total_loss(clf, id_batch, labels, ood_batch)
    assert report.total == pytest.approx(
        report.cross_entropy + clf.beta * report.ood_term, abs=1e-12)


def test_total_loss_label_range_checked(toy_run):
    with pytest.raises(ContractError):
        oc.total_loss(toy_run.clf_beta1, np.ones((2, 2)), np.array([0, 5]), np.ones((2, 2)))


# scoring -------------------------------------------------------------------

def test_score_zero_at_init():
    clf = oc.build_energy_classifier(2, 3, seed=3)
    rng = np.random.default_rng(6)
    for _ in range(10):
        assert oc.ood_score(clf, rng.standard_normal(2)) == 0.0


def test_score_batch_context_invariant(toy_run):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2, 2, (5, 2))
    solo = [oc.ood_score(toy_run.clf_beta1, x) for x in xs]
    batch = oc.ood_scores(toy_run.clf_beta1, xs)
    assert np.array_equal(np.array(solo), batch)


def test_predict_labels_batch_context_invariant(toy_run):
    xs = toy_run.bench.heldout.embeddings
    solo = [oc.predict_labels(toy_run.clf_beta1, x[None])[0] for x in xs]
    assert np.array_equal(np.array(solo), oc.predict_labels(toy_run.clf_beta1, xs))
    logits = oc._row_logits(toy_run.clf_beta1.params, xs)
    for i in (0, len(xs) // 2, len(xs) - 1):
        assert np.array_equal(oc._row_logits(toy_run.clf_beta1.params, xs[i:i + 1]), logits[i:i + 1])


def test_trained_scores_separate_id_from_outliers(toy_run):
    id_scores = oc.ood_scores(toy_run.clf_beta1, toy_run.bench.heldout.embeddings)
    out_scores = oc.ood_scores(toy_run.clf_beta1, toy_run.outliers.embeddings)
    assert np.median(id_scores) > np.median(out_scores)


def test_score_dimension_checked(toy_run):
    with pytest.raises(ContractError):
        oc.ood_score(toy_run.clf_beta1, np.zeros(3))


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
                                   oc.ClassifierConfig(epochs=1, seed=0))


def test_training_aborts_on_nonfinite_with_epoch():
    rng = np.random.default_rng(0)
    data = LabeledEmbeddingSet(rng.standard_normal((20, 2)), rng.integers(0, 2, 20), 2)
    outliers = rng.standard_normal((10, 2))
    outliers[3] = np.nan
    with pytest.raises(NumericError, match="epoch 0"):
        oc.train_energy_classifier(data, outliers, oc.ClassifierConfig(epochs=2, seed=0))


def test_training_deterministic(toy_bench, toy_run):
    cfg = oc.ClassifierConfig(epochs=3, seed=11)
    a = oc.train_energy_classifier(toy_bench.train, toy_run.outliers, cfg)
    b = oc.train_energy_classifier(toy_bench.train, toy_run.outliers, cfg)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_heldout_accuracy(toy_run):
    pred = oc.predict_labels(toy_run.clf_beta1, toy_run.bench.heldout.embeddings)
    assert np.mean(pred == toy_run.bench.heldout.labels) >= 0.9


def test_config_validation():
    with pytest.raises(ContractError):
        oc.ClassifierConfig(beta=-0.5)
    with pytest.raises(ContractError):
        oc.ClassifierConfig(epochs=0)
