import numpy as np
import pytest

from ncis import cvpn, invariant_training as it
from ncis.config import RunConfig
from ncis.data import LabeledEmbeddingSet
from ncis.errors import ContractError, NumericError


def make_set(points_per_class, class_count=None):
    emb, labels = [], []
    for label, pts in enumerate(points_per_class):
        pts = np.asarray(pts, dtype=float)
        emb.append(pts)
        labels.append(np.full(len(pts), label))
    return LabeledEmbeddingSet(np.concatenate(emb), np.concatenate(labels),
                               class_count or len(points_per_class))


# K selection ---------------------------------------------------------------

def test_select_k_hand_eigenvalues():
    # one class on a line: eigenvalues {2/3, 0}; the zero mode is below 2%
    data = make_set([[(-1, 0), (0, 0), (1, 0)]])
    assert it.select_num_invariants(data, 2.0) == 1


def test_select_k_isotropic_clamps_to_one():
    rng = np.random.default_rng(0)
    data = make_set([rng.standard_normal((500, 2))])
    assert it.select_num_invariants(data, 2.0) == 1


def test_select_k_round_half_up_mean():
    rng = np.random.default_rng(1)
    flat = rng.standard_normal((300, 3)) * np.array([1.0, 1.0, 1e-4])   # K = 1
    flatter = rng.standard_normal((300, 3)) * np.array([1.0, 1e-4, 1e-4])  # K = 2
    data = make_set([flat, flatter])
    assert it.select_num_invariants(data, 2.0) == 2  # mean 1.5 rounds up


def test_select_k_degenerate_class_warns():
    rng = np.random.default_rng(2)
    degenerate = np.tile([1.0, 2.0, 3.0], (5, 1))
    spread = rng.standard_normal((50, 3))
    data = make_set([degenerate, spread])
    with pytest.warns(UserWarning):
        k = it.select_num_invariants(data, 2.0)
    assert 1 <= k <= 2


def test_select_k_validates_inputs():
    data = make_set([[(0, 0), (1, 1)]])
    with pytest.raises(ContractError):
        it.select_num_invariants(data, 0.0)
    tiny = make_set([[(0, 0)]])
    with pytest.raises(ContractError):
        it.select_num_invariants(tiny, 2.0)


# loss ----------------------------------------------------------------------

def test_loss_zero_when_invariant_coords_zero():
    model = cvpn.build_cvpn(4, 2, 2, 3, 8, 0)
    batch = np.array([[0.0, 0.0, 1.0, 2.0], [0.0, 0.0, -1.0, 0.5]])
    assert it.invariant_loss(model, batch, np.array([0, 1])) == 0.0


def test_loss_identity_model_hand_value():
    model = cvpn.build_cvpn(4, 2, 2, 3, 8, 0)
    batch = np.array([[3.0, 4.0, 0.0, 0.0]])
    assert it.invariant_loss(model, batch, np.array([0])) == 25.0


def test_loss_matches_per_sample_oracle(trained_model):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-2, 2, (40, trained_model.dim))
    labels = rng.integers(0, trained_model.class_count, 40)
    got = it.invariant_loss(trained_model, xs, labels)
    per_sample = []
    for x, label in zip(xs, labels):
        g = cvpn.invariants_batch(trained_model, x[None], np.array([label]))[0]
        per_sample.append(float(np.sum(g * g)))
    assert got == pytest.approx(np.mean(per_sample), rel=1e-12)


def test_loss_empty_batch_rejected(trained_model):
    with pytest.raises(ContractError):
        it.invariant_loss(trained_model, np.empty((0, 2)), np.empty(0, dtype=int))


# training ------------------------------------------------------------------

def test_training_noop_when_already_invariant():
    model = cvpn.build_cvpn(4, 2, 2, 2, 8, 5)
    rng = np.random.default_rng(5)
    rest = rng.standard_normal((40, 2))
    emb = np.concatenate([np.zeros((40, 2)), rest], axis=1)
    data = LabeledEmbeddingSet(emb, rng.integers(0, 2, 40), 2)
    before = {k: v.copy() for k, v in model.params.items()}
    model, history = it.train_cvpn(model, data, RunConfig(cvpn_train_iterations=50, seed=5))
    assert history[:, 1].max() == 0.0
    for name in before:
        assert np.array_equal(model.params[name], before[name])


def test_training_deterministic_history(toy_bench):
    cfg = RunConfig(cvpn_train_iterations=60, cvpn_train_batch=32, seed=13)
    m1 = cvpn.build_cvpn(2, 1, 2, 3, 8, 13)
    m2 = cvpn.build_cvpn(2, 1, 2, 3, 8, 13)
    _, h1 = it.train_cvpn(m1, toy_bench.train, cfg)
    _, h2 = it.train_cvpn(m2, toy_bench.train, cfg)
    assert np.array_equal(h1, h2)
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])


def test_training_preserves_structure(toy_run):
    model = toy_run.model
    assert model.dim == 2
    assert model.num_invariants == toy_run.num_invariants
    assert model.num_blocks == 4


def test_training_reduces_heldout_loss(toy_run):
    final = it.invariant_loss(toy_run.model, toy_run.bench.heldout.embeddings,
                              toy_run.bench.heldout.labels)
    assert final <= 0.05 * toy_run.untrained_heldout_msq


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_training_aborts_on_nonfinite_with_iteration():
    model = cvpn.build_cvpn(2, 1, 1, 2, 4, 0)
    model.params["block0.t_w3"] = np.full((1, 4), 1e308)
    rng = np.random.default_rng(0)
    data = LabeledEmbeddingSet(rng.standard_normal((20, 2)), rng.integers(0, 2, 20), 2)
    with pytest.raises(NumericError, match="iteration 0"):
        it.train_cvpn(model, data, RunConfig(cvpn_train_iterations=5, seed=0))


def test_config_validation():
    with pytest.raises(ContractError,
                       match=r"cvpn.train_iterations out of range \(must be >= 1\), got 0"):
        RunConfig(cvpn_train_iterations=0)
    with pytest.raises(ContractError, match="cvpn.train_lr out of range"):
        RunConfig(cvpn_train_lr=0.0)
