import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncis import autodiff as ad
from ncis import cvpn
from ncis.errors import ContractError

from conftest import rel_err


def small_model(dim=2, k=1, blocks=4, classes=3, width=16, seed=0):
    return cvpn.build_cvpn(dim, k, blocks, classes, width, seed)


# construction --------------------------------------------------------------

def test_identity_at_init_every_class():
    model = small_model(dim=4, k=2)
    rng = np.random.default_rng(1)
    xs = rng.standard_normal((3, 4))
    labels = np.arange(3)
    assert np.array_equal(cvpn.cvpn_forward_batch(model, xs, labels), xs)
    assert np.array_equal(cvpn.cvpn_inverse_batch(model, xs, labels), xs)


def test_same_seed_identical_parameters():
    a = small_model(seed=42)
    b = small_model(seed=42)
    assert list(a.params) == list(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_block_structure_alternates_orth_then_coupling():
    model = small_model(dim=4, k=1, blocks=3)
    for i in range(3):
        for suffix in ("orth_skew", "t_w1", "t_b1", "t_w2", "t_b2", "t_w3", "t_b3"):
            assert f"block{i}.{suffix}" in model.params
    assert "block3.orth_skew" not in model.params


def test_invalid_invariant_count_rejected():
    with pytest.raises(ContractError):
        small_model(dim=2, k=2)
    with pytest.raises(ContractError):
        small_model(dim=2, k=0)


def test_translation_mlp_final_layer_zero_initialized():
    model = small_model()
    assert np.array_equal(model.params["block0.t_w3"], np.zeros_like(model.params["block0.t_w3"]))
    assert np.array_equal(model.params["block0.t_b3"], np.zeros_like(model.params["block0.t_b3"]))


# coupling layer ------------------------------------------------------------

def _one_block(model, block):
    """A one-block model with ``block``'s translation net and no rotation."""
    one = cvpn.build_cvpn(model.dim, model.num_invariants, 1, model.class_count,
                          model.hidden_width, model.seed)
    one.params["class_embed"] = model.params["class_embed"]
    for j in (1, 2, 3):
        for kind in ("w", "b"):
            one.params[f"block0.t_{kind}{j}"] = model.params[f"block{block}.t_{kind}{j}"]
    return one


def test_coupling_identity_when_translation_zero():
    model = small_model(dim=4, k=1)
    x = np.array([[0.3, -1.0, 2.0, 0.5]])
    label = np.array([2])
    assert np.array_equal(cvpn._coupling(model, model.params, 0, x, label), x)
    assert np.array_equal(cvpn.cvpn_inverse_batch(_one_block(model, 0), x, label), x)


def test_coupling_shift_hand_example():
    # d = 1, translation 2: [1, 2] -> [3, 2], and the inverse shifts back
    out = cvpn.coupling_shift(np.array([1.0, 2.0]), np.array([2.0]), split=1)
    assert np.array_equal(out, np.array([3.0, 2.0]))
    model = small_model(blocks=1)
    model.params["block0.t_b3"] = np.array([2.0])   # the net's output is this constant
    assert np.array_equal(cvpn.cvpn_forward_batch(model, [[1.0, 2.0]], [0]), [out])
    assert np.array_equal(cvpn.cvpn_inverse_batch(model, [out], [0]), [[1.0, 2.0]])


def test_coupling_round_trip_exact_on_trained_block(trained_model):
    rng = np.random.default_rng(0)
    xs = rng.uniform(-3, 3, (1000, trained_model.dim))
    labels = rng.integers(0, trained_model.class_count, 1000)
    y = cvpn._coupling(trained_model, trained_model.params, 1, xs, labels)
    block = _one_block(trained_model, 1)
    assert np.array_equal(cvpn.cvpn_forward_batch(block, xs, labels), y)
    back = cvpn.cvpn_inverse_batch(block, y, labels)
    assert np.abs(back - xs).max() < 1e-12


# orthogonal layer ----------------------------------------------------------

def test_orthogonal_identity_at_init():
    model = small_model()
    x = np.array([[1.5, -0.25]])
    assert np.array_equal(ad.cayley_matvec(model.params["block0.orth_skew"], x), x)


def test_orthogonal_hand_rotation():
    # skew parameter 1 in 2-d gives the quarter-turn rotation
    model = small_model()
    model.params["block0.orth_skew"] = np.array([1.0])
    q = ad.cayley_rotation(model.params["block0.orth_skew"], model.dim)
    assert np.allclose(q, np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-14)
    out = ad.cayley_matvec(model.params["block0.orth_skew"], np.array([[1.0, 0.0]]))
    assert np.allclose(out, np.array([[0.0, 1.0]]), atol=1e-14)


def test_orthogonal_preserves_norm_1000_cases():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x = rng.standard_normal((1, 4))
        y = ad.cayley_matvec(rng.standard_normal(6), x)
        assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-10


def test_orthogonal_inverse_is_transpose():
    skew = np.array([0.37])
    x = np.array([[0.2, -0.8]])
    y = ad.cayley_matvec(skew, x)
    back = y @ ad.cayley_rotation(skew, 2, transpose=True).T
    assert np.abs(back - x).max() < 1e-14


def test_orthogonal_rejects_vector_input():
    model = small_model()
    with pytest.raises(ContractError):
        ad.cayley_matvec(model.params["block0.orth_skew"], np.zeros(2))


# full model ----------------------------------------------------------------

def test_forward_round_trip_trained(trained_model):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-3, 3, (1000, trained_model.dim))
    labels = rng.integers(0, trained_model.class_count, 1000)
    v = cvpn.cvpn_forward_batch(trained_model, xs, labels)
    back = cvpn.cvpn_inverse_batch(trained_model, v, labels)
    assert np.abs(back - xs).max() < 1e-9


def test_class_conditioning_changes_output(trained_model):
    e = np.array([[0.1, 1.9], [0.1, 1.9]])
    out0, out1 = cvpn.cvpn_forward_batch(trained_model, e, np.array([0, 1]))
    assert np.abs(out0 - out1).max() > 1e-6


def test_unknown_class_rejected(trained_model):
    with pytest.raises(ContractError):
        cvpn.cvpn_forward_batch(trained_model, np.zeros((1, 2)), np.array([3]))
    with pytest.raises(ContractError):
        cvpn.cvpn_inverse_batch(trained_model, np.zeros((1, 2)), np.array([-1]))


def test_invariants_zero_for_zeroed_coordinates():
    model = small_model(dim=4, k=2)
    e = np.array([[0.0, 0.0, 1.3, -0.4]])
    assert np.array_equal(cvpn.invariants_batch(model, e, np.array([0])), np.zeros((1, 2)))


def test_invariants_small_on_id_large_off_manifold(toy_run):
    model = toy_run.model
    train = toy_run.bench.train
    for label in range(3):
        pts = train.class_points(label)
        train_norms = np.linalg.norm(
            cvpn.invariants_batch(model, pts, np.full(len(pts), label)), axis=1)
        cutoff = np.quantile(train_norms, 0.95)
        held = toy_run.bench.heldout.class_points(label)
        held_norms = np.linalg.norm(
            cvpn.invariants_batch(model, held, np.full(len(held), label)), axis=1)
        assert np.median(held_norms) < cutoff
        ood_norms = np.linalg.norm(
            cvpn.invariants_batch(model, toy_run.bench.ood,
                                  np.full(len(toy_run.bench.ood), label)), axis=1)
        assert np.median(ood_norms) > cutoff


# Jacobian determinant ------------------------------------------------------

def test_jacobian_det_identity_model():
    model = small_model(dim=3, k=1)
    det = cvpn.jacobian_det_fd(model, np.array([0.2, -0.7, 1.1]), 0)
    assert abs(det - 1.0) < 1e-9


def test_jacobian_det_unimodular_after_training(trained_model):
    rng = np.random.default_rng(4)
    for _ in range(100):
        e = rng.uniform(-3, 3, trained_model.dim)
        label = int(rng.integers(0, trained_model.class_count))
        det = cvpn.jacobian_det_fd(trained_model, e, label)
        assert abs(det - 1.0) < 1e-4


def test_jacobian_det_single_orthogonal_layer():
    model = small_model(dim=3, k=1, blocks=1)
    model.params["block0.orth_skew"] = np.array([0.9, -0.4, 0.2])
    det = cvpn.jacobian_det_fd(model, np.array([0.5, 0.1, -0.2]), 0)
    assert abs(det - 1.0) < 1e-6


def test_jacobian_det_dimension_cap():
    model = cvpn.build_cvpn(17, 1, 1, 2, 4, 0)
    with pytest.raises(ContractError):
        cvpn.jacobian_det_fd(model, np.zeros(17), 0)


@given(st.lists(st.floats(-3, 3), min_size=2, max_size=2),
       st.integers(min_value=0, max_value=2))
def test_round_trip_property_untrained(coords, label):
    model = small_model(seed=9)
    model.params["block0.orth_skew"] = np.array([0.5])
    e = np.array([coords])
    v = cvpn.cvpn_forward_batch(model, e, np.array([label]))
    assert np.abs(cvpn.cvpn_inverse_batch(model, v, np.array([label])) - e).max() < 1e-9


def test_gradient_through_full_model_matches_fd():
    model = small_model(dim=3, k=1, blocks=2, classes=2, width=6, seed=1)
    rng = np.random.default_rng(8)
    for name in model.params:
        model.params[name] = model.params[name] + 0.05 * rng.standard_normal(model.params[name].shape)
    xs = rng.standard_normal((4, 3))
    labels = np.array([0, 1, 1, 0])

    def loss(P):
        out = cvpn.apply_blocks(model, P, xs, labels)
        return ad.mul(ad.sumsq(ad.narrow(out, 0, 1)), 0.25)

    _, g = ad.eval_and_grad(loss, model.params)
    fd = ad.finite_diff_grad_params(lambda P: float(loss(P)), model.params)
    for name in model.params:
        if np.linalg.norm(fd[name]) < 1e-9:
            continue
        assert rel_err(g[name], fd[name]) < 1e-5, name
