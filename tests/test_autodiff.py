"""The plain primitives of ``ncis.autodiff``, and the tape (``tape.py``)
built on them, each of its operations against finite differences."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncis import autodiff as ad
from ncis.errors import ContractError, NumericError

from conftest import rel_err
import tape


def test_square_value_and_grad():
    val, g = tape.eval_and_grad(lambda P: tape.sumsq(P["x"]), {"x": np.array([3.0])})
    assert val == 9.0
    assert g["x"][0] == 6.0


def test_tanh_grad_at_zero():
    val, g = tape.eval_and_grad(lambda P: tape.vsum(tape.tanh(P["x"])), {"x": np.array([0.0])})
    assert val == 0.0
    assert g["x"][0] == 1.0


def test_matvec_norm_grad_matches_fd():
    rng = np.random.default_rng(0)
    params = {"w": rng.standard_normal((3, 3)), "x": rng.standard_normal(3)}

    def f(P):
        return tape.sumsq(tape.matvec(P["w"], P["x"]))

    _, g = tape.eval_and_grad(f, params)
    fd = tape.finite_diff_grad_params(lambda P: float(f(P)), params)
    for name in params:
        assert rel_err(g[name], fd[name]) < 1e-5


def test_finite_diff_cube():
    grad = tape.finite_diff_grad(lambda x: float(x[0] ** 3), np.array([2.0]), h=1e-4)
    assert abs(grad[0] - 12.0) < 1e-6


def test_finite_diff_constant_is_zero():
    grad = tape.finite_diff_grad(lambda x: 4.25, np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(grad, np.zeros(3))


def test_finite_diff_nonfinite_raises():
    with pytest.raises(NumericError):
        tape.finite_diff_grad(lambda x: float("nan"), np.array([1.0]))


# every primitive against central finite differences -----------------------

def _primitive_cases(rng):
    x = rng.standard_normal(5)
    batch = rng.standard_normal((3, 4))
    return {
        "add": ({"a": rng.standard_normal(4), "b": rng.standard_normal(4)},
                lambda P: tape.sumsq(tape.add(P["a"], P["b"]))),
        "add_broadcast": ({"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)},
                          lambda P: tape.sumsq(tape.add(P["a"], P["b"]))),
        "mul": ({"a": rng.standard_normal(4), "b": rng.standard_normal(4)},
                lambda P: tape.sumsq(tape.mul(P["a"], P["b"]))),
        "matvec": ({"w": rng.standard_normal((3, 4)), "x": rng.standard_normal(4)},
                   lambda P: tape.sumsq(tape.matvec(P["w"], P["x"]))),
        "matvec_batch": ({"w": rng.standard_normal((3, 4)), "x": rng.standard_normal((6, 4))},
                         lambda P: tape.sumsq(tape.matvec(P["w"], P["x"]))),
        "tanh": ({"x": x}, lambda P: tape.sumsq(tape.tanh(P["x"]))),
        "log_sigmoid": ({"x": 3.0 * rng.standard_normal(5)},
                        lambda P: tape.sumsq(tape.log_sigmoid(P["x"]))),
        "logsumexp": ({"x": rng.standard_normal(5)}, lambda P: tape.logsumexp(P["x"])),
        "logsumexp_batch": ({"x": batch}, lambda P: tape.vsum(tape.logsumexp(P["x"]))),
        "sumsq": ({"x": batch}, lambda P: tape.sumsq(P["x"])),
        "vsum": ({"x": batch}, lambda P: tape.sumsq(tape.mul(tape.vsum(P["x"]), 0.5))),
        "pick": ({"x": rng.standard_normal((3, 4))},
                 lambda P: tape.vsum(tape.pick(P["x"], np.array([1, 0, 3])))),
        "narrow": ({"x": batch}, lambda P: tape.sumsq(tape.narrow(P["x"], 1, 3))),
        "concat": ({"a": rng.standard_normal((3, 2)), "b": rng.standard_normal((3, 3))},
                   lambda P: tape.sumsq(tape.concat(P["a"], P["b"]))),
        "expand_squeeze": ({"x": rng.standard_normal(4)},
                           lambda P: tape.sumsq(tape.squeeze_last(tape.expand_last(P["x"])))),
        "embed_rows": ({"t": rng.standard_normal((4, 3))},
                       lambda P: tape.sumsq(tape.embed_rows(P["t"], np.array([0, 2, 2, 1])))),
        "cayley": ({"s": 0.7 * rng.standard_normal(6), "x": rng.standard_normal((3, 4))},
                   lambda P: tape.sumsq(tape.narrow(tape.cayley_matvec(P["s"], P["x"]), 0, 2))),
    }


@pytest.mark.parametrize("name", sorted(_primitive_cases(np.random.default_rng(0))))
def test_primitive_grads_match_fd_100_points(name):
    # 100 random evaluation points per primitive, relative error < 1e-5
    for trial in range(100):
        rng = np.random.default_rng(1000 * trial + 17)
        params, f = _primitive_cases(rng)[name]
        _, g = tape.eval_and_grad(f, params)
        fd = tape.finite_diff_grad_params(lambda P: float(f(P)), params)
        for pname in params:
            if np.linalg.norm(fd[pname]) < 1e-8:
                assert np.linalg.norm(g[pname]) < 1e-8
            else:
                assert rel_err(g[pname], fd[pname]) < 1e-5, (name, trial, pname)


def test_gradients_bitwise_deterministic():
    rng = np.random.default_rng(5)
    params = {"w": rng.standard_normal((4, 4)), "x": rng.standard_normal((8, 4)),
              "s": rng.standard_normal(6)}

    def f(P):
        h = tape.tanh(tape.matvec(P["w"], tape.cayley_matvec(P["s"], P["x"])))
        return tape.mul(tape.sumsq(h), 1.0 / 8)

    v1, g1 = tape.eval_and_grad(f, params)
    v2, g2 = tape.eval_and_grad(f, params)
    assert v1 == v2
    for name in params:
        assert np.array_equal(g1[name], g2[name])


def test_non_scalar_output_rejected():
    with pytest.raises(ContractError):
        tape.eval_and_grad(lambda P: tape.tanh(P["x"]), {"x": np.ones(3)})


def test_nan_input_raises_numeric_error():
    with pytest.raises(NumericError):
        tape.eval_and_grad(lambda P: tape.sumsq(P["x"]), {"x": np.array([1.0, np.nan])})


def test_finite_values_with_overflowing_sum_accepted():
    node = tape.Node([1e308, 1e308])
    assert np.array_equal(node.value, [1e308, 1e308])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflow_names_offending_op():
    with pytest.raises(NumericError, match="mul"):
        tape.eval_and_grad(lambda P: tape.sumsq(tape.mul(P["x"], 1e308)),
                         {"x": np.array([1e308])})


def test_unused_parameter_gets_zero_grad():
    _, g = tape.eval_and_grad(lambda P: tape.sumsq(P["x"]),
                            {"x": np.ones(2), "unused": np.ones((2, 2))})
    assert np.array_equal(g["unused"], np.zeros((2, 2)))


def test_constant_output_allowed():
    val, g = tape.eval_and_grad(lambda P: 2.5, {"x": np.ones(2)})
    assert val == 2.5
    assert np.array_equal(g["x"], np.zeros(2))


@given(st.lists(st.floats(-20, 20), min_size=1, max_size=8))
def test_logsumexp_matches_naive_stable(xs):
    x = np.array(xs)
    got = float(ad.logsumexp(x))
    want = float(np.log(np.sum(np.exp(x - x.max()))) + x.max())
    assert got == pytest.approx(want, abs=1e-12)


@given(st.floats(-700, 700))
def test_log_sigmoid_stable_everywhere(v):
    out, slope = ad.log_sigmoid_with_slope(np.float64(v))
    assert np.isfinite(out)
    assert out <= 0.0
    # the slope is sigmoid(-v) = 1 - exp(log sigmoid(v))
    assert np.isfinite(slope)
    assert 0.0 <= slope <= 1.0
    assert abs(slope - (1.0 - np.exp(out))) <= 1e-12


def test_cayley_rotation_is_special_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        s = rng.standard_normal(dim * (dim - 1) // 2)
        q = ad.cayley_rotation(s, dim)
        assert np.abs(q.T @ q - np.eye(dim)).max() < 1e-10
        assert abs(np.linalg.det(q) - 1.0) < 1e-10


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32])
def test_stacked_cayley_rotation_equals_per_block_calls(dim, transpose):
    # the cVPN builds all blocks' rotations in one stacked solve; each must be
    # the rotation its own call gives, bit for bit
    rng = np.random.default_rng(dim)
    for blocks in range(1, 6):
        skews = 0.5 * rng.standard_normal((blocks, dim * (dim - 1) // 2))
        stacked = ad.cayley_rotation(skews, dim, transpose)
        assert stacked.shape == (blocks, dim, dim)
        for i in range(blocks):
            alone = ad.cayley_rotation(skews[i], dim, transpose)
            assert stacked[i].tobytes() == alone.tobytes(), (blocks, i)


def test_skew_matrix_refuses_a_stack_of_the_wrong_length():
    with pytest.raises(ContractError, match="length 3"):
        ad.skew_matrix(np.zeros((2, 4)), 3)
