"""The hand-written training gradients against the autodiff tape.

The two training loops and the embedding loop differentiate their losses by
hand (``invariant_loss_and_grad``, ``classifier_loss_and_grad`` and the toy
denoiser's ``loss_and_grad``); the tape, whose primitives criterion 3 checks
against finite differences, is the reference they must match.  The plain cVPN
forward map must equal the tape's bit for bit, and its inverse must undo it.
The flat Adam update must equal the per-array update it replaced, bit for bit.
"""

import numpy as np

from ncis import cvpn, embedding as emb, invariant_training as it
from ncis import ood_classifier as oc
from ncis.optim import adam_init, adam_update, flatten_params, views_like

from conftest import rel_err
import tape

TOL = 1e-10


def _perturbed(params, rng):
    for name in params:
        params[name] = params[name] + 0.3 * rng.standard_normal(np.shape(params[name]))


def _assert_parity(fused_loss, fused_grads, tape_loss, tape_grads, where):
    assert abs(fused_loss - tape_loss) <= TOL * abs(tape_loss), where
    assert set(fused_grads) == set(tape_grads)
    for name in tape_grads:
        assert rel_err(fused_grads[name], tape_grads[name]) < TOL, (where, name)


def test_cvpn_gradients_match_tape():
    seen = set()
    for i in range(28):
        rng = np.random.default_rng(4000 + i)
        dim = 2 + i % 7
        k = 1 + int(rng.integers(0, dim - 1))
        blocks = 1 + i % 3
        classes = int(rng.integers(1, 4))
        model = cvpn.build_cvpn(dim, k, blocks, classes, int(rng.integers(3, 9)),
                                seed=int(rng.integers(0, 1000)))
        _perturbed(model.params, rng)
        batch = 12
        xs = rng.standard_normal((batch, dim))
        labels = rng.integers(0, classes, batch)   # more rows than classes: labels repeat

        def loss(P):
            out = tape.apply_blocks(model, P, xs, labels)
            return tape.mul(tape.sumsq(tape.narrow(out, 0, k)), 1.0 / batch)

        tape_loss, tape_grads = tape.eval_and_grad(loss, model.params)
        grads = {name: np.full(np.shape(v), np.nan) for name, v in model.params.items()}
        fused_loss = it.invariant_loss_and_grad(model, xs, labels, grads)
        _assert_parity(fused_loss, grads, tape_loss, tape_grads, i)

        # the plain maps: the forward is the tape's bit for bit, the inverse undoes it
        reference = tape.value_of(tape.apply_blocks(model, model.params, xs, labels))
        saved = []
        forward = cvpn.cvpn_forward_batch(model, xs, labels, saved)
        assert np.array_equal(forward, reference), i
        assert np.array_equal(cvpn.cvpn_forward_batch(model, xs, labels), reference), i
        assert len(saved) == blocks
        back = cvpn.cvpn_inverse_batch(model, forward, labels)
        assert np.abs(back - xs).max() < 1e-12, i
        empty = np.empty((0, dim))
        assert cvpn.cvpn_forward_batch(model, empty, []).shape == (0, dim)
        assert cvpn.cvpn_inverse_batch(model, empty, []).shape == (0, dim)
        seen.add((dim, k > 1, blocks))
    assert {d for d, _, _ in seen} == set(range(2, 9))
    assert {b for _, _, b in seen} == {1, 2, 3}
    assert any(many for _, many, _ in seen)


def test_classifier_gradients_match_tape():
    for i in range(24):
        rng = np.random.default_rng(5000 + i)
        dim = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        beta = 0.0 if i % 3 == 0 else float(rng.uniform(0.1, 2.0))
        clf = oc.build_energy_classifier(dim, classes, hidden_width=int(rng.integers(3, 12)),
                                         phi_hidden=int(rng.integers(2, 9)), beta=beta,
                                         seed=int(rng.integers(0, 1000)))
        _perturbed(clf.params, rng)
        id_x = rng.standard_normal((10, dim))
        id_y = rng.integers(0, classes, 10)
        ood_x = 2.0 * rng.standard_normal((10, dim))

        def loss(P):
            ce = tape.ce_term(P, id_x, id_y)
            if beta == 0.0:
                return ce
            return tape.add(ce, tape.mul(tape.ood_term(P, id_x, ood_x), beta))

        tape_loss, tape_grads = tape.eval_and_grad(loss, clf.params)
        grads = {name: np.full(np.shape(v), np.nan) for name, v in clf.params.items()}
        ce, separation = oc.classifier_loss_and_grad(clf.params, id_x, id_y, ood_x, beta, grads)
        _assert_parity(ce + beta * separation, grads, tape_loss, tape_grads, i)
        tape_ce = float(tape.ce_term(clf.params, id_x, id_y))
        assert abs(ce - tape_ce) <= TOL * abs(tape_ce), i
        if beta == 0.0:
            assert separation == 0.0
            for name in ("phi.w1", "phi.b1", "phi.w2", "phi.b2"):
                assert np.array_equal(grads[name], np.zeros(np.shape(clf.params[name]))), name
        else:
            tape_sep = float(tape.ood_term(clf.params, id_x, ood_x))
            assert abs(separation - tape_sep) <= TOL * abs(tape_sep), i


def _adam_per_array(params, grads, state, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
    # the update as it was, one parameter array at a time
    state["step"] += 1
    bc1 = 1.0 - beta1 ** state["step"]
    bc2 = 1.0 - beta2 ** state["step"]
    for name, g in grads.items():
        m = state["first"][name]
        v = state["second"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        params[name] -= learning_rate * (m / bc1) / (np.sqrt(v / bc2) + eps)


def test_flat_adam_equals_per_array_update_bitwise():
    rng = np.random.default_rng(6)
    shapes = {"w": (5, 3), "b": (5,), "s": (), "t": (1, 7)}
    ref = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    ref_state = {"step": 0, "first": {n: np.zeros(s) for n, s in shapes.items()},
                 "second": {n: np.zeros(s) for n, s in shapes.items()}}
    params = {name: v.copy() for name, v in ref.items()}
    flat = flatten_params(params)
    grad = np.zeros_like(flat)
    grads = views_like(grad, params)
    state = adam_init(flat)
    untouched = ref["t"].copy()
    for step in range(50):
        for name, shape in shapes.items():
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
            if name == "b":
                g = np.where(rng.random(shape) < 0.5, 0.0, g)
            grads[name][...] = g
        grads["t"][...] = 0.0
        _adam_per_array(ref, {n: grads[n].copy() for n in shapes}, ref_state, 1e-2)
        adam_update(flat, grad, state, 1e-2)
        for name in shapes:
            assert np.array_equal(params[name], ref[name]), (step, name)
        assert np.array_equal(params["t"], untouched)


def test_toy_denoiser_gradients_match_tape():
    for i in range(12):
        rng = np.random.default_rng(6000 + i)
        dim, count, batch = 2 + i % 3, 1 + i % 4, int(rng.integers(1, 40))
        den = emb.LinearToyDenoiser(np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)))
        noisy = rng.standard_normal((count, batch, dim))
        eps = rng.standard_normal((count, batch, dim))
        ts = rng.integers(1, 21, (count, batch))
        es = rng.standard_normal((count, dim))
        loss, grad = den.loss_and_grad(noisy, eps, es)
        assert loss.shape == (count,) and grad.shape == (count, dim)
        for j in range(count):
            def tape_loss(P):
                pred = tape.predict(den, noisy[j], ts[j], P["e"])
                return tape.mul(tape.sumsq(tape.sub(eps[j], pred)), 1.0 / batch)

            ref_loss, ref_grads = tape.eval_and_grad(tape_loss, {"e": es[j]})
            _assert_parity(float(loss[j]), {"e": grad[j]}, ref_loss, ref_grads, (i, j))
