"""The training loops' preallocated step buffers: the same bits as a plain
pass, and no per-step arrays of the batch's size."""

import tracemalloc

import numpy as np
import pytest

from ncis import cvpn, evalharness, invariant_training, mlp, ood_classifier
from ncis.config import RunConfig
from ncis.optim import adam_init, adam_update, flatten_params


def random_layers(rng, widths):
    return [(rng.standard_normal((n_out, n_in)), rng.standard_normal(n_out))
            for n_in, n_out in zip(widths, widths[1:])]


@pytest.mark.parametrize("rows", [7, 5])
def test_buffered_pass_equals_plain_pass(rows):
    # buffers sized for 7 rows serve a full batch and a shorter last one
    rng = np.random.default_rng(rows)
    layers = random_layers(rng, [3, 16, 16, 2])
    x = rng.standard_normal((rows, 3))
    g = rng.standard_normal((rows, 2))
    out = mlp.step_buffers(layers, 7)
    passes = []
    for buffers in (None, out):
        y, inputs = mlp.tanh_mlp(layers, x, buffers)
        grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
        g_in = mlp.tanh_mlp_backward(layers, inputs, g, grads, buffers)
        passes.append([y.copy(), *(h.copy() for h in inputs), g_in.copy(),
                       *(a.copy() for pair in grads for a in pair)])
    plain, buffered = passes
    assert len(plain) == len(buffered)
    for a, b in zip(plain, buffered):
        assert a.tobytes() == b.tobytes()


class Stop(Exception):
    pass


def test_cvpn_blocks_share_block_0_backward_arrays(monkeypatch):
    # every block keeps its own layer outputs, which its backward pass reads;
    # the gradient and slope arrays are block 0's, and a step through them
    # gives the bits of a step without buffers
    cfg = RunConfig(cvpn_train_batch=16)
    bench = evalharness.make_toy_benchmark(cfg.seed, 20)
    model = cvpn.build_cvpn(2, 1, cfg.cvpn_num_blocks, 3, cfg.cvpn_hidden_width, cfg.seed)
    steps = []

    def first_step(model, x, labels, grads, out):
        steps.append((x, labels, out))
        raise Stop

    monkeypatch.setattr(invariant_training, "invariant_loss_and_grad", first_step)
    with pytest.raises(Stop):
        invariant_training.train_cvpn(model, bench.train, cfg)
    monkeypatch.undo()
    (x, labels, out), = steps
    assert len(out) == cfg.cvpn_num_blocks > 1
    for block in out[1:]:
        for (h, g, slope), (h0, g0, slope0) in zip(block, out[0], strict=True):
            assert h is not h0 and not np.shares_memory(h, h0)
            assert g is g0 and slope is slope0
    # weights away from their zero init, so every block's gradient is live
    rng = np.random.default_rng(1)
    for name, value in model.params.items():
        value[...] = 0.3 * rng.standard_normal(value.shape)
    passes = []
    for buffers in (None, out):
        grads = {name: np.empty_like(value) for name, value in model.params.items()}
        loss = invariant_training.invariant_loss_and_grad(model, x, labels, grads, buffers)
        passes.append([np.float64(loss).tobytes()] + [grads[n].tobytes() for n in sorted(grads)])
    assert passes[0] == passes[1]


def second_step_peak_kib(monkeypatch, module, train):
    """How far one training step, after a warm-up step, raises the traced
    peak above the memory held when it starts; a step ends with its Adam
    update."""
    adam_update = module.adam_update
    marks = []

    def marking(*args, **kwargs):
        adam_update(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
        if marks:
            marks.append(peak - marks[0])
            raise Stop
        marks.append(current)
        tracemalloc.reset_peak()

    monkeypatch.setattr(module, "adam_update", marking)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            train()
    finally:
        tracemalloc.stop()
    return marks[1] / 1024


def test_training_steps_allocate_no_batch_sized_arrays(monkeypatch):
    # at the default sizes a step's activations are 128 or 256 rows by the
    # hidden width, 32-128 KiB each; the classifier step once raised the
    # peak by ~700 KiB
    cfg = RunConfig()
    bench = evalharness.make_toy_benchmark(cfg.seed, cfg.benchmark_n_per_class)
    model = cvpn.build_cvpn(bench.train.dim, 1, cfg.cvpn_num_blocks, bench.train.class_count,
                            cfg.cvpn_hidden_width, cfg.seed)
    outliers = bench.heldout.embeddings + 0.5
    peaks = {
        "cvpn": second_step_peak_kib(monkeypatch, invariant_training,
                                     lambda: invariant_training.train_cvpn(model, bench.train, cfg)),
        "classifier": second_step_peak_kib(
            monkeypatch, ood_classifier,
            lambda: ood_classifier.train_energy_classifier(bench.train, outliers, cfg)),
    }
    assert all(peak < 128 for peak in peaks.values()), peaks


@pytest.mark.parametrize("model", ["cvpn", "classifier"])
def test_adam_update_allocates_no_flat_sized_arrays(model):
    # the flat vector is ~37 KiB at the default sizes; the update once held
    # three temporaries of its size at a time, ~110 KiB
    cfg = RunConfig()
    if model == "cvpn":
        params = cvpn.build_cvpn(2, 1, cfg.cvpn_num_blocks, 3, cfg.cvpn_hidden_width,
                                 cfg.seed).params
    else:
        params = ood_classifier.build_energy_classifier(
            2, 3, cfg.classifier_hidden_width, cfg.classifier_phi_hidden, seed=cfg.seed).params
    flat = flatten_params(params)
    grad = np.random.default_rng(0).standard_normal(flat.size)
    state = adam_init(flat)
    adam_update(flat, grad, state, 1e-3)
    tracemalloc.start()
    try:
        adam_update(flat, grad, state, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024, (flat.nbytes, peak)
