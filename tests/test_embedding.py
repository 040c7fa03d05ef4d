import numpy as np
import pytest

from ncis import embedding as emb
from ncis.config import RunConfig
from ncis.errors import ContractError, NumericError

from conftest import rel_err
import tape


def embed_one(sample, anchor, denoiser, schedule, cfg):
    """The embedding of one sample from ``anchor``, seeded with ``cfg.seed``."""
    return emb.embed_dataset([sample], [0], [anchor], denoiser, schedule, cfg,
                             item_seeds=[cfg.seed]).embeddings[0]


def test_linear_schedule_shape():
    s = emb.NoiseSchedule.linear(50)
    assert s.timesteps == 50
    assert s.alpha_bar[0] > 0.999
    assert s.alpha_bar[-1] < 0.01
    assert np.all(np.diff(s.alpha_bar) < 0)


def test_schedule_validation():
    with pytest.raises(ContractError):
        emb.NoiseSchedule(np.array([0.5, 0.7]))  # increasing
    with pytest.raises(ContractError):
        emb.NoiseSchedule(np.array([1.5, 0.5]))  # above 1
    with pytest.raises(ContractError):
        emb.NoiseSchedule(np.array([0.0, -0.1]))  # starts at zero


def test_forward_noise_boundaries():
    schedule = emb.NoiseSchedule(np.array([1.0, 0.25, 0.0]))
    x0 = np.array([2.0, 0.0])
    eps = np.array([0.0, 2.0])
    assert np.array_equal(emb.forward_noise(x0, 1, eps, schedule), x0)
    assert np.array_equal(emb.forward_noise(x0, 3, eps, schedule), eps)
    mid = emb.forward_noise(x0, 2, eps, schedule)
    assert np.allclose(mid, [1.0, np.sqrt(3.0)], atol=1e-15)


def test_forward_noise_timestep_range():
    schedule = emb.NoiseSchedule.linear(10)
    with pytest.raises(ContractError):
        emb.forward_noise(np.zeros(2), 0, np.zeros(2), schedule)
    with pytest.raises(ContractError):
        emb.forward_noise(np.zeros(2), 11, np.zeros(2), schedule)


def test_forward_noise_timestep_array_matches_scalar_rows():
    schedule = emb.NoiseSchedule.linear(10)
    rng = np.random.default_rng(2)
    ts = rng.integers(1, 11, size=(3, 4))
    x0 = rng.standard_normal((3, 4, 2))
    eps = rng.standard_normal((3, 4, 2))
    out = emb.forward_noise(x0, ts, eps, schedule)
    for i, j in np.ndindex(ts.shape):
        assert np.array_equal(out[i, j], emb.forward_noise(x0[i, j], ts[i, j], eps[i, j], schedule))
    ts[2, 1] = 11
    with pytest.raises(ContractError):
        emb.forward_noise(x0, ts, eps, schedule)


def test_zero_iterations_returns_anchor_bit_exact():
    schedule = emb.NoiseSchedule.linear(50)
    den = emb.LinearToyDenoiser(np.eye(2))
    anchor = np.array([0.123456789, -9.87654321])
    out = embed_one(np.ones(2), anchor, den, schedule, RunConfig(embed_iterations=0, seed=3))
    assert np.array_equal(out, anchor)


def test_embedding_reaches_closed_form_minimizer():
    schedule = emb.NoiseSchedule.linear(50)
    rng = np.random.default_rng(3)
    matrix = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    den = emb.LinearToyDenoiser(matrix)
    x0 = np.array([1.5, -0.7])
    target = den.closed_form_embedding(x0, schedule)
    cfg = RunConfig(embed_iterations=200, embed_batch_size=256, embed_learning_rate=0.02, seed=11)
    e = embed_one(x0, np.zeros(2), den, schedule, cfg)
    assert np.linalg.norm(e - target) / np.linalg.norm(target) < 0.05


def test_embedding_deterministic():
    schedule = emb.NoiseSchedule.linear(50)
    den = emb.LinearToyDenoiser(np.array([[1.2, 0.1], [-0.2, 0.8]]))
    cfg = RunConfig(embed_iterations=25, embed_batch_size=32, embed_learning_rate=0.02, seed=5)
    a = embed_one(np.ones(2), np.zeros(2), den, schedule, cfg)
    b = embed_one(np.ones(2), np.zeros(2), den, schedule, cfg)
    assert np.array_equal(a, b)


def test_heldout_loss_median_non_increasing_over_iterations():
    schedule = emb.NoiseSchedule.linear(50)
    den = emb.LinearToyDenoiser(np.array([[1.1, 0.2], [0.0, 0.9]]))
    x0 = np.array([1.0, 0.5])
    probe_rng = np.random.default_rng(999)
    ts = probe_rng.integers(1, 51, size=512)
    eps = probe_rng.standard_normal((512, 2))
    ab = schedule.alpha_bar[ts - 1][:, None]
    noisy = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps

    def heldout_loss(e):
        pred = tape.predict(den, noisy, ts, e)
        return float(np.sum((eps - pred) ** 2)) / 512

    max_iters = 20
    curves = []
    for seed in range(20):
        losses = []
        for k in range(max_iters + 1):
            cfg = RunConfig(embed_iterations=k, embed_batch_size=64, embed_learning_rate=0.02,
                            seed=seed)
            e = embed_one(x0, np.zeros(2), den, schedule, cfg)
            losses.append(heldout_loss(e))
        curves.append(losses)
    median = np.median(np.array(curves), axis=0)
    assert np.all(np.diff(median) <= 1e-9)


def test_batch_loss_gradient_matches_fd():
    schedule = emb.NoiseSchedule.linear(50)
    rng = np.random.default_rng(7)
    den = emb.LinearToyDenoiser(np.eye(3) + 0.2 * rng.standard_normal((3, 3)))
    x0 = rng.standard_normal(3)
    ts = rng.integers(1, 51, size=16)
    eps = rng.standard_normal((16, 3))
    ab = schedule.alpha_bar[ts - 1][:, None]
    noisy = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps

    def loss(P):
        pred = tape.predict(den, noisy, ts, P["e"])
        return tape.mul(tape.sumsq(tape.sub(eps, pred)), 1.0 / 16)

    point = rng.standard_normal(3)
    _, g = tape.eval_and_grad(loss, {"e": point})
    fd = tape.finite_diff_grad(lambda e: float(loss({"e": e})), point)
    assert rel_err(g["e"], fd) < 1e-5


def test_embed_dataset_empty():
    schedule = emb.NoiseSchedule.linear(10)
    den = emb.LinearToyDenoiser(np.eye(2))
    out = emb.embed_dataset(np.empty((0, 2)), np.empty(0, dtype=int), np.zeros((3, 2)),
                            den, schedule, RunConfig(seed=0))
    assert len(out) == 0
    assert out.dim == 2


def test_embed_dataset_order_and_per_item_seeds():
    schedule = emb.NoiseSchedule.linear(20)
    den = emb.LinearToyDenoiser(np.array([[1.0, 0.2], [0.0, 1.1]]))
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((10, 2))
    labels = rng.integers(0, 3, 10)
    anchors = rng.standard_normal((3, 2))
    cfg = RunConfig(embed_iterations=5, embed_batch_size=8, embed_learning_rate=0.05, seed=21)
    out = emb.embed_dataset(samples, labels, anchors, den, schedule, cfg)
    assert len(out) == 10
    # each item embeds independently under its derived seed
    item3 = embed_one(samples[3], anchors[labels[3]], den, schedule,
                      RunConfig(embed_iterations=5, embed_batch_size=8, embed_learning_rate=0.05,
                                seed=emb.derive_item_seed(21, 3)))
    assert np.array_equal(out.embeddings[3], item3)


def test_embed_dataset_shuffle_with_item_seeds_same_multiset():
    schedule = emb.NoiseSchedule.linear(20)
    den = emb.LinearToyDenoiser(np.array([[0.9, -0.1], [0.2, 1.2]]))
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((8, 2))
    labels = rng.integers(0, 2, 8)
    anchors = rng.standard_normal((2, 2))
    cfg = RunConfig(embed_iterations=4, embed_batch_size=8, embed_learning_rate=0.05, seed=33)
    seeds = [emb.derive_item_seed(33, i) for i in range(8)]
    base = emb.embed_dataset(samples, labels, anchors, den, schedule, cfg, item_seeds=seeds)
    perm = rng.permutation(8)
    shuffled = emb.embed_dataset(samples[perm], labels[perm], anchors, den, schedule, cfg,
                                 item_seeds=[seeds[i] for i in perm])
    a = base.embeddings[np.lexsort(base.embeddings.T)]
    b = shuffled.embeddings[np.lexsort(shuffled.embeddings.T)]
    assert np.array_equal(a, b)


def _tape_embed(sample, anchor, den, schedule, cfg, seed):
    """One item's embedding loop on the autodiff tape: the reference."""
    e = np.array(anchor, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for _ in range(cfg.embed_iterations):
        ts = rng.integers(1, schedule.timesteps + 1, size=cfg.embed_batch_size)
        eps = rng.standard_normal((cfg.embed_batch_size, sample.shape[0]))
        ab = schedule.alpha_bar[ts - 1][:, None]
        noisy = np.sqrt(ab) * sample + np.sqrt(1.0 - ab) * eps

        def loss(P):
            pred = tape.predict(den, noisy, ts, P["e"])
            return tape.mul(tape.sumsq(tape.sub(eps, pred)), 1.0 / cfg.embed_batch_size)

        _, grads = tape.eval_and_grad(loss, {"e": e})
        e = e - cfg.embed_learning_rate * grads["e"]
    return e


def test_embed_dataset_matches_per_item_tape_loop():
    # 24 configurations: D 2-4, 1-8 items, batch sizes 1-64, 0-30 iterations
    worst = 0.0
    for i in range(24):
        rng = np.random.default_rng(500 + i)
        dim = 2 + i % 3
        count = [1, 8, 3, 5, 2, 7, 4, 6][i % 8]
        cfg = RunConfig(embed_iterations=[0, 1, 12, 30][i % 4],
                        embed_batch_size=[1, 64, 7, 32, 19][i % 5],
                        embed_learning_rate=float(rng.uniform(0.005, 0.05)),
                        seed=int(rng.integers(0, 1000)))
        schedule = emb.NoiseSchedule.linear(int(rng.integers(5, 60)))
        den = emb.LinearToyDenoiser(np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)))
        samples = rng.standard_normal((count, dim))
        labels = rng.integers(0, 3, count)
        anchors = rng.standard_normal((3, dim))
        out = emb.embed_dataset(samples, labels, anchors, den, schedule, cfg).embeddings
        for j in range(count):
            ref = _tape_embed(samples[j], anchors[labels[j]], den, schedule, cfg,
                              emb.derive_item_seed(cfg.seed, j))
            worst = max(worst, rel_err(out[j], ref))
    assert worst <= 1e-10


def test_divergence_names_first_non_finite_item():
    schedule = emb.NoiseSchedule.linear(20)
    den = emb.LinearToyDenoiser(np.eye(2))
    cfg = RunConfig(embed_iterations=5, embed_batch_size=4, embed_learning_rate=0.01, seed=0)
    anchors = np.array([[0.0, 0.0], [1e300, -1e300]])
    with pytest.raises(NumericError, match=r"^item 1: embedding aborted at iteration 0: "):
        emb.embed_dataset(np.ones((3, 2)), np.array([0, 1, 1]), anchors, den, schedule, cfg)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_reports_item_and_iteration():
    schedule = emb.NoiseSchedule.linear(20)
    den = emb.LinearToyDenoiser(np.eye(2) * 5.0)
    cfg = RunConfig(embed_iterations=400, embed_batch_size=4, embed_learning_rate=1e6, seed=0)
    with pytest.raises(NumericError, match="item 0"):
        emb.embed_dataset(np.ones((1, 2)), np.zeros(1, dtype=int), np.zeros((1, 2)),
                          den, schedule, cfg)


def test_denoiser_matrix_validation():
    with pytest.raises(ContractError):
        emb.LinearToyDenoiser(np.zeros((2, 2)))
    with pytest.raises(ContractError):
        emb.LinearToyDenoiser(np.ones((2, 3)))


def test_config_validation():
    with pytest.raises(ContractError, match="embed.iterations out of range"):
        RunConfig(embed_iterations=-1)
    with pytest.raises(ContractError, match="embed.batch_size out of range"):
        RunConfig(embed_batch_size=0)
    with pytest.raises(ContractError, match="embed.learning_rate out of range"):
        RunConfig(embed_learning_rate=0.0)
