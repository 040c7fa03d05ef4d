"""Per-sample embedding by gradient descent against a pluggable denoiser.

Each sample gets the conditioning vector that minimizes the Monte-Carlo
noise-prediction loss: draw timesteps and noise for a batch, noise the sample
accordingly, and take one gradient step on the squared prediction error with
respect to the embedding.  The embedding starts at the label's anchor vector
and runs for a small fixed number of iterations, which keeps it close to the
anchor; with zero iterations it is the anchor, bit for bit.  The loop reads
its seed and its ``embed.*`` budgets from the pipeline's ``RunConfig``, which
checks their ranges when it is built.

The denoiser is abstract so externally produced embeddings (or a real
denoising model) can replace the analytic toy denoiser used for verification.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, check_range
from .data import LabeledEmbeddingSet, as_labels, as_rows
from .errors import ContractError, NumericError

# the linear schedule's first and last per-step noise variances
BETA_START = 1e-4
BETA_END = 0.2


@dataclass
class NoiseSchedule:
    """Cumulative signal coefficients alpha_bar[t-1] for timesteps t = 1..T."""

    alpha_bar: np.ndarray

    def __post_init__(self):
        self.alpha_bar = np.asarray(self.alpha_bar, dtype=np.float64)
        if self.alpha_bar.ndim != 1 or self.alpha_bar.size < 1:
            raise ContractError("alpha_bar must be a non-empty 1-d array")
        if np.any(self.alpha_bar < 0.0) or np.any(self.alpha_bar > 1.0):
            raise ContractError("alpha_bar values must lie in [0, 1]")
        if self.alpha_bar[0] <= 0.0:
            raise ContractError("alpha_bar must start positive")
        if self.alpha_bar.size > 1 and not np.all(np.diff(self.alpha_bar) < 0.0):
            raise ContractError("alpha_bar must be strictly decreasing")

    @property
    def timesteps(self):
        return self.alpha_bar.size

    @classmethod
    def linear(cls, timesteps=RunConfig.embed_timesteps):
        """Linear variance schedule from BETA_START to BETA_END; alpha_bar ends small."""
        betas = np.linspace(BETA_START, BETA_END, check_range("embed.timesteps", timesteps))
        return cls(np.cumprod(1.0 - betas))


def forward_noise(x0, t, noise, schedule: NoiseSchedule):
    """Noised sample sqrt(ab_t) * x0 + sqrt(1 - ab_t) * noise for t in [1, T];
    ``t`` is one timestep or an array of them, one per row of ``x0``."""
    t = np.asarray(t, dtype=np.int64)
    if t.size and not (1 <= t.min() and t.max() <= schedule.timesteps):
        raise ContractError(f"timestep {t} outside [1, {schedule.timesteps}]")
    x0 = np.asarray(x0, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if x0.shape != noise.shape:
        raise ContractError("x0 and noise must have the same shape")
    ab = schedule.alpha_bar[:, None]
    return np.sqrt(ab)[t - 1] * x0 + np.sqrt(1.0 - ab)[t - 1] * noise


class Denoiser(abc.ABC):
    """Noise predictor conditioned on an embedding.

    ``loss_and_grad`` receives, for ``N`` items, noised batches ``(N, B, dx)``,
    the noise drawn for them ``(N, B, dx)`` and the embeddings ``(N, de)``.
    It returns each item's loss, its squared prediction error averaged over
    its batch, and the loss's gradient with respect to its embedding; an
    item's results must not depend on the other items.
    """

    @abc.abstractmethod
    def loss_and_grad(self, noisy, eps, embeddings):
        """Per-item loss ``(N,)`` and its embedding gradient ``(N, de)``."""


class LinearToyDenoiser(Denoiser):
    """Analytic denoiser ``noisy - A @ embedding`` with full-rank A.

    The expected loss is quadratic in the embedding with the closed-form
    minimizer ``A^-1 * mean_t(sqrt(alpha_bar_t)) * x0``, which makes the
    embedding loop verifiable end to end.  ``loss_and_grad`` is tested against
    the same model on the test suite's autodiff tape (``tests/tape.py``).
    """

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ContractError("matrix must be square")
        if abs(np.linalg.det(self.matrix)) < 1e-12:
            raise ContractError("matrix must be full-rank")

    def loss_and_grad(self, noisy, eps, embeddings):
        # r = eps - (noisy - A e): loss sum(r^2) / B, gradient A^T sum_b 2 r / B;
        # stacked one-column products keep each item's rows apart
        a_e = np.matmul(self.matrix, embeddings[:, :, None])[:, :, 0]
        resid = eps - (noisy - a_e[:, None, :])
        batch = resid.shape[1]
        loss = np.sum(resid * resid, axis=(1, 2)) * (1.0 / batch)
        g_ae = np.sum((2.0 * (1.0 / batch)) * resid, axis=1)
        return loss, np.matmul(self.matrix.T, g_ae[:, :, None])[:, :, 0]

    def closed_form_embedding(self, x0, schedule: NoiseSchedule):
        """Minimizer of the expected loss over uniform timesteps."""
        c = float(np.mean(np.sqrt(schedule.alpha_bar)))
        return np.linalg.solve(self.matrix, c * np.asarray(x0, dtype=np.float64))


def embed_sample(sample, anchor, denoiser: Denoiser, schedule: NoiseSchedule,
                 cfg: RunConfig):
    """Gradient-descend the embedding of one sample, starting at ``anchor``.

    The one-item case of :func:`embed_dataset`, seeded with ``cfg.seed``.
    """
    return embed_dataset([sample], [0], [anchor], denoiser, schedule, cfg,
                         item_seeds=[cfg.seed]).embeddings[0]


def derive_item_seed(seed, index) -> int:
    """Stable per-item seed from a base seed and an item index."""
    return int(np.random.SeedSequence(entropy=(int(seed), int(index))).generate_state(1)[0])


def embed_dataset(samples, labels, anchors, denoiser: Denoiser,
                  schedule: NoiseSchedule, cfg: RunConfig,
                  item_seeds=None) -> LabeledEmbeddingSet:
    """Embed every (sample, label) pair independently, in input order.

    Each item draws its (timestep, noise) batches from its own generator, so
    items are independent of each other: by default its seed is derived from
    ``(cfg.seed, position)``, or the caller can pass explicit ``item_seeds``
    that travel with the items (for example when re-embedding a permuted
    dataset).  All items then take each of the ``cfg.embed_iterations``
    gradient steps together, in one batch; an item's step draws
    ``cfg.embed_batch_size`` (timestep, noise) pairs and moves
    ``cfg.embed_learning_rate`` times the gradient.
    """
    anchors = as_rows(anchors, name="anchors")  # one row per class
    class_count = anchors.shape[0]
    samples = as_rows(samples, name="samples")
    labels = as_labels(labels, class_count, samples.shape[0])
    if item_seeds is not None and len(item_seeds) != samples.shape[0]:
        raise ContractError("item_seeds must have one entry per sample")

    count, dx = samples.shape
    if item_seeds is None:
        item_seeds = [derive_item_seed(cfg.seed, i) for i in range(count)]
    rngs = [np.random.default_rng(int(seed)) for seed in item_seeds]
    x0 = np.broadcast_to(samples[:, None, :], (count, cfg.embed_batch_size, dx))
    ts = np.empty((count, cfg.embed_batch_size), dtype=np.int64)
    eps = np.empty(x0.shape)
    e = anchors[labels]
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(cfg.embed_iterations):
            for i, rng in enumerate(rngs):
                ts[i] = rng.integers(1, schedule.timesteps + 1, size=cfg.embed_batch_size)
                rng.standard_normal(out=eps[i])
            loss, grad = denoiser.loss_and_grad(forward_noise(x0, ts, eps, schedule), eps, e)
            bad = ~(np.isfinite(loss) & np.isfinite(grad).all(axis=1))
            if bad.any():
                raise NumericError(f"item {int(np.argmax(bad))}: embedding aborted at "
                                   f"iteration {it}: non-finite loss or gradient")
            e = e - cfg.embed_learning_rate * grad
    return LabeledEmbeddingSet(e, labels, class_count)
