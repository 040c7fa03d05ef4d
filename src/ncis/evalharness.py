"""OOD detection metrics and the three-class toy benchmark.

Scores follow the convention "larger means more in-distribution"; ID is the
positive class.  AUROC counts ID-over-OOD wins with half credit for ties, and
FPR-at-TPR uses the largest threshold that still passes the requested
fraction of ID scores (ties at the threshold count as ID).

The toy benchmark draws three classes from arcs of three distinct circles
with small isotropic Gaussian noise, and an OOD set uniform over the bounding
box but kept at least a margin away from every noiseless arc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .data import LabeledEmbeddingSet
from .errors import ContractError


def scores_to_samples(id_scores, ood_scores):
    """The ``(id, ood)`` pair of float64 score arrays the metrics take."""
    return np.asarray(id_scores, dtype=np.float64), np.asarray(ood_scores, dtype=np.float64)


def _split(samples):
    id_s, ood_s = samples
    if not (np.isfinite(id_s).all() and np.isfinite(ood_s).all()):
        raise ContractError("scores must be finite")
    if id_s.size == 0 or ood_s.size == 0:
        raise ContractError("need at least one ID and one OOD sample")
    return id_s, ood_s


def auroc(samples) -> float:
    """Probability a random ID score beats a random OOD score, ties at 0.5."""
    id_s, ood_s = _split(samples)
    ood_sorted = np.sort(ood_s)
    left = np.searchsorted(ood_sorted, id_s, side="left")
    right = np.searchsorted(ood_sorted, id_s, side="right")
    wins = int(left.sum())
    ties = int((right - left).sum())
    return (wins + 0.5 * ties) / (len(id_s) * len(ood_s))


def fpr_at_tpr(samples, level: float = 0.95) -> float:
    """OOD fraction passing the largest threshold that keeps ID recall >= level."""
    if not 0.0 < level <= 1.0:
        raise ContractError("level must lie in (0, 1]")
    id_s, ood_s = _split(samples)
    n = len(id_s)
    id_desc = np.sort(id_s)[::-1]
    # The k-th largest ID score passes at least k of n, and exactly as many as
    # the k-th largest of its tie group, so the largest passing threshold is
    # the k-th largest score for the smallest k with k / n >= level.  The
    # recall is computed by that same division, so rounding cannot shift k.
    k = int(np.searchsorted(np.arange(1, n + 1) / n, level)) + 1
    tau = id_desc[k - 1]
    return float(np.sum(ood_s >= tau) / len(ood_s))


def classification_accuracy(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ContractError("predictions and truth must be non-empty and aligned")
    return float(np.mean(predicted == truth))


# ---------------------------------------------------------------------------
# toy benchmark
# ---------------------------------------------------------------------------

# Three arcs of distinct circles: centers sit on a ring of radius 1.8 at
# angles 90/210/330 degrees, each arc spans 120 degrees facing outward.
_RING_RADIUS = 1.8
_ARC_RADIUS = 1.0
_ARC_HALF_SPAN = np.pi / 3.0
_CENTER_ANGLES = (np.pi / 2.0, np.pi * 7.0 / 6.0, np.pi * 11.0 / 6.0)


def _arcs():
    arcs = []
    for theta in _CENTER_ANGLES:
        cx = _RING_RADIUS * np.cos(theta)
        cy = _RING_RADIUS * np.sin(theta)
        arcs.append((cx, cy, _ARC_RADIUS, theta - _ARC_HALF_SPAN, theta + _ARC_HALF_SPAN))
    return arcs


def arc_distance(points) -> np.ndarray:
    """Distance from each point to the nearest noiseless class curve."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    dists = np.full(points.shape[0], np.inf)
    for cx, cy, radius, lo, hi in _arcs():
        rel = points - np.array([cx, cy])
        rho = np.hypot(rel[:, 0], rel[:, 1])
        phi = np.arctan2(rel[:, 1], rel[:, 0])
        span = hi - lo
        on_arc = np.mod(phi - lo, 2.0 * np.pi) <= span
        d = np.where(on_arc, np.abs(rho - radius), np.inf)
        for ang in (lo, hi):
            end = np.array([cx + radius * np.cos(ang), cy + radius * np.sin(ang)])
            d = np.minimum(d, np.hypot(points[:, 0] - end[0], points[:, 1] - end[1]))
        dists = np.minimum(dists, d)
    return dists


@dataclass
class ToyBenchmark:
    train: LabeledEmbeddingSet
    heldout: LabeledEmbeddingSet
    ood: np.ndarray
    seed: int
    noise: float
    margin: float


def _sample_class(rng, arc, count, noise):
    cx, cy, radius, lo, hi = arc
    angles = rng.uniform(lo, hi, size=count)
    pts = np.stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)], axis=1)
    return pts + noise * rng.standard_normal((count, 2))


def make_toy_benchmark(seed, n_per_class, noise=RunConfig.benchmark_noise,
                       margin=RunConfig.benchmark_margin, ood_count=None) -> ToyBenchmark:
    """Deterministic three-class 2-d benchmark with an off-manifold OOD set."""
    if n_per_class < 1:
        raise ContractError("n_per_class must be at least 1")
    if noise <= 0 or margin <= 0:
        raise ContractError("noise and margin must be positive")
    if noise >= margin:
        raise ContractError("noise must stay below the OOD margin")
    if ood_count is None:
        ood_count = 3 * n_per_class

    rng = np.random.default_rng(seed)
    arcs = _arcs()

    train_pts, train_labels = [], []
    heldout_pts, heldout_labels = [], []
    for label, arc in enumerate(arcs):
        train_pts.append(_sample_class(rng, arc, n_per_class, noise))
        train_labels.append(np.full(n_per_class, label, dtype=np.int64))
        heldout_pts.append(_sample_class(rng, arc, n_per_class, noise))
        heldout_labels.append(np.full(n_per_class, label, dtype=np.int64))
    train = LabeledEmbeddingSet(np.concatenate(train_pts), np.concatenate(train_labels), 3)
    heldout = LabeledEmbeddingSet(np.concatenate(heldout_pts), np.concatenate(heldout_labels), 3)

    # bounding box of the noiseless curves, padded beyond the margin
    sweep = np.concatenate([
        np.stack([cx + r * np.cos(np.linspace(lo, hi, 256)),
                  cy + r * np.sin(np.linspace(lo, hi, 256))], axis=1)
        for cx, cy, r, lo, hi in arcs])
    pad = margin + 0.7
    box_lo = sweep.min(axis=0) - pad
    box_hi = sweep.max(axis=0) + pad

    ood = np.empty((ood_count, 2))
    filled = 0
    while filled < ood_count:
        cand = rng.uniform(box_lo, box_hi, size=(4 * ood_count, 2))
        keep = cand[arc_distance(cand) >= margin]
        take = min(ood_count - filled, keep.shape[0])
        ood[filled:filled + take] = keep[:take]
        filled += take

    return ToyBenchmark(train, heldout, ood, int(seed), float(noise), float(margin))
