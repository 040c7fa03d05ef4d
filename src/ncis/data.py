"""Labeled embedding collections passed between pipeline stages, and the
checks every batch of rows and every label vector passes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def as_rows(rows, dim=None, name="rows", nonempty=False):
    """``rows`` as a float64 (N, D) array, with D = ``dim`` when given and
    N >= 1 when ``nonempty``; ``ContractError`` naming them as ``name``
    otherwise."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or (dim is not None and rows.shape[1] != dim) or (nonempty and not len(rows)):
        want = f"(N, {'D' if dim is None else dim})" + (" with N >= 1" if nonempty else "")
        raise ContractError(f"{name} must be {want}, got shape {rows.shape}")
    return rows


def as_labels(labels, class_count, n=None):
    """``labels`` as int64, each in [0, class_count); with ``n``, a vector of
    ``n`` entries.  ``ContractError`` otherwise."""
    labels = np.asarray(labels, dtype=np.int64)
    if n is not None and labels.shape != (n,):
        raise ContractError(f"labels must have one entry per row ({n}), got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= class_count):
        raise ContractError(f"labels must lie in [0, {class_count}), "
                            f"got {labels.min()}..{labels.max()}")
    return labels


@dataclass
class LabeledEmbeddingSet:
    """N embeddings of equal dimension, each with a class label."""

    embeddings: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.embeddings = as_rows(self.embeddings, name="embeddings")
        if not np.isfinite(self.embeddings).all():
            raise ContractError("embeddings contain non-finite values")
        if self.class_count < 1:
            raise ContractError("class_count must be at least 1")
        self.labels = as_labels(self.labels, self.class_count, len(self))

    def __len__(self):
        return self.embeddings.shape[0]

    @property
    def dim(self):
        return self.embeddings.shape[1]

    def class_points(self, label):
        return self.embeddings[self.labels == label]

    def class_moments(self, label):
        """The class's points, their mean and their biased (1/N) covariance,
        symmetrized."""
        pts = self.class_points(label)
        mu = pts.mean(axis=0)
        diff = pts - mu
        cov = diff.T @ diff / pts.shape[0]
        return pts, mu, 0.5 * (cov + cov.T)


def require_min_class_size(data: LabeledEmbeddingSet, minimum: int):
    for label in range(data.class_count):
        n = int(np.sum(data.labels == label))
        if n < minimum:
            raise ContractError(f"class {label} has {n} points, needs at least {minimum}")
