"""Labeled embedding collections passed between pipeline stages."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class LabeledEmbeddingSet:
    """N embeddings of equal dimension, each with a class label."""

    embeddings: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.embeddings.ndim != 2:
            raise ContractError(f"embeddings must be (N, D), got shape {self.embeddings.shape}")
        if self.labels.shape != (self.embeddings.shape[0],):
            raise ContractError("labels must have one entry per embedding")
        if not np.all(np.isfinite(self.embeddings)):
            raise ContractError("embeddings contain non-finite values")
        if self.class_count < 1:
            raise ContractError("class_count must be at least 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ContractError("labels must lie in [0, class_count)")

    def __len__(self):
        return self.embeddings.shape[0]

    @property
    def dim(self):
        return self.embeddings.shape[1]

    def class_points(self, label):
        return self.embeddings[self.labels == label]


def require_min_class_size(data: LabeledEmbeddingSet, minimum: int):
    for label in range(data.class_count):
        n = int(np.sum(data.labels == label))
        if n < minimum:
            raise ContractError(f"class {label} has {n} points, needs at least {minimum}")
