import numpy as np
import pytest

from ncis.data import LabeledEmbeddingSet, require_min_class_size
from ncis.errors import ContractError


def test_valid_set():
    data = LabeledEmbeddingSet(np.zeros((4, 2)), np.array([0, 1, 1, 2]), 3)
    assert len(data) == 4
    assert data.dim == 2
    assert data.class_points(1).shape == (2, 2)


def test_label_range_checked():
    with pytest.raises(ContractError):
        LabeledEmbeddingSet(np.zeros((2, 2)), np.array([0, 3]), 3)
    with pytest.raises(ContractError):
        LabeledEmbeddingSet(np.zeros((2, 2)), np.array([0, -1]), 3)


def test_nan_rejected():
    with pytest.raises(ContractError):
        LabeledEmbeddingSet(np.array([[0.0, np.nan]]), np.array([0]), 1)


def test_shape_mismatch_rejected():
    with pytest.raises(ContractError):
        LabeledEmbeddingSet(np.zeros((3, 2)), np.array([0, 1]), 2)


def test_min_class_size():
    data = LabeledEmbeddingSet(np.zeros((3, 2)), np.array([0, 0, 1]), 2)
    require_min_class_size(data, 1)
    with pytest.raises(ContractError, match="class 1"):
        require_min_class_size(data, 2)

