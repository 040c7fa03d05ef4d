"""Shared fixtures: one full toy pipeline run per seed, computed lazily."""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from ncis import cvpn, density, evalharness, invariant_training, ood_classifier, outlier_sampling
from ncis.config import RunConfig, parse_config

settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("suite")


@dataclass
class ToyRun:
    seed: int
    bench: evalharness.ToyBenchmark
    num_invariants: int
    model: cvpn.CvpnModel
    history: np.ndarray
    untrained_heldout_msq: float
    bank: density.ClassGaussianBank
    train_vectors: np.ndarray
    outliers: outlier_sampling.OutlierSet
    clf_beta1: ood_classifier.EnergyClassifier
    clf_beta0: ood_classifier.EnergyClassifier


_RUNS: dict[int, ToyRun] = {}


def full_toy_run(seed: int) -> ToyRun:
    """Benchmark -> cVPN -> bank -> outliers -> classifiers, all at one seed."""
    if seed in _RUNS:
        return _RUNS[seed]
    bench = evalharness.make_toy_benchmark(seed, 200)
    k = invariant_training.select_num_invariants(bench.train, 2.0)
    model = cvpn.build_cvpn(bench.train.dim, k, 4, bench.train.class_count, 32, seed)
    untrained = invariant_training.invariant_loss(
        model, bench.heldout.embeddings, bench.heldout.labels)
    model, history = invariant_training.train_cvpn(
        model, bench.train, RunConfig(seed=seed))
    vectors = cvpn.cvpn_forward_batch(model, bench.train.embeddings, bench.train.labels)
    bank = density.fit_class_gaussians(vectors, bench.train.labels, 1e-5,
                                       class_count=bench.train.class_count)
    outliers = outlier_sampling.synthesize_outliers(model, bank, 1000, q=0.05, seed=seed)
    clf1 = ood_classifier.train_energy_classifier(
        bench.train, outliers, RunConfig(classifier_beta=1.0, seed=seed))
    clf0 = ood_classifier.train_energy_classifier(
        bench.train, outliers, RunConfig(classifier_beta=0.0, seed=seed))
    run = ToyRun(seed, bench, k, model, history, untrained, bank, vectors,
                 outliers, clf1, clf0)
    _RUNS[seed] = run
    return run


@pytest.fixture(scope="session")
def toy_run() -> ToyRun:
    return full_toy_run(7)


@pytest.fixture(scope="session")
def toy_bench(toy_run):
    return toy_run.bench


@pytest.fixture(scope="session")
def trained_model(toy_run):
    return toy_run.model


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def config_with(base, extra=""):
    """``parse_config`` of ``base`` with each ``key = value`` line of ``extra``
    replacing the line of its key, since a file may set a key only once."""
    lines = {}
    for line in (base + extra).splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            lines[key.strip()] = value.strip()
    return parse_config("\n".join(f"{k} = {v}" for k, v in lines.items()), environ={})


def assert_same(a, b, where="object"):
    """``a`` equals ``b`` field by field: arrays in value, dtype and shape,
    dataclasses, dicts, lists and tuples member by member, anything else by ==."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray), where
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert np.array_equal(a, b), where
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for field in dataclasses.fields(a):
            assert_same(getattr(a, field.name), getattr(b, field.name), f"{where}.{field.name}")
    elif isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b), where
        for key in a:
            assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert isinstance(b, (list, tuple)) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    else:
        assert a == b, where
