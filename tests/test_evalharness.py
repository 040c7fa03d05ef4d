import numpy as np
import pytest
from hypothesis import given, strategies as st

from ncis import evalharness as ev
from ncis.errors import ContractError


def samples_of(id_scores, ood_scores):
    return ev.scores_to_samples(id_scores, ood_scores)


# oracles -------------------------------------------------------------------

def auroc_oracle(id_scores, ood_scores):
    wins = ties = 0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                wins += 1
            elif a == b:
                ties += 1
    return (wins + 0.5 * ties) / (len(id_scores) * len(ood_scores))


def fpr_oracle(id_scores, ood_scores, level=0.95):
    id_scores = np.asarray(id_scores)
    ood_scores = np.asarray(ood_scores)
    best_tau = None
    for tau in sorted(set(id_scores.tolist()), reverse=True):
        if np.sum(id_scores >= tau) / len(id_scores) >= level:
            best_tau = tau
            break
    return float(np.sum(ood_scores >= best_tau) / len(ood_scores))


# auroc -----------------------------------------------------------------

def test_auroc_perfect_separation():
    assert ev.auroc(samples_of([2.0, 3.0], [0.0, 1.0])) == 1.0


def test_auroc_hand_mixed():
    assert ev.auroc(samples_of([2.0, 0.0], [1.0])) == 0.5


def test_auroc_all_ties():
    assert ev.auroc(samples_of([1.0, 1.0, 1.0], [1.0, 1.0])) == 0.5


def test_auroc_single_class_rejected():
    with pytest.raises(ContractError):
        ev.auroc(samples_of([1.0], []))
    with pytest.raises(ContractError):
        ev.auroc(samples_of([], [1.0]))


def test_auroc_nonfinite_rejected():
    with pytest.raises(ContractError):
        ev.auroc(samples_of([np.nan], [0.0]))


def test_auroc_matches_oracle_exactly_100_sets():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 101))
        m = int(rng.integers(1, 101))
        # quantized scores force plenty of ties
        ids = np.round(rng.standard_normal(n) * 2, 1)
        oods = np.round(rng.standard_normal(m) * 2, 1)
        assert ev.auroc(samples_of(ids, oods)) == auroc_oracle(ids.tolist(), oods.tolist())


# eighth-steps keep the affine transform exact, so order and ties survive it
dyadic = st.integers(-800, 800).map(lambda k: k / 8.0)


@given(st.lists(dyadic, min_size=1, max_size=20), st.lists(dyadic, min_size=1, max_size=20))
def test_auroc_invariant_under_increasing_transform(ids, oods):
    base = ev.auroc(samples_of(ids, oods))
    f = lambda xs: [3.0 * x + 1.0 for x in xs]
    assert ev.auroc(samples_of(f(ids), f(oods))) == pytest.approx(base, abs=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20),
       st.lists(st.floats(-50, 50), min_size=1, max_size=20))
def test_auroc_complementarity(ids, oods):
    base = ev.auroc(samples_of(ids, oods))
    flipped = ev.auroc(samples_of([-x for x in oods], [-x for x in ids]))
    assert flipped == pytest.approx(base, abs=1e-12)


# fpr at tpr ------------------------------------------------------------

def test_fpr_hand_example():
    ids = list(range(1, 21))
    oods = [0.0, 1.5, 3.0]
    assert ev.fpr_at_tpr(samples_of(ids, oods), 0.95) == pytest.approx(1.0 / 3.0)


def test_fpr_zero_when_ood_below_id():
    assert ev.fpr_at_tpr(samples_of([1.0, 2.0, 3.0], [0.0, 0.5]), 0.95) == 0.0


def test_fpr_identical_sets_match_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        scores = np.round(rng.standard_normal(int(rng.integers(2, 60))), 1)
        got = ev.fpr_at_tpr(samples_of(scores, scores), 0.95)
        assert got == fpr_oracle(scores, scores, 0.95)


def test_fpr_matches_oracle_exactly_100_sets():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 101))
        m = int(rng.integers(1, 101))
        ids = np.round(rng.standard_normal(n) * 2, 1)
        oods = np.round(rng.standard_normal(m) * 2, 1)
        level = float(rng.choice([0.5, 0.8, 0.95, 1.0]))
        assert ev.fpr_at_tpr(samples_of(ids, oods), level) == fpr_oracle(ids, oods, level)


def test_fpr_matches_oracle_at_2000_heavily_tied_scores():
    rng = np.random.default_rng(3)
    for level in (0.5, 0.8, 0.95, 0.9995, 1.0, float(rng.uniform(0.01, 1.0))):
        ids = np.round(rng.standard_normal(2000) * 2)
        oods = np.round(rng.standard_normal(2000) * 2 - 1)
        assert ev.fpr_at_tpr(samples_of(ids, oods), level) == fpr_oracle(ids, oods, level)


def test_fpr_level_equal_to_a_recall_fraction():
    # For n = 1999 and these k, level = k / n but level * n rounds above k, so
    # a k derived from level * n would pick the next threshold down.
    ids = np.random.default_rng(4).permutation(1999).astype(float)
    for k in (125, 250, 500):
        assert ev.fpr_at_tpr(samples_of(ids, ids), k / 1999) == fpr_oracle(ids, ids, k / 1999)


def test_fpr_level_validated():
    with pytest.raises(ContractError):
        ev.fpr_at_tpr(samples_of([1.0], [0.0]), 0.0)


# accuracy --------------------------------------------------------------

def test_accuracy():
    assert ev.classification_accuracy(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2])) == 0.75
    with pytest.raises(ContractError):
        ev.classification_accuracy(np.array([]), np.array([]))


# toy benchmark ----------------------------------------------------------

def test_benchmark_deterministic():
    a = ev.make_toy_benchmark(5, 50)
    b = ev.make_toy_benchmark(5, 50)
    assert np.array_equal(a.train.embeddings, b.train.embeddings)
    assert np.array_equal(a.heldout.embeddings, b.heldout.embeddings)
    assert np.array_equal(a.ood, b.ood)


def test_benchmark_sizes():
    bench = ev.make_toy_benchmark(0, 200)
    assert len(bench.train) == 600
    assert len(bench.heldout) == 600
    assert bench.ood.shape == (600, 2)
    assert all(np.sum(bench.train.labels == c) == 200 for c in range(3))


def test_benchmark_ood_respects_margin():
    bench = ev.make_toy_benchmark(3, 100, noise=0.05, margin=0.3)
    assert ev.arc_distance(bench.ood).min() >= 0.3


def test_benchmark_id_points_near_curves():
    bench = ev.make_toy_benchmark(4, 100, noise=0.05, margin=0.3)
    d = ev.arc_distance(bench.train.embeddings)
    assert np.quantile(d, 0.99) < 0.2


def test_benchmark_rejects_overlapping_noise():
    with pytest.raises(ContractError):
        ev.make_toy_benchmark(0, 10, noise=0.4, margin=0.3)
