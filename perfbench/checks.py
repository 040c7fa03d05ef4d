"""Output checks for one pipeline run, made after timing stops.

Each check returns a list of failure messages; an empty list means the
artifacts passed.  The checks recompute what they can from the artifacts
alone, with the package's own functions, so a faster but wrong pipeline fails
here rather than in the end-to-end numbers.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ncis import artifacts, cvpn, evalharness, outlier_sampling
from ncis.errors import NcisError

ROUND_TRIP_TOL = 1e-9


def read_scores_csv(path):
    """(id_scores, ood_scores) from a ``scores.csv``; rows tagged OOD are OOD."""
    lines = [line for line in Path(path).read_text().splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != "index,tag,score,energy":
        raise ValueError(f"{path}: malformed scores header")
    id_scores, ood_scores = [], []
    for line in lines[1:]:
        _, tag, score, _ = line.split(",")
        (ood_scores if tag == "OOD" else id_scores).append(float(score))
    return np.array(id_scores), np.array(ood_scores)


def check_run_dir(run_dir, n_per_class):
    """Check one pipeline output directory.

    Returns (failures, facts), where facts holds the quality metrics and exact
    counts read from the artifacts.
    """
    run_dir = Path(run_dir)
    try:
        train = artifacts.load_embeddings_csv(run_dir / "embeddings_train.csv")
        artifacts.load_embeddings_csv(run_dir / "embeddings_heldout.csv")
        artifacts.load_points_csv(run_dir / "ood_test.csv")
        model = artifacts.load_cvpn(run_dir / "cvpn.txt")
        artifacts.load_loss_history_csv(run_dir / "loss_history.csv")
        bank = artifacts.load_bank(run_dir / "bank.txt")
        outliers = artifacts.load_outliers_csv(run_dir / "outliers.csv")
        artifacts.load_classifier(run_dir / "classifier.txt")
        (_, _, fpr95, auroc, accuracy), = artifacts.load_metrics_csv(run_dir / "metrics.csv")
        id_scores, ood_scores = read_scores_csv(run_dir / "scores.csv")
    except (NcisError, OSError, ValueError) as err:
        return [f"{run_dir.name}: artifacts do not parse: {err}"], {}

    failures = []
    name = run_dir.name
    expected = n_per_class * bank.class_count
    if len(outliers) != expected or any(
            np.sum(outliers.labels == c) != n_per_class for c in range(bank.class_count)):
        failures.append(f"{name}: {len(outliers)} outliers, expected {n_per_class} per class ({expected})")
    for c in range(bank.class_count):
        threshold = outlier_sampling.acceptance_threshold(bank, c, outliers.q)
        worst = outliers.log_densities[outliers.labels == c].max(initial=-np.inf)
        if not worst < threshold:
            failures.append(f"{name}: class {c} outlier log-density {worst!r} not below "
                            f"its acceptance threshold {threshold!r}")

    forward = cvpn.cvpn_forward_batch(model, train.embeddings, train.labels)
    residual = float(np.max(np.abs(cvpn.cvpn_inverse_batch(model, forward, train.labels)
                                   - train.embeddings)))
    if not residual < ROUND_TRIP_TOL:
        failures.append(f"{name}: inverse round-trip residual {residual:.3e} >= {ROUND_TRIP_TOL}")

    samples = evalharness.scores_to_samples(id_scores, ood_scores)
    for metric, recorded, recomputed in (
            ("auroc", auroc, evalharness.auroc(samples)),
            ("fpr95", fpr95, evalharness.fpr_at_tpr(samples, 0.95))):
        if recomputed != recorded:
            failures.append(f"{name}: metrics.csv {metric} {recorded!r} != {recomputed!r} "
                            f"recomputed from scores.csv")

    facts = {
        "auroc": auroc, "fpr95": fpr95, "accuracy": accuracy,
        "proposals": int(outliers.attempts.sum()), "accepted": len(outliers),
    }
    return failures, facts


def check_output(out_dir, runs, n_per_class):
    """Check a run (``runs == 1``) or a sweep of ``runs`` lambda values.

    Returns (failures, facts).  On a sweep the quality facts are the worst
    over the lambda values and the counts are summed over them.
    """
    out_dir = Path(out_dir)
    run_dirs = sorted(out_dir.glob("lambda_*")) if runs > 1 else [out_dir]
    if len(run_dirs) != runs:
        return [f"{out_dir}: {len(run_dirs)} lambda_* directories, expected {runs}"], {}
    failures, facts = [], []
    for run_dir in run_dirs:
        fails, fact = check_run_dir(run_dir, n_per_class)
        failures += fails
        facts.append(fact)
    if failures:
        return failures, {}
    worst = {
        "auroc": min(f["auroc"] for f in facts),
        "fpr95": max(f["fpr95"] for f in facts),
        "accuracy": min(f["accuracy"] for f in facts),
        "proposals": sum(f["proposals"] for f in facts),
        "accepted": sum(f["accepted"] for f in facts),
    }
    return failures, worst
