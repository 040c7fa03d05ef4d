"""Pipeline orchestration: stages, artifact reuse, and the lambda sweep.

Stages communicate exclusively through versioned artifact files in the output
directory, so every stage can also run standalone.  Each stage declares the
configuration fields its body reads (``STAGE_FIELDS``) and the files it reads
(``STAGE_INPUTS``, plus the external CSVs when ``embed.source = csv``).  Its
cache key is a sha256 over the canonical ``key = value`` lines of those fields
and the sha256 of each of those files, so a stage's key changes exactly when
something it reads changes.

``manifest.json`` holds one record per completed stage: its key and the
digests of the files it read and wrote.  A stage is skipped when its record
carries the current key and its outputs are present, run when it has no
record (stray outputs of a crashed run are overwritten), and refused when its
record carries a different key: stale artifacts are never silently reused,
nor overwritten.  A stage writes its outputs into a staging directory; they
are moved into place with ``os.replace``, so no output is ever left half
written, and the manifest is written after them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import artifacts, cvpn, density, embedding, evalharness, invariant_training
from . import ood_classifier, outlier_sampling
from .config import KEY_TABLE, RunConfig, config_lines
from .errors import ArtifactError, NcisError, ParseError, PipelineError

STAGES = ("embed", "train-cvpn", "fit-density", "sample-outliers",
          "train-classifier", "evaluate")

STAGE_OUTPUTS = {
    "embed": ("embeddings_train.csv", "embeddings_heldout.csv", "ood_test.csv"),
    "train-cvpn": ("cvpn.txt", "loss_history.csv"),
    "fit-density": ("bank.txt",),
    "sample-outliers": ("outliers.csv",),
    "train-classifier": ("classifier.txt",),
    "evaluate": ("metrics.csv", "scores.csv"),
}

# the RunConfig fields each stage body reads; a field left out here would let
# a changed value reuse stale outputs (tests/test_stage_keys.py checks this)
STAGE_FIELDS = {
    "embed": ("embed_source", "seed", "benchmark_n_per_class", "benchmark_noise",
              "benchmark_margin", "benchmark_ood_count", "embed_iterations",
              "embed_batch_size", "embed_learning_rate", "embed_timesteps",
              "data_train_csv", "data_heldout_csv", "data_ood_csv"),
    "train-cvpn": ("seed", "invariants_p", "invariants_k_override", "cvpn_num_blocks",
                   "cvpn_hidden_width", "cvpn_train_lr", "cvpn_train_iterations",
                   "cvpn_train_batch"),
    "fit-density": ("density_lambda",),
    "sample-outliers": ("seed", "sample_n_per_class", "sample_q", "sample_max_attempts"),
    "train-classifier": ("seed", "classifier_beta", "classifier_epochs", "classifier_lr",
                         "classifier_batch", "classifier_hidden_width",
                         "classifier_phi_hidden"),
    "evaluate": ("embed_source",),
}

# the upstream artifacts each stage body reads from the output directory
STAGE_INPUTS = {
    "embed": (),
    "train-cvpn": ("embeddings_train.csv",),
    "fit-density": ("cvpn.txt", "embeddings_train.csv"),
    "sample-outliers": ("cvpn.txt", "bank.txt"),
    "train-classifier": ("embeddings_train.csv", "outliers.csv"),
    "evaluate": ("classifier.txt", "embeddings_heldout.csv", "ood_test.csv"),
}

# the fields naming the external CSVs that embed reads when embed.source = csv
CSV_SOURCE_FIELDS = ("data_train_csv", "data_heldout_csv", "data_ood_csv")

MANIFEST_NAME = "manifest.json"


def _manifest_path(out_dir):
    return Path(out_dir) / MANIFEST_NAME


def _load_manifest(out_dir):
    path = _manifest_path(out_dir)
    if not path.exists():
        return {"stages": {}}
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ArtifactError(f"{path}: corrupt manifest") from err
    if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
        raise ArtifactError(f"{path}: corrupt manifest")
    return manifest


def _store_manifest(out_dir, manifest):
    path = _manifest_path(out_dir)
    partial = path.with_name(path.name + ".partial")
    partial.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n")
    os.replace(partial, path)


def _file_digest(path):
    """sha256 of a file's bytes; ``ArtifactError`` naming the file if unreadable."""
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError as err:
        raise ArtifactError(f"missing artifact file: {path}") from err
    except OSError as err:
        raise ArtifactError(f"{path}: cannot read ({err.strerror})") from err
    return hashlib.sha256(data).hexdigest()


def _stage_input_digests(stage, cfg: RunConfig, out_dir):
    """{label: sha256} of the files ``stage`` reads.

    Upstream artifacts are labelled by file name, so a record stays valid
    when copied into another output directory; external CSVs by their
    configured path.
    """
    paths = {name: Path(out_dir) / name for name in STAGE_INPUTS[stage]}
    if stage == "embed" and cfg.embed_source == "csv":
        paths.update((getattr(cfg, f), Path(getattr(cfg, f))) for f in CSV_SOURCE_FIELDS)
    return {label: _file_digest(path) for label, path in paths.items()}


def stage_key(stage, cfg: RunConfig, input_digests):
    """sha256 over the stage's configuration lines and its input digests."""
    lines = config_lines(cfg, STAGE_FIELDS[stage])
    lines += [f"input {label} {digest}" for label, digest in sorted(input_digests.items())]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# stage bodies
# ---------------------------------------------------------------------------

def _toy_denoiser_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return np.eye(dim) + 0.25 * rng.standard_normal((dim, dim))


def _embed_with_toy_denoiser(cfg: RunConfig, bench):
    # Recover structured embeddings from toy samples with the analytic
    # denoiser; the default 3-iteration budget barely moves off the anchor,
    # so this source uses a larger budget internally.
    schedule = embedding.NoiseSchedule.linear(cfg.embed_timesteps)
    denoiser = embedding.LinearToyDenoiser(_toy_denoiser_matrix(bench.train.dim, cfg.seed))
    scale = float(np.mean(np.sqrt(schedule.alpha_bar)))
    anchors = np.stack([
        np.linalg.solve(denoiser.matrix, scale * bench.train.class_points(c).mean(axis=0))
        for c in range(bench.train.class_count)])
    embed_cfg = embedding.EmbedConfig(
        iterations=max(cfg.embed_iterations, 150),
        batch_size=max(cfg.embed_batch_size, 64),
        learning_rate=cfg.embed_learning_rate,
        seed=cfg.seed,
    )
    train = embedding.embed_dataset(bench.train.embeddings, bench.train.labels,
                                    anchors, denoiser, schedule, embed_cfg)
    heldout = embedding.embed_dataset(bench.heldout.embeddings, bench.heldout.labels,
                                      anchors, denoiser, schedule, embed_cfg)
    # test-time points carry no label; start them at the mean anchor
    neutral = anchors.mean(axis=0)
    ood = np.empty_like(bench.ood)
    for i, x in enumerate(bench.ood):
        item_cfg = replace(embed_cfg, seed=embedding.derive_item_seed(cfg.seed, 1_000_000 + i))
        ood[i] = embedding.embed_sample(x, neutral, denoiser, schedule, item_cfg)
    return train, heldout, ood


def stage_embed(cfg: RunConfig, run_dir: Path, dest: Path):
    if cfg.embed_source == "csv":
        train = artifacts.load_embeddings_csv(cfg.data_train_csv)
        heldout = artifacts.load_embeddings_csv(cfg.data_heldout_csv)
        ood = artifacts.load_points_csv(cfg.data_ood_csv)
    else:
        bench = evalharness.make_toy_benchmark(
            cfg.seed, cfg.benchmark_n_per_class,
            noise=cfg.benchmark_noise, margin=cfg.benchmark_margin,
            ood_count=cfg.benchmark_ood_count)
        if cfg.embed_source == "toy-denoiser":
            train, heldout, ood = _embed_with_toy_denoiser(cfg, bench)
        else:
            train, heldout, ood = bench.train, bench.heldout, bench.ood
    artifacts.save_embeddings_csv(train, dest / "embeddings_train.csv")
    artifacts.save_embeddings_csv(heldout, dest / "embeddings_heldout.csv")
    artifacts.save_points_csv(ood, dest / "ood_test.csv")


def stage_train_cvpn(cfg: RunConfig, run_dir: Path, dest: Path):
    train = artifacts.load_embeddings_csv(run_dir / "embeddings_train.csv")
    train_cfg = invariant_training.TrainConfig(
        learning_rate=cfg.cvpn_train_lr,
        iterations=cfg.cvpn_train_iterations,
        batch_size=cfg.cvpn_train_batch,
        seed=cfg.seed,
        variance_percent=cfg.invariants_p,
        num_blocks=cfg.cvpn_num_blocks,
        hidden_width=cfg.cvpn_hidden_width,
    )
    if cfg.invariants_k_override > 0:
        k = cfg.invariants_k_override
    else:
        k = invariant_training.select_num_invariants(train, cfg.invariants_p)
    model = cvpn.build_cvpn(train.dim, k, cfg.cvpn_num_blocks, train.class_count,
                            cfg.cvpn_hidden_width, cfg.seed)
    model, history = invariant_training.train_cvpn(model, train, train_cfg)
    artifacts.save_cvpn(model, dest / "cvpn.txt")
    artifacts.save_loss_history_csv(history, dest / "loss_history.csv")


def stage_fit_density(cfg: RunConfig, run_dir: Path, dest: Path):
    model = artifacts.load_cvpn(run_dir / "cvpn.txt")
    train = artifacts.load_embeddings_csv(run_dir / "embeddings_train.csv")
    vectors = cvpn.cvpn_forward_batch(model, train.embeddings, train.labels)
    bank = density.fit_class_gaussians(vectors, train.labels, cfg.density_lambda,
                                       class_count=model.class_count)
    artifacts.save_bank(bank, dest / "bank.txt")


def stage_sample_outliers(cfg: RunConfig, run_dir: Path, dest: Path):
    model = artifacts.load_cvpn(run_dir / "cvpn.txt")
    bank = artifacts.load_bank(run_dir / "bank.txt")
    max_attempts = cfg.sample_max_attempts if cfg.sample_max_attempts > 0 else None
    outliers = outlier_sampling.synthesize_outliers(
        model, bank, cfg.sample_n_per_class, q=cfg.sample_q,
        max_attempts=max_attempts, seed=cfg.seed)
    artifacts.save_outliers_csv(outliers, dest / "outliers.csv")


def stage_train_classifier(cfg: RunConfig, run_dir: Path, dest: Path):
    train = artifacts.load_embeddings_csv(run_dir / "embeddings_train.csv")
    outliers = artifacts.load_outliers_csv(run_dir / "outliers.csv")
    clf_cfg = ood_classifier.ClassifierConfig(
        epochs=cfg.classifier_epochs,
        learning_rate=cfg.classifier_lr,
        batch_size=cfg.classifier_batch,
        beta=cfg.classifier_beta,
        seed=cfg.seed,
        hidden_width=cfg.classifier_hidden_width,
        phi_hidden=cfg.classifier_phi_hidden,
    )
    clf = ood_classifier.train_energy_classifier(train, outliers, clf_cfg)
    artifacts.save_classifier(clf, dest / "classifier.txt")


def _score_samples(clf, heldout, ood):
    # beta = 0 trains a plain cross-entropy classifier whose scoring head is
    # never updated; fall back to the raw (negated) energy score there.
    if clf.beta > 0:
        id_scores = ood_classifier.ood_scores(clf, heldout.embeddings)
        ood_scores = ood_classifier.ood_scores(clf, ood)
        method = "ncis"
    else:
        id_scores = -ood_classifier.sample_energies(clf, heldout.embeddings)
        ood_scores = -ood_classifier.sample_energies(clf, ood)
        method = "energy"
    return id_scores, ood_scores, method


def stage_evaluate(cfg: RunConfig, run_dir: Path, dest: Path):
    clf = artifacts.load_classifier(run_dir / "classifier.txt")
    heldout = artifacts.load_embeddings_csv(run_dir / "embeddings_heldout.csv")
    ood = artifacts.load_points_csv(run_dir / "ood_test.csv")

    id_scores, ood_scores, method = _score_samples(clf, heldout, ood)
    samples = evalharness.scores_to_samples(id_scores, ood_scores)
    fpr = evalharness.fpr_at_tpr(samples, 0.95)
    auc = evalharness.auroc(samples)
    acc = evalharness.classification_accuracy(
        ood_classifier.predict_labels(clf, heldout.embeddings), heldout.labels)
    dataset = "toy" if cfg.embed_source != "csv" else "csv"
    artifacts.save_metrics_csv([(dataset, method, fpr, auc, acc)], dest / "metrics.csv")

    rows = []
    energies_id = ood_classifier.sample_energies(clf, heldout.embeddings)
    for i, (s, e) in enumerate(zip(id_scores, energies_id)):
        rows.append((i, str(int(heldout.labels[i])), s, e))
    energies_ood = ood_classifier.sample_energies(clf, ood)
    for i, (s, e) in enumerate(zip(ood_scores, energies_ood)):
        rows.append((len(id_scores) + i, "OOD", s, e))
    artifacts.save_scores_csv(rows, dest / "scores.csv")


# Each body reads its inputs from the run directory and writes its outputs
# into ``dest``, a staging directory that ``run_pipeline`` empties into the
# run directory once the body has returned.
_STAGE_BODIES = {
    "embed": stage_embed,
    "train-cvpn": stage_train_cvpn,
    "fit-density": stage_fit_density,
    "sample-outliers": stage_sample_outliers,
    "train-classifier": stage_train_classifier,
    "evaluate": stage_evaluate,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _run_stage(stage, cfg: RunConfig, out_dir: Path):
    """Run one stage body and move its outputs into ``out_dir``; returns
    {output name: sha256}."""
    staging = out_dir / f".{stage}.partial"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    try:
        _STAGE_BODIES[stage](cfg, out_dir, staging)
        digests = {name: _file_digest(staging / name) for name in STAGE_OUTPUTS[stage]}
        for name in STAGE_OUTPUTS[stage]:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return digests


def run_pipeline(cfg: RunConfig, out_dir, stages=None, log=None):
    """Run the requested stages in order; returns {stage: [output paths]}.

    A stage whose manifest record carries its current key and whose outputs
    exist is skipped.  A stage with no record is run, overwriting any stray
    outputs.  A stage whose record carries a different key raises
    ``ArtifactError`` instead of being overwritten.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stages = list(STAGES) if stages is None else list(stages)
    for stage in stages:
        if stage not in _STAGE_BODIES:
            raise PipelineError(f"unknown stage '{stage}'")

    manifest = _load_manifest(out_dir)
    produced = {}
    for stage in stages:
        outputs = [out_dir / name for name in STAGE_OUTPUTS[stage]]
        try:
            inputs = _stage_input_digests(stage, cfg, out_dir)
        except NcisError as err:
            raise PipelineError(f"stage '{stage}': {err}") from err
        key = stage_key(stage, cfg, inputs)
        record = manifest["stages"].get(stage)
        if record is not None:
            if record.get("key") != key:
                raise ArtifactError(
                    f"stage '{stage}': its artifacts in {out_dir} were produced under a "
                    f"different configuration or from different inputs; refusing to reuse "
                    f"or overwrite them (use a fresh output directory)")
            if all(p.exists() for p in outputs):
                if log:
                    log(f"[{stage}] outputs up to date, skipping")
                produced[stage] = outputs
                continue
        try:
            digests = _run_stage(stage, cfg, out_dir)
        except NcisError as err:
            raise PipelineError(f"stage '{stage}': {err}") from err
        manifest["stages"][stage] = {"key": key, "inputs": inputs, "outputs": digests}
        _store_manifest(out_dir, manifest)
        if log:
            log(f"[{stage}] wrote {', '.join(p.name for p in outputs)}")
        produced[stage] = outputs
    return produced


DEFAULT_SWEEP = (1e-6, 1e-5, 1e-4, 1e-3)

# the stages before the first one that reads lambda, which a sweep runs once
SWEEP_SHARED_STAGES = tuple(itertools.takewhile(
    lambda stage: "density_lambda" not in STAGE_FIELDS[stage], STAGES))


def _sweep_dir_names(lambdas):
    """One ``lambda_<value>`` directory name per value; ``ParseError`` for a
    value ``density.lambda`` would refuse, or for two values sharing a name."""
    if not lambdas:
        raise ParseError("the lambda sweep needs at least one value")
    _, _, in_range, _ = KEY_TABLE["density.lambda"]
    names = {}
    for lam in lambdas:
        if not in_range(float(lam)):
            raise ParseError(f"lambda values must be finite and > 0, got {lam!r}")
        name = f"lambda_{lam:.0e}"
        if name in names:
            raise ParseError(f"lambda values {names[name]!r} and {lam!r} would share "
                             f"the output directory {name}")
        names[name] = lam
    return list(names)


def _copy_shared_stages(src: Path, dst: Path):
    """Give ``dst`` the outputs and manifest records of ``src``'s shared stages,
    unless ``dst`` already records one of them."""
    dst.mkdir(parents=True, exist_ok=True)
    manifest = _load_manifest(dst)
    if any(stage in manifest["stages"] for stage in SWEEP_SHARED_STAGES):
        return
    records = _load_manifest(src)["stages"]
    for stage in SWEEP_SHARED_STAGES:
        for name in STAGE_OUTPUTS[stage]:
            shutil.copyfile(src / name, dst / name)
        manifest["stages"][stage] = records[stage]
    _store_manifest(dst, manifest)


def sweep_lambda(cfg: RunConfig, out_dir, lambdas=DEFAULT_SWEEP, log=None):
    """Full pipeline per regularization value; returns the sweep table rows.

    Each value runs in its own ``lambda_<value>`` subdirectory with the same
    seed.  The stages before fit-density do not read lambda, so the first
    value runs in full; each further directory first receives copies of that
    directory's embed and train-cvpn outputs and manifest records, which
    ``run_pipeline`` then skips by key.  The cVPN is trained once, and every
    directory still holds the full artifact set, byte for byte that of a
    separate run at its value.
    """
    lambdas = list(lambdas)
    names = _sweep_dir_names(lambdas)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    first = out_dir / names[0]
    rows = []
    for lam, name in zip(lambdas, names):
        sub_cfg = replace(cfg, density_lambda=float(lam))
        sub_dir = out_dir / name
        if sub_dir != first:
            _copy_shared_stages(first, sub_dir)
        run_pipeline(sub_cfg, sub_dir, log=log)
        model = artifacts.load_cvpn(sub_dir / "cvpn.txt")
        outliers = artifacts.load_outliers_csv(sub_dir / "outliers.csv")
        magnitude = outlier_sampling.mean_invariant_magnitude(model, outliers)
        metrics = artifacts.load_metrics_csv(sub_dir / "metrics.csv")
        _, _, fpr, auc, acc = metrics[0]
        rows.append((float(lam), fpr, auc, acc, magnitude))
    artifacts.save_sweep_csv(rows, out_dir / "sweep_metrics.csv")
    return rows
