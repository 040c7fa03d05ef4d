"""Pipeline orchestration: stages, artifact reuse, and the lambda sweep.

Stages communicate exclusively through versioned artifact files in the output
directory, so every stage can also run standalone.  ``STAGES`` holds one
record per stage, in run order: its body, the configuration fields the body
reads (named by key namespace, so a new ``cvpn.*`` key joins train-cvpn's
fields), the artifacts it reads (plus the external CSVs when
``embed.source = csv``) and writes, and its command-line help.  A stage's
cache key is a sha256 over the canonical ``key = value`` lines of its fields
and the sha256 of each file it reads, so the key changes exactly when
something it reads changes.

``manifest.json`` holds one record per completed stage: its key and the
digests of the files it read and wrote.  A stage is skipped when its record
carries the current key and its outputs are present, run when it has no
record (stray outputs of a crashed run are overwritten), and refused when its
record carries a different key: stale artifacts are never silently reused,
nor overwritten.  A stage run on its own is refused, too, when a recorded
stage upstream of it carries a different key.  A stage writes its outputs
into a staging directory; they are moved into place with ``os.replace``, so
no output is ever left half written, and the manifest is written after them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import sys
from collections import namedtuple
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import artifacts, cvpn, density, embedding, evalharness, invariant_training
from . import ood_classifier, outlier_sampling
from .config import CSV_SOURCE_FIELDS, KEY_TABLE, RunConfig, config_lines, namespace_fields
from .errors import ArtifactError, NcisError, ParseError, PipelineError

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
    paths = {name: Path(out_dir) / name for name in STAGES[stage].inputs}
    if stage == "embed" and cfg.embed_source == "csv":
        paths.update((getattr(cfg, f), Path(getattr(cfg, f))) for f in CSV_SOURCE_FIELDS)
    return {label: _file_digest(path) for label, path in paths.items()}


def stage_key(stage, cfg: RunConfig, input_digests):
    """sha256 over the stage's configuration lines and its input digests."""
    lines = config_lines(cfg, STAGES[stage].fields)
    lines += [f"input {label} {digest}" for label, digest in sorted(input_digests.items())]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# stage bodies: each reads its inputs from the run directory and writes its
# outputs into ``dest``, a staging directory that ``run_pipeline`` empties
# into the run directory once the body has returned
# ---------------------------------------------------------------------------

def _toy_denoiser_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return np.eye(dim) + 0.25 * rng.standard_normal((dim, dim))


def _embed_with_toy_denoiser(cfg: RunConfig, bench):
    # Recover structured embeddings from toy samples with the analytic denoiser
    schedule = embedding.NoiseSchedule.linear(cfg.embed_timesteps)
    denoiser = embedding.LinearToyDenoiser(_toy_denoiser_matrix(bench.train.dim, cfg.seed))
    scale = float(np.mean(np.sqrt(schedule.alpha_bar)))
    anchors = np.stack([
        np.linalg.solve(denoiser.matrix, scale * bench.train.class_points(c).mean(axis=0))
        for c in range(bench.train.class_count)])
    train = embedding.embed_dataset(bench.train.embeddings, bench.train.labels,
                                    anchors, denoiser, schedule, cfg)
    heldout = embedding.embed_dataset(bench.heldout.embeddings, bench.heldout.labels,
                                      anchors, denoiser, schedule, cfg)
    # test-time points carry no label; start them at the mean anchor
    ood_seeds = [embedding.derive_item_seed(cfg.seed, 1_000_000 + i) for i in range(len(bench.ood))]
    ood = embedding.embed_dataset(bench.ood, np.zeros(len(bench.ood), dtype=np.int64),
                                  anchors.mean(axis=0)[None], denoiser, schedule, cfg,
                                  item_seeds=ood_seeds)
    return train, heldout, ood.embeddings


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
    if cfg.invariants_k_override > 0:
        k = cfg.invariants_k_override
    else:
        k = invariant_training.select_num_invariants(train, cfg.invariants_p)
    model = cvpn.build_cvpn(train.dim, k, cfg.cvpn_num_blocks, train.class_count,
                            cfg.cvpn_hidden_width, cfg.seed)
    model, history = invariant_training.train_cvpn(model, train, cfg)
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
    clf = ood_classifier.train_energy_classifier(train, outliers, cfg)
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


# a stage: its body, the RunConfig fields the body reads, the artifacts it
# reads from and writes to the output directory, and its help line
Stage = namedtuple("Stage", "body fields inputs outputs help")


def _stage(body, namespaces, inputs, outputs, help):
    return Stage(body, namespace_fields(namespaces), inputs, outputs, help)


# a field left out of a stage's namespaces would let a changed value reuse
# stale outputs (tests/test_stage_keys.py checks this)
STAGES = {
    "embed": _stage(
        stage_embed, ("seed", "benchmark", "embed", "data"), (),
        ("embeddings_train.csv", "embeddings_heldout.csv", "ood_test.csv"),
        "produce the labeled embedding CSVs (and the OOD test points)"),
    "train-cvpn": _stage(
        stage_train_cvpn, ("seed", "invariants", "cvpn"), ("embeddings_train.csv",),
        ("cvpn.txt", "loss_history.csv"),
        "select the invariant count and fit the volume-preserving network"),
    "fit-density": _stage(
        stage_fit_density, ("density",), ("cvpn.txt", "embeddings_train.csv"), ("bank.txt",),
        "fit the class-conditional Gaussians in invariant space"),
    "sample-outliers": _stage(
        stage_sample_outliers, ("seed", "sample"), ("cvpn.txt", "bank.txt"), ("outliers.csv",),
        "rejection-sample boundary outliers and map them back"),
    "train-classifier": _stage(
        stage_train_classifier, ("seed", "classifier"), ("embeddings_train.csv", "outliers.csv"),
        ("classifier.txt",),
        "train the energy-regularized classifier on ID data plus outliers"),
    "evaluate": _stage(
        stage_evaluate, ("embed.source",),
        ("classifier.txt", "embeddings_heldout.csv", "ood_test.csv"), ("metrics.csv", "scores.csv"),
        "score held-out ID and OOD points and write the metrics CSV"),
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
    outputs = STAGES[stage].outputs
    try:
        STAGES[stage].body(cfg, out_dir, staging)
        digests = {name: _file_digest(staging / name) for name in outputs}
        for name in outputs:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return digests


def _checked_key(stage, cfg: RunConfig, out_dir: Path, manifest):
    """(input digests, key) of ``stage`` now; ``ArtifactError`` when its
    manifest record carries a different key."""
    try:
        inputs = _stage_input_digests(stage, cfg, out_dir)
    except NcisError as err:
        raise PipelineError(f"stage '{stage}': {err}") from err
    key = stage_key(stage, cfg, inputs)
    record = manifest["stages"].get(stage)
    if record is not None and record.get("key") != key:
        raise ArtifactError(
            f"stage '{stage}': its artifacts in {out_dir} were produced under a "
            f"different configuration or from different inputs; refusing to reuse "
            f"or overwrite them (use a fresh output directory)")
    return inputs, key


def run_pipeline(cfg: RunConfig, out_dir, stages=None, log=None):
    """Run the requested stages in order; returns {stage: [output paths]}.

    A stage whose manifest record carries its current key and whose outputs
    exist is skipped.  A stage with no record is run, overwriting any stray
    outputs.  A stage whose record carries a different key raises
    ``ArtifactError`` instead of being overwritten, and so does a requested
    stage when an unrequested stage upstream of it (in ``STAGES`` order) has
    a record with a different key; unrecorded upstream stages are not checked.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    order = list(STAGES)
    stages = order if stages is None else list(stages)
    for stage in stages:
        if stage not in STAGES:
            raise PipelineError(f"unknown stage '{stage}'")

    manifest = _load_manifest(out_dir)
    produced = {}
    for stage in stages:
        for upstream in order[:order.index(stage)]:
            if upstream not in stages and upstream in manifest["stages"]:
                _checked_key(upstream, cfg, out_dir, manifest)
        outputs = [out_dir / name for name in STAGES[stage].outputs]
        inputs, key = _checked_key(stage, cfg, out_dir, manifest)
        if stage in manifest["stages"] and all(p.exists() for p in outputs):
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
    lambda stage: "density_lambda" not in STAGES[stage].fields, STAGES))


def _sweep_dir_names(lambdas):
    """One ``lambda_<value>`` directory name per value; ``ParseError`` for a
    value ``density.lambda`` would refuse, or for two values sharing a name."""
    if not lambdas:
        raise ParseError("the lambda sweep needs at least one value")
    in_range, _ = KEY_TABLE["density.lambda"]
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
        for name in STAGES[stage].outputs:
            shutil.copyfile(src / name, dst / name)
        manifest["stages"][stage] = records[stage]
    _store_manifest(dst, manifest)


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _env_count(name, default):
    value = os.environ.get(name, "").strip()
    return int(value) if value.isdigit() and int(value) > 0 else default


def _sweep_workers(branches):
    """Worker processes for ``branches`` sweep branches: the usable CPUs over
    the threads each process's BLAS may run, at most one per branch.

    Workers on top of a multi-threaded BLAS oversubscribe the CPUs: with two
    CPUs and BLAS at its default of one thread per CPU, two workers made a
    sweep 3-7x slower than running its branches inline.  The BLAS thread
    count is read as OpenBLAS and MKL read it: their own variable, else
    OMP_NUM_THREADS, else every CPU; the larger of the two counts.
    """
    cpus = _usable_cpus()
    omp = _env_count("OMP_NUM_THREADS", cpus)
    blas = max(_env_count("OPENBLAS_NUM_THREADS", omp), _env_count("MKL_NUM_THREADS", omp))
    return min(branches, max(1, cpus // blas))


def _fork_pool(workers):
    """A pool of ``workers`` forked processes; None for fewer than two, or
    where fork is unavailable or, as on macOS, unsafe.  Forked, not spawned:
    a spawned worker would import numpy again before its first task."""
    if workers < 2 or sys.platform == "darwin":
        return None
    # imported here so that `import ncis` does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _sweep_branch(cfg: RunConfig, sub_dir: Path, stages):
    """One value's branch of the sweep: run ``stages`` in ``sub_dir`` and read
    back its sweep row.

    Returns ``(row, log lines, error)``.  When a stage fails, ``row`` is None
    and ``error`` is its ``NcisError``, so the caller can print the lines
    written before the failure and then raise it.
    """
    lines = []
    try:
        run_pipeline(cfg, sub_dir, stages=stages, log=lines.append)
        model = artifacts.load_cvpn(sub_dir / "cvpn.txt")
        outliers = artifacts.load_outliers_csv(sub_dir / "outliers.csv")
        magnitude = outlier_sampling.mean_invariant_magnitude(model, outliers)
        _, _, fpr, auc, acc = artifacts.load_metrics_csv(sub_dir / "metrics.csv")[0]
    except NcisError as err:
        return None, lines, err
    return (cfg.density_lambda, fpr, auc, acc, magnitude), lines, None


def _collect_rows(results, log):
    """Sweep rows from branch results in value order, printing each branch's
    lines through ``log``; raises the first branch error met."""
    rows = []
    for row, lines, err in results:
        if log:
            for line in lines:
                log(line)
        if err is not None:
            raise err
        rows.append(row)
    return rows


def sweep_lambda(cfg: RunConfig, out_dir, lambdas=DEFAULT_SWEEP, log=None):
    """Full pipeline per regularization value; returns the sweep table rows.

    Each value runs in its own ``lambda_<value>`` subdirectory with the same
    seed.  The stages before fit-density do not read lambda, so they run once,
    in the first value's directory; every further directory then receives
    copies of their outputs and manifest records, which ``run_pipeline``
    skips by key.  Every directory still holds the full artifact set, byte
    for byte that of a separate run at its value.

    The per-value branches (fit-density onward) are independent.  They run in
    worker processes forked from this one, one per usable CPU left after
    BLAS threads and at most one per value (see ``_sweep_workers``), or
    inline when that leaves one worker or fork is unavailable or unsafe.  Each
    branch's log lines are passed to ``log`` when it finishes, in value
    order, so the lines and their order match a one-at-a-time sweep.  A
    failing value raises its ``PipelineError`` once every earlier value has
    finished; branches already started run to completion, but values still
    waiting for a worker may not run.  No worker outlives the call.
    """
    lambdas = list(lambdas)
    names = _sweep_dir_names(lambdas)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dirs = [out_dir / name for name in names]
    cfgs = [replace(cfg, density_lambda=float(lam)) for lam in lambdas]
    run_pipeline(cfgs[0], dirs[0], stages=SWEEP_SHARED_STAGES, log=log)
    for sub_dir in dirs[1:]:
        _copy_shared_stages(dirs[0], sub_dir)
    order = list(STAGES)
    branches = [(cfgs[0], dirs[0], order[len(SWEEP_SHARED_STAGES):])]
    branches += [(sub_cfg, sub_dir, order) for sub_cfg, sub_dir in zip(cfgs[1:], dirs[1:])]

    pool = _fork_pool(_sweep_workers(len(branches)))
    if pool is None:
        rows = _collect_rows((_sweep_branch(*branch) for branch in branches), log)
    else:
        try:
            futures = [pool.submit(_sweep_branch, *branch) for branch in branches]
            rows = _collect_rows((future.result() for future in futures), log)
        finally:
            pool.shutdown(cancel_futures=True)
    artifacts.save_sweep_csv(rows, out_dir / "sweep_metrics.csv")
    return rows
