"""Pipeline orchestration: stages, artifact reuse, and the lambda sweep.

Stages communicate exclusively through versioned artifact files in the output
directory, so every stage can also run standalone.  ``STAGES`` holds one
record per stage, in run order: its body, the configuration fields the body
reads (named by key namespace, so a new ``cvpn.*`` key joins train-cvpn's
fields), the artifacts it reads (plus the external CSVs when
``embed.source = csv``) and writes, and its command-line help.  A body never
touches the output directory: the driver loads each input with the
``artifacts`` loader that ``FORMATS`` names for its file, passes the objects
to the body, and saves what the body returns the same way.  A stage's
cache key is a sha256 over the canonical ``key = value`` lines of its fields
and the sha256 of each file it reads, so the key changes exactly when
something it reads changes.

One call parses each file at most once, and no file it wrote: every object
``_run_stage`` loads or saves is kept under the file's name and sha256 and
handed to each later stage that reads a file with those bytes.  A sweep
hands its shared stages' objects to every branch: it lists each branch with
them in ``_branches``, and one function runs a branch by its index there,
inline or in a worker the sweep forks itself, which inherits the list and is
sent only indices, through a pipe of its own.  This is right because saving
and loading an object gives it back field for field, and because no body
changes its inputs; the test suite checks both.

``manifest.json`` holds one record per completed stage: its key and the
digests of the files it read and wrote.  A stage is skipped when its record
carries the current key and its outputs are present with the recorded
digests, run when it has no record (stray outputs of a crashed run are
overwritten), and refused when its record carries a different key or an
output was changed: stale artifacts are never silently reused, nor
overwritten.  A stage run on its own is refused, too, when a recorded stage
upstream of it carries a different key.  A stage writes its outputs into a
staging directory; they are moved into place with ``os.replace``, so no
output is ever left half written, and the manifest is written after them.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import pickle
import select
import shutil
import sys
from collections import namedtuple
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import artifacts, cvpn, density, embedding, evalharness, invariant_training
from . import ood_classifier, outlier_sampling
from .config import CSV_SOURCE_FIELDS, KEY_TABLE, RunConfig, config_lines, namespace_fields
from .data import as_rows
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
# stage bodies: each takes the configuration and the objects loaded from its
# input artifacts, in STAGES order, and returns its output objects in STAGES
# order; the driver (``_run_stage``) loads and saves them
# ---------------------------------------------------------------------------

def _embed_with_toy_denoiser(cfg: RunConfig, bench):
    # Recover structured embeddings from toy samples with the analytic denoiser
    schedule = embedding.NoiseSchedule.linear(cfg.embed_timesteps)
    dim = bench.train.dim
    denoiser = embedding.LinearToyDenoiser(
        np.eye(dim) + 0.25 * np.random.default_rng(cfg.seed).standard_normal((dim, dim)))
    scale = float(np.mean(np.sqrt(schedule.alpha_bar)))
    anchors = np.stack([
        np.linalg.solve(denoiser.matrix, scale * bench.train.class_points(c).mean(axis=0))
        for c in range(bench.train.class_count)])
    train = embedding.embed_dataset(bench.train.embeddings, bench.train.labels,
                                    anchors, denoiser, schedule, cfg)
    # held-out and OOD items draw from streams of their own, apart from the
    # train items' derive_item_seed(cfg.seed, i)
    heldout_seeds = [embedding.derive_item_seed(cfg.seed, 2_000_000 + i)
                     for i in range(len(bench.heldout))]
    heldout = embedding.embed_dataset(bench.heldout.embeddings, bench.heldout.labels,
                                      anchors, denoiser, schedule, cfg, item_seeds=heldout_seeds)
    # test-time points carry no label; start them at the mean anchor
    ood_seeds = [embedding.derive_item_seed(cfg.seed, 1_000_000 + i) for i in range(len(bench.ood))]
    ood = embedding.embed_dataset(bench.ood, np.zeros(len(bench.ood), dtype=np.int64),
                                  anchors.mean(axis=0)[None], denoiser, schedule, cfg,
                                  item_seeds=ood_seeds)
    return train, heldout, ood.embeddings


def stage_embed(cfg: RunConfig):
    if cfg.embed_source == "csv":
        return (artifacts.load_embeddings_csv(cfg.data_train_csv),
                artifacts.load_embeddings_csv(cfg.data_heldout_csv),
                artifacts.load_points_csv(cfg.data_ood_csv))
    bench = evalharness.make_toy_benchmark(
        cfg.seed, cfg.benchmark_n_per_class,
        noise=cfg.benchmark_noise, margin=cfg.benchmark_margin,
        ood_count=cfg.benchmark_ood_count)
    if cfg.embed_source == "toy-denoiser":
        return _embed_with_toy_denoiser(cfg, bench)
    return bench.train, bench.heldout, bench.ood


def stage_train_cvpn(cfg: RunConfig, train):
    if cfg.invariants_k_override > 0:
        k = cfg.invariants_k_override
    else:
        k = invariant_training.select_num_invariants(train, cfg.invariants_p)
    model = cvpn.build_cvpn(train.dim, k, cfg.cvpn_num_blocks, train.class_count,
                            cfg.cvpn_hidden_width, cfg.seed)
    return invariant_training.train_cvpn(model, train, cfg)


def stage_fit_density(cfg: RunConfig, model, train):
    vectors = cvpn.cvpn_forward_batch(model, train.embeddings, train.labels)
    return (density.fit_class_gaussians(vectors, train.labels, cfg.density_lambda,
                                        class_count=model.class_count),)


def stage_sample_outliers(cfg: RunConfig, model, bank):
    max_attempts = cfg.sample_max_attempts if cfg.sample_max_attempts > 0 else None
    return (outlier_sampling.synthesize_outliers(
        model, bank, cfg.sample_n_per_class, q=cfg.sample_q,
        max_attempts=max_attempts, seed=cfg.seed),)


def stage_train_classifier(cfg: RunConfig, train, outliers):
    return (ood_classifier.train_energy_classifier(train, outliers, cfg),)


def stage_evaluate(cfg: RunConfig, clf, heldout, ood):
    n = len(heldout)
    ood = as_rows(ood, heldout.dim, "the OOD points")
    scored = ood_classifier.score_rows(clf, np.concatenate([heldout.embeddings, ood]))
    # beta = 0 trains a plain cross-entropy classifier whose scoring head is
    # never updated; fall back to the raw (negated) energy score there.
    if clf.beta > 0:
        scores, method = scored.scores, "ncis"
    else:
        scores, method = -scored.energies, "energy"
    samples = evalharness.scores_to_samples(scores[:n], scores[n:])
    fpr = evalharness.fpr_at_tpr(samples, 0.95)
    auc = evalharness.auroc(samples)
    acc = evalharness.classification_accuracy(scored.labels[:n], heldout.labels)
    dataset = "toy" if cfg.embed_source != "csv" else "csv"
    tags = [str(int(label)) for label in heldout.labels] + ["OOD"] * len(ood)
    rows = zip(itertools.count(), tags, scores, scored.energies)
    return [(dataset, method, fpr, auc, acc)], list(rows)


# a stage: its body, the RunConfig fields the body reads, the artifacts the
# driver loads for it and saves from it, in body argument and result order,
# and its help line
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

# the format of each artifact file: it is read with ``artifacts.load_<format>``
# and written with ``artifacts.save_<format>``, looked up at each call
FORMATS = {
    "embeddings_train.csv": "embeddings_csv",
    "embeddings_heldout.csv": "embeddings_csv",
    "ood_test.csv": "points_csv",
    "cvpn.txt": "cvpn",
    "loss_history.csv": "loss_history_csv",
    "bank.txt": "bank",
    "outliers.csv": "outliers_csv",
    "classifier.txt": "classifier",
    "metrics.csv": "metrics_csv",
    "scores.csv": "scores_csv",
}


def _load(run_dir: Path, name, objects=None, digest=None):
    """The object the artifact ``run_dir / name`` holds.

    ``objects`` maps (file name, sha256 of the file's bytes) to the object
    such a file holds: the object is taken from there when present, else
    parsed with ``artifacts.load_<format>`` and added.  ``digest`` is the
    file's sha256 when the caller already has it.
    """
    objects = {} if objects is None else objects
    key = (name, digest or _file_digest(run_dir / name))
    if key not in objects:
        objects[key] = getattr(artifacts, f"load_{FORMATS[name]}")(run_dir / name)
    return objects[key]


def _run_stage(stage, cfg: RunConfig, out_dir: Path, inputs, objects):
    """Run the stage's body on its inputs, save what it returns into a staging
    directory and move those files into ``out_dir``; returns {output name:
    sha256}.  ``inputs`` holds the sha256 of each input file; each input is
    taken from ``objects`` (see ``_load``), and each output is added to it."""
    staging = out_dir / f".{stage}.partial"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    spec = STAGES[stage]
    try:
        results = spec.body(cfg, *(_load(out_dir, name, objects, inputs[name])
                                   for name in spec.inputs))
        for name, obj in zip(spec.outputs, results, strict=True):
            getattr(artifacts, f"save_{FORMATS[name]}")(obj, staging / name)
        digests = {name: _file_digest(staging / name) for name in spec.outputs}
        for name in spec.outputs:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    objects.update(((name, digests[name]), obj) for name, obj in zip(spec.outputs, results))
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


def run_pipeline(cfg: RunConfig, out_dir, stages=None, log=None, objects=None):
    """Run the requested stages, each once and in ``STAGES`` order whatever
    the order they are listed in; returns {stage: [output paths]}.

    A stage whose manifest record carries its current key and whose outputs
    exist is skipped, or refused with ``ArtifactError`` when an output's
    digest differs from its record.  A stage with no record is run,
    overwriting any stray outputs.  A stage whose record carries a different
    key raises ``ArtifactError`` instead of being overwritten, and so does a requested
    stage when an unrequested stage upstream of it (in ``STAGES`` order) has
    a record with a different key; unrecorded upstream stages are not checked.

    ``objects`` holds the artifact objects the call reuses and adds to (see
    ``_load``); it starts empty unless the caller, like ``sweep_lambda``,
    passes in the objects of an earlier call.
    """
    objects = {} if objects is None else objects
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    order = list(STAGES)
    stages = order if stages is None else list(stages)
    for stage in stages:
        if stage not in STAGES:
            raise PipelineError(f"unknown stage '{stage}'")
    stages = [stage for stage in order if stage in stages]

    manifest = _load_manifest(out_dir)
    produced = {}
    for stage in stages:
        for upstream in order[:order.index(stage)]:
            if upstream not in stages and upstream in manifest["stages"]:
                _checked_key(upstream, cfg, out_dir, manifest)
        outputs = [out_dir / name for name in STAGES[stage].outputs]
        inputs, key = _checked_key(stage, cfg, out_dir, manifest)
        record = manifest["stages"].get(stage)
        if record is not None and all(p.exists() for p in outputs):
            for path in outputs:
                if _file_digest(path) != record.get("outputs", {}).get(path.name):
                    raise ArtifactError(
                        f"stage '{stage}': {path} differs from the file the stage wrote; "
                        f"refusing to reuse or overwrite it (use a fresh output directory)")
            if log:
                log(f"[{stage}] outputs up to date, skipping")
            produced[stage] = outputs
            continue
        try:
            digests = _run_stage(stage, cfg, out_dir, inputs, objects)
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
    return int(value) if value.isdecimal() and int(value) > 0 else default


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


# the sweep's branches, each (cfg, directory, stages, shared objects), while
# ``sweep_lambda`` runs them; a worker forked by it inherits the list (see
# ``_branch_results``), and the sweep empties it before returning.  One list
# per process, so a process runs one sweep at a time.
_branches = []


def _sweep_branch(index):
    """Branch ``index`` of ``_branches``: run its stages in its directory and
    read back its sweep row.  Its shared objects are the shared stages' (see
    ``_load``); the branch adds its own to a copy, which ends with it.

    Returns ``(row, log lines, error)``.  When a stage fails, ``row`` is None
    and ``error`` is its ``NcisError``, so the caller can print the lines
    written before the failure and then raise it.
    """
    cfg, sub_dir, stages, shared = _branches[index]
    lines = []
    objects = dict(shared)
    try:
        run_pipeline(cfg, sub_dir, stages=stages, log=lines.append, objects=objects)
        magnitude = outlier_sampling.mean_invariant_magnitude(
            _load(sub_dir, "cvpn.txt", objects), _load(sub_dir, "outliers.csv", objects))
        _, _, fpr, auc, acc = _load(sub_dir, "metrics.csv", objects)[0]
    except NcisError as err:
        return None, lines, err
    return (cfg.density_lambda, fpr, auc, acc, magnitude), lines, None


def _serve_branches(tasks, results, parent_ends):
    """A forked worker's life: close the parent's ends of the workers' pipes
    (``parent_ends``), then run each branch whose index arrives on the
    ``tasks`` pipe, one per line, and pickle its result into the ``results``
    pipe, until ``tasks`` closes.  It leaves through ``os._exit``, never back
    into the sweep's frames."""
    status = 1
    try:
        for fd in parent_ends:
            os.close(fd)
        with open(tasks, "rb") as tasks, open(results, "wb") as results:
            for line in tasks:
                try:
                    result = _sweep_branch(int(line))
                except Exception as err:  # the parent raises it, as an inline branch would
                    result = None, [], err
                pickle.dump(result, results)
                results.flush()
        status = 0
    finally:
        os._exit(status)


def _lost_worker(index, pid):
    """The result of branch ``index`` when its worker ``pid`` ended without
    one: a ``PipelineError`` naming the value and the worker's exit status."""
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    lam = _branches[index][0].density_lambda
    return None, [], PipelineError(f"lambda {lam!r}: its sweep worker ended without a "
                                   f"result (exit status {status})")


def _branch_results(workers):
    """The result of each of ``_branches`` (see ``_sweep_branch``), in
    index order.

    With two workers or more, where fork is available and safe (not on
    macOS), the branches run in that many processes forked from this one,
    each with a pipe of its own each way: a worker is sent the next unstarted
    index when it returns a result, and none once some branch has failed.
    A worker that ends without a result fails its branch.  Every worker is
    reaped when the results end or the caller closes the generator; one
    still running its branch finishes it first.  Otherwise the branches run
    here, one at a time.
    """
    if workers < 2 or sys.platform == "darwin" or not hasattr(os, "fork"):
        yield from map(_sweep_branch, range(len(_branches)))
        return
    unstarted = iter(range(len(_branches)))
    failed = False
    running = {}  # each worker's result pipe -> the worker
    results = {}

    def dispatch(worker):
        worker.index = None if failed else next(unstarted, None)
        if worker.index is None:
            worker.tasks.close()
        else:
            worker.tasks.write(f"{worker.index}\n")
            worker.tasks.flush()

    try:
        parent_ends = []
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            parent_ends += [task_w, result_r]
            try:
                pid = os.fork()
            except OSError:
                for fd in (task_r, task_w, result_r, result_w):
                    os.close(fd)
                raise
            if pid == 0:
                _serve_branches(task_r, result_w, parent_ends)
            os.close(task_r)
            os.close(result_w)
            running[open(result_r, "rb")] = SimpleNamespace(pid=pid, tasks=open(task_w, "w"))
        for worker in running.values():
            dispatch(worker)
        for index in range(len(_branches)):
            while index not in results:
                busy = [pipe for pipe, worker in running.items() if worker.index is not None]
                if not busy:
                    return
                for pipe in select.select(busy, [], [])[0]:
                    worker = running[pipe]
                    try:
                        results[worker.index] = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):
                        del running[pipe]
                        pipe.close()
                        worker.tasks.close()
                        results[worker.index] = _lost_worker(worker.index, worker.pid)
                    failed = failed or results[worker.index][2] is not None
                    if pipe in running:
                        dispatch(worker)
            yield results.pop(index)
    finally:
        for pipe, worker in running.items():
            worker.tasks.close()
            pipe.close()
        for worker in running.values():
            os.waitpid(worker.pid, 0)


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
    for byte that of a separate run at its value.  Every branch is handed
    the objects the shared stages wrote, so it parses none of their files.

    The per-value branches (fit-density onward) are independent.  The sweep
    lists them in ``_branches`` and runs ``_sweep_branch`` on their indices
    (see ``_branch_results``): in worker processes it forks with ``os.fork``,
    one per usable CPU left after BLAS threads and at most one per value
    (see ``_sweep_workers``), or inline when that leaves one worker or fork
    is unavailable or unsafe.  Each worker is sent the next unstarted index
    through its own pipe when it returns a result, and pickles each result
    back through another.  Each branch's log lines are passed to ``log``
    when it finishes, in value order, so the lines and their order match a
    one-at-a-time sweep.  A failing value raises its ``PipelineError`` once
    every earlier value has finished; branches already started run to
    completion, but values still waiting for a worker may not run.  A worker
    that dies, or whose pipe ends before its result, fails its value with a
    ``PipelineError`` naming the value and the worker's exit status.  Every
    worker is reaped with ``os.waitpid`` before the call returns or raises,
    and ``_branches`` is empty again then.
    """
    lambdas = list(lambdas)
    names = _sweep_dir_names(lambdas)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dirs = [out_dir / name for name in names]
    cfgs = [replace(cfg, density_lambda=float(lam)) for lam in lambdas]
    shared = {}
    run_pipeline(cfgs[0], dirs[0], stages=SWEEP_SHARED_STAGES, log=log, objects=shared)
    for sub_dir in dirs[1:]:
        _copy_shared_stages(dirs[0], sub_dir)
    order = list(STAGES)
    stages = [order[len(SWEEP_SHARED_STAGES):]] + [order] * (len(dirs) - 1)
    _branches[:] = zip(cfgs, dirs, stages, itertools.repeat(shared))
    try:
        with contextlib.closing(_branch_results(_sweep_workers(len(_branches)))) as results:
            rows = _collect_rows(results, log)
    finally:
        _branches.clear()
    artifacts.save_sweep_csv(rows, out_dir / "sweep_metrics.csv")
    return rows
