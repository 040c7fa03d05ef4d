"""Per-stage cache keys: skip, recompute and refuse, and the sweep's reuse."""

import copy
import filecmp
import json
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import pytest

import ncis
from ncis import artifacts, invariant_training, outlier_sampling, pipeline
from ncis.config import CSV_SOURCE_FIELDS, RunConfig, config_lines
from ncis.errors import ArtifactError, ParseError, PipelineError, SamplingError

from conftest import assert_same, config_with

TINY = """
seed = 5
benchmark.n_per_class = 40
benchmark.ood_count = 120
cvpn.train_iterations = 200
cvpn.train_batch = 64
sample.n_per_class = 60
classifier.epochs = 20
"""


def tiny_cfg(extra=""):
    return config_with(TINY, extra)


def csv_source(src):
    return (f"embed.source = csv\n"
            f"data.train_csv = {src / 'embeddings_train.csv'}\n"
            f"data.heldout_csv = {src / 'embeddings_heldout.csv'}\n"
            f"data.ood_csv = {src / 'ood_test.csv'}\n")


def artifact_names(run_dir):
    return sorted(p.name for p in run_dir.iterdir() if p.name != pipeline.MANIFEST_NAME)


def test_stray_output_without_record_is_recomputed(tmp_path):
    # a stage that died after writing one output leaves it with no record
    out = tmp_path / "run"
    pipeline.run_pipeline(tiny_cfg(), out, stages=["embed"])
    (out / "cvpn.txt").write_text("half-written\n")
    messages = []
    pipeline.run_pipeline(tiny_cfg(), out, stages=["train-cvpn"], log=messages.append)
    assert messages == ["[train-cvpn] wrote cvpn.txt, loss_history.csv"]
    fresh = tmp_path / "fresh"
    pipeline.run_pipeline(tiny_cfg(), fresh, stages=["embed", "train-cvpn"])
    assert (out / "cvpn.txt").read_bytes() == (fresh / "cvpn.txt").read_bytes()


def test_edited_external_csv_is_not_reused(tmp_path):
    src = tmp_path / "src"
    pipeline.run_pipeline(tiny_cfg(), src, stages=["embed"])
    cfg = tiny_cfg(csv_source(src))
    out = tmp_path / "fromcsv"
    pipeline.run_pipeline(cfg, out, stages=["embed"])
    train = src / "embeddings_train.csv"
    train.write_text("".join(train.read_text().splitlines(keepends=True)[:-10]))
    messages = []
    with pytest.raises(ArtifactError, match="different configuration"):
        pipeline.run_pipeline(cfg, out, stages=["embed"], log=messages.append)
    assert not any("skipping" in m for m in messages)


def test_no_staging_files_left_behind(tmp_path):
    out = tmp_path / "run"
    pipeline.run_pipeline(tiny_cfg(), out)
    names = sorted(name for stage in pipeline.STAGES.values() for name in stage.outputs)
    assert artifact_names(out) == names


def test_sweep_trains_the_cvpn_once(tmp_path, monkeypatch):
    calls = []
    train_cvpn = invariant_training.train_cvpn

    def counting(*args, **kwargs):
        calls.append(1)
        return train_cvpn(*args, **kwargs)

    monkeypatch.setattr(invariant_training, "train_cvpn", counting)
    out = tmp_path / "sweep"
    pipeline.sweep_lambda(tiny_cfg(), out)
    assert len(calls) == 1
    messages = []
    pipeline.sweep_lambda(tiny_cfg(), out, log=messages.append)
    assert len(calls) == 1
    assert len(messages) == 4 * len(pipeline.STAGES)
    assert all(m.endswith("skipping") for m in messages)


def test_sweep_directories_match_separate_runs(tmp_path):
    cfg = tiny_cfg()
    sweep = tmp_path / "sweep"
    pipeline.sweep_lambda(cfg, sweep)
    dirs = sorted(p.name for p in sweep.iterdir() if p.is_dir())
    assert dirs == ["lambda_1e-03", "lambda_1e-04", "lambda_1e-05", "lambda_1e-06"]
    for lam in pipeline.DEFAULT_SWEEP:
        alone = tmp_path / f"alone_{lam:.0e}"
        pipeline.run_pipeline(replace(cfg, density_lambda=lam), alone)
        swept = sweep / f"lambda_{lam:.0e}"
        names = artifact_names(alone)
        assert artifact_names(swept) == names
        _, mismatch, errors = filecmp.cmpfiles(alone, swept, names, shallow=False)
        assert not mismatch and not errors, (lam, mismatch, errors)


def test_sweep_refuses_colliding_directory_names(tmp_path):
    out = tmp_path / "sweep"
    with pytest.raises(ParseError, match="lambda_1e-05"):
        pipeline.sweep_lambda(tiny_cfg(), out, lambdas=[1e-5, 1.4e-5])
    assert not out.exists()


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), 0.0])
def test_sweep_refuses_lambda_out_of_range(tmp_path, lam):
    out = tmp_path / "sweep"
    with pytest.raises(ParseError, match="lambda"):
        pipeline.sweep_lambda(tiny_cfg(), out, lambdas=[1e-5, lam])
    assert not out.exists()


def one_at_a_time_lines(lambdas):
    """The log lines of running each value's pipeline in turn: the first in
    full, every further one skipping the shared stages."""
    wrote = [f"[{name}] wrote {', '.join(stage.outputs)}" for name, stage in pipeline.STAGES.items()]
    skipped = [f"[{s}] outputs up to date, skipping" for s in pipeline.SWEEP_SHARED_STAGES]
    return wrote + (len(lambdas) - 1) * (skipped + wrote[len(skipped):])


# where the sweep may fork its workers
FORKS = sys.platform != "darwin" and hasattr(os, "fork")


def assert_no_child_left():
    # waitpid sees every child of this process, however it was forked; a
    # finished child not yet reaped would be returned, a running one gives
    # (0, 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_sweep_forked_and_inline_branches_agree(tmp_path, monkeypatch):
    # two workers run the branches in forked processes, one runs them in
    # this process; both print the one-at-a-time lines and write the same bytes
    fit = pipeline.STAGES["fit-density"]
    pids = tmp_path / "pids"
    pids.mkdir()

    def fit_recording_pid(cfg, *inputs):
        (pids / f"workers{workers}-{cfg.density_lambda:.0e}").write_text(str(os.getpid()))
        return fit.body(cfg, *inputs)

    monkeypatch.setitem(pipeline.STAGES, "fit-density", fit._replace(body=fit_recording_pid))
    rows = {}
    for workers in (1, 2):
        monkeypatch.setattr(pipeline, "_sweep_workers", lambda branches: workers)
        messages = []
        rows[workers] = pipeline.sweep_lambda(tiny_cfg(), tmp_path / f"workers{workers}",
                                              log=messages.append)
        assert messages == one_at_a_time_lines(pipeline.DEFAULT_SWEEP)
        assert_no_child_left()
    ran_in = {workers: {int(p.read_text()) for p in pids.glob(f"workers{workers}-*")}
              for workers in (1, 2)}
    assert ran_in[1] == {os.getpid()}
    if FORKS:
        assert os.getpid() not in ran_in[2]
    assert rows[1] == rows[2]
    assert tree_bytes(tmp_path / "workers1") == tree_bytes(tmp_path / "workers2")


@pytest.mark.parametrize("cpus, env, branches, workers", [
    (2, {}, 4, 1),
    (2, {"OMP_NUM_THREADS": "1"}, 4, 2),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 4, 1),
    (2, {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 4, 2),
    (8, {"OMP_NUM_THREADS": "2"}, 4, 4),
    (8, {"OMP_NUM_THREADS": "1"}, 3, 3),
    (4, {"OMP_NUM_THREADS": "zero"}, 4, 1),
    (1, {"OMP_NUM_THREADS": "1"}, 4, 1),
    # str.isdigit() accepts superscripts, which int() refuses: malformed too
    (4, {"OMP_NUM_THREADS": "²"}, 4, 1),
    (4, {"OMP_NUM_THREADS": "1²"}, 4, 1),
    (4, {"MKL_NUM_THREADS": "٣²"}, 4, 1),
])
def test_sweep_workers_leave_room_for_blas_threads(monkeypatch, cpus, env, branches, workers):
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    assert pipeline._sweep_workers(branches) == workers


def starve_sampling(monkeypatch):
    """Make every sample-outliers stage raise SamplingError."""
    def starving(model, bank, *args, **kwargs):
        raise SamplingError(f"class 0: no outliers at lambda {bank.lam:.0e}")
    monkeypatch.setattr(outlier_sampling, "synthesize_outliers", starving)


def test_failing_sweep_raises_what_the_first_value_alone_raises(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_sweep_workers", lambda branches: 2)
    alone_messages, messages = [], []
    with monkeypatch.context() as starving:
        starve_sampling(starving)
        with pytest.raises(PipelineError) as alone:
            pipeline.run_pipeline(replace(tiny_cfg(), density_lambda=pipeline.DEFAULT_SWEEP[0]),
                                  tmp_path / "alone", log=alone_messages.append)
        with pytest.raises(PipelineError) as swept:
            pipeline.sweep_lambda(tiny_cfg(), tmp_path / "sweep", log=messages.append)
    assert str(swept.value) == str(alone.value)
    assert str(swept.value).startswith("stage 'sample-outliers': class 0: no outliers")
    assert messages == alone_messages
    assert_no_child_left()
    assert len(pipeline.sweep_lambda(tiny_cfg(), tmp_path / "fresh")) == len(pipeline.DEFAULT_SWEEP)


def pipeline_state():
    """The pipeline module's names, each list or dict among them copied."""
    return {name: copy.copy(value) if isinstance(value, (list, dict)) else None
            for name, value in vars(pipeline).items()}


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_leaves_no_branch_state_behind(tmp_path, monkeypatch, workers, fails):
    # a sweep, inline or forked, leaves the module's names, lists and dicts
    # as it found them, with every worker gone, whether it returns or raises
    monkeypatch.setattr(pipeline, "_sweep_workers", lambda branches: workers)
    cfg = tiny_cfg()
    if fails:
        starve_sampling(monkeypatch)
    lambdas = (1e-6, 1e-5)
    before = pipeline_state()
    if fails:
        with pytest.raises(PipelineError, match="^stage 'sample-outliers'"):
            pipeline.sweep_lambda(cfg, tmp_path, lambdas)
    else:
        assert len(pipeline.sweep_lambda(cfg, tmp_path, lambdas)) == len(lambdas)
    assert pipeline_state() == before
    assert_no_child_left()


@pytest.mark.skipif(not FORKS, reason="the branches run inline without fork")
def test_forked_sweep_runs_at_most_its_workers_at_once(tmp_path, monkeypatch):
    # each branch records its process and the time from its first stage's
    # start to its last stage's end: four values on two workers all run, in
    # processes other than the sweep's, and no three of them overlap
    monkeypatch.setattr(pipeline, "_sweep_workers", lambda branches: 2)
    times = tmp_path / "times"
    times.mkdir()
    for stage, mark in (("fit-density", "start"), ("evaluate", "end")):
        spec = pipeline.STAGES[stage]

        def timed(cfg, *inputs, body=spec.body, mark=mark):
            start = time.monotonic()
            outputs = body(cfg, *inputs)
            at = start if mark == "start" else time.monotonic()
            (times / f"{cfg.density_lambda:.0e}-{mark}").write_text(f"{os.getpid()} {at!r}")
            return outputs

        monkeypatch.setitem(pipeline.STAGES, stage, spec._replace(body=timed))
    lambdas = (1e-6, 1e-5, 1e-4, 1e-3)
    assert len(pipeline.sweep_lambda(tiny_cfg(), tmp_path / "sweep", lambdas)) == len(lambdas)
    assert_no_child_left()

    def recorded(lam, mark):
        pid, at = (times / f"{lam:.0e}-{mark}").read_text().split()
        return int(pid), float(at)

    spans = []
    for lam in lambdas:
        (pid, start), (end_pid, end) = recorded(lam, "start"), recorded(lam, "end")
        assert pid == end_pid != os.getpid()
        spans.append((start, end))
    for start, _ in spans:
        assert sum(s <= start < e for s, e in spans) <= 2


@pytest.mark.skipif(not FORKS, reason="the branches run inline without fork")
def test_sweep_raises_first_failure_in_list_order_after_started_branches(tmp_path, monkeypatch):
    # with two workers, 1e-6 waits in one while the other runs 1e-5 to the
    # end and then fails 1e-4; 1e-6 fails last in time but first in the list
    monkeypatch.setattr(pipeline, "_sweep_workers", lambda branches: 2)
    sample = pipeline.STAGES["sample-outliers"]
    later_failed = tmp_path / "later-failed"

    def sample_failing(cfg, *inputs):
        if cfg.density_lambda == 1e-4:
            later_failed.touch()
            raise SamplingError("no outliers at lambda 1e-04")
        if cfg.density_lambda == 1e-6:
            deadline = time.monotonic() + 60
            while not later_failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise SamplingError("no outliers at lambda 1e-06")
        return sample.body(cfg, *inputs)

    monkeypatch.setitem(pipeline.STAGES, "sample-outliers", sample._replace(body=sample_failing))
    out = tmp_path / "sweep"
    messages = []
    with pytest.raises(PipelineError, match="^stage 'sample-outliers': no outliers at lambda 1e-06$"):
        pipeline.sweep_lambda(tiny_cfg(), out, log=messages.append)
    assert later_failed.exists()
    assert messages == one_at_a_time_lines([1e-6])[:3]
    assert (out / "lambda_1e-05" / "metrics.csv").exists()
    assert_no_child_left()


@pytest.mark.skipif(not FORKS, reason="the branches run inline without fork")
def test_sweep_worker_that_dies_fails_its_value(tmp_path, monkeypatch):
    # a worker that leaves in the middle of 1e-04's fit-density sends no
    # result; the values before it print their lines, and its own error names
    # it and the worker's exit status
    monkeypatch.setattr(pipeline, "_sweep_workers", lambda branches: 2)
    fit = pipeline.STAGES["fit-density"]
    sweep_pid = os.getpid()

    def fit_dying(cfg, *inputs):
        if cfg.density_lambda == 1e-4 and os.getpid() != sweep_pid:
            os._exit(3)
        return fit.body(cfg, *inputs)

    monkeypatch.setitem(pipeline.STAGES, "fit-density", fit._replace(body=fit_dying))
    messages = []
    before = pipeline_state()
    with pytest.raises(PipelineError,
                       match=r"^lambda 0\.0001: its sweep worker ended without a result "
                             r"\(exit status 3\)$"):
        pipeline.sweep_lambda(tiny_cfg(), tmp_path, log=messages.append)
    assert messages == one_at_a_time_lines(pipeline.DEFAULT_SWEEP[:2])
    assert pipeline_state() == before
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_raises_an_unexpected_branch_error_as_itself(tmp_path, monkeypatch, workers):
    # an error that is no NcisError is not turned into a lost worker: the
    # sweep raises it, forked as inline
    monkeypatch.setattr(pipeline, "_sweep_workers", lambda branches: workers)
    fit = pipeline.STAGES["fit-density"]

    def fit_broken(cfg, *inputs):
        if cfg.density_lambda == 1e-5:
            raise RuntimeError("broken at lambda 1e-05")
        return fit.body(cfg, *inputs)

    monkeypatch.setitem(pipeline.STAGES, "fit-density", fit._replace(body=fit_broken))
    before = pipeline_state()
    with pytest.raises(RuntimeError, match="^broken at lambda 1e-05$"):
        pipeline.sweep_lambda(tiny_cfg(), tmp_path, (1e-6, 1e-5))
    assert pipeline_state() == before
    assert_no_child_left()


def run_forked_sweep(tmp_path, *python_options):
    """Run a two-worker sweep in a fresh interpreter, BLAS held to one thread;
    returns what it reports about itself as a dict."""
    code = textwrap.dedent("""
        import json, os, sys, threading
        sys.path.insert(0, sys.argv[1])
        from ncis import pipeline
        from ncis.config import parse_config
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        pipeline._sweep_workers = lambda branches: 2
        threads = []
        pipeline.sweep_lambda(parse_config(sys.argv[2], environ={}), sys.argv[3], (1e-6, 1e-5),
                              log=lambda line: threads.append(threading.active_count()))
        modules = [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]
        print(json.dumps({"forks": len(forks), "threads": sorted(set(threads)),
                          "modules": modules}))
    """)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-I", *python_options, "-c", code, str(Path(ncis.__file__).parent.parent),
         TINY, str(tmp_path / "sweep")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not FORKS, reason="the branches run inline without fork")
def test_forked_sweep_imports_no_pool_and_starts_no_thread(tmp_path):
    # the workers are bare forks fed through pipes: no multiprocessing, no
    # concurrent.futures, and no feeder or manager thread in the sweep
    assert run_forked_sweep(tmp_path) == {"forks": 2, "threads": [1], "modules": []}


@pytest.mark.skipif(not FORKS, reason="the branches run inline without fork")
def test_sweep_forks_while_its_process_has_one_thread(tmp_path):
    # Python 3.12 warns, with a DeprecationWarning, when a process with more
    # than one thread forks; raised as an error here, it would fail the sweep
    report = run_forked_sweep(tmp_path, "-W", "error::DeprecationWarning")
    assert report["forks"] == 2


class ReadRecorder:
    """A RunConfig stand-in that records which fields are read."""

    def __init__(self, cfg):
        self._cfg = cfg
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._cfg, name)


def test_stage_bodies_read_only_declared_fields_and_inputs(tmp_path, monkeypatch):
    # each body runs on its declared inputs, loaded by the driver's table, and
    # on a config that records every field read, while every artifacts loader
    # records the files it opens: an undeclared field, or a file other than
    # the external CSVs the embed config names, fails here instead of letting
    # a changed value reuse stale outputs
    full = tmp_path / "full"
    pipeline.run_pipeline(tiny_cfg(), full)
    configs = {stage: [tiny_cfg()] for stage in pipeline.STAGES}
    configs["embed"] += [tiny_cfg("embed.source = toy-denoiser\nbenchmark.n_per_class = 10\n"
                                  "benchmark.ood_count = 5\n"),
                         tiny_cfg(csv_source(full))]
    opened = []
    for attr in [a for a in vars(artifacts) if a.startswith("load_")]:
        load = getattr(artifacts, attr)
        monkeypatch.setattr(artifacts, attr,
                            lambda path, load=load: opened.append(str(path)) or load(path))
    for stage, cfgs in configs.items():
        read = set()
        for i, cfg in enumerate(cfgs):
            inputs = [pipeline._load(full, name) for name in pipeline.STAGES[stage].inputs]
            opened.clear()
            recorder = ReadRecorder(cfg)
            outputs = pipeline.STAGES[stage].body(recorder, *inputs)
            assert opened == [getattr(cfg, f) for f in CSV_SOURCE_FIELDS if getattr(cfg, f)]
            dest = tmp_path / f"{stage}-{i}-out"
            dest.mkdir()
            for name, obj in zip(pipeline.STAGES[stage].outputs, outputs, strict=True):
                getattr(artifacts, f"save_{pipeline.FORMATS[name]}")(obj, dest / name)
                pipeline._load(dest, name)
            read |= recorder.read
        assert read == set(pipeline.STAGES[stage].fields), stage


@pytest.mark.parametrize("extra", ["", "embed.source = toy-denoiser\nclassifier.beta = 0\n"],
                         ids=["toy", "denoiser-beta0"])
def test_reused_objects_equal_parsed_ones(tmp_path, extra):
    # a run hands a stage the object an earlier stage returned in place of
    # parsing its file, which is right only if saving and loading the object
    # gives it back field for field
    objects = {}
    pipeline.run_pipeline(tiny_cfg(extra), tmp_path / "run", objects=objects)
    assert sorted(name for name, _ in objects) == sorted(pipeline.FORMATS)
    for (name, digest), obj in objects.items():
        path = tmp_path / name
        getattr(artifacts, f"save_{pipeline.FORMATS[name]}")(obj, path)
        assert pipeline._file_digest(path) == digest, name
        assert_same(getattr(artifacts, f"load_{pipeline.FORMATS[name]}")(path), obj, name)


def test_stage_bodies_leave_their_inputs_unchanged(tmp_path):
    # a run hands one object to every stage that reads its file, so a body
    # that changed an input would corrupt later stages while the file on
    # disk stayed right
    out = tmp_path / "run"
    objects = {}
    pipeline.run_pipeline(tiny_cfg(), out, objects=objects)
    records = json.loads((out / pipeline.MANIFEST_NAME).read_text())["stages"]
    for stage, spec in pipeline.STAGES.items():
        inputs = [objects[name, records[stage]["inputs"][name]] for name in spec.inputs]
        before = copy.deepcopy(inputs)
        spec.body(tiny_cfg(), *inputs)
        assert_same(inputs, before, stage)


def test_a_run_parses_only_files_it_does_not_hold(tmp_path, monkeypatch):
    # a fresh run and an inline sweep parse nothing they wrote; a stage run
    # on its own parses each input once
    parsed = []
    for attr in [a for a in vars(artifacts) if a.startswith("load_")]:
        load = getattr(artifacts, attr)
        monkeypatch.setattr(artifacts, attr,
                            lambda path, load=load: parsed.append(Path(path).name) or load(path))
    monkeypatch.setattr(pipeline, "_sweep_workers", lambda branches: 1)
    pipeline.run_pipeline(tiny_cfg(), tmp_path / "run")
    pipeline.sweep_lambda(tiny_cfg(), tmp_path / "sweep")
    assert parsed == []
    for stage, spec in pipeline.STAGES.items():
        pipeline.run_pipeline(tiny_cfg(), tmp_path / "steps", stages=[stage])
        assert parsed == list(spec.inputs), stage
        parsed.clear()


def test_stage_table_shape():
    # each input is the output of exactly one earlier stage, which
    # run_pipeline's upstream check and SWEEP_SHARED_STAGES rely on, and
    # each file has a loader and a saver
    made_by = {}
    for stage, spec in pipeline.STAGES.items():
        for name in spec.inputs:
            assert name in made_by, (stage, name)
        for name in spec.outputs:
            assert name not in made_by, (stage, name)
            made_by[name] = stage
    assert set(pipeline.FORMATS) == set(made_by)
    for name, fmt in pipeline.FORMATS.items():
        assert callable(getattr(artifacts, f"load_{fmt}", None)), name
        assert callable(getattr(artifacts, f"save_{fmt}", None)), name


def test_stage_key_tracks_declared_fields_and_inputs():
    cfg = RunConfig()
    digests = {"cvpn.txt": "a" * 64}
    key = pipeline.stage_key("fit-density", cfg, digests)
    assert pipeline.stage_key("fit-density", replace(cfg, seed=8), digests) == key
    assert pipeline.stage_key("fit-density", replace(cfg, density_lambda=1e-4), digests) != key
    assert pipeline.stage_key("fit-density", cfg, {"cvpn.txt": "b" * 64}) != key


# The configuration lines of each stage's key at the defaults.  A change here
# changes the key of every run directory written before it, which then
# refuses to be reused, so it must be deliberate.
DEFAULT_KEY_LINES = {
    "embed": ["benchmark.margin = 0.3", "benchmark.n_per_class = 200", "benchmark.noise = 0.05",
              "benchmark.ood_count = 600", "data.heldout_csv = ''", "data.ood_csv = ''",
              "data.train_csv = ''", "embed.batch_size = 64", "embed.iterations = 150",
              "embed.learning_rate = 0.01", "embed.source = 'toy-benchmark'",
              "embed.timesteps = 50", "seed = 7"],
    "train-cvpn": ["cvpn.hidden_width = 32", "cvpn.num_blocks = 4", "cvpn.train_batch = 128",
                   "cvpn.train_iterations = 5000", "cvpn.train_lr = 0.001",
                   "invariants.k_override = 0", "invariants.p = 2.0", "seed = 7"],
    "fit-density": ["density.lambda = 1e-05"],
    "sample-outliers": ["sample.n_per_class = 1000", "sample.q = 0.05", "seed = 7"],
    "train-classifier": ["classifier.batch = 128", "classifier.beta = 1.0",
                         "classifier.epochs = 800", "classifier.hidden_width = 64",
                         "classifier.lr = 0.003", "classifier.phi_hidden = 8", "seed = 7"],
    "evaluate": ["embed.source = 'toy-benchmark'"],
}


def test_default_key_lines_are_stable():
    lines = {name: config_lines(RunConfig(), stage.fields)
             for name, stage in pipeline.STAGES.items()}
    assert lines == DEFAULT_KEY_LINES


def test_edited_output_of_a_skipped_stage_is_refused(tmp_path):
    # a blank line added to metrics.csv still loads; only its digest tells
    out = tmp_path / "run"
    pipeline.run_pipeline(tiny_cfg(), out)
    metrics = out / "metrics.csv"
    metrics.write_bytes(metrics.read_bytes() + b"\n")
    messages = []
    with pytest.raises(ArtifactError, match="^stage 'evaluate': .*metrics.csv"):
        pipeline.run_pipeline(tiny_cfg(), out, log=messages.append)
    assert messages == [f"[{s}] outputs up to date, skipping" for s in list(pipeline.STAGES)[:-1]]


def test_sweep_refuses_a_header_only_metrics_csv(tmp_path):
    out = tmp_path / "sweep"
    pipeline.sweep_lambda(tiny_cfg(), out)
    metrics = out / "lambda_1e-05" / "metrics.csv"
    metrics.write_text("".join(metrics.read_text().splitlines(keepends=True)[:2]))
    with pytest.raises(ArtifactError, match="^stage 'evaluate': .*lambda_1e-05.*metrics.csv"):
        pipeline.sweep_lambda(tiny_cfg(), out)
