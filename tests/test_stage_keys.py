"""Per-stage cache keys: skip, recompute and refuse, and the sweep's reuse."""

import filecmp
import shutil
from dataclasses import replace

import pytest

from ncis import invariant_training, pipeline
from ncis.config import RunConfig, parse_config
from ncis.errors import ArtifactError, ParseError

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
    return parse_config(TINY + extra, environ={})


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
    names = sorted(name for stage in pipeline.STAGES for name in pipeline.STAGE_OUTPUTS[stage])
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


class ReadRecorder:
    """A RunConfig stand-in that records which fields are read."""

    def __init__(self, cfg):
        self._cfg = cfg
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._cfg, name)


def test_stage_bodies_read_only_declared_fields_and_inputs(tmp_path):
    # each body runs with only its declared input files at hand, on a config
    # that records every field read: an undeclared field or file fails here
    # instead of letting a changed value reuse stale outputs
    full = tmp_path / "full"
    pipeline.run_pipeline(tiny_cfg(), full)
    configs = {stage: [tiny_cfg()] for stage in pipeline.STAGES}
    configs["embed"] += [tiny_cfg("embed.source = toy-denoiser\nbenchmark.n_per_class = 10\n"
                                  "benchmark.ood_count = 5\n"),
                         tiny_cfg(csv_source(full))]
    for stage, cfgs in configs.items():
        read = set()
        for i, cfg in enumerate(cfgs):
            run_dir = tmp_path / f"{stage}-{i}-in"
            dest = tmp_path / f"{stage}-{i}-out"
            run_dir.mkdir()
            dest.mkdir()
            for name in pipeline.STAGE_INPUTS[stage]:
                shutil.copyfile(full / name, run_dir / name)
            recorder = ReadRecorder(cfg)
            pipeline._STAGE_BODIES[stage](recorder, run_dir, dest)
            assert sorted(p.name for p in dest.iterdir()) == sorted(pipeline.STAGE_OUTPUTS[stage])
            read |= recorder.read
        assert read == set(pipeline.STAGE_FIELDS[stage]), stage


def test_stage_key_tracks_declared_fields_and_inputs():
    cfg = RunConfig()
    digests = {"cvpn.txt": "a" * 64}
    key = pipeline.stage_key("fit-density", cfg, digests)
    assert pipeline.stage_key("fit-density", replace(cfg, seed=8), digests) == key
    assert pipeline.stage_key("fit-density", replace(cfg, density_lambda=1e-4), digests) != key
    assert pipeline.stage_key("fit-density", cfg, {"cvpn.txt": "b" * 64}) != key
