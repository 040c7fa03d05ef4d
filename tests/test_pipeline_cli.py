import ast
import itertools
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ncis import artifacts, cli, embedding, ood_classifier, pipeline
from ncis.config import RunConfig
from ncis.errors import ArtifactError, NcisError

from conftest import config_with

TINY = """
seed = 5
benchmark.n_per_class = 40
benchmark.ood_count = 120
cvpn.train_iterations = 400
cvpn.train_batch = 64
sample.n_per_class = 60
classifier.epochs = 40
"""


def tiny_cfg(extra=""):
    return config_with(TINY, extra)


def test_run_all_produces_artifacts(tmp_path):
    out = tmp_path / "run"
    produced = pipeline.run_pipeline(tiny_cfg(), out)
    assert set(produced) == set(pipeline.STAGES)
    for stage, paths in produced.items():
        for p in paths:
            assert p.exists(), (stage, p)
    rows = artifacts.load_metrics_csv(out / "metrics.csv")
    assert len(rows) == 1
    dataset, method, fpr, auc, acc = rows[0]
    assert dataset == "toy" and method == "ncis"
    assert 0.0 <= fpr <= 1.0 and 0.0 <= auc <= 1.0 and 0.0 <= acc <= 1.0


def test_package_ships_without_the_tape():
    # the package imports only the standard library, numpy and itself; the
    # autodiff tape is a test reference (tests/tape.py), not shipped code
    allowed = set(sys.stdlib_module_names) | {"numpy", "ncis"}
    for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        roots = {a.name.split(".")[0] for n in nodes if isinstance(n, ast.Import) for a in n.names}
        roots |= {n.module.split(".")[0] for n in nodes
                  if isinstance(n, ast.ImportFrom) and n.level == 0}
        assert roots <= allowed, (path.name, sorted(roots - allowed))
        defined = {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        defined |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        assert not defined & {"Node", "_record", "eval_and_grad"}, path.name


def test_rerun_skips_and_keeps_bytes(tmp_path):
    out = tmp_path / "run"
    cfg = tiny_cfg()
    pipeline.run_pipeline(cfg, out)
    before = (out / "metrics.csv").read_bytes()
    messages = []
    pipeline.run_pipeline(cfg, out, log=messages.append)
    assert all("skipping" in m for m in messages)
    assert (out / "metrics.csv").read_bytes() == before


def test_changed_config_refuses_stale_artifacts(tmp_path):
    out = tmp_path / "run"
    pipeline.run_pipeline(tiny_cfg(), out)
    with pytest.raises(ArtifactError, match="different configuration"):
        pipeline.run_pipeline(tiny_cfg("density.lambda = 1e-4\n"), out)


def test_standalone_stage_refuses_changed_upstream_record(tmp_path):
    out = tmp_path / "run"
    pipeline.run_pipeline(tiny_cfg(), out)
    before = (out / "metrics.csv").read_bytes()
    with pytest.raises(ArtifactError, match="stage 'train-classifier'.*different configuration"):
        pipeline.run_pipeline(tiny_cfg("classifier.epochs = 41\n"), out, stages=["evaluate"])
    assert (out / "metrics.csv").read_bytes() == before


def test_standalone_stage_ignores_unrecorded_upstream(tmp_path):
    whole = tmp_path / "whole"
    loose = tmp_path / "loose"
    pipeline.run_pipeline(tiny_cfg(), whole)
    loose.mkdir()
    for stage in list(pipeline.STAGES.values())[:-1]:
        for name in stage.outputs:
            shutil.copyfile(whole / name, loose / name)
    pipeline.run_pipeline(tiny_cfg("classifier.epochs = 41\n"), loose, stages=["evaluate"])
    assert (loose / "metrics.csv").read_bytes() == (whole / "metrics.csv").read_bytes()


def test_two_fresh_runs_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    pipeline.run_pipeline(tiny_cfg(), a)
    pipeline.run_pipeline(tiny_cfg(), b)
    for name in ("metrics.csv", "scores.csv", "outliers.csv", "cvpn.txt",
                 "bank.txt", "classifier.txt", "loss_history.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_single_stage_needs_upstream(tmp_path):
    with pytest.raises(pipeline.PipelineError, match="train-cvpn"):
        pipeline.run_pipeline(tiny_cfg(), tmp_path / "solo", stages=["train-cvpn"])


def test_stagewise_equals_run_all(tmp_path):
    # run-all hands each stage the objects earlier stages returned, while a
    # stage run on its own parses its inputs from disk: every file matches,
    # the manifest too
    whole = tmp_path / "whole"
    steps = tmp_path / "steps"
    cfg = tiny_cfg()
    pipeline.run_pipeline(cfg, whole)
    for stage in pipeline.STAGES:
        pipeline.run_pipeline(cfg, steps, stages=[stage])
    names = sorted(p.name for p in whole.iterdir())
    assert sorted(p.name for p in steps.iterdir()) == names
    for name in names:
        assert (whole / name).read_bytes() == (steps / name).read_bytes(), name


def test_csv_source_ingestion(tmp_path):
    src = tmp_path / "src"
    pipeline.run_pipeline(tiny_cfg(), src, stages=["embed"])
    extra = (f"embed.source = csv\n"
             f"data.train_csv = {src / 'embeddings_train.csv'}\n"
             f"data.heldout_csv = {src / 'embeddings_heldout.csv'}\n"
             f"data.ood_csv = {src / 'ood_test.csv'}\n")
    out = tmp_path / "fromcsv"
    pipeline.run_pipeline(tiny_cfg(extra), out)
    rows = artifacts.load_metrics_csv(out / "metrics.csv")
    assert rows[0][0] == "csv"


def test_beta_zero_reports_energy_method(tmp_path):
    out = tmp_path / "beta0"
    pipeline.run_pipeline(tiny_cfg("classifier.beta = 0\n"), out)
    rows = artifacts.load_metrics_csv(out / "metrics.csv")
    assert rows[0][1] == "energy"


@pytest.mark.parametrize("beta", [0, 1])
def test_evaluate_runs_the_classifier_once(toy_run, monkeypatch, beta):
    # one pass through the classifier and one through the scoring head, over
    # the held-out and OOD rows together
    calls = []
    tanh_mlp = ood_classifier.tanh_mlp

    def count(*args, **kwargs):
        calls.append(len(args[1]))
        return tanh_mlp(*args, **kwargs)

    monkeypatch.setattr(ood_classifier, "tanh_mlp", count)
    clf = toy_run.clf_beta1 if beta else toy_run.clf_beta0
    metrics, rows = pipeline.stage_evaluate(RunConfig(), clf, toy_run.bench.heldout,
                                            toy_run.bench.ood)
    assert calls == [len(rows)] * 2
    assert metrics[0][1] == ("ncis" if beta else "energy")


def test_evaluate_refuses_ood_points_of_another_width(tmp_path):
    src = tmp_path / "src"
    pipeline.run_pipeline(tiny_cfg(), src, stages=["embed"])
    artifacts.save_points_csv(np.zeros((5, 3)), tmp_path / "ood3.csv")
    extra = (f"embed.source = csv\n"
             f"data.train_csv = {src / 'embeddings_train.csv'}\n"
             f"data.heldout_csv = {src / 'embeddings_heldout.csv'}\n"
             f"data.ood_csv = {tmp_path / 'ood3.csv'}\n"
             "cvpn.train_iterations = 20\nclassifier.epochs = 2\n")
    with pytest.raises(NcisError, match="stage 'evaluate'"):
        pipeline.run_pipeline(tiny_cfg(extra), tmp_path / "run")


def test_toy_denoiser_source_smoke(tmp_path):
    cfg = tiny_cfg("embed.source = toy-denoiser\nbenchmark.n_per_class = 15\n"
                   "benchmark.ood_count = 30\n")
    out = tmp_path / "denoised"
    pipeline.run_pipeline(cfg, out, stages=["embed"])
    train = artifacts.load_embeddings_csv(out / "embeddings_train.csv")
    assert len(train) == 45
    assert np.all(np.isfinite(train.embeddings))


def test_toy_denoiser_zero_iterations_writes_the_anchors(tmp_path):
    # the configured budget is honoured: no iterations leave every item at
    # its class anchor
    cfg = tiny_cfg("embed.source = toy-denoiser\nbenchmark.n_per_class = 15\n"
                   "benchmark.ood_count = 30\nembed.iterations = 0\n")
    out = tmp_path / "anchors"
    pipeline.run_pipeline(cfg, out, stages=["embed"])
    train = artifacts.load_embeddings_csv(out / "embeddings_train.csv")
    assert len(np.unique(train.embeddings, axis=0)) <= train.class_count
    ood = artifacts.load_points_csv(out / "ood_test.csv")
    assert len(np.unique(ood, axis=0)) == 1


def test_toy_denoiser_gives_each_set_its_own_noise_streams(tmp_path, monkeypatch):
    # train, held-out and OOD items draw their (timestep, noise) batches from
    # seeds that no item of another set shares
    cfg = tiny_cfg("embed.source = toy-denoiser\nbenchmark.n_per_class = 15\n"
                   "benchmark.ood_count = 30\nembed.iterations = 1\n")
    seeds = []
    embed_dataset = embedding.embed_dataset

    def record(samples, labels, anchors, denoiser, schedule, run_cfg, item_seeds=None):
        if item_seeds is None:
            seeds.append({embedding.derive_item_seed(run_cfg.seed, i) for i in range(len(samples))})
        else:
            seeds.append(set(item_seeds))
        return embed_dataset(samples, labels, anchors, denoiser, schedule, run_cfg, item_seeds)

    monkeypatch.setattr(embedding, "embed_dataset", record)
    pipeline.run_pipeline(cfg, tmp_path / "run", stages=["embed"])
    assert [len(s) for s in seeds] == [45, 45, 30]
    for a, b in itertools.combinations(seeds, 2):
        assert not a & b


def test_sweep_lambda_magnitudes_non_decreasing(tmp_path):
    # needs a converged network: before the invariants collapse, the
    # regularizer is negligible against their residual variance and the
    # magnitude ordering is noise
    cfg = tiny_cfg("cvpn.train_iterations = 2500\ncvpn.train_batch = 128\n")
    out = tmp_path / "sweep"
    rows = pipeline.sweep_lambda(cfg, out)
    assert len(rows) == 4
    assert [r[0] for r in rows] == [1e-6, 1e-5, 1e-4, 1e-3]
    mags = [r[4] for r in rows]
    assert all(b >= a for a, b in zip(mags, mags[1:]))
    assert (out / "sweep_metrics.csv").exists()


# command line ----------------------------------------------------------

def write_tiny_config(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(TINY)
    return cfg_file


def test_cli_run_all(tmp_path, capsys):
    cfg_file = write_tiny_config(tmp_path)
    rc = cli.main(["run-all", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "metrics.csv").exists()
    assert "[evaluate]" in capsys.readouterr().out


def test_cli_single_stage_then_next(tmp_path):
    cfg_file = write_tiny_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["embed", "--config", str(cfg_file), "--out", out]) == 0
    assert cli.main(["train-cvpn", "--config", str(cfg_file), "--out", out]) == 0
    assert (tmp_path / "out" / "cvpn.txt").exists()


def test_cli_missing_upstream_fails_with_stage_tag(tmp_path, capsys):
    cfg_file = write_tiny_config(tmp_path)
    rc = cli.main(["evaluate", "--config", str(cfg_file), "--out", str(tmp_path / "empty")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "evaluate" in err and "error:" in err


def test_cli_bad_config_fails(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("lambda = -1\n")
    rc = cli.main(["run-all", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("with_file", [False, True], ids=["defaults", "empty-file"])
def test_cli_env_overrides_apply_without_config_file(tmp_path, monkeypatch, with_file):
    monkeypatch.setenv("NCIS_SEED", "3")
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    argv = ["embed", "--config", str(empty)] if with_file else ["embed"]
    assert cli._load(cli.build_parser().parse_args(argv)).seed == 3


def test_cli_seed_flag_overrides(tmp_path):
    cfg_file = write_tiny_config(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["embed", "--config", str(cfg_file), "--out", out_a, "--seed", "12"]) == 0
    assert cli.main(["embed", "--config", str(cfg_file), "--out", out_b]) == 0
    a = artifacts.load_embeddings_csv(tmp_path / "a" / "embeddings_train.csv")
    b = artifacts.load_embeddings_csv(tmp_path / "b" / "embeddings_train.csv")
    assert not np.array_equal(a.embeddings, b.embeddings)


def test_cli_seed_flag_runs_the_seed_range_check(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["run-all", "--out", str(out), "--seed", "-1"])
    assert rc == 1
    assert "error: seed out of range" in capsys.readouterr().err
    assert not out.exists()


def test_cli_seed_flag_builds_a_new_config(monkeypatch):
    monkeypatch.setenv("NCIS_CLASSIFIER_BETA", "0.5")
    cfg = cli._load(cli.build_parser().parse_args(["embed", "--seed", "12"]))
    assert (cfg.seed, cfg.classifier_beta) == (12, 0.5)


def test_pipeline_reuses_a_cli_run_for_a_config_built_in_code(tmp_path, capsys):
    # an int for a float key, or a numpy integer, keys each stage as the parsed value does
    out = tmp_path / "run"
    assert cli.main(["run-all", "--config", str(write_tiny_config(tmp_path)),
                     "--out", str(out)]) == 0
    cfg = replace(tiny_cfg(), classifier_beta=1, seed=np.int64(5))
    messages = []
    pipeline.run_pipeline(cfg, out, log=messages.append)
    assert messages and all(m.endswith("skipping") for m in messages)


def test_cli_sweep_lambda(tmp_path, capsys):
    cfg_file = write_tiny_config(tmp_path)
    rc = cli.main(["sweep-lambda", "--config", str(cfg_file),
                   "--out", str(tmp_path / "sweep"), "--lambdas", "1e-6,1e-4"])
    assert rc == 0
    assert (tmp_path / "sweep" / "sweep_metrics.csv").exists()
    assert "mean_invariant_magnitude" in capsys.readouterr().out


def test_cli_malformed_csv_comment_fails_with_stage_tag(tmp_path, capsys):
    src = tmp_path / "src"
    pipeline.run_pipeline(tiny_cfg(), src, stages=["embed"])
    train = src / "embeddings_train.csv"
    train.write_text(train.read_text().replace("# class_count 3\n", "# class_count three\n"))
    cfg_file = tmp_path / "csv.cfg"
    cfg_file.write_text(TINY + f"embed.source = csv\n"
                               f"data.train_csv = {train}\n"
                               f"data.heldout_csv = {src / 'embeddings_heldout.csv'}\n"
                               f"data.ood_csv = {src / 'ood_test.csv'}\n")
    rc = cli.main(["embed", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "embed" in err and "embeddings_train.csv" in err


def test_cli_corrupt_bank_fails_with_stage_tag(tmp_path, capsys):
    cfg_file = write_tiny_config(tmp_path)
    out = tmp_path / "out"
    pipeline.run_pipeline(tiny_cfg(), out, stages=["embed", "train-cvpn", "fit-density"])
    bank = out / "bank.txt"
    bank.write_text(bank.read_text().replace("\nmeta class_count 3\n", "\nmeta class_count -1\n"))
    rc = cli.main(["sample-outliers", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: stage 'sample-outliers'" in err and "class_count" in err


def test_cli_bad_lambdas(tmp_path, capsys):
    rc = cli.main(["sweep-lambda", "--out", str(tmp_path / "s"), "--lambdas", "1e-6,zap"])
    assert rc == 1
    assert "lambdas" in capsys.readouterr().err


@pytest.mark.parametrize("lambdas", ["1e-6,nan", "inf", "1e-5,1.4e-5"])
def test_cli_refuses_lambdas_before_any_stage(tmp_path, capsys, lambdas):
    cfg_file = write_tiny_config(tmp_path)
    out = tmp_path / "s"
    rc = cli.main(["sweep-lambda", "--config", str(cfg_file), "--out", str(out),
                   "--lambdas", lambdas])
    assert rc == 1
    captured = capsys.readouterr()
    assert "lambda" in captured.err and captured.out == ""
    assert not out.exists()
