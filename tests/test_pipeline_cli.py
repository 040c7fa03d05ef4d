import numpy as np
import pytest

from ncis import artifacts, cli, pipeline
from ncis.config import parse_config
from ncis.errors import ArtifactError

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
    return parse_config(TINY + extra, environ={})


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
    whole = tmp_path / "whole"
    steps = tmp_path / "steps"
    cfg = tiny_cfg()
    pipeline.run_pipeline(cfg, whole)
    for stage in pipeline.STAGES:
        pipeline.run_pipeline(cfg, steps, stages=[stage])
    assert (whole / "metrics.csv").read_bytes() == (steps / "metrics.csv").read_bytes()


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


def test_toy_denoiser_source_smoke(tmp_path):
    cfg = tiny_cfg("embed.source = toy-denoiser\nbenchmark.n_per_class = 15\n"
                   "benchmark.ood_count = 30\n")
    out = tmp_path / "denoised"
    pipeline.run_pipeline(cfg, out, stages=["embed"])
    train = artifacts.load_embeddings_csv(out / "embeddings_train.csv")
    assert len(train) == 45
    assert np.all(np.isfinite(train.embeddings))


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


def test_cli_seed_flag_overrides(tmp_path):
    cfg_file = write_tiny_config(tmp_path)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["embed", "--config", str(cfg_file), "--out", out_a, "--seed", "12"]) == 0
    assert cli.main(["embed", "--config", str(cfg_file), "--out", out_b]) == 0
    a = artifacts.load_embeddings_csv(tmp_path / "a" / "embeddings_train.csv")
    b = artifacts.load_embeddings_csv(tmp_path / "b" / "embeddings_train.csv")
    assert not np.array_equal(a.embeddings, b.embeddings)


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
