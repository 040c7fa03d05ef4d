"""Fast self-test of the benchmark at tiny budgets.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from ncis import artifacts, load_config, outlier_sampling  # noqa: E402

import checks  # noqa: E402
from run import END_TO_END, INSTANCES, PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SWEEP_LAMBDAS, WORKLOADS, run_workload, stage_times, write_inputs  # noqa: E402


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--budget", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] == (2 if trace else INSTANCES)
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "toy-run-all", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_stage_times_split_the_wall_time():
    marks = [(0.0, None), (1.0, "[embed] wrote a"), (3.0, "[train-cvpn] wrote b"),
             (3.5, None), (4.0, "[embed] outputs up to date, skipping")]
    stages, outside = stage_times(marks, 4.25)
    assert stages == {"embed": 1.5, "train-cvpn": 2.0}
    assert outside == 0.75


def test_step_time_when_the_loop_stops_calling_eval_and_grad():
    tracer = Tracer([])
    tracer.spans = [["cvpn.train", 0.0, 1.0, -1]] + [
        ["cvpn.adam", 0.1 * i, 0.1 * i + 0.01, 0] for i in range(4)]
    steps, step_ms = tracer.step_ms("cvpn")
    assert steps == 4 and step_ms.tolist() == [250.0]
    assert len(tracer.gaps) == 1 and "0 eval_and_grad and 4 adam_update" in tracer.gaps[0]


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    work = tmp_path_factory.mktemp("sweep")
    workload = WORKLOADS["lambda-sweep"]
    cfg = load_config(write_inputs(workload, 3, "tiny", work), environ={})
    run_workload(workload, cfg, work / "out", [])
    return work / "out", cfg.sample_n_per_class


def fresh_copy(tiny_sweep, tmp_path):
    out, n_per_class = tiny_sweep
    shutil.copytree(out, tmp_path / "out")
    return tmp_path / "out", n_per_class


def test_clean_output_passes(tiny_sweep):
    out, n_per_class = tiny_sweep
    failures, facts = checks.check_output(out, len(SWEEP_LAMBDAS), n_per_class)
    assert failures == []
    assert facts["accepted"] == len(SWEEP_LAMBDAS) * 3 * n_per_class


def test_outlier_above_its_threshold_fails(tiny_sweep, tmp_path):
    out, n_per_class = fresh_copy(tiny_sweep, tmp_path)
    path = out / "lambda_1e-04" / "outliers.csv"
    outliers = artifacts.load_outliers_csv(path)
    bank = artifacts.load_bank(path.with_name("bank.txt"))
    label = int(outliers.labels[0])
    outliers.log_densities[0] = outlier_sampling.acceptance_threshold(bank, label, outliers.q) + 1.0
    artifacts.save_outliers_csv(outliers, path)
    failures, _ = checks.check_output(out, len(SWEEP_LAMBDAS), n_per_class)
    assert len(failures) == 1 and "acceptance threshold" in failures[0]


def test_metrics_disagreeing_with_scores_fail(tiny_sweep, tmp_path):
    out, n_per_class = fresh_copy(tiny_sweep, tmp_path)
    path = out / "lambda_1e-06" / "metrics.csv"
    (dataset, method, fpr, auc, acc), = artifacts.load_metrics_csv(path)
    artifacts.save_metrics_csv([(dataset, method, fpr, auc - 0.01, acc)], path)
    failures, _ = checks.check_output(out, len(SWEEP_LAMBDAS), n_per_class)
    assert len(failures) == 1 and "recomputed from scores.csv" in failures[0]


def test_missing_outlier_row_fails(tiny_sweep, tmp_path):
    out, n_per_class = fresh_copy(tiny_sweep, tmp_path)
    path = out / "lambda_1e-03" / "outliers.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    failures, _ = checks.check_output(out, len(SWEEP_LAMBDAS), n_per_class)
    assert any("outliers, expected" in f for f in failures)


def test_unparseable_artifact_fails(tiny_sweep, tmp_path):
    out, n_per_class = fresh_copy(tiny_sweep, tmp_path)
    (out / "lambda_1e-05" / "cvpn.txt").write_text("garbage\n")
    failures, _ = checks.check_output(out, len(SWEEP_LAMBDAS), n_per_class)
    assert len(failures) == 1 and "do not parse" in failures[0]


def test_lifted_inputs_depend_only_on_the_seed(tmp_path):
    workload = WORKLOADS["lifted-d8"]
    texts = []
    for name in ("a", "b", "c"):
        work = tmp_path / name
        work.mkdir()
        write_inputs(workload, 4 if name != "c" else 5, "tiny", work)
        texts.append((work / "train.csv").read_text())
    assert texts[0] == texts[1] != texts[2]
    train = artifacts.load_embeddings_csv(tmp_path / "a" / "train.csv")
    assert train.dim == workload.lifted_dim
