"""Benchmark workloads: the generated config and inputs, and the pipeline call.

Every workload is made from the workload seed alone.  The program under test
receives only a config file, plus input CSVs for the lifted workload.  The
budgets are the package defaults (and a 1000-per-class sweep) scaled down
so that a pipeline run takes 2-3 s and a benchmark run holds a dozen of
them; each keeps its workload's split of work across layers: toy-run-all is
~50% cVPN and ~40% classifier training, lambda-sweep ~50% sampling, ~20%
embed and train-cvpn repeated per lambda and ~13% evaluate, lifted-d8 is
training-bound at D=8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SWEEP_LAMBDAS = (1e-6, 1e-5, 1e-4, 1e-3)


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict              # config keys
    lifted_dim: int = 0         # > 0: inputs are lifted CSVs
    sweep: bool = False         # sweep_lambda instead of run_pipeline


# overrides that shrink any workload to a fraction of a second, for the self-test
TINY = {"benchmark.n_per_class": 30, "benchmark.ood_count": 60, "sample.n_per_class": 20,
        "cvpn.train_iterations": 10, "classifier.epochs": 2}


# name -> workload; BENCHMARK.json says why the ones it lists are there.
# lifted-d8 (the toy arcs rotated into D=8 and ingested from CSV, so a gain
# tuned at D=2 that costs more at higher D shows) stays runnable by name but
# is not in BENCHMARK.json: two workloads leave room for 60 s runs.
WORKLOADS = {w.name: w for w in (
    Workload("toy-run-all",
             {"cvpn.train_iterations": 340, "classifier.epochs": 55, "sample.n_per_class": 70}),
    Workload("lambda-sweep",
             {"benchmark.n_per_class": 200, "benchmark.ood_count": 600, "sample.n_per_class": 250,
              "cvpn.train_iterations": 40, "classifier.epochs": 20},
             sweep=True),
    Workload("lifted-d8",
             {"benchmark.n_per_class": 200, "cvpn.train_iterations": 270, "classifier.epochs": 40,
              "sample.n_per_class": 135},
             lifted_dim=8),
)}


def lifted_benchmark(seed, n_per_class, dim, off_plane_noise=0.01):
    """The toy arcs lifted into ``dim`` dimensions by a seeded random rotation.

    The 2-d points get ``dim - 2`` extra coordinates of Gaussian noise with
    standard deviation ``off_plane_noise`` and are then rotated by an
    orthogonal matrix drawn from the seed, so every class lies near a plane
    that is not aligned with the axes.  Returns (train, heldout, ood).
    """
    from ncis.data import LabeledEmbeddingSet
    from ncis.evalharness import make_toy_benchmark

    bench = make_toy_benchmark(seed, n_per_class)
    rng = np.random.default_rng([seed, dim])
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    rotation = q * np.sign(np.diag(r))

    def lift(points):
        pad = off_plane_noise * rng.standard_normal((points.shape[0], dim - 2))
        return np.concatenate([points, pad], axis=1) @ rotation.T

    train = LabeledEmbeddingSet(lift(bench.train.embeddings), bench.train.labels, 3)
    heldout = LabeledEmbeddingSet(lift(bench.heldout.embeddings), bench.heldout.labels, 3)
    return train, heldout, lift(bench.ood)


def write_inputs(workload: Workload, seed: int, budget: str, work_dir: Path) -> Path:
    """Write the config (and input CSVs) for one run; returns the config path."""
    settings = {"seed": seed, **workload.settings, **(TINY if budget == "tiny" else {})}
    if workload.lifted_dim:
        from ncis import artifacts

        train, heldout, ood = lifted_benchmark(seed, settings["benchmark.n_per_class"],
                                               workload.lifted_dim)
        inputs = {"data.train_csv": "train.csv", "data.heldout_csv": "heldout.csv",
                  "data.ood_csv": "ood.csv"}
        artifacts.save_embeddings_csv(train, work_dir / inputs["data.train_csv"])
        artifacts.save_embeddings_csv(heldout, work_dir / inputs["data.heldout_csv"])
        artifacts.save_points_csv(ood, work_dir / inputs["data.ood_csv"])
        settings["embed.source"] = "csv"
        settings.update({key: str(work_dir / name) for key, name in inputs.items()})
    path = work_dir / "bench.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    return path


def run_workload(workload: Workload, cfg, out_dir: Path, marks: list) -> float:
    """Run the pipeline once; returns wall seconds.

    ``marks`` receives ``(time, log line)`` for every pipeline log line, so
    stage times can be read off afterwards.
    """
    from ncis import pipeline

    def log(line):
        marks.append((time.perf_counter(), line))

    start = time.perf_counter()
    marks.append((start, None))
    if workload.sweep:
        pipeline.sweep_lambda(cfg, out_dir, lambdas=SWEEP_LAMBDAS, log=log)
    else:
        pipeline.run_pipeline(cfg, out_dir, log=log)
    return time.perf_counter() - start


def stage_times(marks, wall_end):
    """Per-stage seconds from the marks, plus the time outside any stage.

    A stage runs from the previous mark to its own log line.  A ``None`` mark
    opens a pipeline call; the gap before it (sweep bookkeeping between
    lambda values) and after the last log line is counted as outside time.
    """
    times = {}
    prev = None
    outside = 0.0
    for when, line in marks:
        if line is None:
            if prev is not None:
                outside += when - prev
        else:
            stage = line[1:line.index("]")]
            times[stage] = times.get(stage, 0.0) + when - prev
        prev = when
    outside += wall_end - prev
    return times, outside
