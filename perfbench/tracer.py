"""Outside-in tracing of the ncis layers, for the traced benchmark run only.

The tracer replaces public functions of the package's modules with wrappers
that record spans (name, start, end, parent) in memory; nothing in the
package changes, and an untraced run never imports this module.  Where a
module imported a function by name (``adam_update``, ``log_density_v``) the
name is patched in the importing module, since that is the one the pipeline
calls.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

import numpy as np

from ncis import (artifacts, autodiff, cvpn, evalharness, invariant_training,
                  ood_classifier, outlier_sampling, pipeline)

LOOPS = ("cvpn", "clf")
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def count_tape_nodes(out):
    """Distinct tape nodes reachable from ``out``, leaves included."""
    seen = {id(out)}
    stack = [out]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def median(values):
    """Median, or 0 when a layer recorded no spans (say, a loop off the tape)."""
    return float(np.median(values)) if len(values) else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def tail(values):
    """(percentile, value): the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(values, pct))
    return 50.0, median(values)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, marks):
        self.spans = []         # [name, start, end, parent index or -1]
        self._open = []         # indices of the spans still open
        self._restore = []
        self.marks = marks      # the workload's stage marks; pipeline calls add a None mark
        self.loop = None        # "cvpn" or "clf" while that training loop runs
        self.tape_nodes = {loop: [] for loop in LOOPS}
        self.rows_scored = 0
        self.bytes_written = 0
        self.files_written = 0
        self.gaps = []          # what the metrics cannot show, printed with the run

    # -- recording ---------------------------------------------------------

    def _begin(self, name):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _end(self, rec):
        rec[2] = time.perf_counter()
        self._open.pop()

    def _wrap(self, module, attr, name, before=None, after=None):
        orig = getattr(module, attr, None)
        if orig is None:
            self.gaps.append(f"{module.__name__}.{attr} is gone, so its metrics read 0")
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before:
                before(args, kwargs)
            rec = self._begin(name() if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._end(rec)
            if after:
                after(args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    # -- patches -----------------------------------------------------------

    def install(self):
        self._wrap(pipeline, "run_pipeline", "pipeline.run_pipeline",
                   before=lambda a, k: self.marks.append((time.perf_counter(), None)))
        self._wrap(pipeline, "sweep_lambda", "pipeline.sweep_lambda")
        self._wrap_loop(invariant_training, "train_cvpn", "cvpn")
        self._wrap_loop(ood_classifier, "train_energy_classifier", "clf")
        self._wrap_eval_and_grad()
        for module in (invariant_training, ood_classifier):
            self._wrap(module, "adam_update", lambda: f"{self.loop}.adam")
        self._wrap(outlier_sampling, "synthesize_outliers", "sample.synthesize")
        self._wrap(outlier_sampling, "log_density_v", "sample.log_density_v")
        self._wrap(cvpn, "cvpn_inverse_batch", "sample.cvpn_inverse_batch")
        for attr in ("ood_scores", "sample_energies", "predict_labels"):
            self._wrap(ood_classifier, attr, "eval.score", after=self._count_rows)
        self._wrap(evalharness, "fpr_at_tpr", "eval.fpr_at_tpr")
        self._wrap(evalharness, "auroc", "eval.auroc")
        for attr in sorted(vars(artifacts)):
            if attr.startswith("save_") and attr != "save_artifact":
                self._wrap(artifacts, attr, "artifacts.write", after=self._count_bytes)
            elif attr.startswith("load_") and attr != "load_artifact":
                self._wrap(artifacts, attr, "artifacts.read")

    def uninstall(self):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def _wrap_loop(self, module, attr, loop):
        def enter(args, kwargs):
            self.loop = loop

        def leave(args, kwargs, result):
            self.loop = None

        self._wrap(module, attr, f"{loop}.train", before=enter, after=leave)

    def _wrap_eval_and_grad(self):
        orig = getattr(autodiff, "eval_and_grad", None)
        if orig is None:
            self.gaps.append("ncis.autodiff.eval_and_grad is gone, so the fwd/bwd split reads 0")
            return

        @functools.wraps(orig)
        def eval_and_grad(fn, params):
            loop = self.loop

            def timed_fn(leaves):
                rec = self._begin(f"{loop}.fwd")
                out = fn(leaves)
                self._end(rec)
                rec = self._begin(f"{loop}.count_nodes")
                self.tape_nodes.setdefault(loop, []).append(count_tape_nodes(out))
                self._end(rec)
                return out

            rec = self._begin(f"{loop}.eval_and_grad")
            try:
                return orig(timed_fn, params)
            finally:
                self._end(rec)

        autodiff.eval_and_grad = eval_and_grad
        self._restore.append((autodiff, "eval_and_grad", orig))

    def _count_rows(self, args, kwargs, result):
        self.rows_scored += len(args[1])

    def _count_bytes(self, args, kwargs, result):
        self.bytes_written += os.path.getsize(args[1])
        self.files_written += 1

    # -- results -----------------------------------------------------------

    def tape_shape_failures(self):
        """Each training loop builds one tape shape; more than one is a failure."""
        return [f"{loop} tape node counts vary: {sorted(set(counts))}"
                for loop, counts in self.tape_nodes.items() if len(set(counts)) > 1]

    def durations(self, name):
        return np.array([end - start for n, start, end, _ in self.spans if n == name])

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {"names": names,
                   "fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans]}
        Path(path).write_text(json.dumps(payload, separators=(",", ":")))

    def step_ms(self, loop):
        """(steps, per-step milliseconds) of one training loop.

        A step is one ``eval_and_grad`` plus one ``adam_update``.  If the loop
        no longer calls both once a step, only the mean step is known: the
        loop's time over the larger of the two call counts.
        """
        eg = self.durations(f"{loop}.eval_and_grad")
        count = self.durations(f"{loop}.count_nodes")
        adam = self.durations(f"{loop}.adam")
        if len(eg) == len(adam):
            return len(eg), 1e3 * (eg - count + adam)
        steps = max(len(eg), len(adam))
        self.gaps.append(f"{loop}: {len(eg)} eval_and_grad and {len(adam)} adam_update calls, "
                         "so step_ms is the mean step and the fwd/bwd/adam split is partial")
        loop_s = self.durations(f"{loop}.train").sum() - count.sum()
        return steps, np.array([1e3 * loop_s / steps])

    def layer_metrics(self, stages, outside_s, facts):
        """Per-layer metrics: name -> value."""
        m = {}
        for stage in pipeline.STAGES:
            m[f"pipeline.{stage}_s"] = stages.get(stage, 0.0)
        m["pipeline.outside_stages_s"] = outside_s
        m["pipeline.stages_run"] = facts["stages_run"]
        m["pipeline.stages_skipped"] = facts["stages_skipped"]

        for loop in LOOPS:
            eg = self.durations(f"{loop}.eval_and_grad")
            fwd = self.durations(f"{loop}.fwd")
            count = self.durations(f"{loop}.count_nodes")
            steps, step_ms = self.step_ms(loop)
            pct, tail_ms = tail(step_ms)
            m[f"{loop}.steps"] = steps
            m[f"{loop}.step_ms.p50"] = median(step_ms)
            m[f"{loop}.step_ms.tail"] = tail_ms
            m[f"{loop}.step_ms.tail_pct"] = pct
            m[f"{loop}.fwd_ms"] = 1e3 * median(fwd)
            m[f"{loop}.bwd_ms"] = 1e3 * median(eg - fwd - count)
            m[f"{loop}.adam_ms"] = 1e3 * median(self.durations(f"{loop}.adam"))
            m[f"{loop}.tape_nodes"] = max(self.tape_nodes[loop], default=0)

        logdens = self.durations("sample.log_density_v")
        sample_s = stages.get("sample-outliers", 0.0)
        m["sample.proposals"] = facts["proposals"]
        m["sample.accepted"] = facts["accepted"]
        m["sample.accept_ratio"] = ratio(facts["accepted"], facts["proposals"])
        m["sample.logdens_calls"] = len(logdens)
        m["sample.logdens_s"] = float(logdens.sum())
        m["sample.inverse_s"] = float(self.durations("sample.cvpn_inverse_batch").sum())
        m["sample.proposals_per_s"] = ratio(facts["proposals"], sample_s)

        score_s = float(self.durations("eval.score").sum())
        m["eval.rows"] = self.rows_scored
        m["eval.score_rows_per_s"] = ratio(self.rows_scored, score_s)
        m["eval.fpr_s"] = float(self.durations("eval.fpr_at_tpr").sum())
        m["eval.auroc_s"] = float(self.durations("eval.auroc").sum())

        m["artifacts.write_s"] = float(self.durations("artifacts.write").sum())
        m["artifacts.read_s"] = float(self.durations("artifacts.read").sum())
        m["artifacts.bytes_written"] = self.bytes_written
        m["artifacts.files_written"] = self.files_written
        return m
