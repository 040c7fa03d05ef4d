"""The ncis benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload toy-run-all --seed 1 --seconds 60 --trace 0

Runs the workload's pipeline repeatedly, each time in a fresh child process
with a fresh output directory, until ``--seconds`` have passed.  Each child's
outputs are checked after its timing stops.  The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the children cycle through ``INSTANCES`` problem instances
made from the seed, each at least once; times are medians over the
children, and the detection metrics average the instances.  With
``--trace 1`` untraced and traced children alternate on the first instance,
and the metrics are the per-layer ones from the traced children, plus the
tracing overhead.  Metric names, units and the default run length come
from ``BENCHMARK.json``.

Run from a checkout holding ``src/ncis``; scratch output goes to
``.bench_build/`` in it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

CHILD_TIMEOUT_S = 150
# Rejection sampling makes the work of one problem instance depend on its
# seed (a sweep's proposals vary by ~11% between seeds), and so do the
# detection metrics; averaging a fixed set of instances per run keeps that
# spread small.  The shared host slows children down by up to 1.5x for
# seconds to minutes at a time, so children are short (2-4 s) and the times
# are medians over the 12 to 30 of them in a run.
INSTANCES = 5
# counts that must repeat exactly between runs of one instance
EXACT = ("proposals", "accepted", "stages_run", "bytes_written",
         "cvpn.tape_nodes", "clf.tape_nodes", "auroc", "fpr95", "accuracy")


def instance_seed(seed, instance):
    return INSTANCES * seed + instance


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("NCIS_")}
    # one process, one compute thread: steadier timings on a shared machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, seed, traced, index, work_root):
    """One child run; returns its result dict (``ok`` false on any failure)."""
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    cmd = [sys.executable, "-I", str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(seed), "--budget", args.budget, "--trace", str(int(traced)),
           "--work", str(work)]
    if traced:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{seed}-{index}.json")]
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"child timed out after {CHILD_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"ok": False, "errors": [f"child exited {proc.returncode}"] + tail}
    return json.loads(lines[-1])


def warm_up():
    """Import the package once so byte-code compilation is not timed."""
    subprocess.run([sys.executable, "-I", "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import ncis.pipeline", str(ROOT / "src")], check=True, env=child_env(),
                   timeout=CHILD_TIMEOUT_S)


def by_instance(results):
    groups = {}
    for r in results:
        groups.setdefault(r["instance"], []).append(r)
    return groups


def exact_count_flags(results):
    """Exact counts that differ between runs of one instance."""
    flags = []
    for instance, group in sorted(by_instance(results).items()):
        for name in EXACT:
            seen = {r["facts"][name] for r in group if name in r["facts"]}
            if len(seen) > 1:
                flags.append(f"instance {instance}: {name} differs between runs: {sorted(seen)}")
    return flags


def end_to_end(untraced):
    groups = by_instance(untraced).values()
    values = {
        "wall_s": median(r["wall_s"] for r in untraced),
        "setup_s": median(r["setup_s"] for r in untraced),
        # children of one instance peak either near the smallest value or
        # about 0.6 MiB above it, at random; the smallest is what a run needs
        "peak_rss_mib": min(r["peak_rss_mib"] for r in untraced),
        "auroc": fmean(g[0]["facts"]["auroc"] for g in groups),
        "tnr95": fmean(1.0 - g[0]["facts"]["fpr95"] for g in groups),
        "accuracy": fmean(g[0]["facts"]["accuracy"] for g in groups),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(untraced, traced):
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = (median(r["wall_s"] for r in traced)
                     / median(r["wall_s"] for r in untraced) - 1.0)
        else:
            value = median(layer[name] for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def report(results):
    """Human-readable lines before the JSON result."""
    env = next((r["env"] for r in results if r["ok"]), None)
    if env:
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for i, r in enumerate(results):
        kind = f"{'traced' if r['traced'] else 'untraced'}, seed {r['seed']}"
        if not r["ok"]:
            print(f"run {i} ({kind}): FAILED: {'; '.join(r['errors'])}")
            continue
        stages = " ".join(f"{s}={t:.3f}" for s, t in r["stages"].items())
        print(f"run {i} ({kind}): setup_s={r['setup_s']:.3f} wall_s={r['wall_s']:.3f} "
              f"cpu_s={r['cpu_s']:.3f} stage_sum_s={sum(r['stages'].values()):.3f} "
              f"outside_s={r['outside_stages_s']:.3f} peak_rss_mib={r['peak_rss_mib']:.1f} "
              f"| {stages}")
        print(f"run {i} counts: " + " ".join(f"{k}={r['facts'][k]}" for k in EXACT if k in r["facts"]))
        for gap in r.get("trace_gaps", ()):
            print(f"run {i} trace gap: {gap}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the self-test")
    args = parser.parse_args(argv)

    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "ncis" / "__init__.py").is_file():
        print(f"error: no ncis package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_build" / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    warm_up()
    start = time.monotonic()
    results, durations = [], []
    at_least = 2 if args.trace else INSTANCES
    while True:
        n = len(results)
        traced, instance = (n % 2 == 1, 0) if args.trace else (False, n % INSTANCES)
        seed = instance_seed(args.seed, instance)
        began = time.monotonic()
        result = run_child(args, seed, traced, n, work_root)
        durations.append(time.monotonic() - began)
        results.append({**result, "traced": traced, "instance": instance, "seed": seed})
        # start another child only if it would end by the deadline
        if (len(results) >= at_least
                and time.monotonic() - start + median(durations) > args.seconds):
            break

    good = [r for r in results if r["ok"]]
    flags = exact_count_flags(good)
    report(results)
    for flag in flags:
        print(f"FLAG: {flag}")
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    failed = len(results) - len(good)
    metrics = {}
    if args.trace and untraced and traced:
        metrics = per_layer(untraced, traced)
    elif not args.trace and len(by_instance(untraced)) == INSTANCES:
        metrics = end_to_end(untraced)
    print(json.dumps({"correct": failed == 0 and not flags and bool(metrics),
                      "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
