"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` as ``python -I child.py ...``; prints one JSON object as
its last line of output.  Set-up (interpreter start, imports, writing the
config and inputs) is timed from the parent's ``--t0``, a reading of the
system-wide monotonic clock taken just before the process was started.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy  # noqa: E402

import ncis  # noqa: E402
from ncis.errors import NcisError  # noqa: E402

import checks  # noqa: E402
from workloads import SWEEP_LAMBDAS, WORKLOADS, run_workload, stage_times, write_inputs  # noqa: E402


def bytes_in(out_dir: Path):
    """Bytes of every artifact in the output tree; manifests are bookkeeping."""
    return sum(p.stat().st_size for p in out_dir.rglob("*")
               if p.is_file() and p.name != "manifest.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", required=True, choices=("full", "tiny"))
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    imported = time.monotonic()

    workload = WORKLOADS[args.workload]
    marks = []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(marks)
    inputs_start = time.perf_counter()
    cfg = ncis.load_config(write_inputs(workload, args.seed, args.budget, args.work), environ={})
    inputs_s = time.perf_counter() - inputs_start
    setup_s = time.monotonic() - args.t0

    out_dir = args.work / "out"
    if tracer:
        tracer.install()
    cpu_start = time.process_time()
    try:
        wall_s = run_workload(workload, cfg, out_dir, marks)
    except NcisError as err:
        print(json.dumps({"ok": False, "errors": [f"{type(err).__name__}: {err}"]}))
        return
    finally:
        if tracer:
            tracer.uninstall()
    cpu_s = time.process_time() - cpu_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stages, outside_s = stage_times(marks, marks[0][0] + wall_s)

    # everything below is outside the timed region
    failures, facts = checks.check_output(out_dir, len(SWEEP_LAMBDAS) if workload.sweep else 1,
                                          cfg.sample_n_per_class)
    lines = [line for _, line in marks if line is not None]
    facts["stages_run"] = sum("] wrote " in line for line in lines)
    facts["stages_skipped"] = sum(line.endswith("skipping") for line in lines)
    facts["bytes_written"] = bytes_in(out_dir)
    result = {
        "ok": not failures,
        "errors": failures,
        "setup_s": setup_s,
        "import_s": imported - args.t0,
        "inputs_s": inputs_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_rss_mib,
        "stages": stages,
        "outside_stages_s": outside_s,
        "facts": facts,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": numpy.__version__},
    }
    if tracer and not failures:
        result["errors"] = tracer.tape_shape_failures()
        result["ok"] = not result["errors"]
        layers = tracer.layer_metrics(stages, outside_s, facts)
        layers["setup.import_s"] = result["import_s"]
        layers["setup.inputs_s"] = inputs_s
        result["layers"] = layers
        result["trace_gaps"] = tracer.gaps
        result["facts"]["cvpn.tape_nodes"] = layers["cvpn.tape_nodes"]
        result["facts"]["clf.tape_nodes"] = layers["clf.tape_nodes"]
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result, default=float))


if __name__ == "__main__":
    main()
