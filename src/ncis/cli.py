"""Command-line driver for the outlier-synthesis pipeline."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import artifacts
from .config import RunConfig, load_config, parse_config
from .errors import NcisError, ParseError
from .pipeline import DEFAULT_SWEEP, STAGES, run_pipeline, sweep_lambda


def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="configuration file (key = value lines); defaults apply if omitted")
    parser.add_argument("--out", metavar="DIR", default="ncis-out",
                        help="output directory for artifacts (default: ncis-out)")
    parser.add_argument("--seed", metavar="N", type=int, default=None,
                        help="override the configured seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncis",
        description="Learn class-conditional invariants, synthesize boundary outliers, "
                    "and train an OOD-aware classifier.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stage in STAGES.items():
        p = sub.add_parser(name, help=stage.help)
        _add_common(p)
    p = sub.add_parser("run-all", help="run every stage in order")
    _add_common(p)
    p = sub.add_parser("sweep-lambda", help="full pipeline per covariance regularization value")
    _add_common(p)
    p.add_argument("--lambdas", default=",".join(f"{v:g}" for v in DEFAULT_SWEEP),
                   help="comma-separated regularization values")
    return parser


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else parse_config("")
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    log = print
    try:
        cfg = _load(args)
        if args.command == "run-all":
            run_pipeline(cfg, args.out, log=log)
        elif args.command == "sweep-lambda":
            try:
                lambdas = [float(v) for v in args.lambdas.split(",") if v.strip()]
            except ValueError:
                raise ParseError(f"--lambdas must be comma-separated numbers, got {args.lambdas!r}")
            rows = sweep_lambda(cfg, args.out, lambdas, log=log)
            print(",".join(artifacts.CSV_TABLES["sweep"][0]))
            for lam, fpr, auc, acc, mag in rows:
                print(f"{lam:g},{fpr:.4f},{auc:.4f},{acc:.4f},{mag:.6f}")
        else:
            run_pipeline(cfg, args.out, stages=[args.command], log=log)
    except NcisError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
