"""Run configuration: a flat `key = value` text grammar with env overrides.

Keys are dotted and namespaced per pipeline stage (``density.lambda``,
``classifier.beta``, ...); a few common hyperparameters also accept bare
aliases (``lambda``, ``p``, ``beta``, ``q``).  ``#`` starts a comment.
Unknown keys, type mismatches and out-of-range values are parse errors that
name the offending line.  After the file, environment variables of the form
``NCIS_<KEY>`` (dots replaced by underscores, upper-cased) override values.
With ``embed.source = csv``, every ``data.*_csv`` path must then be set.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError


@dataclass
class RunConfig:
    seed: int = 7
    benchmark_n_per_class: int = 200
    benchmark_noise: float = 0.05
    benchmark_margin: float = 0.3
    benchmark_ood_count: int = 600
    embed_source: str = "toy-benchmark"
    embed_iterations: int = 150
    embed_batch_size: int = 64
    embed_learning_rate: float = 0.01
    embed_timesteps: int = 50
    data_train_csv: str = ""
    data_heldout_csv: str = ""
    data_ood_csv: str = ""
    invariants_p: float = 2.0
    invariants_k_override: int = 0
    cvpn_num_blocks: int = 4
    cvpn_hidden_width: int = 32
    cvpn_train_lr: float = 1e-3
    cvpn_train_iterations: int = 5000
    cvpn_train_batch: int = 128
    density_lambda: float = 1e-5
    sample_n_per_class: int = 1000
    sample_q: float = 0.05
    sample_max_attempts: int = 0
    classifier_beta: float = 1.0
    classifier_epochs: int = 800
    classifier_lr: float = 3e-3
    classifier_batch: int = 128
    classifier_hidden_width: int = 64
    classifier_phi_hidden: int = 8


def _positive_int(v):
    return v >= 1


def _non_negative_int(v):
    return v >= 0


def _positive_float(v):
    return math.isfinite(v) and v > 0


def _non_negative_float(v):
    return math.isfinite(v) and v >= 0


def _open_percent(v):
    return math.isfinite(v) and 0 < v < 100


def _open_unit(v):
    return math.isfinite(v) and 0 < v < 1


def _any_string(v):
    return True


def _source_choice(v):
    return v in ("toy-benchmark", "toy-denoiser", "csv")


# key -> (attribute, parser, range check, range description)
KEY_TABLE = {
    "seed": ("seed", int, _non_negative_int, ">= 0"),
    "benchmark.n_per_class": ("benchmark_n_per_class", int, _positive_int, ">= 1"),
    "benchmark.noise": ("benchmark_noise", float, _positive_float, "> 0"),
    "benchmark.margin": ("benchmark_margin", float, _positive_float, "> 0"),
    "benchmark.ood_count": ("benchmark_ood_count", int, _positive_int, ">= 1"),
    "embed.source": ("embed_source", str, _source_choice, "one of toy-benchmark|toy-denoiser|csv"),
    "embed.iterations": ("embed_iterations", int, _non_negative_int, ">= 0"),
    "embed.batch_size": ("embed_batch_size", int, _positive_int, ">= 1"),
    "embed.learning_rate": ("embed_learning_rate", float, _positive_float, "> 0"),
    "embed.timesteps": ("embed_timesteps", int, _positive_int, ">= 1"),
    "data.train_csv": ("data_train_csv", str, _any_string, "a path"),
    "data.heldout_csv": ("data_heldout_csv", str, _any_string, "a path"),
    "data.ood_csv": ("data_ood_csv", str, _any_string, "a path"),
    "invariants.p": ("invariants_p", float, _open_percent, "in (0, 100)"),
    "invariants.k_override": ("invariants_k_override", int, _non_negative_int, ">= 0"),
    "cvpn.num_blocks": ("cvpn_num_blocks", int, _positive_int, ">= 1"),
    "cvpn.hidden_width": ("cvpn_hidden_width", int, _positive_int, ">= 1"),
    "cvpn.train_lr": ("cvpn_train_lr", float, _positive_float, "> 0"),
    "cvpn.train_iterations": ("cvpn_train_iterations", int, _positive_int, ">= 1"),
    "cvpn.train_batch": ("cvpn_train_batch", int, _positive_int, ">= 1"),
    "density.lambda": ("density_lambda", float, _positive_float, "> 0"),
    "sample.n_per_class": ("sample_n_per_class", int, _positive_int, ">= 1"),
    "sample.q": ("sample_q", float, _open_unit, "in (0, 1)"),
    "sample.max_attempts": ("sample_max_attempts", int, _non_negative_int, ">= 0"),
    "classifier.beta": ("classifier_beta", float, _non_negative_float, ">= 0"),
    "classifier.epochs": ("classifier_epochs", int, _positive_int, ">= 1"),
    "classifier.lr": ("classifier_lr", float, _positive_float, "> 0"),
    "classifier.batch": ("classifier_batch", int, _positive_int, ">= 1"),
    "classifier.hidden_width": ("classifier_hidden_width", int, _positive_int, ">= 1"),
    "classifier.phi_hidden": ("classifier_phi_hidden", int, _positive_int, ">= 1"),
}

ALIASES = {
    "lambda": "density.lambda",
    "p": "invariants.p",
    "beta": "classifier.beta",
    "q": "sample.q",
}

ENV_PREFIX = "NCIS_"

# the fields naming the external CSVs that embed reads when embed.source = csv
CSV_SOURCE_FIELDS = ("data_train_csv", "data_heldout_csv", "data_ood_csv")


def _parse_value(key, raw, line=None):
    attr, parser, check, desc = KEY_TABLE[key]
    try:
        if parser is int:
            value = int(raw)
        elif parser is float:
            value = float(raw)
        else:
            value = raw
    except ValueError:
        raise ParseError(f"value for '{key}' must be {parser.__name__}, got {raw!r}", line)
    if not check(value):
        raise ParseError(f"value for '{key}' out of range (must be {desc}), got {raw!r}", line)
    return attr, value


def _resolve_key(key, line=None):
    key = ALIASES.get(key, key)
    if key not in KEY_TABLE:
        raise ParseError(f"unknown configuration key '{key}'", line)
    return key


def apply_env_overrides(cfg: RunConfig, environ=None) -> RunConfig:
    environ = os.environ if environ is None else environ
    for key in list(KEY_TABLE) + list(ALIASES):
        env_name = ENV_PREFIX + key.upper().replace(".", "_")
        if env_name in environ:
            canonical = _resolve_key(key)
            try:
                attr, value = _parse_value(canonical, environ[env_name])
            except ParseError as err:
                raise ParseError(f"environment variable {env_name}: {err}") from err
            setattr(cfg, attr, value)
    return cfg


def parse_config(text: str, environ=None) -> RunConfig:
    """Parse configuration text, fill defaults, apply environment overrides."""
    cfg = RunConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key, raw = (part.strip() for part in line.split("=", 1))
        if not key or not raw:
            raise ParseError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        canonical = _resolve_key(key, lineno)
        attr, value = _parse_value(canonical, raw, lineno)
        setattr(cfg, attr, value)
    cfg = apply_env_overrides(cfg, environ)
    if cfg.embed_source == "csv":
        for attr in CSV_SOURCE_FIELDS:
            if not getattr(cfg, attr):
                key = attr.replace("_", ".", 1)
                raise ParseError(f"embed.source = csv needs a path for '{key}'")
    return cfg


def load_config(path, environ=None) -> RunConfig:
    return parse_config(Path(path).read_text(), environ)


def config_lines(cfg: RunConfig, attrs):
    """Canonical `key = value` rendering of the fields ``attrs``, sorted by key."""
    by_attr = {attr: key for key, (attr, _, _, _) in KEY_TABLE.items()}
    return sorted(f"{by_attr[attr]} = {getattr(cfg, attr)!r}" for attr in attrs)
