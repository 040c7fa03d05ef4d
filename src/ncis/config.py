"""Run configuration: a flat `key = value` text grammar with env overrides.

Keys are dotted and namespaced per pipeline stage (``density.lambda``,
``classifier.beta``, ...); a few common hyperparameters also accept bare
aliases (``lambda``, ``p``, ``beta``, ``q``).  ``#`` starts a comment.
Unknown keys, type mismatches, out-of-range values and a key set twice
(also through an alias) are parse errors that name the offending lines.
After the file, ``NCIS_<KEY>`` environment variables (dots replaced by
underscores, upper-cased) override values; two variables that set the
same key (``NCIS_LAMBDA`` and ``NCIS_DENSITY_LAMBDA``) are a parse error.
With ``embed.source = csv``, every ``data.*_csv`` path must then be set.

``RunConfig`` is the one configuration object: the pipeline stages and the
library's training and embedding loops all read it.  Each field's default
is declared on the class and its range once, in ``KEY_TABLE``; a
``RunConfig`` built in code runs the same range checks at construction and
raises ``ContractError`` naming the key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ContractError, ParseError


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

    def __post_init__(self):
        for key, (check, desc) in KEY_TABLE.items():
            value = getattr(self, _field(key))
            if not check(value):
                raise ContractError(f"{key} out of range (must be {desc}), got {value!r}")


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


# key -> (range check, range description): the one declaration of each key's
# range, run by the parser on every value it reads and by RunConfig on every
# field at construction.  A key's RunConfig field is the key with its dot as an
# underscore, and its type is the type of that field's default.
KEY_TABLE = {
    "seed": (_non_negative_int, ">= 0"),
    "benchmark.n_per_class": (_positive_int, ">= 1"),
    "benchmark.noise": (_positive_float, "> 0"),
    "benchmark.margin": (_positive_float, "> 0"),
    "benchmark.ood_count": (_positive_int, ">= 1"),
    "embed.source": (_source_choice, "one of toy-benchmark|toy-denoiser|csv"),
    "embed.iterations": (_non_negative_int, ">= 0"),
    "embed.batch_size": (_positive_int, ">= 1"),
    "embed.learning_rate": (_positive_float, "> 0"),
    "embed.timesteps": (_positive_int, ">= 1"),
    "data.train_csv": (_any_string, "a path"),
    "data.heldout_csv": (_any_string, "a path"),
    "data.ood_csv": (_any_string, "a path"),
    "invariants.p": (_open_percent, "in (0, 100)"),
    "invariants.k_override": (_non_negative_int, ">= 0"),
    "cvpn.num_blocks": (_positive_int, ">= 1"),
    "cvpn.hidden_width": (_positive_int, ">= 1"),
    "cvpn.train_lr": (_positive_float, "> 0"),
    "cvpn.train_iterations": (_positive_int, ">= 1"),
    "cvpn.train_batch": (_positive_int, ">= 1"),
    "density.lambda": (_positive_float, "> 0"),
    "sample.n_per_class": (_positive_int, ">= 1"),
    "sample.q": (_open_unit, "in (0, 1)"),
    "sample.max_attempts": (_non_negative_int, ">= 0"),
    "classifier.beta": (_non_negative_float, ">= 0"),
    "classifier.epochs": (_positive_int, ">= 1"),
    "classifier.lr": (_positive_float, "> 0"),
    "classifier.batch": (_positive_int, ">= 1"),
    "classifier.hidden_width": (_positive_int, ">= 1"),
    "classifier.phi_hidden": (_positive_int, ">= 1"),
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


def _field(key):
    return key.replace(".", "_")


def _key(attr):
    return attr.replace("_", ".", 1)


def _parse_value(key, raw, line=None):
    check, desc = KEY_TABLE[key]
    attr = _field(key)
    kind = type(getattr(RunConfig, attr))
    try:
        value = kind(raw)
    except ValueError:
        raise ParseError(f"value for '{key}' must be {kind.__name__}, got {raw!r}", line)
    if not check(value):
        raise ParseError(f"value for '{key}' out of range (must be {desc}), got {raw!r}", line)
    return attr, value


def _resolve_key(key, line=None):
    key = ALIASES.get(key, key)
    if key not in KEY_TABLE:
        raise ParseError(f"unknown configuration key '{key}'", line)
    return key


def apply_env_overrides(cfg: RunConfig, environ=None) -> RunConfig:
    """Set each key named by an ``NCIS_<KEY>`` variable; two that name the
    same key (a key's and an alias's) are a ``ParseError``."""
    environ = os.environ if environ is None else environ
    set_by = {}
    for key in list(KEY_TABLE) + list(ALIASES):
        env_name = ENV_PREFIX + key.upper().replace(".", "_")
        if env_name in environ:
            canonical = _resolve_key(key)
            if canonical in set_by:
                raise ParseError(f"environment variables {set_by[canonical]} and {env_name} "
                                 f"both set '{canonical}'")
            set_by[canonical] = env_name
            try:
                attr, value = _parse_value(canonical, environ[env_name])
            except ParseError as err:
                raise ParseError(f"environment variable {env_name}: {err}") from err
            setattr(cfg, attr, value)
    return cfg


def parse_config(text: str, environ=None) -> RunConfig:
    """Parse configuration text, fill defaults, apply environment overrides."""
    cfg = RunConfig()
    set_on = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, raw = (part.strip() for part in line.partition("="))
        if not (key and equals and raw):
            raise ParseError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        canonical = _resolve_key(key, lineno)
        if canonical in set_on:
            raise ParseError(f"'{canonical}' is already set on line {set_on[canonical]}", lineno)
        set_on[canonical] = lineno
        attr, value = _parse_value(canonical, raw, lineno)
        setattr(cfg, attr, value)
    cfg = apply_env_overrides(cfg, environ)
    if cfg.embed_source == "csv":
        for attr in CSV_SOURCE_FIELDS:
            if not getattr(cfg, attr):
                raise ParseError(f"embed.source = csv needs a path for '{_key(attr)}'")
    return cfg


def load_config(path, environ=None) -> RunConfig:
    return parse_config(Path(path).read_text(), environ)


def namespace_fields(namespaces):
    """The RunConfig fields of the keys in ``namespaces``, each a whole key
    (``seed``, ``embed.source``) or a namespace (``cvpn`` for every ``cvpn.*``)."""
    return tuple(_field(key) for key in KEY_TABLE
                 if any(key == ns or key.startswith(ns + ".") for ns in namespaces))


def config_lines(cfg: RunConfig, attrs):
    """Canonical `key = value` rendering of the fields ``attrs``, sorted by key."""
    return sorted(f"{_key(attr)} = {getattr(cfg, attr)!r}" for attr in attrs)
