"""Run configuration: a flat `key = value` text grammar with env overrides.

Keys are dotted and namespaced per pipeline stage (``density.lambda``,
``classifier.beta``, ...); a few common hyperparameters also accept bare
aliases (``lambda``, ``p``, ``beta``, ``q``).  ``#`` starts a comment.
Unknown keys, values that do not parse as the key's type and a key set twice
(also through an alias) are parse errors that name the offending lines.
After the file, ``NCIS_<KEY>`` environment variables (dots replaced by
underscores, upper-cased) override values; two variables that set the
same key (``NCIS_LAMBDA`` and ``NCIS_DENSITY_LAMBDA``) are a parse error.

``RunConfig`` is the one configuration object: the pipeline stages and the
library's training and embedding loops all read it.  Each key is declared
once, as a field of ``RunConfig`` (the key with its dot as an underscore)
that carries its type, default, range check and range text; ``KEY_TABLE``
is read off those fields.  A ``RunConfig`` is immutable, and building one
checks every value: an integral number is stored as ``int`` and a real
number as ``float`` for the field's type, any other type (``bool``
included) or a value out of range raises ``ContractError`` naming the key,
and so do a ``benchmark.noise`` that reaches ``benchmark.margin`` and
``embed.source = csv`` unless every ``data.*_csv`` path is set.
``check_range`` applies one key's range with the same check and error; a
library function that takes a hyperparameter as an argument checks it
there, so ``nan`` and ``inf`` are refused wherever the key's range refuses
them.  ``parse_config`` builds one ``RunConfig`` from the file's and
the environment's values, and re-raises such an error as a ``ParseError``
that names the line or variable that set the key.  Derive a changed
configuration with ``dataclasses.replace``, which runs the same checks.
"""

import math
import numbers
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ContractError, ParseError


def _field(key):
    return key.replace(".", "_")


def _key(attr):
    return attr.replace("_", ".", 1)


# each range's text -> its check; the chained comparisons refuse nan and inf
_RANGES = {
    ">= 0": lambda v: 0 <= v < math.inf,
    ">= 1": lambda v: 1 <= v < math.inf,
    "> 0": lambda v: 0 < v < math.inf,
    "in (0, 100)": lambda v: 0 < v < 100,
    "in (0, 1)": lambda v: 0 < v < 1,
    "one of toy-benchmark|toy-denoiser|csv":
        lambda v: v in ("toy-benchmark", "toy-denoiser", "csv"),
    "a path": lambda v: True,
}


def _key_field(default, text):
    """A key's field: its default, and its range as text and as a check."""
    return field(default=default, metadata={"check": _RANGES[text], "range": text})


# the fields naming the external CSVs that embed reads when embed.source = csv
CSV_SOURCE_FIELDS = ("data_train_csv", "data_heldout_csv", "data_ood_csv")

# the types a field of each type accepts, each stored as the field's type
_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str}


def _refusal(key, problem):
    """A ``ContractError`` naming ``key``, which ``parse_config`` reads back
    to name the line or variable that set it."""
    err = ContractError(f"{key} {problem}")
    err.key = key
    return err


@dataclass(frozen=True)
class RunConfig:
    seed: int = _key_field(7, ">= 0")
    benchmark_n_per_class: int = _key_field(200, ">= 1")
    benchmark_noise: float = _key_field(0.05, "> 0")
    benchmark_margin: float = _key_field(0.3, "> 0")
    benchmark_ood_count: int = _key_field(600, ">= 1")
    embed_source: str = _key_field("toy-benchmark", "one of toy-benchmark|toy-denoiser|csv")
    embed_iterations: int = _key_field(150, ">= 0")
    embed_batch_size: int = _key_field(64, ">= 1")
    embed_learning_rate: float = _key_field(0.01, "> 0")
    embed_timesteps: int = _key_field(50, ">= 1")
    data_train_csv: str = _key_field("", "a path")
    data_heldout_csv: str = _key_field("", "a path")
    data_ood_csv: str = _key_field("", "a path")
    invariants_p: float = _key_field(2.0, "in (0, 100)")
    invariants_k_override: int = _key_field(0, ">= 0")
    cvpn_num_blocks: int = _key_field(4, ">= 1")
    cvpn_hidden_width: int = _key_field(32, ">= 1")
    cvpn_train_lr: float = _key_field(1e-3, "> 0")
    cvpn_train_iterations: int = _key_field(5000, ">= 1")
    cvpn_train_batch: int = _key_field(128, ">= 1")
    density_lambda: float = _key_field(1e-5, "> 0")
    sample_n_per_class: int = _key_field(1000, ">= 1")
    sample_q: float = _key_field(0.05, "in (0, 1)")
    sample_max_attempts: int = _key_field(0, ">= 0")
    classifier_beta: float = _key_field(1.0, ">= 0")
    classifier_epochs: int = _key_field(800, ">= 1")
    classifier_lr: float = _key_field(3e-3, "> 0")
    classifier_batch: int = _key_field(128, ">= 1")
    classifier_hidden_width: int = _key_field(64, ">= 1")
    classifier_phi_hidden: int = _key_field(8, ">= 1")

    def __post_init__(self):
        for f in fields(self):
            key, value = _key(f.name), getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[f.type]):
                raise _refusal(key, f"must be {f.type.__name__}, got {value!r}")
            object.__setattr__(self, f.name, check_range(key, f.type(value)))
        if self.benchmark_noise >= self.benchmark_margin:
            raise _refusal("benchmark.noise", f"must stay below benchmark.margin "
                           f"({self.benchmark_margin!r}), got {self.benchmark_noise!r}")
        if self.embed_source == "csv":
            for name in CSV_SOURCE_FIELDS:
                if not getattr(self, name):
                    raise _refusal("embed.source", f"= csv needs a path for '{_key(name)}'")


# key -> (range check, range text), read off the RunConfig fields
KEY_TABLE = {_key(f.name): (f.metadata["check"], f.metadata["range"]) for f in fields(RunConfig)}


def check_range(key, value):
    """``value``, when it lies in the range declared for ``key``; else the
    ``ContractError`` naming the key that building a ``RunConfig`` raises."""
    check, text = KEY_TABLE[key]
    if not check(value):
        raise _refusal(key, f"out of range (must be {text}), got {value!r}")
    return value


ALIASES = {
    "lambda": "density.lambda",
    "p": "invariants.p",
    "beta": "classifier.beta",
    "q": "sample.q",
}

ENV_PREFIX = "NCIS_"


def _parse_value(key, raw, line=None):
    """``raw`` as the type of ``key``'s field; its range is RunConfig's to check."""
    kind = RunConfig.__annotations__[_field(key)]
    try:
        return kind(raw)
    except ValueError:
        raise ParseError(f"value for '{key}' must be {kind.__name__}, got {raw!r}", line)


def _resolve_key(key, line=None):
    key = ALIASES.get(key, key)
    if key not in KEY_TABLE:
        raise ParseError(f"unknown configuration key '{key}'", line)
    return key


def _env_values(environ):
    """{key: (value, variable)} for each key an ``NCIS_<KEY>`` variable sets;
    two that name the same key (a key's and an alias's) are a ``ParseError``."""
    found = {}
    for name in list(KEY_TABLE) + list(ALIASES):
        env_name = ENV_PREFIX + name.upper().replace(".", "_")
        if env_name in environ:
            key = _resolve_key(name)
            if key in found:
                raise ParseError(f"environment variables {found[key][1]} and {env_name} "
                                 f"both set '{key}'")
            try:
                found[key] = (_parse_value(key, environ[env_name]), env_name)
            except ParseError as err:
                raise ParseError(f"environment variable {env_name}: {err}") from err
    return found


def parse_config(text: str, environ=None) -> RunConfig:
    """Parse configuration text, fill defaults, apply environment overrides."""
    values, set_on = {}, {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, equals, raw = (part.strip() for part in line.partition("="))
        if not (key and equals and raw):
            raise ParseError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key = _resolve_key(key, lineno)
        if key in set_on:
            raise ParseError(f"'{key}' is already set on line {set_on[key]}", lineno)
        set_on[key] = lineno
        values[key] = _parse_value(key, raw, lineno)
    env = _env_values(os.environ if environ is None else environ)
    values.update((key, value) for key, (value, _) in env.items())
    try:
        return RunConfig(**{_field(key): value for key, value in values.items()})
    except ContractError as err:
        if err.key in env:
            raise ParseError(f"environment variable {env[err.key][1]}: {err}") from err
        raise ParseError(str(err), set_on.get(err.key)) from err


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
