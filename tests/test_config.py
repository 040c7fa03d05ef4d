import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from ncis import (artifacts, config, cvpn, density, embedding, evalharness, invariant_training,
                  ood_classifier, outlier_sampling, pipeline)
from ncis.config import KEY_TABLE, RunConfig, config_lines, namespace_fields, parse_config
from ncis.data import LabeledEmbeddingSet
from ncis.errors import ArtifactError, ContractError, ParseError


def test_empty_text_gives_defaults():
    cfg = parse_config("", environ={})
    assert cfg.invariants_p == 2.0
    assert cfg.density_lambda == 1e-5
    assert cfg.classifier_beta == 1.0
    assert cfg.sample_q == 0.05
    assert cfg.seed == 7


def test_negative_lambda_reports_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_config("lambda = -1", environ={})


def test_p_override():
    cfg = parse_config("p = 10", environ={})
    assert cfg.invariants_p == 10.0


def test_dotted_keys_and_comments():
    text = """
# full run configuration
density.lambda = 1e-4   # stronger inflation
classifier.beta = 0.5
seed = 3
"""
    cfg = parse_config(text, environ={})
    assert cfg.density_lambda == 1e-4
    assert cfg.classifier_beta == 0.5
    assert cfg.seed == 3


def test_unknown_key_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_config("seed = 1\nwat.nope = 3\n", environ={})


def test_type_mismatch_reports_line():
    with pytest.raises(ParseError, match="must be int"):
        parse_config("seed = 1.5", environ={})


def test_missing_equals_rejected():
    with pytest.raises(ParseError, match="line 1"):
        parse_config("just some words", environ={})


def test_out_of_range_values():
    with pytest.raises(ParseError):
        parse_config("invariants.p = 100", environ={})
    with pytest.raises(ParseError):
        parse_config("sample.q = 1.0", environ={})
    with pytest.raises(ParseError):
        parse_config("classifier.beta = -0.1", environ={})
    with pytest.raises(ParseError):
        parse_config("embed.source = pixel", environ={})


def test_env_overrides_file():
    cfg = parse_config("density.lambda = 1e-4", environ={"NCIS_DENSITY_LAMBDA": "1e-3"})
    assert cfg.density_lambda == 1e-3


def test_env_alias_and_validation():
    cfg = parse_config("", environ={"NCIS_LAMBDA": "2e-5"})
    assert cfg.density_lambda == 2e-5
    with pytest.raises(ParseError, match="NCIS_LAMBDA"):
        parse_config("", environ={"NCIS_LAMBDA": "-1"})


def test_env_key_and_alias_for_one_key_are_refused():
    # neither may silently win: the two name the same key
    env = {"NCIS_DENSITY_LAMBDA": "1e-3", "NCIS_LAMBDA": "1e-4"}
    with pytest.raises(ParseError, match="NCIS_DENSITY_LAMBDA.*NCIS_LAMBDA.*density.lambda"):
        parse_config("", environ=env)
    cfg = parse_config("", environ={"NCIS_DENSITY_LAMBDA": "1e-3", "NCIS_P": "3"})
    assert (cfg.density_lambda, cfg.invariants_p) == (1e-3, 3.0)


def test_key_set_twice_in_a_file_is_refused_with_both_lines():
    # neither line may silently win, also when one of them uses an alias
    with pytest.raises(ParseError, match=r"line 3: 'seed' .*line 1"):
        parse_config("seed = 1\n\nseed = 2\n", environ={})
    with pytest.raises(ParseError, match=r"line 2: 'density.lambda' .*line 1"):
        parse_config("lambda = 1e-4\ndensity.lambda = 1e-3\n", environ={})
    cfg = parse_config("seed = 1\n", environ={"NCIS_SEED": "2"})
    assert cfg.seed == 2


def test_every_key_is_the_run_config_field_of_its_name():
    # a key's field is the key with its dot as an underscore
    assert [key.replace(".", "_") for key in KEY_TABLE] == [f.name for f in fields(RunConfig)]
    assert all(len(row) == 2 for row in KEY_TABLE.values())


@pytest.mark.parametrize("key", [key for key in KEY_TABLE if not key.startswith("data.")])
def test_run_config_built_in_code_runs_the_key_table_check(key):
    # the data.* paths accept any string; every other key has values out of range
    check, desc = KEY_TABLE[key]
    field = key.replace(".", "_")
    kind = type(getattr(RunConfig, field))
    if kind is str:
        bad = "no-such-source"
    else:
        bad = next(kind(v) for v in (0, -1, 100) if not check(kind(v)))
    with pytest.raises(ContractError,
                       match=re.escape(f"{key} out of range (must be {desc}), got {bad!r}")):
        RunConfig(**{field: bad})


def test_namespace_fields_expand_whole_keys_and_namespaces(monkeypatch):
    assert namespace_fields(("seed", "embed.source")) == ("seed", "embed_source")
    assert namespace_fields(("invariants",)) == ("invariants_p", "invariants_k_override")
    # a new key joins its namespace without a second edit
    monkeypatch.setitem(config.KEY_TABLE, "invariants.extra", (lambda v: True, "any"))
    assert namespace_fields(("invariants",))[-1] == "invariants_extra"


def test_config_lines_track_values():
    a = parse_config("", environ={})
    b = parse_config("seed = 8", environ={})
    assert config_lines(a, ("seed", "density_lambda")) == ["density.lambda = 1e-05", "seed = 7"]
    assert config_lines(a, ("seed",)) == config_lines(RunConfig(), ("seed",))
    assert config_lines(a, ("seed",)) != config_lines(b, ("seed",))
    assert config_lines(a, ("density_lambda",)) == config_lines(b, ("density_lambda",))


def test_csv_source_requires_every_path():
    with pytest.raises(ParseError, match="data.train_csv"):
        parse_config("embed.source = csv", environ={})
    two = "embed.source = csv\ndata.train_csv = a.csv\ndata.heldout_csv = b.csv\n"
    with pytest.raises(ParseError, match="data.ood_csv"):
        parse_config(two, environ={})
    cfg = parse_config(two, environ={"NCIS_DATA_OOD_CSV": "c.csv"})
    assert cfg.data_ood_csv == "c.csv"
    with pytest.raises(ParseError, match="data.train_csv"):
        parse_config("", environ={"NCIS_EMBED_SOURCE": "csv"})


def test_run_config_built_in_code_keys_like_the_parsed_config():
    # an int in a float field, or a numpy integer, is the parsed value
    parsed = parse_config("classifier.beta = 1\nseed = 7\n", environ={})
    for built in (RunConfig(classifier_beta=1), RunConfig(seed=np.int64(7))):
        assert config_lines(built, ("classifier_beta", "seed")) == ["classifier.beta = 1.0",
                                                                   "seed = 7"]
        for stage in pipeline.STAGES:
            assert pipeline.stage_key(stage, built, {}) == pipeline.stage_key(stage, parsed, {})
    assert type(RunConfig(classifier_beta=np.float32(0.5)).classifier_beta) is float


@pytest.mark.parametrize("field, value", [
    ("seed", "7"), ("seed", True), ("seed", 7.0), ("seed", None),
    ("classifier_beta", "1.0"), ("classifier_beta", False), ("embed_source", 1),
])
def test_run_config_refuses_a_value_of_the_wrong_type(field, value):
    key = field.replace("_", ".", 1)
    with pytest.raises(ContractError, match=f"^{re.escape(key)} must be "):
        RunConfig(**{field: value})


def test_run_config_is_frozen_and_replace_runs_its_checks():
    cfg = RunConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.cvpn_train_iterations = 0
    assert replace(cfg, seed=np.int64(3)).seed == 3
    with pytest.raises(ContractError, match="cvpn.train_iterations"):
        replace(cfg, cvpn_train_iterations=0)


def test_run_config_csv_source_built_in_code_requires_every_path():
    with pytest.raises(ContractError, match="data.train_csv"):
        RunConfig(embed_source="csv")
    with pytest.raises(ContractError, match="data.ood_csv"):
        RunConfig(embed_source="csv", data_train_csv="a.csv", data_heldout_csv="b.csv")
    cfg = RunConfig(embed_source="csv", data_train_csv="a.csv", data_heldout_csv="b.csv",
                    data_ood_csv="c.csv")
    assert cfg.data_ood_csv == "c.csv"


def test_run_config_refuses_noise_that_reaches_the_margin():
    # the toy benchmark's rule is checked when the config is built, not first
    # when the embed stage runs
    with pytest.raises(ContractError, match=r"^benchmark.noise must stay below benchmark.margin"):
        RunConfig(benchmark_noise=0.5)
    with pytest.raises(ContractError, match="benchmark.noise"):
        RunConfig(benchmark_noise=0.2, benchmark_margin=0.2)
    assert RunConfig(benchmark_noise=0.2, benchmark_margin=0.25).benchmark_noise == 0.2
    with pytest.raises(ParseError, match=r"^line 2: benchmark.noise must stay below"):
        parse_config("seed = 1\nbenchmark.noise = 0.5\n", environ={})
    with pytest.raises(ParseError, match="^environment variable NCIS_BENCHMARK_NOISE: "):
        parse_config("", environ={"NCIS_BENCHMARK_NOISE": "0.3"})


def test_parse_errors_name_where_the_value_was_set():
    with pytest.raises(ParseError, match=r"^line 3: density.lambda out of range"):
        parse_config("seed = 1\n\nlambda = -1\n", environ={})
    with pytest.raises(ParseError, match="^environment variable NCIS_SEED: .*must be int"):
        parse_config("", environ={"NCIS_SEED": "x"})
    with pytest.raises(ParseError, match="^environment variable NCIS_P: invariants.p out of range"):
        parse_config("p = 3\n", environ={"NCIS_P": "100"})
    # the csv rule names the line that chose the source, and the missing key
    with pytest.raises(ParseError, match=r"^line 2: embed.source = csv needs .*'data.train_csv'"):
        parse_config("seed = 1\nembed.source = csv\n", environ={})


def _out_of_range(key):
    """A finite value of ``key``'s type that its range refuses."""
    check, _ = KEY_TABLE[key]
    kind = type(getattr(RunConfig, key.replace(".", "_")))
    return next(kind(v) for v in (0, -1, 100) if not check(kind(v)))


_LABELS = np.repeat(np.arange(3), 10)
_DATA = LabeledEmbeddingSet(np.random.default_rng(0).standard_normal((30, 2)), _LABELS, 3)
_BANK = density.fit_class_gaussians(_DATA.embeddings, _LABELS, 1e-5)
_MODEL = cvpn.build_cvpn(2, 1, 1, 3, 4, 0)


def _load_bank_at(lam, tmp_path):
    path = tmp_path / "bank.txt"
    artifacts.save_bank(replace(_BANK, lam=lam), path)
    return artifacts.load_bank(path)


# (key, call with the key's value, the error a refusal raises): each library
# entry point that takes a hyperparameter, once per hyperparameter
LIBRARY_RANGES = [
    ("density.lambda", lambda v, _: density.fit_class_gaussians(_DATA.embeddings, _LABELS, v),
     ContractError),
    ("density.lambda", _load_bank_at, ArtifactError),
    ("cvpn.num_blocks", lambda v, _: cvpn.build_cvpn(2, 1, v, 3, 4, 0), ContractError),
    ("cvpn.hidden_width", lambda v, _: cvpn.build_cvpn(2, 1, 1, 3, v, 0), ContractError),
    ("classifier.hidden_width",
     lambda v, _: ood_classifier.build_energy_classifier(2, 3, hidden_width=v), ContractError),
    ("classifier.phi_hidden",
     lambda v, _: ood_classifier.build_energy_classifier(2, 3, phi_hidden=v), ContractError),
    ("classifier.beta", lambda v, _: ood_classifier.build_energy_classifier(2, 3, beta=v),
     ContractError),
    ("sample.q", lambda v, _: outlier_sampling.acceptance_threshold(_BANK, 0, v), ContractError),
    ("sample.n_per_class", lambda v, _: outlier_sampling.synthesize_outliers(_MODEL, _BANK, v),
     ContractError),
    ("sample.q", lambda v, _: outlier_sampling.synthesize_outliers(_MODEL, _BANK, 1, q=v),
     ContractError),
    ("invariants.p", lambda v, _: invariant_training.select_num_invariants(_DATA, v),
     ContractError),
    ("benchmark.n_per_class", lambda v, _: evalharness.make_toy_benchmark(0, v), ContractError),
    ("benchmark.noise", lambda v, _: evalharness.make_toy_benchmark(0, 3, noise=v),
     ContractError),
    ("benchmark.margin", lambda v, _: evalharness.make_toy_benchmark(0, 3, margin=v),
     ContractError),
    ("embed.timesteps", lambda v, _: embedding.NoiseSchedule.linear(v), ContractError),
]


@pytest.mark.parametrize("which", ["nan", "inf", "finite"])
@pytest.mark.parametrize("key, call, error", [
    pytest.param(*case, id=f"{i}-{case[0]}") for i, case in enumerate(LIBRARY_RANGES)])
def test_library_entry_points_refuse_a_hyperparameter_out_of_range(key, call, error, which,
                                                                    tmp_path):
    # the range RunConfig declares for the key, nan and inf included, with its message
    value = {"nan": float("nan"), "inf": float("inf")}.get(which) or _out_of_range(key)
    with pytest.raises(error, match=re.escape(f"{key} out of range (must be {KEY_TABLE[key][1]})")):
        call(value, tmp_path)
