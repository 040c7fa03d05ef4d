import re
from dataclasses import fields

import pytest

from ncis import config
from ncis.config import KEY_TABLE, RunConfig, config_lines, namespace_fields, parse_config
from ncis.errors import ContractError, ParseError


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
