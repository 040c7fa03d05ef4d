import pytest

from ncis.config import RunConfig, config_lines, parse_config
from ncis.errors import ParseError


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


def test_config_lines_track_values():
    a = parse_config("", environ={})
    b = parse_config("seed = 8", environ={})
    assert config_lines(a, ("seed", "density_lambda")) == ["density.lambda = 1e-05", "seed = 7"]
    assert config_lines(a, ("seed",)) == config_lines(RunConfig(), ("seed",))
    assert config_lines(a, ("seed",)) != config_lines(b, ("seed",))
    assert config_lines(a, ("density_lambda",)) == config_lines(b, ("density_lambda",))
