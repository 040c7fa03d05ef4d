"""Package errors keep their type, message and fields across a pickle round
trip, which is how a sweep branch's error reaches the parent process."""

import pickle

import pytest

from ncis import errors


def all_error_types():
    found, todo = [], [errors.NcisError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


def test_every_error_type_is_covered():
    names = {cls.__name__ for cls in all_error_types()}
    assert {"NcisError", "ContractError", "NumericError", "SamplingError", "ParseError",
            "ArtifactError", "PipelineError"} <= names


@pytest.mark.parametrize("cls", all_error_types(), ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    err = cls("stage 'evaluate': something broke")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args


@pytest.mark.parametrize("line", [None, 12])
def test_parse_error_keeps_its_line(line):
    err = errors.ParseError("unknown key 'x'", line)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is errors.ParseError
    assert back.line == line
    assert str(back) == str(err) == ("unknown key 'x'" if line is None
                                     else "line 12: unknown key 'x'")
