"""The README's code must name only what the package has, and its library
example must run."""

import ast
import contextlib
import importlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def readme_imports():
    """(module, name) for every ``from ncis... import`` in the README's Python blocks."""
    found = []
    for block in readme_python_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ncis":
                found.extend((node.module, alias.name) for alias in node.names)
    return found


def test_readme_imports_exist():
    names = readme_imports()
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_readme_library_prose_names_only_what_ncis_has():
    # a name deleted from the package cannot stay in the section's prose
    section = README.read_text().split("## Library use", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = [span for span in re.findall(r"`([^`]+)`", prose)
             if re.fullmatch(r"[A-Za-z_]\w*", span) and span not in ("nan", "inf")]
    assert names
    ncis = importlib.import_module("ncis")
    assert [name for name in names if not hasattr(ncis, name)] == []


def test_readme_library_example_runs():
    (block,) = readme_python_blocks()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    (line,) = out.getvalue().splitlines()
    assert math.isfinite(float(line))
