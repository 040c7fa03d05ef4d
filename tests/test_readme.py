"""The README's code must name only what the package has."""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports():
    """(module, name) for every ``from ncis... import`` in the README's Python blocks."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    found = []
    for block in blocks:
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
