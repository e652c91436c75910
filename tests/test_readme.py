"""The README's code examples import names that exist.

Every ``from repro... import name`` in a ```python block of README.md must
resolve, so a renamed or deleted public name cannot leave the documented
examples pointing at nothing.  Blocks that are not Python (signature
sketches) are skipped.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> list[tuple[str, str]]:
    """(module, name) of every ``from repro... import name`` in the README."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imports = []
    for block in blocks:
        try:
            tree = ast.parse(block)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module
                and node.module.split(".")[0] == "repro"
            ):
                imports.extend((node.module, alias.name) for alias in node.names)
    return imports


def test_readme_has_import_examples():
    assert len(readme_imports()) >= 20


@pytest.mark.parametrize(
    "module,name", readme_imports(), ids=lambda value: str(value)
)
def test_readme_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
