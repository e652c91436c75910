"""The package declares every third-party module it imports, and its version.

``pip install -e .`` into a clean environment installs only what
``setup.py``'s ``install_requires`` names, so importing any other
third-party package under ``src/repro`` fails there even when this
checkout's environment happens to have it.  Every import counts, at
module level or inside a function.  The installed distribution's version
must be the library's ``repro.__version__``.  Both sides are read with
:mod:`ast`: no module is imported and ``setup.py`` is not run.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def third_party_imports() -> dict[str, set[str]]:
    """Top-level third-party module -> the files that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(str(path.relative_to(ROOT)))
    return found


def setup_keyword(name: str):
    """The literal value of ``setup.py``'s ``setup(name=...)`` keyword, read with ast."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == name:
            return ast.literal_eval(node.value)
    raise AssertionError(f"setup.py has no {name}")


def install_requires() -> set[str]:
    """Distribution names in ``setup.py``'s ``install_requires``."""
    return {
        re.split(r"[<>=!~;\[ ]", requirement, maxsplit=1)[0].lower()
        for requirement in setup_keyword("install_requires")
    }


def library_version() -> str:
    """``repro.__version__``, read with ast from the package's ``__init__.py``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__version__"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("repro/__init__.py sets no __version__")


def test_the_import_walk_sees_the_known_dependencies():
    assert {"networkx", "numpy", "scipy"} <= set(third_party_imports())


def test_every_third_party_import_is_an_install_requirement():
    required = install_requires()
    missing = {
        module: sorted(files)
        for module, files in third_party_imports().items()
        if module.lower() not in required
    }
    assert not missing, f"imported but not in install_requires: {missing}"


def test_the_package_version_is_the_library_version():
    assert setup_keyword("version") == library_version()
