"""Every name ``quadma`` exports has a line, with its caller, in the README's API list,
every constant the README names exists, and every name a module imports is used or
exported."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import quadma

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(Path(quadma.__file__).parent.glob("*.py"))


def _readme_api_names():
    text = README.read_text()
    section = text[text.index("Public API:"):]
    section = section[:section.index("\n\n", section.index("\n- "))]
    return re.findall(r"^- `([^`]+)` — \S", section, flags=re.M)


def test_readme_api_list_matches_all():
    names = _readme_api_names()
    assert len(names) == len(set(names))
    assert set(names) == set(quadma.__all__)


def _unresolved_constants(text: str) -> tuple[list[str], list[str]]:
    """The backticked ALL_CAPS names in ``text``, each bare or behind a
    ``quadma.``-relative module path, and those that name no attribute of a
    ``quadma`` module."""
    names = re.findall(r"`((?:\w+\.)*[A-Z][A-Z0-9_]+)`", text)
    modules = [importlib.import_module(f"quadma.{path.stem}".removesuffix(".__init__"))
               for path in MODULES]
    unresolved = []
    for name in names:
        *path, attr = name.removeprefix("quadma.").split(".")
        owners = [importlib.import_module(".".join(["quadma", *path]))] if path else modules
        if not any(hasattr(owner, attr) for owner in owners):
            unresolved.append(name)
    return names, unresolved


def test_readme_constants_exist():
    # a README name that outlives its code sends readers after nothing
    names, unresolved = _unresolved_constants(README.read_text())
    assert {"BENCHMARKS", "BISECTION_PASSES", "operator.EPSILON_MIN", "EPSILON_MAX",
            "quadma.meshing.CLEARANCE"} <= set(names)
    assert unresolved == []


def test_readme_constant_check_finds_one():
    names, unresolved = _unresolved_constants(
        "`CLEARANCE`, `meshing.CLEARANCE`, `operator.CLEARANCE`, `NO_SUCH_NAME`, `K`")
    assert names == ["CLEARANCE", "meshing.CLEARANCE", "operator.CLEARANCE",
                     "NO_SUCH_NAME"]
    assert unresolved == ["operator.CLEARANCE", "NO_SUCH_NAME"]


def _unused_imports(tree: ast.Module) -> set[str]:
    """Top-level imported names that the module never reads and does not list in ``__all__``."""
    imported, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - exported


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == set()


def test_unused_import_check_finds_one():
    tree = ast.parse("from __future__ import annotations\nimport os, numpy as np\n"
                     "from .a import b, c\n__all__ = ['c']\nnp.zeros(1)\n")
    assert _unused_imports(tree) == {"os", "b"}
