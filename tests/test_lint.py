"""Static checks on the package source that no installed linter covers."""

import ast
from pathlib import Path

import pytest

import patternqkd

SOURCES = sorted(Path(patternqkd.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of ``source`` that nothing reads, apart from
    ``__future__`` imports, names in ``__all__`` and imports on a line marked ``# noqa: F401``."""
    tree, lines = ast.parse(source), source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" not in lines[node.lineno - 1]:
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # A quoted annotation names what it reads only inside its string.
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs, arguments.vararg, arguments.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for inner in ast.walk(annotation) if annotation is not None else ():
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    read |= {n.id for n in ast.walk(ast.parse(inner.value, mode="eval")) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read | exported]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_module_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401 - re-exported\n"
        "from dataclasses import replace\n"
        "from typing import Optional\n"
        "from . import api\n"
        "__all__ = ['api']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return None\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: replace"]
