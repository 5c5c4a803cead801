"""The benchmark tracer patches names on fixedform modules; they must stay bound.

A name imported only for the tracer is marked ``# noqa: F401``; such a line
must hold only names the module never uses and the tracer does patch.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED tuple in {TRACING}")


@pytest.mark.parametrize("module, name, span", _wrapped())
def test_every_patched_name_is_bound(module, name, span):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name} (span {span})"


SRC = Path(__file__).resolve().parent.parent / "src" / "fixedform"


def _marked_imports():
    """(module, name, module AST) for each name imported on a ``# noqa: F401`` line of ``src/fixedform``."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and "noqa: F401" in lines[node.lineno - 1]:
                for alias in node.names:
                    module, name = f"fixedform.{path.stem}", alias.asname or alias.name
                    yield pytest.param(module, name, tree, id=f"{module}.{name}")


@pytest.mark.parametrize("module, name, tree", _marked_imports())
def test_tracer_only_imports_are_unused_and_patched(module, name, tree):
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert name not in read and name not in importlib.import_module(module).__all__, (
        f"{module}.{name} is used, so it needs no noqa: F401")
    assert (module, name) in {(mod, attr) for mod, attr, _ in _wrapped()}, (
        f"{module}.{name} is marked tracer-only but perfbench/tracing.py does not patch it")
