"""The benchmark tracer patches names on fixedform modules; they must stay bound."""

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
