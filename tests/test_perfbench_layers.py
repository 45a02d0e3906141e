"""Every function perfbench times per layer still exists.

`perfbench/run.py` reports `<layer>.<function>.self_s` for each name in its
SELF_TIMED tuple, and a name whose function is gone reads 0 instead of
failing.  So each name must be a public function defined in
`ucycle.<layer>`, the functions perfbench's tracer wraps.  The tuple is
read from the file's source, without importing perfbench.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

RUN = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def self_timed():
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SELF_TIMED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SELF_TIMED in {RUN}")


@pytest.mark.parametrize("name", self_timed())
def test_self_timed_name_is_a_public_function(name):
    layer, _, func = name.partition(".")
    obj = getattr(importlib.import_module(f"ucycle.{layer}"), func, None)
    assert inspect.isfunction(obj), name
    assert not func.startswith("_") and obj.__module__ == f"ucycle.{layer}"
