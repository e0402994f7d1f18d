"""The benchmark's trace targets must name attributes the package still has.

``perfbench/traced.py`` wraps each ``(module, attr)`` of its ``TARGETS``; a
target renamed away would leave its per-layer metrics reading zero without
any error.  The file is parsed, not imported, so no wrapper is installed.
"""
from __future__ import annotations

import ast
import functools
import importlib
import pathlib

import pytest

TRACED = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _targets():
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return [(row.elts[0].value, row.elts[1].value)
                    for row in node.value.elts]
    raise AssertionError(f"no TARGETS assignment in {TRACED}")


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves(module, attr):
    # import the module by path: manyslit.sorkin is also a re-exported function
    owner = importlib.import_module("manyslit." + module)
    assert callable(functools.reduce(getattr, attr.split("."), owner))
