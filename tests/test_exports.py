"""Static checks on what the package exposes and reads.

``perfbench/traced.py`` wraps each ``(module, attr)`` of its ``TARGETS``; a
target renamed away would leave its per-layer metrics reading zero without
any error.  The file is parsed, not imported, so no wrapper is installed.

The library has no environment knobs: every setting is a parameter, so a
run is reproduced by its arguments alone.  Each module is parsed to keep it
that way.
"""
from __future__ import annotations

import ast
import functools
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"
MODULES = sorted((ROOT / "src" / "manyslit").glob("*.py"))


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


def _environment_reads(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    yield node.lineno, f"from os import {alias.name}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert list(_environment_reads(tree)) == []


def test_environment_check_sees_every_form():
    source = ("import os\nos.environ.get('A')\nos.getenv('B')\n"
              "from os import environ\n")
    found = sorted(_environment_reads(ast.parse(source)))
    assert [what for _, what in found] == [
        "os.environ", "os.getenv", "from os import environ"]
