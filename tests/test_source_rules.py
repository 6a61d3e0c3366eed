"""Static rules for the package source, checked by parsing src/qps/*.py.

- No ``assert`` statements: ``python -O`` strips them, so invariants are
  explicit raises of ``InvariantViolated``.
- No ``concurrent.futures`` or ``threading``: the work is pure Python under
  the GIL, where worker threads measured slower than one thread.
- No import outside the standard library and ``qps`` itself: the package
  has no runtime dependencies.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qps").glob("*.py"))
BANNED_MODULES = ("concurrent.futures", "threading")


def _banned(module: str) -> bool:
    return any(module == b or module.startswith(b + ".") for b in BANNED_MODULES)


def _third_party(module: str) -> bool:
    top = module.split(".")[0]
    return top != "qps" and top not in sys.stdlib_module_names


def violations(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Import):
            out += [
                f"line {node.lineno}: import {a.name}"
                for a in node.names
                if _banned(a.name) or _third_party(a.name)
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            if any(_banned(n) for n in names) or _third_party(node.module):
                out.append(f"line {node.lineno}: from {node.module} import ...")
    return out


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"cli.py", "census.py", "spectra.py", "pg.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_rules(path):
    assert violations(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "code",
    [
        "assert x",
        "import threading",
        "import concurrent.futures",
        "from concurrent.futures import ThreadPoolExecutor",
        "from concurrent import futures",
        "from threading import Lock",
        "import numpy as np",
        "import numpy.linalg",
        "from numpy import array",
        "def f():\n    import scipy\n",
    ],
)
def test_rules_catch(code):
    assert violations(ast.parse(code))


@pytest.mark.parametrize(
    "code",
    [
        "import itertools",
        "from collections.abc import Iterator",
        "from __future__ import annotations",
        "from .pg import ProjSpace",
        "from . import census",
        "import qps.census",
    ],
)
def test_rules_allow(code):
    assert violations(ast.parse(code)) == []
