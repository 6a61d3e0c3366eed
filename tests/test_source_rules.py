"""Static rules for the package source, checked by parsing src/qps/*.py.

- No ``assert`` statements: ``python -O`` strips them, so invariants are
  explicit raises of ``InvariantViolated``.
- No ``concurrent.futures`` or ``threading``: the work is pure Python under
  the GIL, where worker threads measured slower than one thread.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qps").glob("*.py"))
BANNED_MODULES = ("concurrent.futures", "threading")


def _banned(module: str) -> bool:
    return any(module == b or module.startswith(b + ".") for b in BANNED_MODULES)


def violations(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            out.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Import):
            out += [f"line {node.lineno}: import {a.name}" for a in node.names if _banned(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            if any(_banned(n) for n in names):
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
    ],
)
def test_rules_catch(code):
    assert violations(ast.parse(code))
