"""Static rules for the package source, checked by parsing src/qps/*.py.

- No ``assert`` statements: ``python -O`` strips them, so invariants are
  explicit raises of ``InvariantViolated``.
- No ``concurrent.futures`` or ``threading``: the work is pure Python under
  the GIL, where worker threads measured slower than one thread.
- No import outside the standard library and ``qps`` itself: the package
  has no runtime dependencies.
- ``all_lines`` only in the two readers of every line,
  ``pg.flats_of_codim`` and ``census.classical_dist_census``: a question
  about the lines through one point reads ``lines_through(p)``, which builds
  the lines through that point alone.
- ``ProjSpace.all_lines`` returns a generator and assigns no attribute of
  the space: the lines are streamed, and no table of them is stored.
- ``itertools.product`` only in ``ProjSpace.__init__``, where the point list
  is built: every other enumeration of a flat's points goes through
  ``pg.span_points`` and its byte columns.
- Every name a module imports is read in that module, so no import
  outlives its last use.  ``__init__.py``, which re-exports names, and
  ``from __future__`` imports are exempt.
- ``SurgeryRecord(...)`` is called only in ``surgery._switched``, the one
  routine that checks a switch and composes its result, so no surgery can
  return a record that does not replay.
- No record is changed once ``_switched`` has built it: an attribute named
  like a record field (kind, hyperplane, vertex, removed, added, details) is
  assigned or deleted only as ``self.<field>`` in an ``__init__``, and no
  ``details`` dict reached through an attribute is changed.
- Masks are built from point indices by ``pg.indices_to_bits`` alone: no
  ``sum`` over a generator or list of ``1 << x``, and no ``for`` loop whose
  whole body is ``x |= 1 << y`` outside ``indices_to_bits``.  A loop that
  does more per index, as ``cli.parse_point_set`` does to find a duplicate
  point, is its own.

Apart from the package, every ``qps`` name that ``perfbench/spans.py``
rebinds to time a layer exists, so that no rename or deletion breaks a
traced benchmark run.
"""

import ast
import importlib
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "qps").glob("*.py"))
PERFBENCH_SPANS = ROOT / "perfbench" / "spans.py"
BANNED_MODULES = ("concurrent.futures", "threading")
ALL_LINES_READERS = {("pg.py", "flats_of_codim"), ("census.py", "classical_dist_census")}
PRODUCT_SCOPE = ("pg.py", "ProjSpace", "__init__")
RECORD_BUILDER = ("surgery.py", "_switched")
MASK_BUILDER = ("pg.py", "indices_to_bits")
RECORD_FIELDS = frozenset({"kind", "hyperplane", "vertex", "removed", "added", "details"})
DICT_MUTATORS = frozenset({"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"})


def _banned(module: str) -> bool:
    return any(module == b or module.startswith(b + ".") for b in BANNED_MODULES)


def _third_party(module: str) -> bool:
    top = module.split(".")[0]
    return top != "qps" and top not in sys.stdlib_module_names


def _all_lines_refs(tree: ast.AST, module: str) -> list[str]:
    """References to all_lines outside the top-level functions allowed them;
    a method is inside its top-level class, never one of those functions."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if func is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            named = (isinstance(child, ast.Attribute) and child.attr == "all_lines") or (
                isinstance(child, ast.Name) and child.id == "all_lines"
            )
            if named and (module, func) not in ALL_LINES_READERS:
                out.append(f"line {child.lineno}: all_lines outside its readers")
            visit(child, inner)

    visit(tree, None)
    return out


def _stored_lines(tree: ast.AST) -> list[str]:
    """An ``all_lines`` method of a ``ProjSpace`` class that assigns an
    attribute of its space, or that is not a generator function and returns
    anything but a generator expression."""
    out = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "ProjSpace"):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "all_lines"):
                continue
            me = fn.args.args[0].arg if fn.args.args else None
            returns, yields = [], False
            for node in ast.walk(fn):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for t in targets:
                    while isinstance(t, (ast.Attribute, ast.Subscript)):
                        t = t.value
                        if isinstance(t, ast.Name) and t.id == me:
                            out.append(f"line {node.lineno}: all_lines stores on the space")
                yields |= isinstance(node, (ast.Yield, ast.YieldFrom))
                if isinstance(node, ast.Return):
                    returns.append(node.value)
            if not yields and not (returns and all(isinstance(r, ast.GeneratorExp) for r in returns)):
                out.append(f"line {fn.lineno}: all_lines returns no generator")
    return out


def _product_refs(tree: ast.AST, module: str) -> list[str]:
    """Uses of itertools.product outside ProjSpace.__init__, and any import
    of the bare name."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            attr = (
                isinstance(child, ast.Attribute)
                and child.attr == "product"
                and isinstance(child.value, ast.Name)
                and child.value.id == "itertools"
            )
            imported = isinstance(child, ast.ImportFrom) and child.module == "itertools" and any(
                a.name == "product" for a in child.names
            )
            if imported or (attr and (module, *scope) != PRODUCT_SCOPE):
                out.append(f"line {child.lineno}: itertools.product outside ProjSpace.__init__")
            visit(child, inner)

    visit(tree, ())
    return out


def _record_calls(tree: ast.AST, module: str) -> list[str]:
    """Calls of SurgeryRecord, by name or attribute, outside the top-level
    function surgery._switched."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if func is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            if isinstance(child, ast.Call) and (module, func) != RECORD_BUILDER:
                callee = child.func
                name = getattr(callee, "id", None) or getattr(callee, "attr", None)
                if name == "SurgeryRecord":
                    out.append(f"line {child.lineno}: SurgeryRecord built outside surgery._switched")
            visit(child, inner)

    visit(tree, None)
    return out


def _record_writes(tree: ast.AST) -> list[str]:
    """Assignments and deletions of a record field other than ``self.<field>``
    directly in an ``__init__``, ``setattr`` and ``delattr`` of one, and
    stores into or mutating calls on an attribute named ``details``."""
    out = []

    def is_details(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "details"

    def visit(node, me):
        for child in ast.iter_child_nodes(node):
            inner = me
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                init = isinstance(child, ast.FunctionDef) and child.name == "__init__" and child.args.args
                inner = child.args.args[0].arg if init else None
            stored = isinstance(getattr(child, "ctx", None), (ast.Store, ast.Del))
            if stored and isinstance(child, ast.Attribute) and child.attr in RECORD_FIELDS:
                if not (isinstance(child.value, ast.Name) and child.value.id == me):
                    out.append(f"line {child.lineno}: record field {child.attr} written")
            elif stored and isinstance(child, ast.Subscript) and is_details(child.value):
                out.append(f"line {child.lineno}: record details written")
            elif isinstance(child, ast.Call):
                f = child.func
                if isinstance(f, ast.Attribute) and f.attr in DICT_MUTATORS and is_details(f.value):
                    out.append(f"line {child.lineno}: record details changed")
                named = [a.value for a in child.args[1:2] if isinstance(a, ast.Constant)]
                if getattr(f, "id", None) in ("setattr", "delattr") and set(named) & RECORD_FIELDS:
                    out.append(f"line {child.lineno}: record field {named[0]} written")
            visit(child, inner)

    visit(tree, None)
    return out


def _is_bit(node) -> bool:
    """``1 << x``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.LShift)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 1
    )


def _mask_builds(tree: ast.AST, module: str) -> list[str]:
    """``sum`` over a generator or list of ``1 << x``, and ``for`` loops whose
    whole body is ``x |= 1 << y`` outside the top-level function
    pg.indices_to_bits."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if func is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "sum" and child.args:
                arg = child.args[0]
                bits = [arg.elt] if isinstance(arg, (ast.GeneratorExp, ast.ListComp)) else []
                bits += arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else []
                if any(map(_is_bit, bits)):
                    out.append(f"line {child.lineno}: a mask summed from 1 << x")
            elif isinstance(child, (ast.For, ast.AsyncFor)) and (module, func) != MASK_BUILDER:
                body = child.body[0]
                if (
                    len(child.body) == 1
                    and isinstance(body, ast.AugAssign)
                    and isinstance(body.op, ast.BitOr)
                    and _is_bit(body.value)
                ):
                    out.append(f"line {child.lineno}: a mask built outside pg.indices_to_bits")
            visit(child, inner)

    visit(tree, None)
    return out


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by an import that no ``Name`` node of the module reads;
    ``import a.b`` binds ``a``."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                if name not in read:
                    out.append(f"line {node.lineno}: {name} imported and never used")
    return out


def violations(tree: ast.AST, module: str = "") -> list[str]:
    out = _all_lines_refs(tree, module) + _stored_lines(tree) + _product_refs(tree, module)
    out += _record_calls(tree, module) + _record_writes(tree) + _mask_builds(tree, module)
    if module != "__init__.py":
        out += _unused_imports(tree)
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
    assert violations(ast.parse(path.read_text(), filename=str(path)), path.name) == []


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
        "def f(space):\n    return space.all_lines()\n",
        "lines = all_lines",
        "import itertools",
        "from .pg import ProjSpace, rref\nrref(f, rows)\n",
        "from .gf import build_field as bf\nbuild_field(4)\n",
        "import qps.census as c\nqps.census.x\n",
        "def f():\n    import math\n    return 0\n",
        "rec = SurgeryRecord('switch', 0, None, removed, added)\n",
        "result, rec = pivot(s, kind, pi, new_base)\nrec.kind = 'shifted-nucleus-pivot'\n",
        "rec.details.update(nucleus=n, base_nucleus_before=n, base_nucleus_after=a)\n",
        "rec.details['nucleus'] = n\n",
        "del rec.details['mu']\n",
        "rec.details |= extra\n",
        "out[1].vertex = v\n",
        "setattr(rec, 'kind', name)\n",
        "class SurgeryRecord:\n    def rename(self, kind):\n        self.kind = kind\n",
        "def __init__(self, rec):\n    rec.added = added\n",
        "bits = sum(1 << i for i in span)\n",
        "bits = sum([1 << i for i in span])\n",
        "bits = sum([1 << a, 1 << b])\n",
        "for i in span:\n    bits |= 1 << i\n",
        "def mask_to_ambient(self, bits):\n    for i in bits_to_indices(bits):\n        out |= 1 << self.to_ambient[i]\n",
    ],
)
def test_rules_catch(code):
    assert violations(ast.parse(code))


@pytest.mark.parametrize(
    "module,code,allowed",
    [
        ("census.py", "def classical_dist_census(kind):\n    return space.all_lines()\n", True),
        ("pg.py", "def flats_of_codim(space, c):\n    def g():\n        return space.all_lines()\n", True),
        ("pg.py", "def classical_dist_census(kind):\n    return space.all_lines()\n", False),
        ("census.py", "def two_secant_census(kind):\n    space.all_lines()\n", False),
        ("census.py", "class C:\n    def classical_dist_census(self):\n        self.all_lines()\n", False),
        ("surgery.py", "def f(sub, v):\n    return [l for l in sub.all_lines() if l >> v & 1]\n", False),
    ],
)
def test_all_lines_rule_names_its_readers(module, code, allowed):
    assert (violations(ast.parse(code), module) == []) == allowed


_POINT_LIST = "class ProjSpace:\n    def __init__(self, m, q):\n        self.t = list(itertools.product(range(q), repeat=m))\n"


@pytest.mark.parametrize(
    "module,code,allowed",
    [
        ("pg.py", _POINT_LIST, True),
        ("census.py", _POINT_LIST, False),
        ("pg.py", _POINT_LIST.replace("__init__", "flat_points"), False),
        ("pg.py", "def span_points(space, basis):\n    return itertools.product(range(2), repeat=len(basis))\n", False),
        ("surgery.py", "tails = itertools.product(range(3), repeat=2)\n", False),
        ("pg.py", "from itertools import product\n", False),
        ("pg.py", "import itertools\npairs = itertools.combinations(range(4), 2)\n", True),
    ],
)
def test_product_rule_allows_only_the_point_list(module, code, allowed):
    assert (violations(ast.parse(code), module) == []) == allowed


@pytest.mark.parametrize(
    "code",
    [
        # each snippet reads what it imports; the id is the import under test
        pytest.param("import itertools\nitertools.chain()", id="import itertools"),
        pytest.param(
            "from collections.abc import Iterator\nx: Iterator",
            id="from collections.abc import Iterator",
        ),
        "from __future__ import annotations",
        pytest.param("from .pg import ProjSpace\nspace: ProjSpace", id="from .pg import ProjSpace"),
        pytest.param("from . import census\ncensus.x", id="from . import census"),
        pytest.param("import qps.census\nqps.census.x", id="import qps.census"),
        "from .gf import build_field as bf\nbf(4)\n",
        "def f():\n    import math\n    return math.pi\n",
        pytest.param(
            "from .surgery import SurgeryRecord\ndef f(r) -> SurgeryRecord:\n    return isinstance(r, SurgeryRecord)\n",
            id="SurgeryRecord named, not called",
        ),
        "class SurgeryRecord:\n    def __init__(self, kind, details):\n        self.kind = kind\n"
        "        self.details = {} if details is None else details\n",
        "class Classification:\n    def __init__(self, kind):\n        self.kind = kind\n",
        "details = {'mu': mu, **extra}\ndetails.update(more)\ndetails['nucleus'] = n\n",
        "mu, kind = rec.details['mu'], rec.kind\n",
        "setattr(args, 'out', path)\n",
        "bits = indices_to_bits(span)\n",
        "images = [1 << p for p in perm]\n",
        "total = sum(t.bit_count() for t in masks)\n",
        "for i in span:\n    if ok(i):\n        bits |= 1 << i\n",
        "for no, i in rows:\n    if bits >> i & 1:\n        raise DuplicatePoint(no)\n    bits |= 1 << i\n",
        "for i in span:\n    bits ^= 1 << i\n",
    ],
)
def test_rules_allow(code):
    assert violations(ast.parse(code)) == []


def test_init_may_reexport():
    assert violations(ast.parse("from .gf import build_field\n"), "__init__.py") == []


_BUILD = "    return r, SurgeryRecord(name, pi, None, removed, added)\n"


@pytest.mark.parametrize(
    "module,code,allowed",
    [
        ("surgery.py", "def _switched(name, s, pi, removed, added):\n" + _BUILD, True),
        ("surgery.py", "def pivot(s, kind, pi, base):\n" + _BUILD, False),
        ("surgery.py", "def pivot(s, kind, pi, base):\n    return r, surgery.SurgeryRecord('pivot')\n", False),
        ("surgery.py", "class C:\n    def _switched(self):\n    " + _BUILD, False),
        ("surgery.py", "def _switched(name):\n    def g():\n    " + _BUILD, True),
        ("census.py", "def _switched(name, s, pi, removed, added):\n" + _BUILD, False),
    ],
)
def test_record_rule_allows_only_the_switch_builder(module, code, allowed):
    assert (violations(ast.parse(code), module) == []) == allowed


_INDICES_TO_BITS = "def indices_to_bits(indices):\n    bits = 0\n    for i in indices:\n        bits |= 1 << i\n    return bits\n"


@pytest.mark.parametrize(
    "module,code,allowed",
    [
        ("pg.py", _INDICES_TO_BITS, True),
        ("census.py", _INDICES_TO_BITS, False),
        ("pg.py", _INDICES_TO_BITS.replace("indices_to_bits", "point_set_from_indices"), False),
        ("pg.py", "class SubGeometry:\n" + textwrap.indent(_INDICES_TO_BITS, "    "), False),
        ("pg.py", "def indices_to_bits(indices):\n    return sum(1 << i for i in indices)\n", False),
    ],
)
def test_mask_rule_allows_only_indices_to_bits(module, code, allowed):
    assert (violations(ast.parse(code), module) == []) == allowed


_STREAM = "class ProjSpace:\n    def all_lines(self):\n        if self.n > CAP:\n            raise E\n{}"


@pytest.mark.parametrize(
    "body,allowed",
    [
        ("        return (span(self, p) for p in self.points)\n", True),
        ("        for p in self.points:\n            yield span(self, p)\n", True),
        ("        lines = [span(self, p) for p in self.points]\n        return iter(lines)\n", False),
        ("        return tuple(span(self, p) for p in self.points)\n", False),
        ("        self._all = (span(self, p) for p in self.points)\n        return self._all\n", False),
        ("        self._held[0] = 1\n        return (p for p in self.points)\n", False),
        ("        self._bytes += 1\n        yield from self.points\n", False),
    ],
)
def test_all_lines_rule_keeps_the_lines_streamed(body, allowed):
    assert (violations(ast.parse(_STREAM.format(body)), "pg.py") == []) == allowed


def _perfbench_names(tree: ast.AST) -> list[tuple[str, str]]:
    """(module, attribute path) of each qps name that the string arguments of
    ``_rebind``, ``_wrap``, ``_patch_class`` and ``__dict__[...]`` name; a
    loop variable over a module-level tuple of strings stands for each."""
    modules = {
        a.asname or a.name: f"qps.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "qps"
        for a in node.names
    }
    tuples = {
        t.id: [e.value for e in node.value.elts]
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for t in node.targets
        if isinstance(t, ast.Name) and all(isinstance(e, ast.Constant) for e in node.value.elts)
    }
    loops = {
        node.target.id: tuples[node.iter.id]
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Name) and node.iter.id in tuples
    }

    def strings(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        return loops.get(node.id, []) if isinstance(node, ast.Name) else []

    def owner(node):
        """("qps.pg", "ProjSpace.") for pg.ProjSpace, pg bound to qps.pg."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in modules:
            return modules[node.id], "".join(p + "." for p in parts)
        return None

    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and len(node.args) >= 2:
            mod, attr = node.args[:2]
            if node.func.attr in ("_rebind", "_wrap"):
                out += [(m, a) for m in strings(mod) for a in strings(attr)]
            elif node.func.attr == "_patch_class" and (cls := owner(mod)):
                out += [(cls[0], cls[1] + a) for a in strings(attr)]
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
            if node.value.attr == "__dict__" and (cls := owner(node.value.value)):
                out += [(cls[0], cls[1] + a) for a in strings(node.slice)]
    return out


def _missing(names: list[tuple[str, str]]) -> list[str]:
    """The names that their module, or the class in it, does not define."""
    out = []
    for module, path in names:
        obj = importlib.import_module(module)
        *owners, attr = path.split(".")
        for part in owners:
            obj = getattr(obj, part, None)
        if obj is None or attr not in vars(obj):
            out.append(f"{module}.{path}")
    return out


def test_perfbench_binds_only_names_that_exist():
    names = _perfbench_names(ast.parse(PERFBENCH_SPANS.read_text(), filename=str(PERFBENCH_SPANS)))
    assert {
        ("qps.pg", "ProjSpace.all_lines"),
        ("qps.pg", "flats_of_codim"),
        ("qps.surgery", "shifted_nucleus_pivot"),
        ("qps.census", "nonsingular_switch_census"),
    } <= set(names)
    assert _missing(names) == []


@pytest.mark.parametrize(
    "code,missing",
    [
        ('from qps import pg\nf = pg.ProjSpace.__dict__["_all_lines"]\n', ["qps.pg.ProjSpace._all_lines"]),
        ('from qps import pg\nself._patch_class(pg.ProjSpace, "_codim2", f)\n', ["qps.pg.ProjSpace._codim2"]),
        ('self._rebind("qps.pg", "codim2_flats", f)\n', ["qps.pg.codim2_flats"]),
        ('OPS = ("pivot", "twist")\nfor op in OPS:\n    self._wrap("qps.surgery", op, "s")\n', ["qps.surgery.twist"]),
        ('from qps import pg\nf = pg.ProjSpace.__dict__["incidence"]\nself._wrap("qps.pg", "span_points", "s")\n', []),
    ],
)
def test_perfbench_rule_catches_a_missing_name(code, missing):
    assert _missing(_perfbench_names(ast.parse(code))) == missing
