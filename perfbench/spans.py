"""In-memory spans around the public layer functions of qps.

``Tracer.install()`` rebinds each traced function, in every qps module that
imported it, to a wrapper that records a span (name, start, end, parent span,
op id); ``uninstall()`` restores the originals.  Nothing under ``src/`` knows
about this: the spans sit at the layer boundaries as seen from the outside.

Cached getters (field tables, incidence, lines, codimension-2 flats,
subgeometries) record a span only the first time they are asked for a given
object, so the span measures the build and warm look-ups cost one set test.
"""

from __future__ import annotations

import collections
import importlib
import json
import sys
import threading
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = {}
        self.op = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # keys of the cached builds already traced, per getter; they survive
        # uninstall() so that a later install() still knows what is warm
        self._built: dict[str, set] = collections.defaultdict(set)
        self._keep_alive: dict[int, object] = {}  # id -> traced object

    # --- spans --------------------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        idx = len(self.spans)
        rec = [name, _perf(), 0.0, stack[-1] if stack else -1, self.op]
        self.spans.append(rec)
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = _perf()
            stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, list]:
        """Per span name over spans[first:last]: [self time, inclusive time, count].

        Self time is a span's duration minus the time its child spans cover.
        """
        window = self.spans[first:last]
        child = [0.0] * len(self.spans)
        for rec in window:
            if rec[3] >= first:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, list] = {}
        for i, rec in enumerate(window, first):
            acc = out.setdefault(rec[0], [0.0, 0.0, 0])
            acc[0] += rec[2] - rec[1] - child[i]
            acc[1] += rec[2] - rec[1]
            acc[2] += 1
        return out

    def nested_time(self, name: str, parent: str, first: int = 0, last: int | None = None) -> float:
        """Inclusive time of spans called name whose parent span is called parent."""
        spans = self.spans
        return sum(
            rec[2] - rec[1]
            for rec in spans[first:last]
            if rec[0] == name and rec[3] >= 0 and spans[rec[3]][0] == parent
        )

    def summary(self, first: int = 0, last: int | None = None, counters=None) -> dict:
        """Layer totals of spans[first:last], in the form ``merge`` adds up."""
        return {
            "totals": self.totals(first, last),
            "counters": dict(self.counters if counters is None else counters),
            "census_enumerate_s": self.nested_time("census.enumerate", "census.census", first, last),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )

    # --- instrumentation ----------------------------------------------------

    def _rebind(self, module_name: str, attr: str, wrapper, skip=()) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        for name, mod in list(sys.modules.items()):
            if not (name == "qps" or name.startswith("qps.")) or name in skip:
                continue
            if mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _wrap(self, module_name: str, attr: str, span: str, after=None, skip=()):
        original = getattr(importlib.import_module(module_name), attr)
        tracer = self

        def wrapper(*args, **kwargs):
            out = tracer.call(span, original, *args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        self._rebind(module_name, attr, wrapper, skip)

    def _patch_class(self, cls, attr, value) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def install(self) -> None:
        if self._patches:
            return
        from qps import gf, pg, spectra

        tracer = self
        field_tables = gf.build_field
        fields_built = self._built["gf.build_field"]

        def build_field(q):
            if q in fields_built:
                return field_tables(q)
            fields_built.add(q)
            return tracer.call("gf.build_field", field_tables, q)

        self._rebind("qps.gf", "build_field", build_field)

        init = pg.ProjSpace.__dict__["__init__"]

        def proj_init(space, m, f):
            tracer.call("pg.space_build", init, space, m, f)

        self._patch_class(pg.ProjSpace, "__init__", proj_init)

        # warm look-ups stay cheap: one set test on id(); keep_alive holds
        # every traced object so that its id is never reused
        keep_alive = self._keep_alive
        inc_get = pg.ProjSpace.__dict__["incidence"].fget
        inc_built = self._built["pg.incidence"]

        def incidence(space):
            if id(space) in inc_built:
                return inc_get(space)
            inc_built.add(id(space))
            keep_alive[id(space)] = space
            n = space.n_points
            tracer.count("pg.incidence_bytes_computed", n * ((n + 7) // 8))
            return tracer.call("pg.incidence", inc_get, space)

        self._patch_class(pg.ProjSpace, "incidence", property(incidence))

        lines_through = pg.ProjSpace.__dict__["lines_through"]
        lines_built = self._built["pg.lines_through"]

        def lines(space, p):
            if (id(space), p) in lines_built:
                return lines_through(space, p)
            lines_built.add((id(space), p))
            keep_alive[id(space)] = space
            return tracer.call("pg.lines", lines_through, space, p)

        self._patch_class(pg.ProjSpace, "lines_through", lines)

        def cached_build(fn, span, key_of):
            """A wrapper that records a span on the first call per key only."""
            built = self._built[fn.__qualname__]

            def wrapper(*args):
                key = key_of(*args)
                if key is None or key in built:
                    return fn(*args)
                built.add(key)
                keep_alive[id(args[0])] = args[0]
                return tracer.call(span, fn, *args)

            return wrapper

        self._patch_class(
            pg.ProjSpace,
            "all_lines",
            cached_build(pg.ProjSpace.__dict__["all_lines"], "pg.lines", id),
        )
        self._rebind(
            "qps.pg",
            "flats_of_codim",
            cached_build(
                pg.flats_of_codim, "pg.codim2_flats", lambda sp, c: id(sp) if c == 2 else None
            ),
        )
        self._rebind(
            "qps.pg",
            "subgeometry",
            cached_build(pg.subgeometry, "pg.subgeometry", lambda sp, fl: (id(sp), fl.basis)),
        )

        self._wrap("qps.forms", "canonical_form", "forms.canonical")
        # the Hermitian scan calls point_set once per form; leave it inside
        # the enumeration span
        self._wrap("qps.forms", "point_set", "forms.canonical", skip=("qps.census",))

        self._wrap("qps.spectra", "spectrum", "spectra.spectrum")
        self._wrap("qps.spectra", "classify", "spectra.classify")
        self._wrap("qps.spectra", "find_line_nucleus", "spectra.line_nucleus")
        conditions = spectra.nucleus_conditions
        conditions_seen = self._built["spectra.nucleus_conditions"]

        def nucleus_conditions(s):
            warm = id(s.space) in conditions_seen
            conditions_seen.add(id(s.space))
            keep_alive[id(s.space)] = s.space
            name = "spectra.conditions_warm" if warm else "spectra.conditions_cold"
            return tracer.call(name, conditions, s)

        self._rebind("qps.spectra", "nucleus_conditions", nucleus_conditions)

        for op in SURGERIES:
            self._wrap("qps.surgery", op, f"surgery.{op}")

        def enumerated(out, space, kind):
            tracer.count("census.enumerated_sets", len(out))
            tracer.count("census.forms_scanned_computed", forms_scanned(kind))

        self._wrap("qps.census", "enumerate_quadrics", "census.enumerate", after=enumerated)

        def counted(res, *args, **kwargs):
            tracer.count("census.candidates", res.total_candidates)
            tracer.count("census.survivors", census_survivors(res))

        for name in CENSUSES:
            self._wrap("qps.census", name, "census.census", after=counted)

        self._wrap("qps.cli", "parse_point_set", "cli.parse")
        self._wrap("qps.cli", "format_point_set", "cli.format")

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()


SURGERIES = (
    "pivot",
    "cone_swap",
    "repeated_pivot",
    "affine_switch",
    "nonsingular_switch_q2",
    "internal_switch_q3",
    "oval_nucleus_swap",
    "shifted_nucleus_pivot",
)

CENSUSES = ("nucleus_pivot_census", "singular_switch_census", "nonsingular_switch_census")


def forms_scanned(kind) -> int:
    """Forms a coefficient scan visits for the kind: q^(d(d+1)/2) quadratic,
    r^d q^(d(d-1)/2) Hermitian (r^2 = q)."""
    d = kind.m + 1
    if kind.family == "hermitian":
        r = round(kind.q**0.5)
        return r**d * kind.q ** (d * (d - 1) // 2)
    return kind.q ** (d * (d + 1) // 2)


def census_survivors(res) -> int:
    """Candidates that stay quasi-polar after the switch."""
    lost = sum(v for k, v in res.breakdown.items() if k.endswith("not_quasi_polar"))
    return res.total_candidates - lost


def merge(acc: dict, summary: dict, scale: float = 1.0) -> dict:
    """Add a summary, times scale, into acc."""
    totals = acc.setdefault("totals", {})
    for name, vals in summary["totals"].items():
        cur = totals.setdefault(name, [0.0, 0.0, 0])
        for i, v in enumerate(vals):
            cur[i] += v * scale
    counters = acc.setdefault("counters", {})
    for name, v in summary["counters"].items():
        counters[name] = counters.get(name, 0) + v * scale
    acc["census_enumerate_s"] = acc.get("census_enumerate_s", 0.0) + summary["census_enumerate_s"] * scale
    return acc


def counter_delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}
