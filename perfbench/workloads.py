"""The three benchmark workloads: census, query-stream and cli-cold.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A workload object

- ``setup()``: the program-side warm-up a user pays once per process
  (import, spaces, incidence, caches); timed as ``setup_s``;
- ``prepare(rng)``: builds the seeded inputs, untimed;
- ``pass_ops(k, traced)``: the operations of pass k, as (label, thunk) pairs;
- ``check(label, result)``: checks one result after its pass, untimed;
- ``final_checks(op_seconds)``: run-level checks, untimed, given the last
  untraced time of each operation label.

qps is imported inside ``setup()`` so that the first set-up of a process
includes the import.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Cases a later benchmark change can add once orbit enumeration, batched
# survivor checks and a size guard (ROADMAP items 2, 3 and 5) make them
# affordable; cost measured cold on a 2-core x86 box.
EXCLUDED = {
    "census:nonsingular_switch_census:Q(4,4)": "about 55 s per call: 258,048 candidates from a form scan",
    "census:nonsingular_switch_census:H(4,4)": "about 16 s per call",
    "cli-cold:verify conditions PG(2,32) conic": "about 13 s cold: codimension-2 flat lists",
    "cli-cold:spectrum PG(3,32)": "does not finish: O(n^2) incidence on 33,825 points",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the commands name their thread count; string hashing is fixed so that
    # children do the same work on every run
    env.pop("QPS_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def canonical(family: str, m: int, q: int):
    from qps import forms, pg

    kind = forms.PolarKind(family, m, q)
    return kind, forms.point_set(forms.canonical_form(kind, pg.space_for(m, q)))


def image(s, rng: random.Random):
    """A seeded projective image of a point set (same space)."""
    from qps import pg

    space = s.space
    field = oracle.Field(space.q)
    a = oracle.random_collineation(field, space.m + 1, rng)
    vecs = oracle.apply_matrix(field, a, s.vectors())
    return pg.point_set_from_indices(space, [space.point_index[v] for v in vecs])


def result_body(res) -> dict:
    body = res.to_dict()
    body.pop("runtime_ms", None)
    return body


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

NONSINGULAR_CASES = [
    ("hyperbolic", 3, 3),
    ("elliptic", 3, 3),
    ("hermitian", 3, 4),
    ("parabolic", 4, 2),
    ("parabolic", 4, 3),
    ("elliptic", 5, 2),
]
# Censuses that take well under a second run on this many seeded images per
# pass, so that the median census call is measured several times in a run.
CHEAP_COPIES = 4
EXPENSIVE = {("parabolic", 4, 3), ("elliptic", 5, 2)}
# Non-identity survivor counts in dispute (ROADMAP item 5): observed, not pinned.
DISPUTED = {("parabolic", 4, 2), ("parabolic", 4, 3), ("elliptic", 5, 2)}
SECTION_FAMILIES = {
    "parabolic": ("elliptic", "hyperbolic"),
    "hyperbolic": ("parabolic",),
    "elliptic": ("parabolic",),
    "hermitian": ("hermitian",),
}
NUCLEUS_PIVOT = {
    "hyperbolic_no_nucleus": 270,
    "hyperbolic_with_nucleus": 10,
    "elliptic_no_nucleus": 162,
    "elliptic_with_nucleus": 6,
}
SINGULAR_SWITCH = {
    "not_quasi_polar": 6331,
    "cone_vertex": 28,
    "cone_nucleus": 28,
    "truncated_vertex_plus_nucleus_line": 24,
    "truncated_nucleus_plus_vertex_line": 24,
}


class Census:
    name = "census"
    setup_samples = 9

    def setup(self) -> None:
        import numpy  # noqa: F401  (the vectorized enumeration imports it)
        from qps import pg

        for m, q in [(4, 2), (3, 3), (3, 4), (4, 3), (5, 2), (2, 9)]:
            pg.space_for(m, q).incidence
        self.canon = {
            (fam, m, q): canonical(fam, m, q) for fam, m, q in NONSINGULAR_CASES
        }

    def prepare(self, rng: random.Random) -> None:
        from qps import forms, pg

        _, q42 = self.canon[("parabolic", 4, 2)]
        # functions are named, not bound, so that a traced pass calls the
        # traced versions
        self.ops = []
        for i in range(CHEAP_COPIES):
            self.ops += [
                (f"nucleus_pivot:Q(4,2)#{i}", "nucleus_pivot_census", (image(q42, rng),)),
                (f"singular_switch:Q(4,2)#{i}", "singular_switch_census", (image(q42, rng),)),
            ]
        for fam, m, q in NONSINGULAR_CASES:
            kind, s = self.canon[(fam, m, q)]
            for i in range(1 if (fam, m, q) in EXPENSIVE else CHEAP_COPIES):
                self.ops.append(
                    (f"nonsingular_switch:{fam}({m},{q})#{i}", "nonsingular_switch_census",
                     (image(s, rng), kind))
                )
        self.ops.append(
            ("enumerate:hermitian(2,9)", "enumerate_quadrics",
             (pg.space_for(2, 9), forms.PolarKind("hermitian", 2, 9)))
        )
        self.seed = rng.random()
        self.first: dict[str, object] = {}
        self.observed: dict[str, int] = {}
        self.threads_ratio = 0.0

    def pass_ops(self, k: int, traced: bool):
        from qps import census

        # a fresh order per pass spreads each census over the run's time
        ops = list(self.ops)
        random.Random(f"{self.seed}:{k}").shuffle(ops)
        return [
            (label, lambda fn=fn, args=args: getattr(census, fn)(*args))
            for label, fn, args in ops
        ]

    def check(self, label: str, res) -> list[str]:
        errs = self._check(label, res)
        body = [s.indices() for s in res] if label.startswith("enumerate") else result_body(res)
        if label not in self.first:
            self.first[label] = body
        elif self.first[label] != body:
            errs.append("result differs from the first pass")
        return errs

    def _check(self, label: str, res) -> list[str]:
        errs = []
        if label.startswith("enumerate"):
            want = oracle.classical_set_count("hermitian", 2, 9)
            bits = [s.bits for s in res]
            if len(res) != want:
                errs.append(f"{len(res)} Hermitian curves, closed form {want}")
            if any(b.bit_count() != 28 for b in bits) or bits != sorted(set(bits)):
                errs.append("curves not distinct, sorted, of size 28")
            return errs
        if label.startswith("nucleus_pivot"):
            if res.breakdown != NUCLEUS_PIVOT:
                errs.append(f"breakdown {res.breakdown}")
            for fam in ("hyperbolic", "elliptic"):
                got = res.breakdown.get(f"{fam}_no_nucleus", 0) + res.breakdown.get(
                    f"{fam}_with_nucleus", 0
                )
                if got != oracle.classical_set_count(fam, 3, 2):
                    errs.append(f"{fam} candidates {got}")
            return errs
        if label.startswith("singular_switch"):
            if res.total_candidates != math.comb(15, 7):
                errs.append(f"{res.total_candidates} candidates, C(15,7) = 6435")
            if res.breakdown != SINGULAR_SWITCH:
                errs.append(f"breakdown {res.breakdown}")
            return errs
        fam, m, q = _case_of(label)
        total = 0
        for sub in SECTION_FAMILIES[fam]:
            want = oracle.classical_set_count(sub, m - 1, q)
            got = res.extra["candidates"].get(sub)
            if got != want:
                errs.append(f"{sub} candidates {got}, closed form {want}")
            parts = [res.breakdown.get(f"{sub}_{k}", -1) for k in
                     ("identity", "other_survivor", "not_quasi_polar")]
            if parts[0] != 1:
                errs.append(f"{sub}: identity did not survive")
            if sum(parts) != got:
                errs.append(f"{sub}: breakdown {parts} does not sum to {got}")
            total += want
            if (fam, m, q) in DISPUTED:
                self.observed[f"{fam}({m},{q}):{sub}_other_survivor"] = parts[1]
            elif parts[1] != 0:
                errs.append(f"{sub}: {parts[1]} non-identity survivors")
        if res.total_candidates != total:
            errs.append(f"total {res.total_candidates}, closed form {total}")
        return errs

    def final_checks(self, op_seconds: dict[str, float]) -> list[str]:
        """The disputed censuses give the same result at threads 1 and 2."""
        errs = []
        t1 = t2 = 0.0
        from qps import census

        for label, fn, args in self.ops:
            if not label.startswith("nonsingular") or _case_of(label) not in DISPUTED:
                continue
            t0 = time.perf_counter()
            res = getattr(census, fn)(*args, threads=2)
            t2 += time.perf_counter() - t0
            t1 += op_seconds[label]
            if result_body(res) != self.first[label]:
                errs.append(f"{label}: threads 2 differs from threads 1")
        self.threads_ratio = t2 / t1
        return errs

    def extra_metrics(self) -> dict:
        return {"census.threads2_over_threads1": self.threads_ratio}


def _case_of(label: str) -> tuple[str, int, int]:
    fam, _, rest = label.split(":", 1)[1].split("#")[0].partition("(")
    m, q = rest.rstrip(")").split(",")
    return fam, int(m), int(q)


# ---------------------------------------------------------------------------
# query-stream
# ---------------------------------------------------------------------------

QS_SPACES = [(4, 2), (4, 3), (4, 4), (6, 2), (2, 16), (5, 2), (3, 4), (3, 8)]
READ_KINDS = [
    ("parabolic", 4, 2),
    ("parabolic", 4, 3),
    ("parabolic", 4, 4),
    ("parabolic", 6, 2),
    ("parabolic", 2, 16),
    ("hyperbolic", 5, 2),
    ("elliptic", 5, 2),
    ("hermitian", 3, 4),
    ("elliptic", 3, 4),
    ("hyperbolic", 3, 4),
    ("elliptic", 3, 8),
    ("hyperbolic", 3, 8),
]
EVEN_KINDS = [k for k in READ_KINDS if k[1] % 2 == 0]
WRITES = [
    ("pivot", ("parabolic", 4, 2)),
    ("pivot", ("parabolic", 4, 3)),
    ("pivot", ("parabolic", 4, 4)),
    ("pivot", ("hyperbolic", 5, 2)),
    ("pivot", ("elliptic", 5, 2)),
    ("pivot", ("hermitian", 3, 4)),
    ("cone_swap", ("parabolic", 4, 2)),
    ("cone_swap", ("parabolic", 4, 4)),
    ("cone_swap", ("parabolic", 6, 2)),
    ("shifted_nucleus_pivot", ("parabolic", 4, 2)),
    ("shifted_nucleus_pivot", ("parabolic", 4, 4)),
    ("shifted_nucleus_pivot", ("parabolic", 6, 2)),
    ("repeated_pivot", ("parabolic", 4, 2)),
    ("repeated_pivot", ("parabolic", 4, 4)),
    ("repeated_pivot", ("hyperbolic", 5, 2)),
    ("affine_switch", ("hyperbolic", 5, 2)),
    ("nonsingular_switch_q2", ("parabolic", 4, 2)),
    ("internal_switch_q3", ("parabolic", 4, 3)),
    ("oval_nucleus_swap", ("parabolic", 2, 16)),
]
# Queries of each type per pass.  Every pass has the same mix; the seed picks
# the sets, swaps and parameters.
PER_PASS = {"classify": 50, "conditions": 40, "line_nucleus": 40, "write": 80}
IMAGES_PER_KIND = 6
ORACLE_SAMPLES_PER_TYPE = 2


class QueryStream:
    name = "query-stream"
    setup_samples = 3

    def setup(self) -> None:
        from qps import census, forms, pg, spectra

        for m, q in QS_SPACES:
            pg.space_for(m, q).incidence
        kinds = set(READ_KINDS) | {k for _, k in WRITES}
        self.canon = {k: canonical(*k) for k in kinds}
        for k in EVEN_KINDS:
            spectra.nucleus_conditions(self.canon[k][1])
        # replacement bases (pivot) and sections (q2-switch), as the tests
        # derive them: every classical set of the smaller kind
        keys = {(fam, m - 2, q) for op, (fam, m, q) in WRITES if op == "pivot"}
        keys |= {(sub, 3, 2) for sub in ("elliptic", "hyperbolic")}
        self.bases = {
            key: [
                s.bits
                for s in census.enumerate_quadrics(pg.space_for(key[1], key[2]), forms.PolarKind(*key))
            ]
            for key in keys
        }

    def prepare(self, rng: random.Random) -> None:
        from qps import spectra

        self.seed = rng.random()
        self.images = {
            k: [image(s, rng) for _ in range(IMAGES_PER_KIND)]
            for k, (_, s) in self.canon.items()
        }
        self.admissible = {}
        self.flags0 = {}
        for k, (_, s) in self.canon.items():
            hist = oracle.spectrum_histogram(oracle.Field(k[2]), k[1], s.vectors())
            self.admissible[k] = set(hist)
        for k in EVEN_KINDS:
            self.flags0[k] = spectra.nucleus_conditions(self.canon[k][1]).flags()
        self.oracle_left: dict[str, int] = {}

    # --- stream generation ------------------------------------------------

    def pass_ops(self, k: int, traced: bool):
        rng = random.Random(f"{self.seed}:{k}")
        ops = []
        for kind_key in READ_KINDS:
            for i in range(PER_PASS["classify"]):
                ops.append(self._read("classify", kind_key, i % 4, rng))
        for kind_key in EVEN_KINDS:
            for i in range(PER_PASS["conditions"]):
                ops.append(self._read("conditions", kind_key, i % 4, rng))
            for i in range(PER_PASS["line_nucleus"]):
                ops.append(self._read("line_nucleus", kind_key, i % 4, rng))
        for op, kind_key in WRITES:
            for _ in range(PER_PASS["write"]):
                ops.append(self._write(op, kind_key, rng))
        rng.shuffle(ops)
        return ops

    def _read(self, what: str, key, swaps: int, rng):
        from qps import pg, spectra

        s = rng.choice(self.images[key])
        bits = s.bits
        inside = s.indices()
        outside = [p for p in range(s.space.n_points) if not bits >> p & 1]
        for p in rng.sample(inside, swaps):
            bits &= ~(1 << p)
        for p in rng.sample(outside, swaps):
            bits |= 1 << p
        t = pg.PointSet(s.space, bits)
        kind = self.canon[key][0]
        label = f"{what}:{key[0]}({key[1]},{key[2]}):{swaps}"
        if what == "classify":
            thunk = lambda: (t, spectra.classify(t, kind))  # noqa: E731
        elif what == "conditions":
            thunk = lambda: (t, spectra.nucleus_conditions(t))  # noqa: E731
        else:
            thunk = lambda: (t, spectra.find_line_nucleus(t))  # noqa: E731
        return label, thunk

    def _write(self, op: str, key, rng):
        from qps import forms, pg, spectra, surgery

        fam, m, q = key
        kind = self.canon[key][0]
        s = rng.choice(self.images[key])
        space = s.space
        inc = space.incidence
        sizes = [(s.bits & inc[h]).bit_count() for h in range(space.n_points)]
        prof = spectra.profile(kind)
        singular = [h for h, v in enumerate(sizes) if v == prof.singular_size]
        verify_kind = kind
        if op == "pivot":
            pi = rng.choice(singular)
            args = (s, kind, pi, self._new_base(s, pi, (fam, m - 2, q), rng))
        elif op in ("cone_swap", "shifted_nucleus_pivot"):
            args = (s, rng.choice(singular))
        elif op == "repeated_pivot":
            p = rng.choice(s.indices())
            lines = [ln for ln in space.lines_through(p) if not ln & ~s.bits]
            line = pg.PointSet(space, rng.choice(lines))
            r = rng.choice([x for x in line.indices() if x != p])
            args = (s, kind, p, r)
        elif op == "affine_switch":
            args = (s,)
            verify_kind = forms.PolarKind("elliptic", m, q)
        elif op == "nonsingular_switch_q2":
            ell, _, hyp = prof.sizes
            pi = rng.choice([h for h, v in enumerate(sizes) if v in (ell, hyp)])
            sub = "elliptic" if sizes[pi] == ell else "hyperbolic"
            geom = pg.subgeometry(space, pg.hyperplane_flat(space, pi))
            old = geom.mask_from_ambient(s.bits & inc[pi])
            new = rng.choice([b for b in self.bases[(sub, m - 1, q)] if b != old])
            args = (s, pi, pg.PointSet(space, geom.mask_to_ambient(new)))
        elif op == "internal_switch_q3":
            ell, _, hyp = prof.sizes
            xi = rng.choice([h for h, v in enumerate(sizes) if v in (ell, hyp)])
            sub = "elliptic" if sizes[xi] == ell else "hyperbolic"
            target = spectra.profile(forms.PolarKind(sub, m - 1, q)).singular_size
            geom = pg.subgeometry(space, pg.hyperplane_flat(space, xi))
            sec = geom.mask_from_ambient(s.bits & inc[xi])
            g = geom.sub
            h = rng.choice(
                [h for h in range(g.n_points) if (g.incidence[h] & sec).bit_count() == target]
            )
            pts = [geom.to_ambient[i] for i in pg.PointSet(g, g.incidence[h]).indices()]
            args = (s, xi, pg.flat_from_points(space, pts))
        else:  # oval_nucleus_swap
            args = (s, rng.choice([h for h, v in enumerate(sizes) if v == 1]))

        def thunk():
            res, rec = getattr(surgery, op)(*args)
            return s, res, rec, spectra.classify(res, verify_kind)

        return f"{op}:{fam}({m},{q})", thunk

    def _new_base(self, s, pi: int, base_key, rng):
        """A seeded non-identity replacement base in a carrier of pi avoiding the vertex."""
        from qps import forms, pg

        space = s.space
        geom = pg.subgeometry(space, pg.hyperplane_flat(space, pi))
        sub = geom.sub
        sec = pg.PointSet(sub, geom.mask_from_ambient(s.bits & space.incidence[pi]))
        v = forms.cone_vertices(sec)[0]
        h = rng.choice([h for h in range(sub.n_points) if not sub.incidence[h] >> v & 1])
        inner = pg.subgeometry(sub, pg.hyperplane_flat(sub, h))
        old = inner.mask_from_ambient(sec.bits)
        new = rng.choice([b for b in self.bases[base_key] if b != old])
        return pg.PointSet(space, geom.mask_to_ambient(inner.mask_to_ambient(new)))

    # --- checks -----------------------------------------------------------

    def _oracle_due(self, label: str) -> bool:
        key = label.rsplit(":", 1)[0] if label.count(":") == 2 else label
        left = self.oracle_left.setdefault(key, ORACLE_SAMPLES_PER_TYPE)
        if left <= 0:
            return False
        self.oracle_left[key] = left - 1
        return True

    def _oracle_verdict(self, key, t, cls) -> list[str]:
        hist = oracle.spectrum_histogram(oracle.Field(t.space.q), t.space.m, t.vectors())
        errs = []
        if hist != cls.histogram:
            errs.append(f"histogram {cls.histogram}, dot products give {hist}")
        quasi = set(hist) <= self.admissible[key]
        if quasi != cls.quasi_polar:
            errs.append(f"quasi_polar {cls.quasi_polar}, dot products give {quasi}")
        return errs

    def check(self, label: str, result) -> list[str]:
        what, case = label.split(":")[:2]
        fam, _, rest = case.partition("(")
        m, q = (int(x) for x in rest.rstrip(")").split(","))
        key = (fam, m, q)
        if what in ("classify", "conditions", "line_nucleus"):
            return self._check_read(what, key, int(label.rsplit(":", 1)[1]), result, label)
        return self._check_write(what, key, result, label)

    def _check_read(self, what, key, swaps, result, label) -> list[str]:
        t, out = result
        errs = []
        if what == "classify":
            if out.size != t.size or sum(out.histogram.values()) != t.space.n_points:
                errs.append("size or histogram total wrong")
            if swaps == 0 and not (out.quasi_polar and out.classical_size):
                errs.append("projective image of the classical set not classical")
            if self._oracle_due(label):
                errs += self._oracle_verdict(key, t, out)
        elif what == "conditions":
            f = out.flags()
            a, b, bp, c = f["a"], f["b"], f["b_prime"], f["c"]
            cp, d, dp = f["c_prime"], f["d"], f["d_prime"]
            if out.size != t.size:
                errs.append("size wrong")
            if swaps == 0 and f != self.flags0[key]:
                errs.append(f"flags {f} differ from the canonical set's {self.flags0[key]}")
            lattice = [
                not (b and c) or bp,
                not (a and bp and d) or (b and c),
                not (a and bp and c) or (b and dp),
                (a and bp and cp) == (a and b and c),
                not (bp and dp) or (a and t.space.q % 2 == 0),
                not (a and bp) or out.singular_count == out.expected_singular,
            ]
            if not all(lattice):
                errs.append(f"condition lattice broken: {f}")
        else:
            if out is not None and t.contains(out):
                errs.append("nucleus lies on the set")
            if swaps == 0 and (out is None) != (t.space.q % 2 == 1):
                errs.append(f"nucleus {out} on the classical set, q = {t.space.q}")
        return errs

    def _check_write(self, op, key, result, label) -> list[str]:
        s, res, rec, cls = result
        errs = []
        if (s.bits & ~rec.removed.bits) | rec.added.bits != res.bits:
            errs.append("input - removed + added != output")
        if not (cls.quasi_polar and cls.classical_size):
            errs.append("output not a classical-size quasi-polar set")
        if op == "repeated_pivot" and res.bits != s.bits:
            errs.append("identity repeated pivot changed the set")
        if self._oracle_due(label):
            # affine-switch outputs are checked as elliptic quasi-quadrics
            vkey = ("elliptic",) + key[1:] if op == "affine_switch" else key
            errs += self._oracle_verdict(vkey, res, cls)
        return errs

    def final_checks(self, op_seconds: dict[str, float]) -> list[str]:
        return []

    def extra_metrics(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------


def _cli_commands(hyperplane: str) -> list[tuple[str, list[str], int]]:
    """(name, argv, expected exit code), grouped so each file is written first."""
    w = str(WORK)
    return [
        ("construct_q42", ["construct", "canonical", "--kind", "parabolic", "--m", "4", "--q", "2", "--out", f"{w}/q42.qps", "--json"], 0),
        ("census_nucleus_pivot", ["census", "nucleus-pivot", "--json"], 0),
        ("census_nucleus_pivot_t2", ["--threads", "2", "census", "nucleus-pivot", "--json"], 0),
        ("census_singular_switch", ["census", "singular-switch", "--json"], 0),
        ("census_nonsingular_q33", ["census", "nonsingular-switch", "--kind", "hyperbolic", "--m", "3", "--q", "3", "--json"], 0),
        ("census_quadrics_e32", ["census", "quadrics", "--kind", "elliptic", "--m", "3", "--q", "2", "--json"], 0),
        ("census_classical_dist_h34", ["census", "classical-dist", "--kind", "hermitian", "--m", "3", "--q", "4", "--json"], 0),
        ("census_two_secants", ["census", "two-secants", "--json"], 0),
        ("spectrum_q42", ["spectrum", "--in", f"{w}/q42.qps", "--kind", "parabolic", "--json"], 0),
        ("verify_q42", ["verify", "conditions", "--in", f"{w}/q42.qps", "--json"], 0),
        ("roots_h33", ["roots", "--kind", "hyperbolic", "--m", "3", "--q", "3", "--json"], 0),
        ("construct_q44", ["construct", "canonical", "--kind", "parabolic", "--m", "4", "--q", "4", "--out", f"{w}/q44.qps", "--json"], 0),
        ("spectrum_q44", ["spectrum", "--in", f"{w}/q44.qps", "--kind", "parabolic", "--json"], 0),
        ("verify_q44", ["verify", "conditions", "--in", f"{w}/q44.qps", "--json"], 0),
        ("surgery_cone_swap_q44", ["surgery", "cone-swap", "--in", f"{w}/q44.qps", "--hyperplane", hyperplane, "--out", f"{w}/cs44.qps", "--json"], 0),
        ("surgery_shifted_q44", ["surgery", "shifted-nucleus", "--in", f"{w}/q44.qps", "--hyperplane", hyperplane, "--out", f"{w}/sn44.qps", "--json"], 0),
        ("construct_c16", ["construct", "canonical", "--kind", "parabolic", "--m", "2", "--q", "16", "--out", f"{w}/c16.qps", "--json"], 0),
        ("spectrum_c16", ["spectrum", "--in", f"{w}/c16.qps", "--kind", "parabolic", "--json"], 0),
        ("verify_c16", ["verify", "conditions", "--in", f"{w}/c16.qps", "--json"], 0),
        ("construct_e38", ["construct", "canonical", "--kind", "elliptic", "--m", "3", "--q", "8", "--out", f"{w}/e38.qps", "--json"], 0),
        ("spectrum_e38", ["spectrum", "--in", f"{w}/e38.qps", "--kind", "elliptic", "--json"], 0),
        # odd dimension: the exit-code contract says 2
        ("verify_e38", ["verify", "conditions", "--in", f"{w}/e38.qps", "--json"], 2),
        ("construct_h225", ["construct", "canonical", "--kind", "hermitian", "--m", "2", "--q", "25", "--out", f"{w}/h225.qps", "--json"], 0),
        ("spectrum_h225", ["spectrum", "--in", f"{w}/h225.qps", "--kind", "hermitian", "--json"], 0),
        ("verify_h225", ["verify", "conditions", "--in", f"{w}/h225.qps", "--json"], 0),
    ]


CLI_NAMES = [name for name, _, _ in _cli_commands("0")]


def _flag(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def read_point_file(path: str):
    """(m, q, set of coordinate tuples) from a QPS 1 file, parsed independently."""
    rows = [ln.split() for ln in Path(path).read_text().splitlines()]
    rows = [r for r in rows if r and not r[0].startswith("#")]
    _, m, q = rows[1]
    return int(m), int(q), {tuple(int(x) for x in r) for r in rows[2:]}


def parabolic_sizes(m: int, q: int) -> set[int]:
    """Admissible hyperplane section sizes of Q(m, q), m even, in closed form."""
    n = m // 2
    if n == 1:
        return {0, 1, 2}
    minus = (q**n + 1) * (q ** (n - 1) - 1) // (q - 1)
    plus = (q**n - 1) * (q ** (n - 1) + 1) // (q - 1)
    cone = q * (q ** (2 * n - 2) - 1) // (q - 1) + 1
    return {minus, cone, plus}


class CliCold:
    name = "cli-cold"
    setup_samples = 9

    def setup(self) -> None:
        import qps.cli  # noqa: F401

    def prepare(self, rng: random.Random) -> None:
        # the surgeries take a seeded singular hyperplane of Q(4,4), found
        # by dot products on the canonical set
        _, s = canonical("parabolic", 4, 4)
        field = oracle.Field(4)
        pts = s.vectors()
        singular = [
            h for h in oracle.projective_points(4, 4)
            if sum(1 for v in pts if field.dot(h, v) == 0) == 21
        ]
        self.hyperplane = ",".join(map(str, rng.choice(singular)))
        self.commands = _cli_commands(self.hyperplane)
        self.seed = rng.random()
        self.expected = {name: rc for name, _, rc in self.commands}
        self.first: dict[str, bytes] = {}
        self.oracle_cache: dict[str, dict] = {}
        self.env = child_env()
        self.child_traces: list[dict] = []
        WORK.mkdir(exist_ok=True)

    def pass_ops(self, k: int, traced: bool):
        """The commands in a seeded order per pass; each file is written before it is read."""
        rng = random.Random(f"{self.seed}:{k}")
        groups = []
        for cmd in self.commands:
            if cmd[0].startswith("construct") or not groups:
                groups.append([cmd])
            else:
                groups[-1].append(cmd)
        for g in groups:
            tail = g[1:]
            rng.shuffle(tail)
            g[1:] = tail
        rng.shuffle(groups)
        return [
            (name, lambda name=name, argv=argv: self.run_child(name, argv, traced))
            for g in groups
            for name, argv, _ in g
        ]

    def run_child(self, name: str, argv: list[str], traced: bool):
        if not traced:
            cmd = [sys.executable, "-m", "qps.cli", *argv]
        else:
            out = WORK / f"trace-{name}.json"
            out.unlink(missing_ok=True)  # never read a file an earlier run left
            cmd = [sys.executable, str(Path(__file__).with_name("clitrace.py")), str(out), *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, timeout=120)
        if traced:
            self.child_traces.append(json.loads(out.read_text()))
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, name: str, result) -> list[str]:
        rc, out, err = result
        errs = []
        if rc != self.expected[name]:
            return [f"exit code {rc}, expected {self.expected[name]}: {err.decode()[-300:]}"]
        if name not in self.first:
            self.first[name] = out
            errs += self._check_body(name, out)
        elif self.first[name] != out:
            errs.append("stdout differs from the first pass")
        return errs

    def _spectrum(self, path: str) -> dict:
        if path not in self.oracle_cache:
            m, q, vecs = read_point_file(path)
            hist = oracle.spectrum_histogram(oracle.Field(q), m, vecs)
            self.oracle_cache[path] = {"m": m, "q": q, "vecs": vecs, "hist": hist}
        return self.oracle_cache[path]

    def _check_body(self, name: str, out: bytes) -> list[str]:
        if self.expected[name] != 0:
            return [] if out == b"" else ["stdout written on a failing command"]
        rep = json.loads(out)
        errs = [] if rep.get("format") == "qps-report/1" else ["report format"]
        argv = next(a for n, a, _ in self.commands if n == name)
        if name.startswith(("construct", "spectrum")):
            ref = self._spectrum(_flag(argv, "--out" if name.startswith("construct") else "--in"))
            got = {e["size"]: e["count"] for e in rep["spectrum"]}
            if got != ref["hist"]:
                errs.append(f"spectrum {got}, dot products give {ref['hist']}")
            if rep["verdict"] != "classical_size":
                errs.append(f"verdict {rep['verdict']}")
        elif name.startswith("verify"):
            ref = self._spectrum(_flag(argv, "--in"))
            m, q = ref["m"], ref["q"]
            a = len(ref["vecs"]) == (q**m - 1) // (q - 1)
            bp = set(ref["hist"]) <= parabolic_sizes(m, q)
            cond = rep["conditions"]
            if (cond["a"], cond["b_prime"]) != (a, bp):
                errs.append(f"conditions a/b' {cond['a']}/{cond['b_prime']}, expected {a}/{bp}")
            if cond["expected_singular"] != (q**m - 1) // (q - 1):
                errs.append("expected_singular")
        elif name.startswith("surgery"):
            _, _, before = read_point_file(_flag(argv, "--in"))
            m, q, after = read_point_file(_flag(argv, "--out"))
            rec = rep["surgery"]
            replay = (before - {tuple(r) for r in rec["removed"]}) | {tuple(r) for r in rec["added"]}
            if replay != after:
                errs.append("input - removed + added != output file")
            hist = oracle.spectrum_histogram(oracle.Field(q), m, after)
            got = {e["size"]: e["count"] for e in rep["spectrum"]}
            if got != hist or not set(hist) <= parabolic_sizes(m, q):
                errs.append(f"output spectrum {got}, dot products give {hist}")
        elif name.startswith("census"):
            errs += self._check_census(name, rep["census"])
        elif name.startswith("roots"):
            if rep["roots"]["classical"] != 16 or rep["roots"]["other_integral"]:
                errs.append(f"roots {rep['roots']}")
        return errs

    def _check_census(self, name: str, body: dict) -> list[str]:
        total = body["total_candidates"]
        want = {
            "census_nucleus_pivot": 448,
            "census_nucleus_pivot_t2": 448,
            "census_singular_switch": math.comb(15, 7),
            "census_nonsingular_q33": oracle.classical_set_count("parabolic", 2, 3),
            "census_quadrics_e32": oracle.classical_set_count("elliptic", 3, 2),
            # lines of PG(3,4): (q^2 + 1)(q^2 + q + 1)
            "census_classical_dist_h34": 17 * 21,
            # points of PG(4,2) off Q(4,2) and off the nucleus
            "census_two_secants": 31 - 15 - 1,
        }[name]
        errs = [] if total == want else [f"{total} candidates, closed form {want}"]
        if name.startswith("census_nucleus_pivot") and body["breakdown"] != NUCLEUS_PIVOT:
            errs.append(f"breakdown {body['breakdown']}")
        if name == "census_singular_switch" and body["breakdown"] != SINGULAR_SWITCH:
            errs.append(f"breakdown {body['breakdown']}")
        if name == "census_two_secants" and body["breakdown"] != {"two_secants=4": 15}:
            errs.append(f"breakdown {body['breakdown']}")
        return errs

    def final_checks(self, op_seconds: dict[str, float]) -> list[str]:
        a = self.first.get("census_nucleus_pivot")
        b = self.first.get("census_nucleus_pivot_t2")
        self.threads_ratio = op_seconds["census_nucleus_pivot_t2"] / op_seconds["census_nucleus_pivot"]
        return [] if a is not None and a == b else ["nucleus-pivot stdout differs between --threads 1 and 2"]

    def extra_metrics(self) -> dict:
        return {"census.threads2_over_threads1": self.threads_ratio}


WORKLOADS = {w.name: w for w in (Census, QueryStream, CliCold)}


def setup_sample(name: str) -> float:
    """Set-up time of a workload in this (fresh) process."""
    t0 = time.perf_counter()
    WORKLOADS[name]().setup()
    return time.perf_counter() - t0
