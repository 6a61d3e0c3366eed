"""Exhaustive censuses: form enumeration, section switching, type distributions.

Candidate enumeration is deterministic: forms are scanned in ascending
coefficient-vector order, distinct point sets kept on first occurrence, and
results returned sorted by bitmask.  The bulk quadratic enumeration switches
to a vectorized kernel when the form count times the point count gets large;
both code paths produce identical output.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .forms import (
    Form,
    IncompatibleKind,
    PolarKind,
    canonical_form,
    classical_cardinality,
    form_is_nondegenerate,
    nucleus_point,
    point_set,
)
from .pg import (
    Flat,
    PointSet,
    ProjSpace,
    SpaceTooLarge,
    bits_to_indices,
    flats_of_codim,
    hyperplane_flat,
    hyperplanes_containing,
    rref,
    space_for,
    subgeometry,
)
from .spectra import (
    InvariantViolated,
    SpectrumProfile,
    classify,
    find_line_nucleus,
    profile,
    section_type,
    sections_admissible,
    spectrum,
)


class PointOnQuadric(ValueError):
    """Two-secant count is defined for points off the set."""


class PointIsNucleus(ValueError):
    """Two-secant count is not defined at the nucleus."""


FORM_CAP = 1 << 20
_VECTOR_THRESHOLD = 2_000_000


@dataclass
class CensusResult:
    name: str
    m: int
    q: int
    total_candidates: int
    breakdown: dict[str, int]
    witnesses: dict[str, list[list[int]]]
    runtime_ms: int
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "space": {"m": self.m, "q": self.q},
            "total_candidates": self.total_candidates,
            "breakdown": self.breakdown,
            "witnesses": self.witnesses,
            "runtime_ms": self.runtime_ms,
            "extra": self.extra,
        }


def _monomials(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d) for j in range(i, d)]


def _quadratic_matrix(d: int, coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    A = [[0] * d for _ in range(d)]
    for (i, j), c in zip(_monomials(d), coeffs):
        A[i][j] = c
    return tuple(tuple(r) for r in A)


def _hermitian_matrix(
    space: ProjSpace, diag: tuple[int, ...], upper: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    f = space.f
    d = space.m + 1
    A = [[0] * d for _ in range(d)]
    for i in range(d):
        A[i][i] = diag[i]
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            A[i][j] = upper[k]
            A[j][i] = f.conj[upper[k]]
            k += 1
    return tuple(tuple(r) for r in A)


def enumerate_quadrics(space: ProjSpace, kind: PolarKind) -> list[PointSet]:
    """All distinct classical point sets of the kind, sorted by bitmask."""
    if space.m != kind.m or space.q != kind.q:
        raise IncompatibleKind("kind does not match the space")
    q = space.q
    d = space.m + 1
    target = classical_cardinality(kind)
    if kind.is_quadric:
        total = q ** len(_monomials(d))
    else:
        r = math.isqrt(q)
        total = r**d * q ** (d * (d - 1) // 2)
    if total > FORM_CAP:
        raise SpaceTooLarge(f"{total} candidate forms exceed the enumeration cap")

    if kind.is_quadric:
        seen = _enumerate_quadratic_zero_sets(space, target, total)
    else:
        seen = _enumerate_hermitian_zero_sets(space, target)

    out_bits = []
    for bits, matrix in seen.items():
        form = Form(kind=kind, space=space, matrix=matrix)
        if form_is_nondegenerate(form):
            out_bits.append(bits)
    out_bits.sort()
    return [PointSet(space, b) for b in out_bits]


def _enumerate_quadratic_zero_sets(
    space: ProjSpace, target: int, total: int
) -> dict[int, tuple[tuple[int, ...], ...]]:
    q = space.q
    d = space.m + 1
    mono = _monomials(d)
    if total * space.n_points > _VECTOR_THRESHOLD:
        return _enumerate_quadratic_vectorized(space, target, total)
    f = space.f
    pv = [
        [f.mul[x[i]][x[j]] for x in space.points] for (i, j) in mono
    ]
    n = space.n_points
    seen: dict[int, tuple[tuple[int, ...], ...]] = {}
    add = f.add
    mul = f.mul
    for idx in range(total):
        coeffs = []
        t = idx
        for _ in mono:
            coeffs.append(t % q)
            t //= q
        vals = [0] * n
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            row = mul[c]
            pk = pv[k]
            for a in range(n):
                vals[a] = add[vals[a]][row[pk[a]]]
        bits = 0
        cnt = 0
        for a in range(n):
            if vals[a] == 0:
                bits |= 1 << a
                cnt += 1
        if cnt == target and bits not in seen:
            seen[bits] = _quadratic_matrix(d, tuple(coeffs))
    return seen


def _enumerate_quadratic_vectorized(
    space: ProjSpace, target: int, total: int
) -> dict[int, tuple[tuple[int, ...], ...]]:
    import numpy as np

    q = space.q
    f = space.f
    d = space.m + 1
    mono = _monomials(d)
    K = len(mono)
    ADD = np.array(f.add, dtype=np.uint8)
    MUL = np.array(f.mul, dtype=np.uint8)
    pts = np.array(space.points, dtype=np.uint8)
    pv = np.stack([MUL[pts[:, i], pts[:, j]] for (i, j) in mono])
    n = space.n_points
    radix = q ** np.arange(K, dtype=np.int64)
    seen: dict[int, tuple[tuple[int, ...], ...]] = {}
    chunk = 1 << 16
    for lo in range(0, total, chunk):
        idxs = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        coeffs = (idxs[:, None] // radix[None, :] % q).astype(np.uint8)
        acc = np.zeros((len(idxs), n), dtype=np.uint8)
        for k in range(K):
            acc = ADD[acc, MUL[coeffs[:, k][:, None], pv[k][None, :]]]
        zero = acc == 0
        sizes = zero.sum(axis=1)
        for i in np.nonzero(sizes == target)[0]:
            packed = np.packbits(zero[i], bitorder="little").tobytes()
            bits = int.from_bytes(packed, "little")
            if bits not in seen:
                seen[bits] = _quadratic_matrix(
                    d, tuple(int(c) for c in coeffs[i])
                )
    return seen


def _enumerate_hermitian_zero_sets(
    space: ProjSpace, target: int
) -> dict[int, tuple[tuple[int, ...], ...]]:
    q = space.q
    f = space.f
    d = space.m + 1
    subfield = [x for x in range(q) if f.conj[x] == x]
    n_upper = d * (d - 1) // 2
    kind = PolarKind("hermitian", space.m, q)
    seen: dict[int, tuple[tuple[int, ...], ...]] = {}
    for diag in itertools.product(subfield, repeat=d):
        for upper in itertools.product(range(q), repeat=n_upper):
            matrix = _hermitian_matrix(space, diag, upper)
            form = Form(kind=kind, space=space, matrix=matrix)
            bits = point_set(form).bits
            if bits.bit_count() == target and bits not in seen:
                seen[bits] = matrix
    return seen


def _classical_profile(s: PointSet, kind: PolarKind) -> SpectrumProfile:
    """Profile of the kind, after checking that s is a classical-size quasi-polar set."""
    cls = classify(s, kind)
    if not cls.quasi_polar or not cls.classical_size:
        raise ValueError("census needs a classical-size quasi-polar set")
    return profile(kind)


def nucleus_pivot_census(s: PointSet, threads: int = 1) -> CensusResult:
    """Switch every non-singular section of Q(4,2) and count nucleus survival.

    Runs over all non-singular hyperplanes of each type and checks that the
    per-hyperplane counts agree before reporting them.  ``threads`` is
    accepted for compatibility and ignored.
    """
    t0 = time.perf_counter()
    space = s.space
    if (space.m, space.q) != (4, 2):
        raise ValueError("census is defined for PG(4,2)")
    prof = _classical_profile(s, PolarKind("parabolic", 4, 2))
    sizes = set(prof.sizes)
    ell, cone_size, hyp = prof.sizes
    per = spectrum(s).per_hyperplane
    breakdown: dict[str, int] = {}
    witnesses: dict[str, list[list[int]]] = {}
    checked: dict[str, int] = {}
    total = 0
    for label, size in (("hyperbolic", hyp), ("elliptic", ell)):
        hyps = [h for h, v in enumerate(per) if v == size]
        per_hyp: list[tuple[int, int]] = []
        for h in hyps:
            geom = subgeometry(space, hyperplane_flat(space, h))
            cands = enumerate_quadrics(geom.sub, PolarKind(label, 3, 2))
            base_bits = s.bits & ~space.incidence[h]
            no_nucleus = []
            for cand in cands:
                bits = base_bits | geom.mask_to_ambient(cand.bits)
                if not sections_admissible(space, bits, sizes):
                    raise InvariantViolated(f"a {label} switch at {h} is not quasi-polar")
                if find_line_nucleus(PointSet(space, bits)) is None:
                    no_nucleus.append(bits)
            per_hyp.append((len(no_nucleus), len(cands)))
            if h == hyps[0]:
                witnesses[f"{label}_no_nucleus"] = [bits_to_indices(b) for b in no_nucleus[:10]]
        if len(set(per_hyp)) != 1:
            raise InvariantViolated(f"hyperplane dependence in {label} census")
        no_nuc, n_cand = per_hyp[0]
        breakdown[f"{label}_no_nucleus"] = no_nuc
        breakdown[f"{label}_with_nucleus"] = n_cand - no_nuc
        checked[label] = len(hyps)
        total += n_cand
    return CensusResult(
        name="nucleus-pivot",
        m=4,
        q=2,
        total_candidates=total,
        breakdown=breakdown,
        witnesses=witnesses,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        extra={"hyperplanes_checked": checked},
    )


def singular_switch_census(s: PointSet, threads: int = 1) -> CensusResult:
    """Replace a singular section of Q(4,2) by every 7-subset of the hyperplane.

    Survivors are matched, set for set, against the constructive shape
    families (cones and truncated cones through the section vertex and the
    nucleus-like point); any mismatch raises.  ``threads`` is accepted for
    compatibility and ignored.
    """
    t0 = time.perf_counter()
    space = s.space
    if (space.m, space.q) != (4, 2):
        raise ValueError("census is defined for PG(4,2)")
    prof = _classical_profile(s, PolarKind("parabolic", 4, 2))
    sizes = set(prof.sizes)
    per = spectrum(s).per_hyperplane
    pi = next(h for h, v in enumerate(per) if v == prof.singular_size)
    from .surgery import _cone_decomposition

    vertex, _mu, _base = _cone_decomposition(s, pi)
    nucleus = find_line_nucleus(s)
    if nucleus is None:
        raise InvariantViolated("a classical-size Q(4,2) set has no line nucleus")

    hmask = space.incidence[pi]
    base_bits = s.bits & ~hmask
    combos = list(itertools.combinations(bits_to_indices(hmask), 7))
    survivors = []
    for combo in combos:
        t_bits = 0
        for i in combo:
            t_bits |= 1 << i
        if sections_admissible(space, base_bits | t_bits, sizes):
            survivors.append(t_bits)

    families = _q42_shape_families(s, pi, vertex, nucleus)
    labels = list(families)
    union: set[int] = set()
    for key in labels:
        union |= families[key]
    if set(survivors) != union:
        raise InvariantViolated("survivors do not match the shape families")

    # a set can admit several shape descriptions; the breakdown uses the
    # first matching label so the counts sum to the survivor count
    breakdown = {"not_quasi_polar": len(combos) - len(survivors)}
    witnesses: dict[str, list[list[int]]] = {}
    multi = 0
    grouped: dict[str, list[int]] = {key: [] for key in labels}
    for t in sorted(survivors):
        matches = [key for key in labels if t in families[key]]
        if len(matches) > 1:
            multi += 1
        grouped[matches[0]].append(t)
    for key in labels:
        breakdown[key] = len(grouped[key])
        witnesses[key] = [bits_to_indices(b) for b in grouped[key][:10]]
    return CensusResult(
        name="singular-switch",
        m=4,
        q=2,
        total_candidates=len(combos),
        breakdown=breakdown,
        witnesses=witnesses,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        extra={
            "hyperplane": pi,
            "vertex": vertex,
            "nucleus": nucleus,
            "multi_shape": multi,
        },
    )


def _q42_shape_families(
    s: PointSet, pi: int, vertex: int, nucleus: int
) -> dict[str, set[int]]:
    """Constructive enumeration of the four surviving section shapes."""
    space = s.space
    geom = subgeometry(space, hyperplane_flat(space, pi))
    sub = geom.sub

    def sub_lines(center_amb: int) -> list[int]:
        c = geom.from_ambient[center_amb]
        return [geom.mask_to_ambient(l) for l in sub.lines_through(c)]

    def rank_of_mask(mask: int) -> int:
        return len(rref(space.f, [space.points[i] for i in bits_to_indices(mask)]))

    lines_p = sub_lines(vertex)
    lines_n = sub_lines(nucleus)
    pn_line = next(l for l in lines_p if l >> nucleus & 1)

    def cones(lines: list[int]) -> set[int]:
        out = set()
        for trip in itertools.combinations(lines, 3):
            m = trip[0] | trip[1] | trip[2]
            if rank_of_mask(m) == 4:
                out.add(m)
        return out

    def truncated(center: int, lines_c: list[int], other: int, lines_o: list[int]):
        out = set()
        cbit = 1 << center
        for l1, l2 in itertools.combinations(lines_c, 2):
            if l1 == pn_line or l2 == pn_line:
                continue
            trunc = (l1 | l2) & ~cbit
            for m in lines_o:
                if m == pn_line or m & trunc:
                    continue
                out.add(trunc | m)
        return out

    return {
        "cone_vertex": cones(lines_p),
        "cone_nucleus": cones(lines_n),
        "truncated_vertex_plus_nucleus_line": truncated(
            vertex, lines_p, nucleus, lines_n
        ),
        "truncated_nucleus_plus_vertex_line": truncated(
            nucleus, lines_n, vertex, lines_p
        ),
    }


def q4_shape_classify(s: PointSet, pi: int, section) -> list[str]:
    """Labels of the shape families containing a 7-point section of pi.

    ``s`` is a classical-size quasi-quadric of PG(4,2) whose section in the
    singular hyperplane ``pi`` fixes the cone vertex and the line nucleus.
    ``section`` is a candidate replacement section, given either as an int
    bitmask or as an iterable of ambient point indices; it must consist of 7
    points inside ``pi``.  Returns the sorted list of matching family labels,
    empty when the candidate matches none (and hence cannot survive the
    switch).
    """
    space = s.space
    if (space.m, space.q) != (4, 2):
        raise ValueError("shape classification is defined for PG(4,2)")
    from .surgery import _cone_decomposition

    vertex, _mu, _base = _cone_decomposition(s, pi)
    nucleus = find_line_nucleus(s)
    if nucleus is None:
        raise ValueError("the ambient set has no line nucleus")
    if isinstance(section, int):
        t_bits = section
    else:
        t_bits = 0
        for i in section:
            t_bits |= 1 << int(i)
    hmask = space.incidence[pi]
    if t_bits & ~hmask:
        raise ValueError("section must lie inside the hyperplane")
    if t_bits.bit_count() != 7:
        raise ValueError("section must have exactly 7 points")
    families = _q42_shape_families(s, pi, vertex, nucleus)
    return sorted(key for key, fam in families.items() if t_bits in fam)


_SECTION_FAMILIES = {
    "parabolic": ("elliptic", "hyperbolic"),
    "hyperbolic": ("parabolic",),
    "elliptic": ("parabolic",),
    "hermitian": ("hermitian",),
}


def nonsingular_switch_census(
    s: PointSet, kind: PolarKind, threads: int = 1
) -> CensusResult:
    """Replace a non-singular section by every classical set of its type.

    For each non-singular section type of the classical set ``s``, fix the
    lex-least hyperplane with that section, enumerate all sets of that type
    inside the hyperplane, switch, and count the quasi-polar survivors.  The
    identity is always a survivor; any other survivor would contradict the
    singular-hyperplane characterization and is recorded as a witness.
    ``threads`` is accepted for compatibility and ignored.
    """
    t0 = time.perf_counter()
    space = s.space
    prof = _classical_profile(s, kind)
    sizes = set(prof.sizes)
    per = spectrum(s).per_hyperplane
    inc = space.incidence

    breakdown: dict[str, int] = {}
    witnesses: dict[str, list[list[int]]] = {}
    extra: dict[str, dict] = {"hyperplanes": {}, "candidates": {}}
    total = 0
    for fam in _SECTION_FAMILIES[kind.family]:
        sub_kind = PolarKind(fam, kind.m - 1, kind.q)
        target = profile(sub_kind).cardinality
        pi = next(h for h, v in enumerate(per) if v == target)
        geom = subgeometry(space, hyperplane_flat(space, pi))
        cands = enumerate_quadrics(geom.sub, sub_kind)
        hmask = inc[pi]
        base_bits = s.bits & ~hmask
        ident = s.bits & hmask
        survivors = []
        for cand in cands:
            t_bits = geom.mask_to_ambient(cand.bits)
            if sections_admissible(space, base_bits | t_bits, sizes):
                survivors.append(t_bits)
        if ident not in survivors:
            raise InvariantViolated("the identity section did not survive")
        others = sorted(t for t in survivors if t != ident)
        breakdown[f"{fam}_identity"] = 1
        breakdown[f"{fam}_other_survivor"] = len(others)
        breakdown[f"{fam}_not_quasi_polar"] = len(cands) - len(survivors)
        witnesses[f"{fam}_other_survivor"] = [
            bits_to_indices(t) for t in others[:10]
        ]
        extra["hyperplanes"][fam] = pi
        extra["candidates"][fam] = len(cands)
        total += len(cands)

    return CensusResult(
        name="nonsingular-switch",
        m=space.m,
        q=space.q,
        total_candidates=total,
        breakdown=breakdown,
        witnesses=witnesses,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        extra=extra,
    )


def classical_distribution(form: Form, flat: Flat) -> dict:
    """Type distribution of the hyperplanes through a codimension-2 flat."""
    space = form.space
    zeros = point_set(form)
    labels: dict[str, int] = {}
    for h in hyperplanes_containing(space, flat):
        v = (zeros.bits & space.incidence[h]).bit_count()
        lab = section_type(form.kind, v) or "other"
        labels[lab] = labels.get(lab, 0) + 1
    return {
        "flat_section": (zeros.bits & flat.mask()).bit_count(),
        "hyperplanes": dict(sorted(labels.items())),
    }


def two_secant_count(form: Form, p: int) -> int:
    """Number of 2-secant lines through an off point (parabolic, q even)."""
    space = form.space
    if form.kind.family != "parabolic" or space.f.p != 2:
        raise IncompatibleKind("two-secant count needs a parabolic form, q even")
    zeros = point_set(form)
    if zeros.contains(p):
        raise PointOnQuadric(f"point {p} lies on the set")
    if p == nucleus_point(form):
        raise PointIsNucleus("two-secant count is not defined at the nucleus")
    count = 0
    for line in space.lines_through(p):
        if (line & zeros.bits).bit_count() == 2:
            count += 1
    return count


def quadrics_census(kind: PolarKind) -> CensusResult:
    """Count the classical sets of the kind; the first ten are the witnesses."""
    t0 = time.perf_counter()
    sets = enumerate_quadrics(space_for(kind.m, kind.q), kind)
    return CensusResult(
        name="quadrics",
        m=kind.m,
        q=kind.q,
        total_candidates=len(sets),
        breakdown={kind.family: len(sets)},
        witnesses={kind.family: [t.indices() for t in sets[:10]]},
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


def classical_dist_census(kind: PolarKind) -> CensusResult:
    """Tally the hyperplane type distributions of all codimension-2 flats."""
    t0 = time.perf_counter()
    space = space_for(kind.m, kind.q)
    form = canonical_form(kind, space)
    agg: dict[str, int] = {}
    flats = flats_of_codim(space, 2)
    for flat in flats:
        d = classical_distribution(form, flat)
        label = f"sec={d['flat_section']};" + ";".join(
            f"{k}={v}" for k, v in d["hyperplanes"].items()
        )
        agg[label] = agg.get(label, 0) + 1
    return CensusResult(
        name="classical-dist",
        m=kind.m,
        q=kind.q,
        total_candidates=len(flats),
        breakdown=dict(sorted(agg.items())),
        witnesses={},
        runtime_ms=int((time.perf_counter() - t0) * 1000),
    )


def two_secant_census(kind: PolarKind) -> CensusResult:
    """Tally the 2-secant counts of the off points other than the nucleus."""
    t0 = time.perf_counter()
    space = space_for(kind.m, kind.q)
    form = canonical_form(kind, space)
    zeros = point_set(form)
    nuc = nucleus_point(form)
    agg: dict[str, int] = {}
    total = 0
    for p in range(space.n_points):
        if zeros.contains(p) or p == nuc:
            continue
        key = f"two_secants={two_secant_count(form, p)}"
        agg[key] = agg.get(key, 0) + 1
        total += 1
    return CensusResult(
        name="two-secants",
        m=kind.m,
        q=kind.q,
        total_candidates=total,
        breakdown=dict(sorted(agg.items())),
        witnesses={},
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        extra={"expected": kind.q ** (2 * (kind.m // 2) - 1) // 2},
    )
