"""Exhaustive censuses: classical-set enumeration, section switching, type distributions.

The classical sets of one kind are all projectively equivalent, so
``enumerate_quadrics`` lists them as the PGL(m+1, q) orbit of the canonical
set: a breadth-first search over bitmasks under a fixed generating set, each
generator applied through per-byte point tables.  The closed-form orbit size
bounds the search before it starts and checks it when it ends.  The orbit
depends only on the space and the family, so each space keeps it as a sorted
tuple of bitmasks, which the censuses read directly.

The switch censuses replace the section of s in one hyperplane pi by a
candidate T and ask whether s stays quasi-polar.  They work in the
coordinates of pi as its own PG(m-1, q).  Every other hyperplane H meets pi
in a hyperplane tau of pi (a plane when pi is a solid), so H meets the result
in |base ∩ H| + |T ∩ tau| points, base being s off pi.  Hyperplane h is dual
point h, so the hyperplanes other than pi through tau are the other points
of one dual line through pi: grouped by tau, they give the values of
|T ∩ tau| that all of them admit, and a candidate is checked against these
per-tau tables.  The line-nucleus test of the nucleus-pivot census and the
Q(4,2) shape families of the singular-switch census are built in the same
coordinates; only survivors are mapped to ambient point indices.
The nucleus-pivot test looks off pi only, as a nucleus inside pi needs
|T| = theta_2 = 7; the Q(4,2) frame's nucleus is read from section sizes.
"""

from __future__ import annotations

import bisect
import itertools
import math

from .forms import (
    Form,
    IncompatibleKind,
    PolarKind,
    canonical_form,
    nucleus_point,
    point_set,
)
from .gf import FieldTable
from .pg import (
    Flat,
    PointSet,
    ProjSpace,
    SpaceTooLarge,
    SubGeometry,
    bits_to_indices,
    dot,
    hyperplane_flat,
    hyperplanes_containing,
    normalize_point,
    point_set_from_indices,
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
    spectrum,
)
from .surgery import _decompose


class PointOnQuadric(ValueError):
    """Two-secant count is defined for points off the set."""


class PointIsNucleus(ValueError):
    """Two-secant count is not defined at the nucleus."""


ORBIT_CAP = 1 << 20


class CensusResult:
    """Candidate count, breakdown by outcome, witnesses and extras of one census."""

    def __init__(
        self,
        name: str,
        m: int,
        q: int,
        total_candidates: int,
        breakdown: dict[str, int],
        witnesses: dict[str, list[list[int]]],
        extra: dict | None = None,
    ):
        self.name = name
        self.m = m
        self.q = q
        self.total_candidates = total_candidates
        self.breakdown = breakdown
        self.witnesses = witnesses
        self.extra = {} if extra is None else extra

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "space": {"m": self.m, "q": self.q},
            "total_candidates": self.total_candidates,
            "breakdown": self.breakdown,
            "witnesses": self.witnesses,
            "extra": self.extra,
        }


def _orbit_size(kind: PolarKind) -> int:
    """Number of classical sets of the kind: |GL(d, q)| / |similitudes of the form|.

    The similitudes are the linear maps that fix the point set.  The
    elliptic set of PG(1, q) is empty, so its orbit is the one set.
    """
    q, d = kind.q, kind.m + 1
    n = d // 2
    if kind.family == "elliptic" and d == 2:
        return 1
    if kind.family == "hermitian":
        r = math.isqrt(q)
        stab = r ** (d * (d - 1) // 2) * math.prod(r**i - (-1) ** i for i in range(1, d + 1))
        stab *= r - 1
    elif d % 2:  # |Sp(2n, q)| times the q - 1 scalars, for q odd and even alike
        stab = q ** (n * n) * math.prod(q ** (2 * i) - 1 for i in range(1, n + 1)) * (q - 1)
    else:
        eps = 1 if kind.family == "hyperbolic" else -1
        stab = 2 * q ** (n * (n - 1)) * (q**n - eps) * (q - 1)
        stab *= math.prod(q ** (2 * i) - 1 for i in range(1, n))
    return math.prod(q**d - q**i for i in range(d)) // stab


def _primitive_element(f: FieldTable) -> int:
    """The least w whose powers run through all of GF(q)*."""
    for w in range(2, f.q):
        powers = [w]
        while powers[-1] != 1:
            powers.append(f.mul[powers[-1]][w])
        if len(powers) == f.q - 1:
            return w
    raise InvariantViolated(f"GF({f.q}) has no primitive element")


def _pgl_generators(d: int, f: FieldTable) -> list[list[list[int]]]:
    """Generators of GL(d, q): the cyclic coordinate shift, the transvection
    x_0 <- x_0 + x_1 and, for q > 2, diag(w, 1, ..., 1) with w primitive."""
    shift = [[int(j == (i + 1) % d) for j in range(d)] for i in range(d)]
    trans = [[int(i == j or (i, j) == (0, 1)) for j in range(d)] for i in range(d)]
    if f.q == 2:
        return [shift, trans]
    w = _primitive_element(f)
    diag = [[(w if i == 0 else 1) if i == j else 0 for j in range(d)] for i in range(d)]
    return [shift, trans, diag]


def _byte_tables(space: ProjSpace, g: list[list[int]]) -> list[list[int]]:
    """tables[k][b] is the image under g of the points 8k + i with bit i of b set."""
    f = space.f
    perm = [
        normalize_point(space, tuple(dot(f, row, v) for row in g)) for v in space.points
    ]
    tables = []
    for lo in range(0, len(perm), 8):
        images = [1 << p for p in perm[lo : lo + 8]]
        table = [0] * 256
        for b in range(1, 1 << len(images)):
            low = b & -b
            table[b] = table[b ^ low] | images[low.bit_length() - 1]
        tables.append(table)
    return tables


def _orbit(space: ProjSpace, kind: PolarKind) -> tuple[int, ...]:
    """Bitmasks of all classical sets of the kind, sorted, searched once per space.

    The kind is checked against the space and the closed-form orbit size
    against ``ORBIT_CAP`` before the table is read, so the family alone keys
    ``space._orbits``; a search whose count is wrong raises and stores nothing.
    """
    if space.m != kind.m or space.q != kind.q:
        raise IncompatibleKind("kind does not match the space")
    total = _orbit_size(kind)
    if total > ORBIT_CAP:
        raise SpaceTooLarge(f"{total} classical sets exceed the enumeration cap")
    orbit = space._orbits.get(kind.family)
    if orbit is not None:
        return orbit
    gens = [_byte_tables(space, g) for g in _pgl_generators(space.m + 1, space.f)]
    nbytes = (space.n_points + 7) // 8
    start = point_set(canonical_form(kind, space)).bits
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for tables in gens:
            for bits in frontier:
                img = 0
                for table, b in zip(tables, bits.to_bytes(nbytes, "little")):
                    img |= table[b]
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    if len(seen) != total:
        raise InvariantViolated(f"orbit search found {len(seen)} of {total} sets")
    orbit = space._orbits[kind.family] = tuple(sorted(seen))
    return orbit


def enumerate_quadrics(space: ProjSpace, kind: PolarKind) -> list[PointSet]:
    """All distinct classical point sets of the kind, sorted by bitmask.

    The sets of one kind form a single PGL(m+1, q) orbit, found by a
    breadth-first search from the canonical set.  Each call returns a new
    list; the search runs once per space and family.
    """
    return [PointSet(space, b) for b in _orbit(space, kind)]


def _classical_profile(s: PointSet, kind: PolarKind) -> SpectrumProfile:
    """Profile of the kind, after checking that s is a classical-size quasi-polar set."""
    cls = classify(s, kind)
    if not cls.quasi_polar or not cls.classical_size:
        raise ValueError("census needs a classical-size quasi-polar set")
    return profile(kind)


def _switch_test(space: ProjSpace, s_bits: int, pi: int, sizes):
    """Subgeometry of hyperplane pi, and a predicate on a section T of pi in
    its coordinates: does base ∪ T meet every hyperplane in one of sizes?

    base is s_bits off pi; pi itself meets the result in |T| points.  Every
    other hyperplane H meets pi in a hyperplane tau of pi.  Hyperplane h is
    dual point h, so the H through one tau are the other q points of one dual
    line through pi: grouped by tau, they admit the values of |T ∩ tau| in the
    intersection, over the line, of {k - |base ∩ H| : k in sizes}.  Each tau
    is mapped into pi's coordinates once.
    """
    geom = subgeometry(space, hyperplane_flat(space, pi))
    inc = space.incidence
    hmask = inc[pi]
    base = s_bits & ~hmask
    allowed: dict[int, frozenset[int]] = {}
    for h, mask in enumerate(inc):
        if h != pi:
            a = (base & mask).bit_count()
            ok = frozenset(k - a for k in sizes if k >= a)
            tau = mask & hmask
            allowed[tau] = allowed[tau] & ok if tau in allowed else ok
    # the most restrictive planes first, so that most candidates stop early
    checks = sorted(
        ((geom.mask_from_ambient(tau), ok) for tau, ok in allowed.items()),
        key=lambda c: len(c[1]),
    )

    def survives(t: int) -> bool:
        if t.bit_count() not in sizes:
            return False
        for mask, ok in checks:
            if (t & mask).bit_count() not in ok:
                return False
        return True

    return geom, survives


def _nucleus_test(space: ProjSpace, geom: SubGeometry, s_bits: int, pi: int):
    """Predicate on a section T of hyperplane pi, in the coordinates of its
    subgeometry geom, with |T| != theta_{m-2}: has base ∪ T a line nucleus?
    base is s_bits off pi.

    A nucleus N inside pi would see each line through it inside pi meet T
    once, which needs |T| = theta_{m-2}; so N lies off pi.  N sees each
    point of pi on one line, so it is a nucleus exactly when no line through
    it holds two base points and T is required[N], the points whose lines
    to N miss base.
    """
    hmask = space.incidence[pi]
    base = s_bits & ~hmask
    from_amb = geom.from_ambient
    required = set()
    for n in bits_to_indices(space.all_mask & ~hmask & ~base):
        t = 0
        for line in space.lines_through(n):
            k = (line & base).bit_count()
            if k > 1:
                break
            if k == 0:
                t |= 1 << from_amb[(line & hmask).bit_length() - 1]
        else:
            required.add(t)
    return required.__contains__


def nucleus_pivot_census(s: PointSet, threads: int = 1) -> CensusResult:
    """Switch every non-singular section of Q(4,2) and count nucleus survival.

    Runs over all non-singular hyperplanes of each type and checks that the
    per-hyperplane counts agree before reporting them.  ``threads`` is
    accepted for compatibility and ignored.
    """
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
        cands = _orbit(space_for(3, 2), PolarKind(label, 3, 2))
        per_hyp: list[tuple[int, int]] = []
        for h in hyps:
            geom, survives = _switch_test(space, s.bits, h, sizes)
            # the candidates have 5 or 9 points, never theta_2 = 7
            has_nucleus = _nucleus_test(space, geom, s.bits, h)
            no_nucleus = []
            for t in cands:
                if not survives(t):
                    # every switch of the quadric survives; another input
                    # need not, and only then is the orbit searched
                    msg = f"a {label} switch at {h} is not quasi-polar"
                    if s.bits in _orbit(space, PolarKind("parabolic", 4, 2)):
                        raise InvariantViolated(msg)
                    raise ValueError(f"census needs the quadric: {msg}")
                if not has_nucleus(t):
                    no_nucleus.append(t)
            per_hyp.append((len(no_nucleus), len(cands)))
            if h == hyps[0]:
                base_bits = s.bits & ~space.incidence[h]
                witnesses[f"{label}_no_nucleus"] = [
                    bits_to_indices(base_bits | geom.mask_to_ambient(t)) for t in no_nucleus[:10]
                ]
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
        extra={"hyperplanes_checked": checked},
    )


def singular_switch_census(s: PointSet, threads: int = 1) -> CensusResult:
    """Replace a singular section of Q(4,2) by every 7-subset of the hyperplane.

    Survivors are matched, set for set, against the constructive shape
    families (cones and truncated cones through the section vertex and the
    nucleus-like point); any mismatch raises.  ``threads`` is accepted for
    compatibility and ignored.
    """
    space = s.space
    if (space.m, space.q) != (4, 2):
        raise ValueError("census is defined for PG(4,2)")
    prof = _classical_profile(s, PolarKind("parabolic", 4, 2))
    sizes = set(prof.sizes)
    per = spectrum(s).per_hyperplane
    pi = next(h for h, v in enumerate(per) if v == prof.singular_size)
    geom, survives = _switch_test(space, s.bits, pi, sizes)
    vertex, nucleus = _q42_frame(s, geom)
    sub = geom.sub
    combos = itertools.combinations(range(sub.n_points), 7)
    sevens = (sum(1 << i for i in combo) for combo in combos)
    survivors = [t for t in sevens if survives(t)]
    n_combos = math.comb(sub.n_points, 7)

    families = _q42_shape_families(sub, vertex, nucleus)
    labels = list(families)
    if set(survivors) != set().union(*families.values()):
        raise InvariantViolated("survivors do not match the shape families")

    # a set can admit several shape descriptions; the breakdown uses the
    # first matching label so the counts sum to the survivor count.  Only
    # the survivors are mapped to ambient masks, which order the witnesses.
    breakdown = {"not_quasi_polar": n_combos - len(survivors)}
    witnesses: dict[str, list[list[int]]] = {}
    multi = 0
    grouped: dict[str, list[int]] = {key: [] for key in labels}
    for amb, t in sorted((geom.mask_to_ambient(t), t) for t in survivors):
        matches = [key for key in labels if t in families[key]]
        if len(matches) > 1:
            multi += 1
        grouped[matches[0]].append(amb)
    for key in labels:
        breakdown[key] = len(grouped[key])
        witnesses[key] = [bits_to_indices(b) for b in grouped[key][:10]]
    return CensusResult(
        name="singular-switch",
        m=4,
        q=2,
        total_candidates=n_combos,
        breakdown=breakdown,
        witnesses=witnesses,
        extra={
            "hyperplane": pi,
            "vertex": geom.to_ambient[vertex],
            "nucleus": geom.to_ambient[nucleus],
            "multi_shape": multi,
        },
    )


def _q42_frame(s: PointSet, geom: SubGeometry) -> tuple[int, int]:
    """The cone vertex of the section of s in hyperplane geom, and the line
    nucleus of s, as points of the hyperplane's own PG(3, 2)."""
    section = geom.mask_from_ambient(s.bits)
    vertex = _decompose(geom.sub, section, range(geom.sub.n_points))[0]
    nucleus = find_line_nucleus(s)
    if nucleus is None:
        raise ValueError("the ambient set has no line nucleus")
    return vertex, geom.from_ambient[nucleus]


def _q42_shape_families(sub: ProjSpace, vertex: int, nucleus: int) -> dict[str, set[int]]:
    """Constructive enumeration of the four surviving section shapes, as
    masks of the hyperplane's PG(3, 2) in which vertex and nucleus lie."""
    lines_p = sub.lines_through(vertex)
    lines_n = sub.lines_through(nucleus)
    pn_line = next(l for l in lines_p if l >> nucleus & 1)

    def cones(lines) -> set[int]:
        # three lines through a point are non-coplanar when no plane holds them
        out = set()
        for trip in itertools.combinations(lines, 3):
            m = trip[0] | trip[1] | trip[2]
            if all(m & ~plane for plane in sub.incidence):
                out.add(m)
        return out

    def truncated(center: int, lines_c, other: int, lines_o):
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
    geom = subgeometry(space, hyperplane_flat(space, pi))
    vertex, nucleus = _q42_frame(s, geom)
    if isinstance(section, int):
        t_bits = section
    else:
        t_bits = point_set_from_indices(space, map(int, section)).bits
    hmask = space.incidence[pi]
    if t_bits & ~hmask:
        raise ValueError("section must lie inside the hyperplane")
    if t_bits.bit_count() != 7:
        raise ValueError("section must have exactly 7 points")
    families = _q42_shape_families(geom.sub, vertex, nucleus)
    t = geom.mask_from_ambient(t_bits)
    return sorted(key for key, fam in families.items() if t in fam)


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

    For each non-singular section type of the classical-size quasi-polar set
    ``s``, fix the first hyperplane whose section is a classical set of that
    type (the lex-least one of its size when ``s`` is classical), enumerate
    all sets of that type inside the hyperplane, switch, and count the
    quasi-polar survivors.  The identity always survives.  For q >= 4 it is
    the only survivor, by the paper's main theorem; over GF(2) and GF(3)
    other survivors exist and the first ten are witnesses.  On Q(4,2) every
    same-type set survives (167 elliptic and 279 hyperbolic others), which
    ``q2-switch`` rests on; Q(4,3) gives 10 and 16 others and Q-(5,2) gives
    447.  ``threads`` is accepted for compatibility and ignored.  A size
    with no classical section is refused with ``ValueError``.
    """
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
        # the orbit checks its cap before any table for pi is built
        cands = _orbit(space_for(sub_kind.m, sub_kind.q), sub_kind)
        pi = _classical_section(space, s.bits, per, target, cands)
        if pi is None:
            raise ValueError(f"no section of size {target} is a classical {fam} set")
        geom, survives = _switch_test(space, s.bits, pi, sizes)
        ident = s.bits & inc[pi]
        survivors = [geom.mask_to_ambient(t) for t in cands if survives(t)]
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
        extra=extra,
    )


def _classical_section(
    space: ProjSpace, s_bits: int, per, size: int, cands: tuple[int, ...]
) -> int | None:
    """First hyperplane h with per[h] == size whose section of s_bits, in h's
    own coordinates, is one of the sorted masks cands; None if there is none."""
    for h, v in enumerate(per):
        if v == size:
            t = subgeometry(space, hyperplane_flat(space, h)).mask_from_ambient(s_bits)
            i = bisect.bisect_left(cands, t)
            if i < len(cands) and cands[i] == t:
                return h
    return None


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
    return _two_secant_lines(space, zeros.bits, p)


def _two_secant_lines(space: ProjSpace, zeros: int, p: int) -> int:
    return sum((line & zeros).bit_count() == 2 for line in space.lines_through(p))


def quadrics_census(kind: PolarKind) -> CensusResult:
    """Count the classical sets of the kind; the first ten are the witnesses."""
    sets = _orbit(space_for(kind.m, kind.q), kind)
    return CensusResult(
        name="quadrics",
        m=kind.m,
        q=kind.q,
        total_candidates=len(sets),
        breakdown={kind.family: len(sets)},
        witnesses={kind.family: [bits_to_indices(t) for t in sets[:10]]},
    )


def classical_dist_census(kind: PolarKind) -> CensusResult:
    """Tally the hyperplane type distributions of all codimension-2 flats.

    Hyperplane h is dual point h, so the hyperplanes through a codimension-2
    flat are the points of one line of ``all_lines()``, and any two of them
    meet in the flat.  Each flat gets the tally ``classical_distribution``
    gives it.
    """
    space = space_for(kind.m, kind.q)
    zeros = point_set(canonical_form(kind, space)).bits
    inc = space.incidence
    types = [section_type(kind, (zeros & hmask).bit_count()) or "other" for hmask in inc]
    agg: dict[str, int] = {}
    lines = space.all_lines()
    for line in lines:
        hyps = bits_to_indices(line)
        labels: dict[str, int] = {}
        for h in hyps:
            labels[types[h]] = labels.get(types[h], 0) + 1
        sec = (zeros & inc[hyps[0]] & inc[hyps[1]]).bit_count()
        label = f"sec={sec};" + ";".join(f"{k}={v}" for k, v in sorted(labels.items()))
        agg[label] = agg.get(label, 0) + 1
    return CensusResult(
        name="classical-dist",
        m=kind.m,
        q=kind.q,
        total_candidates=len(lines),
        breakdown=dict(sorted(agg.items())),
        witnesses={},
    )


def two_secant_census(kind: PolarKind) -> CensusResult:
    """Tally the 2-secant counts of the off points other than the nucleus."""
    space = space_for(kind.m, kind.q)
    form = canonical_form(kind, space)
    zeros = point_set(form)
    nuc = nucleus_point(form)
    agg: dict[str, int] = {}
    total = 0
    for p in range(space.n_points):
        if zeros.contains(p) or p == nuc:
            continue
        key = f"two_secants={_two_secant_lines(space, zeros.bits, p)}"
        agg[key] = agg.get(key, 0) + 1
        total += 1
    return CensusResult(
        name="two-secants",
        m=kind.m,
        q=kind.q,
        total_candidates=total,
        breakdown=dict(sorted(agg.items())),
        witnesses={},
        extra={"expected": kind.q ** (2 * (kind.m // 2) - 1) // 2},
    )
