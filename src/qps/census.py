"""Exhaustive censuses: classical-set enumeration, section switching, type distributions.

The classical sets of one kind are all projectively equivalent, so
``enumerate_quadrics`` lists them as the PGL(m+1, q) orbit of the canonical
set: a breadth-first search over bitmasks under a fixed generating set, each
generator applied through per-byte point tables.  The closed-form orbit size
bounds the search before it starts and checks it when it ends.  The orbit
depends only on the kind, so the census keeps one entry per kind: the orbit
as a sorted tuple of bitmasks, which the censuses read directly; once a
switch census has used it, the orbit as a candidate family with its columns
and size classes; and once ``enumerate_quadrics`` has listed it, the orbit
as point sets, which take no assignment, so that later calls on the same
space (``.space is space``) hand out those objects again.

The switch censuses replace the section of s in one hyperplane pi by a
candidate T and ask whether s stays quasi-polar.  They work in the
coordinates of pi as its own PG(m-1, q).  Every other hyperplane H meets pi
in a hyperplane tau of pi (a plane when pi is a solid), so H meets the result
in |base ∩ H| + |T ∩ tau| points, base being s off pi.  Hyperplane h is dual
point h, so the hyperplanes other than pi through tau are the other points
of one dual line through pi, tau's pencil: all of them together admit a few
values of |T ∩ tau|.  What depends on pi alone is kept in one frame per
(space, pi), built by the first census there: pi's subgeometry, its pencils,
each tau in pi's coordinates once a table has needed it and, over GF(2), the
line partners of the points off pi.  Tables are built only where a candidate
can fail: each candidate has one size and meets every tau in one of a few
sizes (a classical set's of the section kind, or 0..7 for the 7-subsets of
the singular switch), so a hyperplane admitting all of those is skipped, and
pi's own table, |T| in sizes, is dropped when the candidates' size is in
sizes.  On Q(4,2) no table is left at a non-singular hyperplane.  All
candidates are checked against the tables left at once, through the family's
size classes at tau: one candidate bitmask per value of |T ∩ tau|, summed by
a bit-sliced counter from the columns of tau's points (one int per point,
with a bit per candidate), so a table is one OR of the allowed classes and
one AND with the candidates left.  The classes depend only on the family and
tau, so a family keeps those of a tau it is asked for a second time, and a
cold census, which meets each tau once, keeps none.  The nucleus-pivot test
looks off pi only, as a nucleus inside pi needs |T| = theta_2 = 7: over
GF(2) a line through a point n off pi holds one point y of pi and one more
point x off it, x's line partner y, so n is a nucleus of base ∪ T exactly
when T is all of pi but the partners of base.  The singular switch builds
its Q(4,2) shape families in pi's coordinates from the cone vertex and the
line nucleus, read from section sizes; only survivors are mapped to ambient
point indices.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import namedtuple

from .forms import (
    Form,
    IncompatibleKind,
    PolarKind,
    canonical_form,
    nucleus_point,
    perp,
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
    indices_to_bits,
    normalize_point,
    point_set_from_indices,
    space_for,
    subgeometry,
)
from . import spectra
from .spectra import (
    InvariantViolated,
    SpectrumProfile,
    _profile_for,
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
ORBIT_MAX_M = 8  # above it every kind has over ORBIT_CAP sets, whatever q
_CAPPED = "classical sets exceed the enumeration cap"


class CensusResult(
    namedtuple("CensusResult", "name m q total_candidates breakdown witnesses extra")
):
    """Candidate count, breakdown by outcome, witnesses and extras of one census."""

    __slots__ = ()

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
    """Number of classical sets of the kind, refused with ``SpaceTooLarge``
    above ``ORBIT_CAP``: above ``ORBIT_MAX_M`` at once, and otherwise by the
    closed-form count, which is worked out once per kind and compared with
    the cap on every call."""
    if kind.m > ORBIT_MAX_M:
        raise SpaceTooLarge(f"PG({kind.m},{kind.q}): over {ORBIT_CAP} {_CAPPED}")
    total = _classical_count(kind)
    if total > ORBIT_CAP:
        raise SpaceTooLarge(f"PG({kind.m},{kind.q}): {total} {_CAPPED}")
    return total


@functools.cache
def _classical_count(kind: PolarKind) -> int:
    """|GL(d, q)| / |similitudes of the form|.

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


def _section_kinds(kind: PolarKind) -> list[PolarKind]:
    """The section kinds that nonsingular-switch enumerates, checked against the cap."""
    if kind.m < 2:
        sections = f"PG({kind.m - 1},{kind.q})"
        raise IncompatibleKind(f"nonsingular-switch needs m >= 2: its sections lie in {sections}")
    subs = [PolarKind(fam, kind.m - 1, kind.q) for fam in spectra._SECTION_FAMILIES[kind.family]]
    for sub in subs:
        _orbit_size(sub)
    return subs


def _pgl_generators(d: int, f: FieldTable) -> list[list[list[int]]]:
    """Generators of GL(d, q): the cyclic coordinate shift, the transvection
    x_0 <- x_0 + x_1 and, for q > 2, diag(w, 1, ..., 1) with w the field's
    primitive element, whose powers run through GF(q)*."""
    shift = [[int(j == (i + 1) % d) for j in range(d)] for i in range(d)]
    trans = [[int(i == j or (i, j) == (0, 1)) for j in range(d)] for i in range(d)]
    if f.q == 2:
        return [shift, trans]
    diag = [[(f.primitive if i == 0 else 1) if i == j else 0 for j in range(d)] for i in range(d)]
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


# kind -> (orbit, the orbit as a candidate family or None, the orbit as
# point sets of one space or None), filled by one search per kind
_ORBITS: dict[PolarKind, tuple[tuple[int, ...], _Family | None, tuple[PointSet, ...] | None]] = {}


def _orbit(kind: PolarKind) -> tuple[int, ...]:
    """Bitmasks of all classical sets of the kind, sorted, searched once per kind.

    The closed-form orbit size is checked against ``ORBIT_CAP`` before the
    cache is read or the kind's space is built; a search whose count is wrong
    raises and stores nothing.
    """
    total = _orbit_size(kind)
    hit = _ORBITS.get(kind)
    if hit is not None:
        return hit[0]
    space = space_for(kind.m, kind.q)
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
    _ORBITS[kind] = (tuple(sorted(seen)), None, None)
    return _ORBITS[kind][0]


def enumerate_quadrics(space: ProjSpace, kind: PolarKind) -> list[PointSet]:
    """All distinct classical point sets of the kind, sorted by bitmask.

    The sets of one kind form a single PGL(m+1, q) orbit, found by a
    breadth-first search from the canonical set.  Each call returns a new
    list; the search runs once per kind.  The kind's entry keeps the point
    sets of the space last asked for, and a later call on that same space
    (``.space is space``) returns those objects, which take no assignment;
    another space of the same (m, q) gets new sets, which are kept instead.
    """
    if (space.m, space.q) != (kind.m, kind.q):
        raise IncompatibleKind("kind does not match the space")
    orbit = _orbit(kind)
    _, family, kept = _ORBITS[kind]
    if kept is None or kept[0].space is not space:
        kept = tuple(PointSet(space, b) for b in orbit)
        _ORBITS[kind] = (orbit, family, kept)
    return list(kept)


def _classical_profile(s: PointSet, kind: PolarKind) -> tuple[SpectrumProfile, tuple[int, ...]]:
    """Profile of the kind and the section size of s per hyperplane, after
    checking that s is a classical-size quasi-polar set."""
    prof = _profile_for(s, kind)
    spec = spectrum(s)
    if not set(spec.histogram) <= set(prof.sizes) or s.size != prof.cardinality:
        raise ValueError("census needs a classical-size quasi-polar set")
    return prof, spec.per_hyperplane


# (space, pi) -> pi's frame, built by the first census that switches at pi
_FRAMES: dict[tuple[ProjSpace, int], _Frame] = {}


class _Frame:
    """What the switch censuses read at hyperplane pi, whatever the set:
    pi's subgeometry geom and its pencils, (tau, ((h, row), ...)) for each
    hyperplane tau of pi in the order of its first h, with the q hyperplanes
    h != pi through tau and their incidence rows.  A tau's image in pi's
    coordinates and a point's line partners are kept once asked for."""

    __slots__ = ("space", "geom", "pencils", "_images", "_partners")

    def __init__(self, space: ProjSpace, pi: int):
        self.space = space
        self.geom = subgeometry(space, hyperplane_flat(space, pi))
        pencils: dict[int, list[tuple[int, int]]] = {}
        for h, mask in enumerate(space.incidence):
            if h != pi:
                pencils.setdefault(mask & self.geom.ambient_mask, []).append((h, mask))
        self.pencils = tuple((tau, tuple(pencil)) for tau, pencil in pencils.items())
        self._images: dict[int, int] = {}
        self._partners: dict[int, dict[int, int]] = {}

    def image(self, tau: int) -> int:
        if tau not in self._images:
            self._images[tau] = self.geom.mask_from_ambient(tau)
        return self._images[tau]

    def partners(self, n: int) -> dict[int, int]:
        """Over GF(2), for a point n off pi: each other point x off pi ->
        the bit, in pi's coordinates, of the point of pi on line nx (n + x)."""
        if n not in self._partners:
            hmask, row = self.geom.ambient_mask, {}
            for line in self.space.lines_through(n):
                off = line & ~hmask & ~(1 << n)
                if off.bit_count() != 1:
                    raise InvariantViolated(f"a line through {n} has {off.bit_count()} more points off pi")
                row[off.bit_length() - 1] = 1 << self.geom.from_ambient[(line & hmask).bit_length() - 1]
            self._partners[n] = row
        return self._partners[n]


def _frame(space: ProjSpace, pi: int) -> _Frame:
    if (space, pi) not in _FRAMES:
        _FRAMES[space, pi] = _Frame(space, pi)
    return _FRAMES[space, pi]


def _switch_test(space: ProjSpace, s_bits: int, pi: int, sizes, family: _Family):
    """Subgeometry of hyperplane pi, and the tables (mask, allowed values of
    |T ∩ mask|) that a section T of pi, in its coordinates, must pass for
    base ∪ T to meet every hyperplane in one of sizes, most restrictive first.
    The candidates T of family all have card points, read off the first, and
    meet every hyperplane of pi in one of t_sizes, the family's sizes; a
    table that allows all of those rejects none and is not built.

    base is s_bits off pi; pi itself meets the result in |T| = card points,
    so its table is built only when card is not in sizes, and then rejects
    every candidate.  Every other hyperplane H is in the pencil, in pi's
    frame, of the hyperplane tau of pi it cuts, and admits {k - |base ∩ H| :
    k in sizes}; tau's table allows the values of t_sizes that all its H
    admit.  An H that admits all of t_sizes is skipped, and a tau whose H
    were all skipped gets no table.  Ties keep the order of each table's
    first H not skipped.
    """
    frame = _frame(space, pi)
    base = s_bits & ~frame.geom.ambient_mask
    card, t_sizes = family.cands[0].bit_count(), frozenset(family.sizes)
    checks = [] if card in sizes else [(-1, frame.geom.sub.all_mask, frozenset())]
    by_count: dict[int, frozenset[int] | None] = {}  # |base ∩ H| -> values, None to skip
    for tau, pencil in frame.pencils:
        first, ok = None, t_sizes
        for h, mask in pencil:
            a = (base & mask).bit_count()
            if a not in by_count:
                allowed = frozenset(k - a for k in sizes) & t_sizes
                by_count[a] = None if allowed == t_sizes else allowed
            if by_count[a] is not None:
                ok &= by_count[a]
                first = h if first is None else first
        if first is not None:
            checks.append((first, frame.image(tau), ok))
    # the most restrictive tables first, so that most candidates drop early
    checks.sort(key=lambda c: (len(c[2]), c[0]))
    return frame.geom, [c[1:] for c in checks]


def _columns(cands, n: int) -> list[int]:
    """Column i of the masks cands over n points: bit c set when cands[c] holds
    point i.  Byte i >> 3 of the masks, joined in blocks, gives its digits."""
    digits = [bytes(48 + (b >> k & 1) for b in range(256)) for k in range(8)]
    nb = (n + 7) // 8
    rows = bytearray()
    for lo in range(0, len(cands), 4096):
        rows += b"".join(t.to_bytes(nb, "little") for t in cands[lo : lo + 4096])
    return [int(rows[i >> 3 :: nb].translate(digits[i & 7])[::-1], 2) for i in range(n)]


class _Family:
    """The candidates of a switch census, as masks of one space, with their
    columns and their size classes.

    The size classes at a mask tau split the candidates by |T ∩ tau|: one
    candidate bitmask per value in sizes that some candidate has, sizes being
    every value a candidate can have.  They depend on the family and tau
    only, so they are kept the second time tau is asked for; a family that
    meets each tau once, as in one cold census, keeps none.
    """

    __slots__ = ("cands", "cols", "sizes", "_classes", "_seen", "_members")

    def __init__(self, cands, n: int, sizes):
        self.cands = cands
        self.cols = _columns(cands, n)
        self.sizes = tuple(sizes)
        self._classes: dict[int, dict[int, int]] = {}
        self._seen: set[int] = set()
        self._members: frozenset[int] | None = None

    def members(self) -> frozenset[int]:
        """The candidates as a set, built the first time it is asked for."""
        if self._members is None:
            self._members = frozenset(self.cands)
        return self._members

    def classes(self, tau: int) -> dict[int, int]:
        """Size -> candidates with |T ∩ tau| = size.  A bit-sliced adder sums
        the columns of tau's points into planes[j], bit j of each count; the
        classes are checked to be disjoint and to cover every candidate."""
        kept = self._classes.get(tau)
        if kept is not None:
            return kept
        planes: list[int] = []
        for i in bits_to_indices(tau):
            carry = self.cols[i]
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            if carry:
                planes.append(carry)
        everyone = (1 << len(self.cands)) - 1
        classes = {}
        for k in self.sizes:
            if k >> len(planes):
                continue  # wider than every count
            hit = everyone
            for j, plane in enumerate(planes):
                hit &= plane if k >> j & 1 else ~plane
            if hit:
                classes[k] = hit
        union = count = 0
        for hit in classes.values():
            union |= hit
            count += hit.bit_count()
        if union != everyone or count != len(self.cands):
            raise InvariantViolated(f"the size classes at {tau:#x} do not partition the candidates")
        if tau in self._seen:
            self._classes[tau] = classes
        else:
            self._seen.add(tau)
        return classes


def _orbit_family(kind: PolarKind) -> _Family:
    """The orbit of the kind as a candidate family, built once per kind; a
    candidate meets each hyperplane of its space in one of the kind's sizes."""
    orbit = _orbit(kind)
    _, family, kept = _ORBITS[kind]
    if family is None:
        family = _Family(orbit, space_for(kind.m, kind.q).n_points, profile(kind).sizes)
        _ORBITS[kind] = (orbit, family, kept)
    return family


def _survivors(checks, fam: _Family) -> list[int]:
    """The candidates of fam that pass every (mask, allowed) table: per table
    the candidates left keep those in the size classes allowed at the mask.
    A table that allows nothing, as pi's own does, rejects every candidate
    without classes: its mask, all of pi, is no hyperplane of pi, and the
    candidates' size there is none of the family's sizes.  With no table
    every candidate survives."""
    if not checks:
        return list(fam.cands)
    alive = (1 << len(fam.cands)) - 1
    for mask, ok in checks:
        classes = fam.classes(mask) if ok else {}
        match = 0
        for k in ok:
            match |= classes.get(k, 0)
        alive &= match
        if not alive:
            break
    return [fam.cands[c] for c in bits_to_indices(alive)]


def _nucleus_test(space: ProjSpace, geom: SubGeometry, s_bits: int, pi: int) -> set[int]:
    """The sections T of hyperplane pi of PG(m, 2), in the coordinates of
    its subgeometry geom, with |T| != theta_{m-2}, for which base ∪ T has a
    line nucleus.  base is s_bits off pi.

    A nucleus N inside pi would see each line through it inside pi meet T
    once, which needs |T| = theta_{m-2}; so N lies off pi.  A line through
    N holds one point y of pi and one more point off pi, N's line partner
    of y, so it holds at most one base point, and N is a nucleus exactly
    when T is all of pi but the points y whose partner is in base.  The base
    points lie on distinct lines through N, so their points y are distinct
    and their bits sum to their OR.  Another q raises ``InvariantViolated``
    from pi's frame.
    """
    frame = _frame(space, pi)
    base = s_bits & ~geom.ambient_mask
    xs = bits_to_indices(base)
    whole = geom.sub.all_mask
    return {
        whole ^ sum(map(frame.partners(n).__getitem__, xs))
        for n in bits_to_indices(space.all_mask & ~geom.ambient_mask & ~base)
    }


def nucleus_pivot_census(s: PointSet, threads: int = 1) -> CensusResult:
    """Switch every non-singular section of Q(4,2) and count nucleus survival.

    Runs over all non-singular hyperplanes of each type and checks that the
    per-hyperplane counts agree before reporting them.  ``threads`` is
    accepted for compatibility and ignored.
    """
    space = s.space
    if (space.m, space.q) != (4, 2):
        raise ValueError("census is defined for PG(4,2)")
    prof, per = _classical_profile(s, PolarKind("parabolic", 4, 2))
    sizes = set(prof.sizes)
    ell, cone_size, hyp = prof.sizes
    breakdown: dict[str, int] = {}
    witnesses: dict[str, list[list[int]]] = {}
    checked: dict[str, int] = {}
    total = 0
    for label, size in (("hyperbolic", hyp), ("elliptic", ell)):
        hyps = [h for h, v in enumerate(per) if v == size]
        family = _orbit_family(PolarKind(label, 3, 2))
        cands = family.cands
        per_hyp: list[tuple[int, int]] = []
        for h in hyps:
            geom, checks = _switch_test(space, s.bits, h, sizes, family)
            if len(_survivors(checks, family)) != len(cands):
                # all switches of the quadric survive; the orbit is searched on a failure
                msg = f"a {label} switch at {h} is not quasi-polar"
                if _in_sorted(_orbit(PolarKind("parabolic", 4, 2)), s.bits):
                    raise InvariantViolated(msg)
                raise ValueError(f"census needs the quadric: {msg}")
            # the candidates have 5 or 9 points, never theta_2 = 7
            required = _nucleus_test(space, geom, s.bits, h)
            per_hyp.append((len(cands) - len(required & family.members()), len(cands)))
            if h == hyps[0]:
                no_nucleus = itertools.islice((t for t in cands if t not in required), 10)
                base_bits = s.bits & ~space.incidence[h]
                witnesses[f"{label}_no_nucleus"] = [
                    bits_to_indices(base_bits | geom.mask_to_ambient(t)) for t in no_nucleus
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
    prof, per = _classical_profile(s, PolarKind("parabolic", 4, 2))
    sizes = set(prof.sizes)
    pi = next(h for h, v in enumerate(per) if v == prof.singular_size)
    family = _seven_subsets()
    geom, checks = _switch_test(space, s.bits, pi, sizes, family)
    vertex, nucleus = _q42_frame(s, geom)
    sub = geom.sub
    survivors = _survivors(checks, family)

    families = _q42_shape_families(sub, vertex, nucleus)
    labels = list(families)
    if set(survivors) != set().union(*families.values()):
        raise InvariantViolated("survivors do not match the shape families")

    # a set can admit several shape descriptions; the breakdown uses the
    # first matching label so the counts sum to the survivor count.  Masks
    # sort in pi's coordinates as their ambient images do (to_ambient rises).
    breakdown = {"not_quasi_polar": len(family.cands) - len(survivors)}
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
        witnesses[key] = [
            [geom.to_ambient[i] for i in bits_to_indices(t)] for t in grouped[key][:10]
        ]
    return CensusResult(
        name="singular-switch",
        m=4,
        q=2,
        total_candidates=len(family.cands),
        breakdown=breakdown,
        witnesses=witnesses,
        extra={
            "hyperplane": pi,
            "vertex": geom.to_ambient[vertex],
            "nucleus": geom.to_ambient[nucleus],
            "multi_shape": multi,
        },
    )


@functools.cache
def _seven_subsets() -> _Family:
    """The 7-point subsets of PG(3, 2), in combination order, as a candidate
    family: a plane holds 0 to 7 of their points."""
    sevens = tuple(map(indices_to_bits, itertools.combinations(range(15), 7)))
    return _Family(sevens, 15, range(8))


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

    planes = set(sub.incidence)

    def cones(lines) -> set[int]:
        # three lines through a point are coplanar exactly when their 7-point
        # union is a plane
        out = set()
        for trip in itertools.combinations(lines, 3):
            m = trip[0] | trip[1] | trip[2]
            if m not in planes:
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
    prof, per = _classical_profile(s, kind)
    sizes = set(prof.sizes)

    breakdown: dict[str, int] = {}
    witnesses: dict[str, list[list[int]]] = {}
    extra: dict[str, dict] = {"hyperplanes": {}, "candidates": {}}
    total = 0
    for sub_kind in _section_kinds(kind):
        fam = sub_kind.family
        target = profile(sub_kind).cardinality
        family = _orbit_family(sub_kind)
        cands = family.cands
        found = _classical_section(space, s.bits, per, target, cands)
        if found is None:
            raise ValueError(f"no section of size {target} is a classical {fam} set")
        # ident is s's section in pi's coordinates
        pi, ident = found
        geom, checks = _switch_test(space, s.bits, pi, sizes, family)
        survivors = _survivors(checks, family)
        if ident not in survivors:
            raise InvariantViolated("the identity section did not survive")
        others = [t for t in survivors if t != ident]
        breakdown[f"{fam}_identity"] = 1
        breakdown[f"{fam}_other_survivor"] = len(others)
        breakdown[f"{fam}_not_quasi_polar"] = len(cands) - len(survivors)
        witnesses[f"{fam}_other_survivor"] = [
            [geom.to_ambient[i] for i in bits_to_indices(t)] for t in others[:10]
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
) -> tuple[int, int] | None:
    """First hyperplane h with per[h] == size whose section t of s_bits, in
    h's own coordinates, is one of the sorted masks cands, as (h, t); None if
    there is none."""
    for h, v in enumerate(per):
        if v == size:
            t = subgeometry(space, hyperplane_flat(space, h)).mask_from_ambient(s_bits)
            if _in_sorted(cands, t):
                return h, t
    return None


def _in_sorted(cands: tuple[int, ...], t: int) -> bool:
    i = bisect.bisect_left(cands, t)
    return i < len(cands) and cands[i] == t


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
    _two_secant_kind(form.kind)
    zeros = point_set(form)
    if zeros.contains(p):
        raise PointOnQuadric(f"point {p} lies on the set")
    if p == nucleus_point(form):
        raise PointIsNucleus("two-secant count is not defined at the nucleus")
    return _two_secants(form, zeros.bits, p)


def _two_secant_kind(kind: PolarKind) -> None:
    if kind.family != "parabolic" or kind.q % 2:
        raise IncompatibleKind("two-secant count needs a parabolic form, q even")


def _two_secants(form: Form, zeros: int, p: int) -> int:
    """2-secants through p, off the quadric and not its nucleus, q even: as
    Q(p + t·r) = Q(p) + t·B(p, r), pr is tangent for r on the quadric exactly
    when r is on the polar hyperplane of p."""
    polar = form.space.incidence[perp(form, p)]
    return (zeros.bit_count() - (zeros & polar).bit_count()) // 2


def quadrics_census(kind: PolarKind) -> CensusResult:
    """Count the classical sets of the kind; the first ten are the witnesses."""
    sets = _orbit(kind)
    return CensusResult(
        name="quadrics",
        m=kind.m,
        q=kind.q,
        total_candidates=len(sets),
        breakdown={kind.family: len(sets)},
        witnesses={kind.family: [bits_to_indices(t) for t in sets[:10]]},
        extra={},
    )


def classical_dist_census(kind: PolarKind) -> CensusResult:
    """Tally the hyperplane type distributions of all codimension-2 flats.

    Hyperplane h is dual point h, so the hyperplanes through a codimension-2
    flat are the indices of one line that ``all_lines()`` streams, and any two
    of them meet in the flat.  Each flat gets the tally
    ``classical_distribution`` gives it.
    """
    space = space_for(kind.m, kind.q)
    inc = space.incidence  # the incidence guard, then the line cap, before the form is evaluated
    lines = space.all_lines()
    zeros = point_set(canonical_form(kind, space)).bits
    types = [section_type(kind, (zeros & hmask).bit_count()) or "other" for hmask in inc]
    agg: dict[str, int] = {}
    total = 0
    for total, hyps in enumerate(lines, 1):
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
        total_candidates=total,
        breakdown=dict(sorted(agg.items())),
        witnesses={},
        extra={},
    )


def two_secant_census(kind: PolarKind) -> CensusResult:
    """Tally the 2-secant counts of the off points other than the nucleus."""
    _two_secant_kind(kind)
    space = space_for(kind.m, kind.q)
    space.incidence  # built, or refused, before the form is evaluated
    form = canonical_form(kind, space)
    zeros = point_set(form).bits
    nuc = nucleus_point(form)
    agg: dict[str, int] = {}
    for p in range(space.n_points):
        if not zeros >> p & 1 and p != nuc:
            key = f"two_secants={_two_secants(form, zeros, p)}"
            agg[key] = agg.get(key, 0) + 1
    return CensusResult(
        name="two-secants",
        m=kind.m,
        q=kind.q,
        total_candidates=sum(agg.values()),
        breakdown=dict(sorted(agg.items())),
        witnesses={},
        extra={"expected": kind.q ** (2 * (kind.m // 2) - 1) // 2},
    )
