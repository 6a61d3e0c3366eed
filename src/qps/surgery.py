"""Switching surgeries: local edits of a point set that preserve quasi-polarity.

Every surgery is a switch: it works out which points to remove and which to
add, inside one hyperplane (repeated pivoting, which switches in several,
names none), and hands them to one routine, ``_switched``, which checks the
definition, composes the result and builds the record.  So every operation
returns (result, record) with result = input - removed + added: a record
always replays.  The record also names the geometric inputs the surgery
committed to (hyperplane, vertex, carrier flats) so a run can be audited.
Deterministic tie-breaks everywhere:
scans go in index order and take the first admissible object.  The four
cone surgeries (pivot, repeated pivot, cone swap, shifted-nucleus pivot) work
on masks of the switched hyperplane's own PG(m-1, q), and on the base's
carrier hyperplane as a subgeometry of that, whose lines and incidence are
cached; ambient flats are built only for the records.  Pivot and
shifted-nucleus pivot share one core, and the nucleus surgeries one frame.
"""

from __future__ import annotations

from collections import namedtuple

from .forms import (
    IncompatibleKind,
    PolarKind,
    card_pm,
    is_cone_vertex,
)
from .pg import (
    Flat,
    PointSet,
    ProjSpace,
    SubGeometry,
    bits_to_indices,
    dot,
    flat_from_mask,
    flat_from_points,
    hyperplane_flat,
    indices_to_bits,
    line_through,
    normalize_point,
    null_space,
    rref,
    subgeometry,
)
from .spectra import (
    InvariantViolated,
    classify,
    find_line_nucleus,
    profile,
    section_type,
    spectrum,
)


class RemovedNotInSet(ValueError):
    """Removed points must lie in the set."""


class SetsNotInHyperplane(ValueError):
    """Removed and added points must lie in the switching hyperplane."""


class NotSingular(ValueError):
    """Hyperplane section does not have the singular size."""


class NoConeDecomposition(ValueError):
    """Section is not a cone over a base in a hyperplane avoiding the vertex."""


class BaseWrongType(ValueError):
    """Replacement base fails the same-type classification."""


class NotEvenQ(ValueError):
    """Operation requires even field order."""


class NoDisjointFlat(ValueError):
    """No admissible flat disjoint from the truncated cone was found."""


class NotCollinear(ValueError):
    """The two pivot points must span a line inside the set."""


class ConstraintViolated(ValueError):
    """A replacement base breaks the shared-section constraint at a point."""

    def __init__(self, point: int):
        super().__init__(f"constraint violated at point {point}")
        self.point = point


class NotQ2Hyperbolic(ValueError):
    """Operation requires a hyperbolic-kind set over GF(2)."""


class NotQ2(ValueError):
    """Operation requires field order 2."""


class SingularHyperplane(ValueError):
    """Operation requires a non-singular hyperplane."""


class SectionWrongType(ValueError):
    """Replacement section fails the same-type classification."""


class NotQ3(ValueError):
    """Operation requires field order 3."""


class BadHyperplanes(ValueError):
    """Supplied hyperplane pair does not match the required configuration."""


class NotOval(ValueError):
    """Operation requires an oval in a plane of even order."""


class NotTangent(ValueError):
    """Line is not tangent to the set."""


def _pt_coords(space: ProjSpace, i: int) -> list[int]:
    return list(space.points[i])


def _pts_coords(space: ProjSpace, indices) -> list[list[int]]:
    return [list(space.points[i]) for i in indices]


def _basis_coords(flat: Flat) -> list[list[int]]:
    return [list(row) for row in flat.basis]


class SurgeryRecord(namedtuple("SurgeryRecord", "kind hyperplane vertex removed added details")):
    """What one surgery committed to: its hyperplane, vertex, pieces and details."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """JSON form: points as coordinate rows, flats as coordinate lists.

        Hyperplanes appear as their dual coordinate vector; details entries
        are stored serialization-ready by each operation.
        """
        space = self.removed.space
        return {
            "construction": self.kind,
            "hyperplane": None if self.hyperplane is None else _pt_coords(space, self.hyperplane),
            "vertex": None if self.vertex is None else _pt_coords(space, self.vertex),
            "removed": _pts_coords(space, self.removed.indices()),
            "added": _pts_coords(space, self.added.indices()),
            "details": self.details,
        }


def _ambient_rows(geom: SubGeometry, flat: Flat) -> list[list[int]]:
    """RREF basis of a flat of geom.sub, as coordinate rows of the ambient space.

    Row i of the flat's RREF basis F is a point of geom.sub, whose ambient
    point is row i of F·B, B the RREF basis of geom's flat, and F·B is
    already in RREF: with c_k the pivot of F's row k, the column of B's row
    c_k's pivot holds F[i][c_k] in row i, 1 for i = k and 0 otherwise.
    """
    points, index = geom.flat.space.points, geom.sub.point_index
    return [list(points[geom.to_ambient[index[row]]]) for row in flat.basis]


def _carrier(sub: ProjSpace, v: int, inside: int) -> int:
    """First hyperplane of sub avoiding point v and containing the mask inside."""
    for h, hmask in enumerate(sub.incidence):
        if not hmask >> v & 1 and not inside & ~hmask:
            return h
    raise BaseWrongType("no carrier hyperplane avoids the vertex")


def _cone_bits(geom: SubGeometry, v: int, base: int) -> int:
    """Cone with vertex v over base (v off base, both in geom.sub's coordinates):
    v and the lines of geom.sub through v meeting base, as an ambient mask."""
    bits = 1 << v
    for line in geom.sub.lines_through(v):
        if line & base:
            bits |= line
    return geom.mask_to_ambient(bits)


def _switched(
    name: str,
    s: PointSet,
    pi: int | None,
    removed_bits: int,
    added_bits: int,
    vertex: int | None = None,
    details: dict | None = None,
) -> tuple[PointSet, SurgeryRecord]:
    """The switch of s that drops removed_bits and takes added_bits, and its record.

    The one place a surgery's result is composed and its record built.  The
    pieces must meet the definition of a switch: the removed points lie in
    s and, given a hyperplane pi, both pieces lie in pi.  Each surgery works
    its pieces out from valid input, so a piece off the set or the
    hyperplane is a bug in qps.
    """
    space = s.space
    if removed_bits & ~s.bits:
        raise InvariantViolated(f"{name} removes points that are not in the set")
    if pi is not None and (removed_bits | added_bits) & ~space.incidence[pi]:
        raise InvariantViolated(f"{name} switches points off its hyperplane")
    result = PointSet(space, (s.bits & ~removed_bits) | added_bits)
    removed, added = PointSet(space, removed_bits), PointSet(space, added_bits)
    details = {} if details is None else details
    return result, SurgeryRecord(name, pi, vertex, removed, added, details)


def switch(
    s: PointSet, pi: int, removed: PointSet, added: PointSet
) -> tuple[PointSet, SurgeryRecord]:
    """Replace removed by added inside hyperplane pi.

    The bare switch: every other surgery of this module is one too, built by
    the same routine, so its record replays the same way.
    """
    hmask = s.space.incidence[pi]
    if removed.bits & ~s.bits:
        raise RemovedNotInSet("removed points must lie in the set")
    if removed.bits & ~hmask or added.bits & ~hmask:
        raise SetsNotInHyperplane("removed and added must lie in the hyperplane")
    if removed.bits & added.bits:
        raise ValueError("added points overlap removed points")
    return _switched("switch", s, pi, removed.bits, added.bits)


def _decompose(sub: ProjSpace, section: int, vertices, inside: int = 0) -> tuple[int, int, int]:
    """(vertex, carrier, base) of a cone section, all in sub's own coordinates.

    The vertex is the first of the given points that lies in the section and
    is a cone vertex of it; the carrier is the first hyperplane of sub avoiding
    the vertex and containing the mask inside, and the base is the section on
    it.  For a cone vertex the cone over that base is the whole section.
    """
    for v in vertices:
        if section >> v & 1 and is_cone_vertex(sub, section, v):
            h = _carrier(sub, v, inside)
            return v, h, section & sub.incidence[h]
    raise NoConeDecomposition("section is not a cone over a hyperplane base")


def _pi_geometry(s: PointSet, pi: int) -> tuple[SubGeometry, int]:
    """Hyperplane pi as its own PG(m-1, q), and the section of s in it."""
    geom = subgeometry(s.space, hyperplane_flat(s.space, pi))
    return geom, geom.mask_from_ambient(s.bits)


def _validate_base(sub: ProjSpace, kind: PolarKind, carrier: int, base: int) -> None:
    """Require base, inside hyperplane carrier of sub, to be quasi-polar of
    the kind two dimensions down; raise BaseWrongType otherwise."""
    try:
        base_kind = PolarKind(kind.family, kind.m - 2, kind.q)
    except IncompatibleKind as e:
        raise BaseWrongType(f"base kind in PG({kind.m - 2},{kind.q}): {e}") from e
    geom = subgeometry(sub, hyperplane_flat(sub, carrier))
    cls = classify(PointSet(geom.sub, geom.mask_from_ambient(base)), base_kind)
    if not cls.quasi_polar:
        raise BaseWrongType("base is not quasi-polar of the required kind")
    if kind.family == "parabolic" and not cls.classical_size:
        raise BaseWrongType("parabolic base must have the classical cardinality")


def pivot(
    s: PointSet, kind: PolarKind, pi: int, new_base: PointSet
) -> tuple[PointSet, SurgeryRecord]:
    """Replace the cone section in a singular hyperplane by a cone over a new base."""
    geom, section = _pi_geometry(s, pi)
    if section.bit_count() != profile(kind).singular_size:
        raise NotSingular("hyperplane section does not have the singular size")
    sub = geom.sub
    v = _decompose(sub, section, range(sub.n_points))[0]
    if new_base.bits & ~s.space.incidence[pi]:
        raise BaseWrongType("base is not contained in the hyperplane")
    return _pivot("pivot", s, kind, pi, geom, v, geom.mask_from_ambient(new_base.bits), {})


def _pivot(
    name: str, s: PointSet, kind: PolarKind, pi: int, geom: SubGeometry, v: int, base: int, details
) -> tuple[PointSet, SurgeryRecord]:
    """Pivot at pi onto the cone with vertex v over base, in pi's coordinates
    geom: the core of every pivot.  The base must be quasi-polar on its
    carrier, the first hyperplane of pi avoiding v and holding it; the record
    gives that and mu, the first one avoiding v, then the caller's details."""
    sub = geom.sub
    carrier = _carrier(sub, v, base)
    _validate_base(sub, kind, carrier, base)
    rows = [_ambient_rows(geom, hyperplane_flat(sub, h)) for h in (_carrier(sub, v, 0), carrier)]
    details = {"mu": rows[0], "carrier": rows[1], **details}
    removed = s.bits & s.space.incidence[pi]
    return _switched(name, s, pi, removed, _cone_bits(geom, v, base), geom.to_ambient[v], details)


def _nucleus_frame(
    s: PointSet, pi: int, through_nucleus: bool
) -> tuple[PolarKind, int, SubGeometry, int, SubGeometry, PointSet]:
    """(parabolic kind, nucleus, pi's geometry, vertex, carrier, base) of the
    nucleus surgeries, from one decomposition in pi's coordinates: q even,
    even m >= 4, pi singular and holding a line nucleus of s.  The carrier,
    a subgeometry of pi, holds the nucleus when through_nucleus."""
    space = s.space
    if space.f.p != 2:
        raise NotEvenQ("operation requires even field order")
    if space.m % 2 != 0 or space.m < 4:
        raise IncompatibleKind("operation needs even ambient dimension >= 4")
    kind = PolarKind("parabolic", space.m, space.q)
    if (s.bits & space.incidence[pi]).bit_count() != profile(kind).singular_size:
        raise NotSingular("hyperplane section does not have the singular size")
    nucleus = find_line_nucleus(s)
    if nucleus is None:
        raise ValueError("set has no nucleus-like point")
    if not space.incidence[pi] >> nucleus & 1:
        raise ValueError("nucleus does not lie in the hyperplane")
    geom, section = _pi_geometry(s, pi)
    sub = geom.sub
    inside = 1 << geom.from_ambient[nucleus] if through_nucleus else 0
    v, mu, base = _decompose(sub, section, range(sub.n_points), inside)
    carrier = subgeometry(sub, hyperplane_flat(sub, mu))
    return kind, nucleus, geom, v, carrier, PointSet(carrier.sub, carrier.mask_from_ambient(base))


def cone_swap(s: PointSet, pi: int) -> tuple[PointSet, SurgeryRecord]:
    """Swap a sub-cone through the section vertex for one through the nucleus.

    In PG(4,2) the swapped section is again a cone over a triangle, with its
    vertex moved off the section vertex P: every admissible 7-point section
    of PG(3,2) is such a cone.  In Q(4,4) and Q(6,2) the swapped section is
    not a cone over a quasi-polar base.
    """
    space = s.space
    _kind, nucleus, geom, v, carrier, base_sub = _nucleus_frame(s, pi, through_nucleus=False)
    base_nucleus = find_line_nucleus(base_sub)
    if base_nucleus is None:
        raise ValueError("base has no nucleus-like point")

    gen = _greedy_generator(base_sub, space.m // 2 - 2)
    sub_mu = carrier.sub
    tangent_flat = Flat(sub_mu, rref(space.f, [*gen.basis, sub_mu.points[base_nucleus]]))
    # P dot nu_P is the cone with vertex P over nu_P
    nu_p = carrier.mask_to_ambient(gen.mask())
    cone_p = _cone_bits(geom, v, nu_p)
    trunc = s.bits & space.incidence[pi] & ~cone_p
    n_sub = geom.from_ambient[nucleus]

    for cand in _flat_hyperplanes(sub_mu, tangent_flat):
        nu_n = carrier.mask_to_ambient(cand)
        # skip nu_P itself and the flats through the nucleus, whose span with
        # it would not gain a dimension
        if nu_n == nu_p or nu_n >> n_sub & 1:
            continue
        cone_n = _cone_bits(geom, n_sub, nu_n)
        if cone_n & trunc:
            continue
        details = {
            "nucleus": _pt_coords(space, nucleus),
            "base_nucleus": _pt_coords(space, geom.to_ambient[carrier.to_ambient[base_nucleus]]),
            "mu": _ambient_rows(geom, carrier.flat),
            "nu_p": _basis_coords(flat_from_mask(space, geom.mask_to_ambient(nu_p))),
            "nu_n": _basis_coords(flat_from_mask(space, geom.mask_to_ambient(nu_n))),
        }
        return _switched("cone-swap", s, pi, cone_p, cone_n, geom.to_ambient[v], details)
    raise NoDisjointFlat("no nucleus-cone flat avoids the truncated cone")


def _flat_hyperplanes(space: ProjSpace, flat: Flat):
    """Masks (in space indices) of the hyperplanes of a flat, fixed order."""
    geom = subgeometry(space, flat)
    for h_sub in range(geom.sub.n_points):
        yield geom.mask_to_ambient(geom.sub.incidence[h_sub])


def _greedy_generator(s: PointSet, target_dim: int) -> Flat:
    """Lex-first maximal flat inside s, extended greedily to target_dim."""
    space = s.space
    idx = s.indices()
    if not idx:
        raise ValueError("empty set has no generator")
    cur = flat_from_points(space, [idx[0]])
    while cur.dim < target_dim:
        cur = _extend_inside(s, cur, cur.mask())
        if cur is None:
            raise ValueError("no generator of the required dimension inside the set")
    return cur


def _extend_inside(s: PointSet, flat: Flat, avoid: int) -> Flat | None:
    """Span of the flat and the first point of s off avoid whose span lies in s."""
    space = s.space
    for x in bits_to_indices(s.bits & ~avoid):
        cand = Flat(space, rref(space.f, [*flat.basis, space.points[x]]))
        if not cand.mask() & ~s.bits:
            return cand
    return None


def repeated_pivot(
    s: PointSet,
    kind: PolarKind,
    p: int,
    r: int,
    base_choices: dict[int, PointSet] | None = None,
) -> tuple[PointSet, SurgeryRecord]:
    """Pivot simultaneously in the tangent hyperplanes of all points of a line.

    The tangent hyperplane at a point R of the line is the first singular-size
    hyperplane holding the line whose section is a cone with vertex R.  One
    pass over the hyperplanes finds them all, and each such section is
    decomposed once, in its hyperplane's own coordinates.
    """
    space = s.space
    base_choices = base_choices or {}
    line = line_through(space, p, r)
    if line.bits & ~s.bits:
        raise NotCollinear("the line through p and r must lie inside the set")
    for x in base_choices:
        if not line.bits >> x & 1:
            coords = ",".join(str(c) for c in space.points[x])
            raise ValueError(f"base choice at point {coords} is not on the line")
    singular_size = profile(kind).singular_size
    per_sizes = spectrum(s).per_hyperplane
    points = line.indices()

    # point of the line -> (tangent hyperplane, its geometry, vertex, carrier, base)
    cones: dict[int, tuple] = {}
    for h, hmask in enumerate(space.incidence):
        if len(cones) == len(points):
            break
        if per_sizes[h] != singular_size or line.bits & ~hmask:
            continue
        geom, section = _pi_geometry(s, h)
        for R in points:
            if R not in cones:
                try:
                    cones[R] = (h, geom, *_decompose(geom.sub, section, [geom.from_ambient[R]]))
                except NoConeDecomposition:
                    pass

    def tangent(R: int) -> tuple:
        if R not in cones:
            raise NoConeDecomposition(f"no tangent hyperplane found at point {R}")
        return cones[R]

    hp, hr = tangent(p)[0], tangent(r)[0]
    xi_mask = space.incidence[hp] & space.incidence[hr]

    result_bits = 0
    for R in points:
        hR, geom, r_sub, sigma, base = tangent(R)
        sub = geom.sub
        choice = base_choices.get(R)
        if choice is not None and choice.bits != geom.mask_to_ambient(base):
            if choice.bits & ~geom.mask_to_ambient(sub.incidence[sigma]):
                raise BaseWrongType("replacement base must lie in the carrier flat")
            base = geom.mask_from_ambient(choice.bits)
            _validate_base(sub, kind, sigma, base)
        new_cone = _cone_bits(geom, r_sub, base)
        if (new_cone ^ s.bits) & xi_mask & space.incidence[hR]:
            raise ConstraintViolated(R)
        result_bits |= new_cone

    details = {
        "line": _pts_coords(space, points),
        "tangent_hyperplanes": {
            ",".join(str(c) for c in space.points[k]): _pt_coords(space, cones[k][0])
            for k in points
        },
        "xi": [list(row) for row in null_space(space.f, [space.points[hp], space.points[hr]])],
    }
    removed = s.bits & ~result_bits
    added = result_bits & ~s.bits
    return _switched("repeated-pivot", s, None, removed, added, details=details)


def affine_switch(s: PointSet) -> tuple[PointSet, SurgeryRecord]:
    """Remove the symmetric difference of two generators through a common wall."""
    space = s.space
    if space.q != 2 or space.m % 2 != 1:
        raise NotQ2Hyperbolic("operation requires hyperbolic kind over GF(2)")
    kind = PolarKind("hyperbolic", space.m, 2)
    cls = classify(s, kind)
    if not cls.quasi_polar or not cls.classical_size:
        raise NotQ2Hyperbolic("set is not a classical-size hyperbolic quasi-polar set")
    if kind.n < 1:
        raise ValueError("the generators are points, so they have no wall")
    g1 = _greedy_generator(s, kind.n)
    # the wall is hyperplane 0 of g1's own coordinates, spanned by all but
    # the last row of its basis
    nu_flat = Flat(space, g1.basis[:-1])
    g2 = _extend_inside(s, nu_flat, g1.mask())
    if g2 is None:
        raise ValueError("no second generator through the wall")
    union = g1.mask() | g2.mask()
    pi = next(h for h, hmask in enumerate(space.incidence) if not union & ~hmask)
    details = {
        "generator_1": _basis_coords(g1),
        "generator_2": _basis_coords(g2),
        "wall": _basis_coords(nu_flat),
    }
    return _switched("affine-switch", s, pi, g1.mask() ^ g2.mask(), 0, details=details)


def nonsingular_switch_q2(
    s: PointSet, pi: int, new_section: PointSet
) -> tuple[PointSet, SurgeryRecord]:
    """Replace a non-singular section over GF(2) by a same-type classical-size set."""
    space = s.space
    if space.q != 2:
        raise NotQ2("operation requires field order 2")
    if space.m % 2 != 0:
        raise IncompatibleKind("ambient dimension must be even")
    section = s.bits & space.incidence[pi]
    family = section_type(PolarKind("parabolic", space.m, 2), section.bit_count())
    if family == "singular":
        raise SingularHyperplane("hyperplane is singular for the set")
    if family is None:
        raise SingularHyperplane("section size matches no admissible size")
    if new_section.bits & ~space.incidence[pi]:
        raise SectionWrongType("replacement section must lie in the hyperplane")
    geom = subgeometry(space, hyperplane_flat(space, pi))
    sub_set = PointSet(geom.sub, geom.mask_from_ambient(new_section.bits))
    cls = classify(sub_set, PolarKind(family, space.m - 1, 2))
    # the replacement must carry the classical cardinality, otherwise the
    # section size at pi itself leaves the admissible range
    if not cls.quasi_polar or not cls.classical_size:
        raise SectionWrongType("replacement section is not quasi-polar of the type")
    details = {"section_type": family}
    return _switched("q2-switch", s, pi, section, new_section.bits, details=details)


def internal_switch_q3(
    s: PointSet, xi: int, pi_sub: Flat
) -> tuple[PointSet, SurgeryRecord]:
    """Swap the affine part of a non-singular section for same-class points (q=3).

    The points of the set in xi outside pi_sub are replaced by the off points
    whose tangent-line count matches the section type: internal points when
    the section is elliptic, external points when it is hyperbolic.
    """
    space = s.space
    if space.q != 3:
        raise NotQ3("operation requires field order 3")
    if space.m % 2 != 0:
        raise IncompatibleKind("ambient dimension must be even")
    kind = PolarKind("parabolic", space.m, 3)
    xi_mask = space.incidence[xi]
    section = s.bits & xi_mask
    family = section_type(kind, section.bit_count())
    if family not in ("elliptic", "hyperbolic"):
        raise BadHyperplanes("xi must be non-singular for the set")
    if pi_sub.dim != space.m - 2 or pi_sub.mask() & ~xi_mask:
        raise BadHyperplanes("pi_sub must be a hyperplane of xi")
    sec_kind = PolarKind(family, space.m - 1, 3)
    sub_prof = profile(sec_kind)
    if (pi_sub.mask() & section).bit_count() != sub_prof.singular_size:
        raise BadHyperplanes("pi_sub must be singular for the section")

    zone = xi_mask & ~pi_sub.mask()
    # replacement points share the class of the pole of xi: internal points
    # (elliptic perp section) for an elliptic section, external (hyperbolic
    # perp section) for a hyperbolic one
    eps = -1 if family == "elliptic" else 1
    tangent_count = card_pm(kind.n - 1, 3, eps)
    added_bits = 0
    for p_ in bits_to_indices(zone & ~s.bits):
        t = 0
        for line in space.lines_through(p_):
            if (line & s.bits).bit_count() == 1:
                t += 1
        if t == tangent_count:
            added_bits |= 1 << p_
    details = {"pi_sub": _basis_coords(pi_sub), "section_type": family}
    return _switched("q3-switch", s, xi, s.bits & zone, added_bits, details=details)


def oval_nucleus_swap(s: PointSet, tangent: int) -> tuple[PointSet, SurgeryRecord]:
    """Trade the tangency point of an even-order oval for the oval's nucleus."""
    space = s.space
    if space.m != 2 or space.f.p != 2:
        raise NotOval("operation requires a plane of even order")
    kind = PolarKind("parabolic", 2, space.q)
    cls = classify(s, kind)
    if not cls.quasi_polar or s.size != space.q + 1:
        raise NotOval("set is not an oval")
    sec = s.bits & space.incidence[tangent]
    if sec.bit_count() != 1:
        raise NotTangent("line is not tangent to the oval")
    nucleus = find_line_nucleus(s)
    if nucleus is None:
        raise NotOval("oval has no nucleus-like point")
    details = {"nucleus": _pt_coords(space, nucleus)}
    return _switched("oval-swap", s, tangent, sec, 1 << nucleus, details=details)


def shifted_nucleus_pivot(s: PointSet, pi: int) -> tuple[PointSet, SurgeryRecord]:
    """Pivot onto a collineation image of the base that moves the base nucleus,
    through the core of ``pivot``."""
    space = s.space
    kind, nucleus, geom, v, carrier, base = _nucleus_frame(s, pi, through_nucleus=True)
    n_mu = carrier.from_ambient[geom.from_ambient[nucleus]]
    if find_line_nucleus(base) != n_mu:
        raise ValueError("base nucleus does not match the set nucleus")
    new_base = _shift_by_elation(base, n_mu)
    after = geom.to_ambient[carrier.to_ambient[find_line_nucleus(new_base)]]
    details = {
        "nucleus": _pt_coords(space, nucleus),
        "base_nucleus_before": _pt_coords(space, nucleus),
        "base_nucleus_after": _pt_coords(space, after),
    }
    new_bits = carrier.mask_to_ambient(new_base.bits)
    return _pivot("shifted-nucleus-pivot", s, kind, pi, geom, v, new_bits, details)


def _shift_by_elation(base: PointSet, moved_point: int) -> PointSet:
    """Image of base under x -> x + phi(x) c, phi(moved_point) != 0, phi(c) = 0."""
    space = base.space
    f = space.f
    phi = next(
        h for h in range(space.n_points) if not space.incidence[h] >> moved_point & 1
    )
    phi_vec = space.points[phi]
    c_idx = bits_to_indices(space.incidence[phi])[0]
    c_vec = space.points[c_idx]

    def image(x: tuple[int, ...]) -> int:
        row = f.mul[dot(f, phi_vec, x)]
        return normalize_point(space, tuple(f.add[u][row[c]] for u, c in zip(x, c_vec)))

    return PointSet(space, indices_to_bits(map(image, base.vectors())))
