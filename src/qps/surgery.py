"""Switching surgeries: local edits of a point set that preserve quasi-polarity.

Every operation returns (result, record).  The record names the geometric
inputs it committed to (hyperplane, vertex, carrier flats, replaced pieces)
so a run can be audited or replayed.  Deterministic tie-breaks everywhere:
scans go in index order and take the first admissible object.  The four
cone surgeries (pivot, repeated pivot, cone swap, shifted-nucleus pivot) work
on masks of the switched hyperplane's own PG(m-1, q), and on the base's
carrier hyperplane as a subgeometry of that, whose lines and incidence are
cached; ambient flats are built only for the records.
"""

from __future__ import annotations

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
    line_through,
    normalize_vec,
    rref,
    scale,
    subgeometry,
    vadd,
)
from .spectra import classify, find_line_nucleus, profile, section_type, spectrum


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


class SurgeryRecord:
    """What one surgery committed to: its hyperplane, vertex, pieces and details."""

    def __init__(
        self,
        kind: str,
        hyperplane: int | None,
        vertex: int | None,
        removed: PointSet,
        added: PointSet,
        details: dict | None = None,
    ):
        self.kind = kind
        self.hyperplane = hyperplane
        self.vertex = vertex
        self.removed = removed
        self.added = added
        self.details = {} if details is None else details

    def to_dict(self) -> dict:
        """JSON form: points as coordinate rows, flats as coordinate lists.

        Hyperplanes appear as their dual coordinate vector; details entries
        are stored serialization-ready by each operation.
        """
        space = self.removed.space
        return {
            "construction": self.kind,
            "hyperplane": (
                None
                if self.hyperplane is None
                else _pt_coords(space, self.hyperplane)
            ),
            "vertex": None if self.vertex is None else _pt_coords(space, self.vertex),
            "removed": _pts_coords(space, self.removed.indices()),
            "added": _pts_coords(space, self.added.indices()),
            "details": self.details,
        }


def _sub_hyperplane(geom: SubGeometry, h_sub: int) -> Flat:
    """Hyperplane h_sub of a subgeometry, as a flat of the ambient space."""
    sub = geom.sub
    rows = hyperplane_flat(sub, h_sub).basis
    return flat_from_points(
        geom.flat.space, [geom.to_ambient[sub.point_index[row]] for row in rows]
    )


def _carrier(sub: ProjSpace, v: int, inside: int) -> int:
    """First hyperplane of sub avoiding point v and containing the mask inside."""
    for h, hmask in enumerate(sub.incidence):
        if not hmask >> v & 1 and not inside & ~hmask:
            return h
    raise BaseWrongType("no carrier hyperplane avoids the vertex")


def _cone_bits(sub: ProjSpace, v: int, base: int) -> int:
    """Cone with vertex v over base (v off base): v and the lines through v meeting base."""
    bits = 1 << v
    for line in sub.lines_through(v):
        if line & base:
            bits |= line
    return bits


def switch(
    s: PointSet, pi: int, removed: PointSet, added: PointSet
) -> tuple[PointSet, SurgeryRecord]:
    """Replace removed by added inside hyperplane pi."""
    space = s.space
    hmask = space.incidence[pi]
    if removed.bits & ~s.bits:
        raise RemovedNotInSet("removed points must lie in the set")
    if removed.bits & ~hmask or added.bits & ~hmask:
        raise SetsNotInHyperplane("removed and added must lie in the hyperplane")
    if removed.bits & added.bits:
        raise ValueError("added points overlap removed points")
    result = PointSet(space, (s.bits & ~removed.bits) | added.bits)
    rec = SurgeryRecord(
        kind="switch", hyperplane=pi, vertex=None, removed=removed, added=added
    )
    return result, rec


def _decompose(sub: ProjSpace, section: int, vertices, inside: int = 0) -> tuple[int, int, int]:
    """(vertex, carrier, base) of a cone section, all in sub's own coordinates.

    The vertex is the first of the given points that lies in the section and
    is a cone vertex of it; the carrier is the first hyperplane of sub avoiding
    the vertex and containing the mask inside, and the base is the section on
    it.  For a cone vertex the cone over that base is the whole section.
    """
    for v in vertices:
        if section >> v & 1 and is_cone_vertex(section, v, sub.lines_through(v)):
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
        raise BaseWrongType(str(e)) from e
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
    space = s.space
    prof = profile(kind)
    geom, section = _pi_geometry(s, pi)
    if section.bit_count() != prof.singular_size:
        raise NotSingular("hyperplane section does not have the singular size")
    sub = geom.sub
    v, mu, _base = _decompose(sub, section, range(sub.n_points))
    if new_base.bits & ~space.incidence[pi]:
        raise BaseWrongType("base is not contained in the hyperplane")
    base = geom.mask_from_ambient(new_base.bits)
    carrier = _carrier(sub, v, base)
    _validate_base(sub, kind, carrier, base)
    added = PointSet(space, geom.mask_to_ambient(_cone_bits(sub, v, base)))
    removed = PointSet(space, s.bits & space.incidence[pi])
    result = PointSet(space, (s.bits & ~removed.bits) | added.bits)
    rec = SurgeryRecord(
        kind="pivot",
        hyperplane=pi,
        vertex=geom.to_ambient[v],
        removed=removed,
        added=added,
        details={
            "mu": _basis_coords(_sub_hyperplane(geom, mu)),
            "carrier": _basis_coords(_sub_hyperplane(geom, carrier)),
        },
    )
    return result, rec


def _nucleus_in_singular_section(s: PointSet, pi: int) -> tuple[PolarKind, int]:
    """Parabolic kind and line nucleus for the two nucleus surgeries.

    Requires q even, even ambient dimension >= 4, a singular-size section at
    pi and a line nucleus of s inside pi.
    """
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
    return kind, nucleus


def cone_swap(s: PointSet, pi: int) -> tuple[PointSet, SurgeryRecord]:
    """Swap a sub-cone through the section vertex for one through the nucleus.

    In PG(4,2) the swapped section is again a cone over a triangle, with its
    vertex moved off the section vertex P: every admissible 7-point section
    of PG(3,2) is such a cone.  In Q(4,4) and Q(6,2) the swapped section is
    not a cone over a quasi-polar base.
    """
    space = s.space
    _kind, nucleus = _nucleus_in_singular_section(s, pi)
    geom, section = _pi_geometry(s, pi)
    sub = geom.sub
    v, mu, base = _decompose(sub, section, range(sub.n_points))
    carrier = subgeometry(sub, hyperplane_flat(sub, mu))
    base_sub = PointSet(carrier.sub, carrier.mask_from_ambient(base))
    base_nucleus = find_line_nucleus(base_sub)
    if base_nucleus is None:
        raise ValueError("base has no nucleus-like point")

    gen = _greedy_generator(base_sub, space.m // 2 - 2)
    sub_mu = carrier.sub
    tangent_flat = Flat(sub_mu, rref(space.f, [*gen.basis, sub_mu.points[base_nucleus]]))
    # P dot nu_P is the cone with vertex P over nu_P
    nu_p = carrier.mask_to_ambient(gen.mask())
    cone_p = _cone_bits(sub, v, nu_p)
    trunc = section & ~cone_p
    n_sub = geom.from_ambient[nucleus]

    for cand in _flat_hyperplanes(sub_mu, tangent_flat):
        nu_n = carrier.mask_to_ambient(cand)
        # skip nu_P itself and the flats through the nucleus, whose span with
        # it would not gain a dimension
        if nu_n == nu_p or nu_n >> n_sub & 1:
            continue
        cone_n = _cone_bits(sub, n_sub, nu_n)
        if cone_n & trunc:
            continue
        added = PointSet(space, geom.mask_to_ambient(cone_n))
        removed = PointSet(space, geom.mask_to_ambient(cone_p))
        result = PointSet(space, (s.bits & ~removed.bits) | added.bits)
        rec = SurgeryRecord(
            kind="cone-swap",
            hyperplane=pi,
            vertex=geom.to_ambient[v],
            removed=removed,
            added=added,
            details={
                "nucleus": _pt_coords(space, nucleus),
                "base_nucleus": _pt_coords(
                    space, geom.to_ambient[carrier.to_ambient[base_nucleus]]
                ),
                "mu": _basis_coords(_sub_hyperplane(geom, mu)),
                "nu_p": _basis_coords(flat_from_mask(space, geom.mask_to_ambient(nu_p))),
                "nu_n": _basis_coords(flat_from_mask(space, geom.mask_to_ambient(nu_n))),
            },
        )
        return result, rec
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
        cur = _extend_inside(s, cur.mask(), cur.mask())
        if cur is None:
            raise ValueError("no generator of the required dimension inside the set")
    return cur


def _extend_inside(s: PointSet, flat_mask: int, avoid: int) -> Flat | None:
    """Span of the flat and the first point of s off avoid whose span lies in s."""
    for x in bits_to_indices(s.bits & ~avoid):
        cand = flat_from_points(s.space, bits_to_indices(flat_mask) + [x])
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
    """Pivot simultaneously in the tangent hyperplanes of all points of a line."""
    space = s.space
    base_choices = base_choices or {}
    line = line_through(space, p, r)
    if line.bits & ~s.bits:
        raise NotCollinear("the line through p and r must lie inside the set")
    prof = profile(kind)
    per_sizes = spectrum(s).per_hyperplane

    tangents = {x: _tangent_hyperplane(s, per_sizes, prof.singular_size, x) for x in (p, r)}
    xi_mask = space.incidence[tangents[p]] & space.incidence[tangents[r]]

    result_bits = 0
    for R in line.indices():
        if R not in tangents:
            tangents[R] = _tangent_hyperplane(s, per_sizes, prof.singular_size, R)
        hR = tangents[R]
        geom, section = _pi_geometry(s, hR)
        sub = geom.sub
        r_sub, sigma, base = _decompose(sub, section, [geom.from_ambient[R]])
        choice = base_choices.get(R)
        if choice is not None and choice.bits != geom.mask_to_ambient(base):
            if choice.bits & ~geom.mask_to_ambient(sub.incidence[sigma]):
                raise BaseWrongType("replacement base must lie in the carrier flat")
            base = geom.mask_from_ambient(choice.bits)
            _validate_base(sub, kind, sigma, base)
        new_cone = geom.mask_to_ambient(_cone_bits(sub, r_sub, base))
        if (new_cone ^ s.bits) & xi_mask & space.incidence[hR]:
            raise ConstraintViolated(R)
        result_bits |= new_cone

    result = PointSet(space, result_bits)
    removed = PointSet(space, s.bits & ~result_bits)
    added = PointSet(space, result_bits & ~s.bits)
    rec = SurgeryRecord(
        kind="repeated-pivot",
        hyperplane=None,
        vertex=None,
        removed=removed,
        added=added,
        details={
            "line": _pts_coords(space, line.indices()),
            "tangent_hyperplanes": {
                ",".join(str(c) for c in space.points[k]): _pt_coords(space, v)
                for k, v in sorted(tangents.items())
            },
            "xi": _basis_coords(flat_from_mask(space, xi_mask)),
        },
    )
    return result, rec


def _tangent_hyperplane(
    s: PointSet, per_sizes: tuple[int, ...], singular_size: int, p: int
) -> int:
    """The unique singular-size hyperplane whose section is a cone with vertex p."""
    space = s.space
    for h in range(space.n_points):
        if per_sizes[h] != singular_size:
            continue
        if not space.incidence[h] >> p & 1:
            continue
        hmask = space.incidence[h]
        lines = (line for line in space.lines_through(p) if not line & ~hmask)
        if is_cone_vertex(s.bits & hmask, p, lines):
            return h
    raise NoConeDecomposition(f"no tangent hyperplane found at point {p}")


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
    g2 = _extend_inside(s, nu_flat.mask(), g1.mask())
    if g2 is None:
        raise ValueError("no second generator through the wall")
    removed_bits = g1.mask() ^ g2.mask()
    union = g1.mask() | g2.mask()
    pi = next(h for h, hmask in enumerate(space.incidence) if not union & ~hmask)
    removed = PointSet(space, removed_bits)
    added = PointSet(space, 0)
    result = PointSet(space, s.bits & ~removed_bits)
    rec = SurgeryRecord(
        kind="affine-switch",
        hyperplane=pi,
        vertex=None,
        removed=removed,
        added=added,
        details={
            "generator_1": _basis_coords(g1),
            "generator_2": _basis_coords(g2),
            "wall": _basis_coords(nu_flat),
        },
    )
    return result, rec


def nonsingular_switch_q2(
    s: PointSet, pi: int, new_section: PointSet
) -> tuple[PointSet, SurgeryRecord]:
    """Replace a non-singular section over GF(2) by a same-type classical-size set."""
    space = s.space
    if space.q != 2:
        raise NotQ2("operation requires field order 2")
    if space.m % 2 != 0:
        raise IncompatibleKind("ambient dimension must be even")
    section = PointSet(space, s.bits & space.incidence[pi])
    family = section_type(PolarKind("parabolic", space.m, 2), section.size)
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
    result = PointSet(space, (s.bits & ~section.bits) | new_section.bits)
    rec = SurgeryRecord(
        kind="q2-switch",
        hyperplane=pi,
        vertex=None,
        removed=section,
        added=new_section,
        details={"section_type": family},
    )
    return result, rec


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
    section = PointSet(space, s.bits & xi_mask)
    family = section_type(kind, section.size)
    if family not in ("elliptic", "hyperbolic"):
        raise BadHyperplanes("xi must be non-singular for the set")
    if pi_sub.dim != space.m - 2 or pi_sub.mask() & ~xi_mask:
        raise BadHyperplanes("pi_sub must be a hyperplane of xi")
    sec_kind = PolarKind(family, space.m - 1, 3)
    sub_prof = profile(sec_kind)
    if (pi_sub.mask() & section.bits).bit_count() != sub_prof.singular_size:
        raise BadHyperplanes("pi_sub must be singular for the section")

    zone = xi_mask & ~pi_sub.mask()
    removed_bits = s.bits & zone
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
    result = PointSet(space, (s.bits & ~removed_bits) | added_bits)
    rec = SurgeryRecord(
        kind="q3-switch",
        hyperplane=xi,
        vertex=None,
        removed=PointSet(space, removed_bits),
        added=PointSet(space, added_bits),
        details={
            "pi_sub": _basis_coords(pi_sub),
            "section_type": family,
        },
    )
    return result, rec


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
    removed = PointSet(space, sec)
    added = PointSet(space, 1 << nucleus)
    result = PointSet(space, (s.bits & ~sec) | added.bits)
    rec = SurgeryRecord(
        kind="oval-swap",
        hyperplane=tangent,
        vertex=None,
        removed=removed,
        added=added,
        details={"nucleus": _pt_coords(space, nucleus)},
    )
    return result, rec


def shifted_nucleus_pivot(s: PointSet, pi: int) -> tuple[PointSet, SurgeryRecord]:
    """Pivot onto a collineation image of the base that moves the base nucleus."""
    space = s.space
    kind, nucleus = _nucleus_in_singular_section(s, pi)
    geom, section = _pi_geometry(s, pi)
    sub = geom.sub
    _v, mu, base = _decompose(
        sub, section, range(sub.n_points), 1 << geom.from_ambient[nucleus]
    )
    carrier = subgeometry(sub, hyperplane_flat(sub, mu))
    base_sub = PointSet(carrier.sub, carrier.mask_from_ambient(base))
    n_mu = carrier.from_ambient[geom.from_ambient[nucleus]]
    if find_line_nucleus(base_sub) != n_mu:
        raise ValueError("base nucleus does not match the set nucleus")

    new_base_sub = _shift_by_elation(base_sub, n_mu)
    new_base = PointSet(space, geom.mask_to_ambient(carrier.mask_to_ambient(new_base_sub.bits)))
    result, rec = pivot(s, kind, pi, new_base)
    rec.kind = "shifted-nucleus-pivot"
    rec.details.update(
        {
            "nucleus": _pt_coords(space, nucleus),
            "base_nucleus_before": _pt_coords(space, nucleus),
            "base_nucleus_after": _pt_coords(
                space, geom.to_ambient[carrier.to_ambient[find_line_nucleus(new_base_sub)]]
            ),
        }
    )
    return result, rec


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
    bits = 0
    for i in base.indices():
        x = space.points[i]
        t = dot(f, phi_vec, x)
        y = vadd(f, x, scale(f, t, c_vec)) if t else x
        bits |= 1 << space.point_index[normalize_vec(f, y)]
    return PointSet(space, bits)
