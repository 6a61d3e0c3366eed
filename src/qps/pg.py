"""Projective spaces PG(m, q): points, hyperplanes, flats, incidence bitmasks.

Points are normalized homogeneous coordinate tuples (first nonzero entry 1,
entries encoded as field integers) listed in lexicographic order; a point's
index is its position in that list.  Hyperplanes use dual coordinates under
the same normalization, so hyperplane index h corresponds to the dual vector
points[h].  Point sets are plain int bitmasks: bit i set means point i is in
the set.

The incidence is built without per-pair arithmetic: row h is the byte string
of the values h·x over all points x, in point order, widened one coordinate at
a time from precomputed tables of v + a·c; its zero bytes become the mask's
bits.  Lines are built per point: ``lines_through(p)`` joins p to each point
of one coordinate hyperplane, and ``all_lines()`` keeps each line once, at its
lowest point.  The incidence, and every build of line masks together with
those the space already holds, raise ``SpaceTooLarge`` before building when
their estimated size exceeds ``MAX_TABLE_BYTES``.

Hyperplane h is dual point h, so the hyperplanes through a codimension-2 flat
are, as indices, the points of a line: ``all_lines()`` lists them for every
such flat at once.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from .gf import FieldTable, build_field


class SpaceTooLarge(ValueError):
    """Point count or a bulk table would exceed its guard."""


class ZeroVector(ValueError):
    """The zero vector does not define a projective point."""


class SamePoint(ValueError):
    """Two distinct points are required."""


MAX_POINTS = 10**6
# cap on the estimated size of the incidence, at one ceil(n/8) byte row per
# hyperplane, and of the line masks a space holds, at one int object per line
MAX_TABLE_BYTES = 256 * 2**20


def dot(f: FieldTable, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    add = f.add
    mul = f.mul
    s = 0
    for a, b in zip(u, v):
        s = add[s][mul[a][b]]
    return s


def scale(f: FieldTable, c: int, v: tuple[int, ...]) -> tuple[int, ...]:
    row = f.mul[c]
    return tuple(row[x] for x in v)


def vadd(f: FieldTable, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    add = f.add
    return tuple(add[a][b] for a, b in zip(u, v))


def normalize_vec(f: FieldTable, v: tuple[int, ...]) -> tuple[int, ...]:
    for x in v:
        if x != 0:
            if x == 1:
                return tuple(v)
            return scale(f, f.inv[x], v)
    raise ZeroVector("zero vector has no projective point")


def rref(f: FieldTable, rows: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over GF(q); zero rows dropped."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        ic = f.inv[mat[r][c]]
        mat[r] = [f.mul[ic][x] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                coef = mat[i][c]
                mat[i] = [
                    f.add[x][f.neg[f.mul[coef][y]]] for x, y in zip(mat[i], mat[r])
                ]
        r += 1
    return tuple(tuple(row) for row in mat[:r])


def null_space(f: FieldTable, rows: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """RREF basis of {x : rows @ x = 0}."""
    red = rref(f, rows)
    ncols = len(rows[0])
    pivot_cols = []
    for row in red:
        for c in range(ncols):
            if row[c] != 0:
                pivot_cols.append(c)
                break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(red, pivot_cols):
            vec[pc] = f.neg[row[fc]]
        basis.append(tuple(vec))
    return rref(f, basis) if basis else ()


class ProjSpace:
    """PG(m, q) with cached point list and lazy incidence structure."""

    def __init__(self, m: int, f: FieldTable):
        if m < 1:
            raise ValueError("projective dimension must be at least 1")
        q = f.q
        n_points = (q ** (m + 1) - 1) // (q - 1)
        if n_points > MAX_POINTS:
            raise SpaceTooLarge(f"PG({m},{q}) has {n_points} points")
        self.m = m
        self.f = f
        self.q = q
        self.n_points = n_points
        pts: list[tuple[int, ...]] = []
        for lead in range(m, -1, -1):
            zeros = (0,) * lead
            for tail in itertools.product(range(q), repeat=m - lead):
                pts.append(zeros + (1,) + tail)
        self.points: tuple[tuple[int, ...], ...] = tuple(pts)
        self.point_index: dict[tuple[int, ...], int] = {
            v: i for i, v in enumerate(pts)
        }
        self.all_mask = (1 << n_points) - 1
        self._incidence: tuple[int, ...] | None = None
        self._lines: dict[int, tuple[int, ...]] = {}  # p -> lines_through(p)
        self._all_lines: tuple[int, ...] | None = None
        self._line_bytes = 0  # estimated size of the line masks held
        self._codim2: tuple[Flat, ...] | None = None
        self._flat_masks: dict[tuple, int] = {}
        self._subgeoms: dict[tuple, SubGeometry] = {}
        self._hyperplane_flats: dict[int, Flat] = {}
        # family -> sorted bitmasks of its classical sets, at most
        # census.ORBIT_CAP of them, filled by one orbit search per family
        self._orbits: dict[str, tuple[int, ...]] = {}
        self._columns: dict[str, tuple] = {}  # family -> (orbit, census._columns of it)

    def __repr__(self) -> str:
        return f"ProjSpace(m={self.m}, q={self.q})"

    @property
    def incidence(self) -> tuple[int, ...]:
        """incidence[h] = bitmask of points on hyperplane h, from byte rows of h·x."""
        if self._incidence is None:
            self._check_table("incidence", self.n_points * ((self.n_points + 7) // 8))
            f = self.f
            q = self.q
            # steps[a][v]: the values v + a·c for c in GF(q), in field order
            steps = [
                [bytes(f.add[v][f.mul[a][c]] for c in range(q)) for v in range(q)]
                for a in range(q)
            ]
            rows = []
            for hvec in self.points:
                blocks = []
                for lead in range(self.m, -1, -1):
                    # points (0, ..., 0, 1, tail): start from h[lead], then
                    # widen by one tail coordinate at a time
                    vals = bytes((hvec[lead],))
                    for a in hvec[lead + 1 :]:
                        vals = b"".join(map(steps[a].__getitem__, vals))
                    blocks.append(vals)
                row = b"".join(blocks).translate(_ZERO_TO_ONE)
                rows.append(int(row[::-1], 2))
            self._incidence = tuple(rows)
        return self._incidence

    def lines_through(self, p: int) -> tuple[int, ...]:
        """Bitmasks of the (n-1)/q lines through point p, built on first use.

        Line i joins p to the i-th point x, ascending, of the coordinate
        hyperplane x_j = 0, j the pivot (first non-zero coordinate) of p.  x is
        the line's lowest point other than p: the others, x + c·p with c ≠ 0,
        have pivot j if x has a later one, and else agree with x up to
        coordinate j, where x has 0.
        """
        if p not in self._lines:
            xs = self._coordinate_hyperplane(self.points[p].index(1))
            self._hold_lines(len(xs))
            self._lines[p] = tuple(self._line(p, x) for x in xs)
        return self._lines[p]

    def all_lines(self) -> tuple[int, ...]:
        """Bitmasks of all lines, ordered by (lowest point, second-lowest point):
        for each p, the lines through p whose lowest point other than p is above p."""
        if self._all_lines is None:
            self._hold_lines(self.n_points * (self.q**self.m - 1) // (self.q**2 - 1))
            planes = [self._coordinate_hyperplane(j) for j in range(self.m + 1)]
            self._all_lines = tuple(
                self._line(p, x)
                for p, v in enumerate(self.points)
                for x in planes[v.index(1)]
                if x > p
            )
        return self._all_lines

    def _coordinate_hyperplane(self, j: int) -> list[int]:
        """The points x with x_j = 0, ascending."""
        return [x for x, v in enumerate(self.points) if not v[j]]

    def _line(self, a: int, b: int) -> int:
        """Bitmask of the line through points a and b of different pivots: a, b
        and hi + c·lo for c ≠ 0, already normalized, as lo is 0 at the pivot
        of hi, the one with the earlier pivot and so the higher index."""
        index = self.point_index
        hi, lo = self.points[max(a, b)], self.points[min(a, b)]
        add = self.f.add
        mask = 1 << a | 1 << b
        for row in self.f.mul[1:]:
            mask |= 1 << index[tuple([add[u][row[v]] for u, v in zip(hi, lo)])]
        return mask

    def _hold_lines(self, count: int) -> None:
        """Count count more line masks, one int each, against the cap before they are built."""
        size = self._line_bytes + count * (24 + 4 * ((self.n_points + 29) // 30))
        self._check_table("lines", size)
        self._line_bytes = size

    def _check_table(self, name: str, size: int) -> None:
        if size > MAX_TABLE_BYTES:
            raise SpaceTooLarge(
                f"PG({self.m},{self.q}) {name} table needs about {round(size / 2**20)} MiB"
            )


# incidence rows: field value 0 becomes bit 1, any other value bit 0
_ZERO_TO_ONE = bytes([ord("1")] + [ord("0")] * 255)


_SPACES: dict[tuple[int, int], ProjSpace] = {}


def build_space(m: int, f: FieldTable) -> ProjSpace:
    key = (m, f.q)
    if key not in _SPACES:
        _SPACES[key] = ProjSpace(m, f)
    return _SPACES[key]


def space_for(m: int, q: int) -> ProjSpace:
    return build_space(m, build_field(q))


def normalize_point(space: ProjSpace, v: tuple[int, ...]) -> int:
    """Index of the projective point spanned by v."""
    return space.point_index[normalize_vec(space.f, tuple(v))]


def incident(space: ProjSpace, h: int, p: int) -> bool:
    return dot(space.f, space.points[h], space.points[p]) == 0


def span_points(space: ProjSpace, basis) -> Iterator[int]:
    """Point indices of span(basis), in canonical coefficient order.

    The i-th point yielded is the one with coefficient vector i of
    PG(len(basis) - 1, q) in its canonical point order, so for a flat this
    is the order of ``SubGeometry.to_ambient``.
    """
    f = space.f
    k = len(basis)
    zero = (0,) * (space.m + 1)
    for lead in range(k - 1, -1, -1):
        for tail in itertools.product(range(f.q), repeat=k - 1 - lead):
            vec = zero
            for c, b in zip((0,) * lead + (1,) + tail, basis):
                if c:
                    vec = vadd(f, vec, scale(f, c, b))
            yield space.point_index[normalize_vec(f, vec)]


class Flat:
    """Projective flat given by an RREF basis of its underlying subspace."""

    __slots__ = ("space", "basis")

    def __init__(self, space: ProjSpace, basis: tuple[tuple[int, ...], ...]):
        self.space = space
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    def mask(self) -> int:
        key = self.basis
        cached = self.space._flat_masks.get(key)
        if cached is not None:
            return cached
        mask = 0
        for i in span_points(self.space, self.basis):
            mask |= 1 << i
        self.space._flat_masks[key] = mask
        return mask

    def contains_point(self, p: int) -> bool:
        return bool(self.mask() >> p & 1)


def flat_from_points(space: ProjSpace, indices) -> Flat:
    rows = [space.points[i] for i in indices]
    if not rows:
        raise ValueError("a flat needs at least one point")
    return Flat(space, rref(space.f, rows))


def flat_from_mask(space: ProjSpace, mask: int) -> Flat:
    return flat_from_points(space, bits_to_indices(mask))


def hyperplane_flat(space: ProjSpace, h: int) -> Flat:
    flat = space._hyperplane_flats.get(h)
    if flat is None:
        flat = Flat(space, null_space(space.f, [space.points[h]]))
        space._hyperplane_flats[h] = flat
    return flat


def _incidence_meet(space: ProjSpace, rows) -> int:
    """AND of the incidence rows with the given indices; all points for none.

    Row i is the points on hyperplane i and, the incidence being symmetric,
    the hyperplanes through point i.  Stops once the AND is empty.
    """
    inc = space.incidence
    mask = space.all_mask
    for i in rows:
        mask &= inc[i]
        if not mask:
            break
    return mask


def hyperplanes_containing(space: ProjSpace, flat: Flat) -> list[int]:
    """Indices of hyperplanes through the flat, ascending: those through
    every point of its basis."""
    basis_points = (normalize_point(space, v) for v in flat.basis)
    return bits_to_indices(_incidence_meet(space, basis_points))


def flats_of_codim(space: ProjSpace, c: int) -> tuple[Flat, ...]:
    """All flats of codimension c (supported: 1 and 2), fixed order."""
    if c == 1:
        return tuple(hyperplane_flat(space, h) for h in range(space.n_points))
    if c != 2:
        raise ValueError("only codimension 1 and 2 are supported")
    if space._codim2 is None:
        # each codimension-2 flat is cut out by the hyperplanes of one line
        pts = space.points
        bases = []
        for line in space.all_lines():
            h1, h2 = bits_to_indices(line)[:2]
            bases.append(null_space(space.f, [pts[h1], pts[h2]]))
        space._codim2 = tuple(Flat(space, b) for b in sorted(bases))
    return space._codim2


def line_through(space: ProjSpace, p: int, r: int) -> "PointSet":
    if p == r:
        raise SamePoint("line needs two distinct points")
    basis = rref(space.f, [space.points[p], space.points[r]])
    return point_set_from_indices(space, span_points(space, basis))


def bits_to_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class PointSet:
    """A set of points of one space, stored as an int bitmask.

    Two point sets are equal when they have the same space and bits.
    """

    __slots__ = ("space", "bits")

    def __init__(self, space: ProjSpace, bits: int):
        self.space = space
        self.bits = bits

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.space is other.space and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.space, self.bits))

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        return bits_to_indices(self.bits)

    def vectors(self) -> list[tuple[int, ...]]:
        return [self.space.points[i] for i in self.indices()]

    def contains(self, p: int) -> bool:
        return bool(self.bits >> p & 1)

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, self.bits | other.bits)

    def intersect(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, self.bits & other.bits)

    def minus(self, other: "PointSet") -> "PointSet":
        return PointSet(self.space, self.bits & ~other.bits)

    def __le__(self, other: "PointSet") -> bool:
        return self.bits & ~other.bits == 0


def point_set_from_indices(space: ProjSpace, indices) -> PointSet:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return PointSet(space, bits)


class SubGeometry:
    """A flat viewed as its own PG(k, q), with index maps to the ambient."""

    __slots__ = ("flat", "sub", "to_ambient", "from_ambient")

    def __init__(
        self,
        flat: Flat,
        sub: ProjSpace,
        to_ambient: tuple[int, ...],
        from_ambient: dict[int, int],
    ):
        self.flat = flat
        self.sub = sub
        self.to_ambient = to_ambient
        self.from_ambient = from_ambient

    def mask_to_ambient(self, bits: int) -> int:
        out = 0
        for i in bits_to_indices(bits):
            out |= 1 << self.to_ambient[i]
        return out

    def mask_from_ambient(self, bits: int) -> int:
        out = 0
        for a, s in self.from_ambient.items():
            if bits >> a & 1:
                out |= 1 << s
        return out


def subgeometry(space: ProjSpace, flat: Flat) -> SubGeometry:
    key = flat.basis
    cached = space._subgeoms.get(key)
    if cached is not None:
        return cached
    k = flat.dim
    if k < 1:
        raise ValueError("subgeometry needs projective dimension >= 1")
    to_amb = list(span_points(space, flat.basis))
    geom = SubGeometry(
        flat=flat,
        sub=build_space(k, space.f),
        to_ambient=tuple(to_amb),
        from_ambient={a: s for s, a in enumerate(to_amb)},
    )
    space._subgeoms[key] = geom
    return geom
