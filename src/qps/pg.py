"""Projective spaces PG(m, q): points, hyperplanes, flats, incidence bitmasks.

Points are normalized homogeneous coordinate tuples (first nonzero entry 1,
entries encoded as field integers) listed in lexicographic order; a point's
index is its position in that list.  Hyperplanes use dual coordinates under
the same normalization, so hyperplane index h corresponds to the dual vector
points[h].  Point sets are plain int bitmasks: bit i set means point i is in
the set.  ``indices_to_bits`` builds a mask from point indices and
``bits_to_indices`` reads them back.

Field values are widened only by ``_values``, from one table of v + a·c per
field: ``_dots(space, h)`` is the bytes of h·x over all points x, and
``span_points`` reads a span's points off byte columns of their coordinates.
For odd q, incidence row h is the zero bytes of ``_dots``.  Over GF(2^e),
whose addition is XOR of the encodings, a whole space is held as bit-planes
instead: ``_planes(space)[i][a]`` holds, for each bit j, the mask of points x
with bit j of a·x_i set, read off ``_dots`` of the coordinate vectors and
mapped by ``_image``, as x -> a·x is GF(2)-linear.  A zero set is then the
complement of the OR of its value's planes, each an XOR of such masks: row h
XORs the planes of h_i·x_i, and ``forms.point_set`` ANDs pairs of them.

``lines_through(p)`` spans p with each point of one coordinate hyperplane,
and the points of a line share its mask; the space holds those masks, and
the incidence, under one size cap, ``MAX_TABLE_BYTES``, checked before each
build.

Hyperplane h is dual point h, so the hyperplanes through a codimension-2 flat
are, as indices, the points of a line.  ``all_lines()`` streams every line
once, at its lowest point, as a list of point indices, and holds none of
them: the number of lines, not their size, is capped, at ``MAX_LINES``.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from operator import or_, xor

from .gf import FieldTable, build_field


class SpaceTooLarge(ValueError):
    """Point count or a bulk table would exceed its guard."""


class ZeroVector(ValueError):
    """The zero vector does not define a projective point."""


class SamePoint(ValueError):
    """Two distinct points are required."""


MAX_POINTS = 10**6
# cap on the estimated size of the incidence, at one ceil(n/8) byte row per
# hyperplane, and of the lines_through masks a space holds, at one int per line
MAX_TABLE_BYTES = 256 * 2**20
MAX_LINES = 2**20  # cap on the lines all_lines() streams, as on the sets a census lists


def dot(f: FieldTable, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    add = f.add
    mul = f.mul
    s = 0
    for a, b in zip(u, v):
        s = add[s][mul[a][b]]
    return s


def normalize_vec(f: FieldTable, v: tuple[int, ...]) -> tuple[int, ...]:
    for x in v:
        if x != 0:
            if x == 1:
                return tuple(v)
            row = f.mul[f.inv[x]]
            return tuple(row[y] for y in v)
    raise ZeroVector("zero vector has no projective point")


@functools.cache
def _steps(f: FieldTable) -> list[list[bytes]]:
    """steps[a][v]: the bytes v + a·c for c in GF(q).  Lists, as ``map`` calls
    ``list.__getitem__`` faster than the tuple one."""
    return [
        [bytes(f.add[v][f.mul[a][c]] for c in range(f.q)) for v in range(f.q)]
        for a in range(f.q)
    ]


def _values(steps, head: int, col) -> bytes:
    """The bytes of head + Σ colᵢ·tᵢ over t in GF(q)^len(col), in product order."""
    if not col:
        return bytes((head,))
    vals = steps[col[0]][head]
    for a in col[1:]:
        vals = b"".join(map(steps[a].__getitem__, vals))
    return vals


def _dots(space: "ProjSpace", h: tuple[int, ...]) -> bytes:
    """The bytes of h·x over all points x: one ``_values`` block per point
    (0, ..., 0, 1, tail), by lead."""
    steps = _steps(space.f)
    return b"".join([_values(steps, h[lead], h[lead + 1 :]) for lead in range(space.m, -1, -1)])


def _image(planes, table) -> tuple[int, ...]:
    """The bit-planes of L(x) from those of x, for a GF(2)-linear map L given
    by its table of values: plane j is the XOR of the planes c with bit j of
    L(2^c) set."""
    images = [table[1 << c] for c in range(len(planes))]
    return tuple(
        functools.reduce(xor, [pl for pl, v in zip(planes, images) if v >> j & 1], 0)
        for j in range(len(planes))
    )


def _planes(space: "ProjSpace") -> tuple[tuple[tuple[int, ...], ...], ...]:
    """planes[i][a][j]: the mask of points x with bit j of a·x_i set, over GF(2^e)."""
    if space._planes is None:
        f = space.f
        planes = []
        for i in range(space.m + 1):
            col = _dots(space, (0,) * i + (1,) + (0,) * (space.m - i))
            bits = [int(col.translate(_BIT_TO_ONE[c])[::-1], 2) for c in range(f.e)]
            planes.append(tuple(_image(bits, row) for row in f.mul))
        space._planes = tuple(planes)
    return space._planes


def _char2_rows(space: "ProjSpace") -> list[int]:
    """The incidence rows of PG(m, 2^e), in point order: row h is the points
    where no plane of h·x = Σ h_i·x_i is set.  The sums over h's coordinates
    before the last are shared, depth first, by the hyperplanes they lead."""
    planes, m, full = _planes(space), space.m, space.all_mask
    rows = [full ^ functools.reduce(or_, planes[m][1])]  # h = (0, ..., 0, 1)

    def extend(acc: tuple[int, ...], i: int) -> None:
        if i == m:
            rows.extend([full ^ functools.reduce(or_, map(xor, acc, pl)) for pl in planes[m]])
            return
        for pl in planes[i]:
            extend(tuple(map(xor, acc, pl)), i + 1)

    for lead in range(m - 1, -1, -1):
        extend(planes[lead][1], lead + 1)
    return rows


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
    pivot_cols = [row.index(1) for row in red]  # each RREF row leads with 1
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
        # PG(m, q) has over 2^m points: no power of q for an m over the cap
        if m >= MAX_POINTS.bit_length() or (n_points := (q ** (m + 1) - 1) // (q - 1)) > MAX_POINTS:
            raise SpaceTooLarge(f"PG({m},{q}) has more than {MAX_POINTS} points")
        self.m = m
        self.f = f
        self.q = q
        self.n_points = n_points
        self.points: tuple[tuple[int, ...], ...] = tuple(
            (0,) * lead + (1,) + tail
            for lead in range(m, -1, -1)
            for tail in itertools.product(range(q), repeat=m - lead)
        )
        self._ids = tuple(range(n_points))  # one int object per index, shared by every span
        self.point_index: dict[tuple[int, ...], int] = dict(zip(self.points, self._ids))
        self.all_mask = (1 << n_points) - 1
        self._incidence: tuple[int, ...] | None = None
        self._planes: tuple | None = None  # _planes(self), for q even
        self._lines: dict[int, tuple[int, ...]] = {}  # p -> lines_through(p)
        self._line_masks: dict[int, int] = {}  # each mask in _lines -> itself, held once
        self._line_bytes = 0  # estimated size of the line masks held
        self._flat_masks: dict[tuple, int] = {}
        self._subgeoms: dict[tuple, SubGeometry] = {}
        self._hyperplane_flats: dict[int, Flat] = {}

    def __repr__(self) -> str:
        return f"ProjSpace(m={self.m}, q={self.q})"

    @property
    def incidence(self) -> tuple[int, ...]:
        """incidence[h] = bitmask of points on hyperplane h: the zeros of h·x,
        from bit-planes for q even and from the bytes of h·x for q odd."""
        if self._incidence is None:
            self._check_table("incidence", self.n_points * ((self.n_points + 7) // 8))
            if self.f.p == 2:
                self._incidence = tuple(_char2_rows(self))
            else:
                self._incidence = tuple(
                    int(_dots(self, h).translate(_ZERO_TO_ONE)[::-1], 2) for h in self.points
                )
        return self._incidence

    def lines_through(self, p: int) -> tuple[int, ...]:
        """Bitmasks of the (n-1)/q lines through point p, built on first use.

        Line i joins p to the i-th point x, ascending, of the coordinate
        hyperplane x_j = 0, j the pivot (first non-zero coordinate) of p.  x is
        the line's lowest point other than p: the others, x + c·p with c ≠ 0,
        have pivot j if x has a later one, and else agree with x up to
        coordinate j, where x has 0.  Of p and x, the higher index has the
        earlier pivot, so it leads the echelon basis that is spanned.  The
        guard counts one mask per line per point, though the q + 1 points of
        a line share one.
        """
        if p not in self._lines:
            pts = self.points
            xs = self._coordinate_hyperplane(pts[p].index(1))
            self._hold_lines(len(xs))
            spans = (span_points(self, (pts[max(p, x)], pts[min(p, x)])) for x in xs)
            lines = list(map(indices_to_bits, spans))
            # a line met before at another point is held as that point's mask
            self._lines[p] = tuple(map(self._line_masks.setdefault, lines, lines))
        return self._lines[p]

    def all_lines(self) -> Iterator[list[int]]:
        """The point indices of every line, by (lowest point, second-lowest
        point): for each p, the span of (x, p) for each x above p on p's
        coordinate hyperplane.  The count is checked when called, not at the
        first line."""
        m, q, pts = self.m, self.q, self.points
        count = self.n_points * (q**m - 1) // (q**2 - 1)
        if count > MAX_LINES:
            raise SpaceTooLarge(f"PG({m},{q}) has {count} lines, over the cap of {MAX_LINES}")
        planes = [self._coordinate_hyperplane(j) for j in range(m + 1)]
        return (
            span_points(self, (pts[x], pts[p]))
            for p, v in enumerate(pts)
            for x in planes[v.index(1)]
            if x > p
        )

    def _coordinate_hyperplane(self, j: int) -> list[int]:
        """The points x with x_j = 0, ascending."""
        return [x for x, v in enumerate(self.points) if not v[j]]

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
# _planes: field value v becomes the digit of bit c of v, for c < 8
_BIT_TO_ONE = [(b"0" * (1 << c) + b"1" * (1 << c)) * (128 >> c) for c in range(8)]
# bits_to_indices: the positions of the set bits of each byte value; bytes
# b and b + 2^c, b < 2^c, differ in bit c alone
_BYTE_BITS: list[tuple[int, ...]] = [()]
for _c in range(8):
    _BYTE_BITS += [bits + (_c,) for bits in _BYTE_BITS]
# span_points: field value v becomes the digit int(_, q) reads as v (q <= 36)
_DIGITS = b"0123456789abcdefghijklmnopqrstuvwxyz".ljust(256, b"0")


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


def span_points(space: ProjSpace, basis) -> list[int]:
    """Point indices of span(basis) in coefficient order (that of
    ``SubGeometry.to_ambient``), for an echelon basis: each row leads with 1,
    at a column (its pivot) right of the row above's, else ``ValueError``.

    A combination whose first coefficient, 1, is at row r is normalized, with
    row r's pivot j; each coordinate after j is a ``_values`` column over the
    block, and the index is offset(j) plus those coordinates as base-q digits.
    """
    q, m = space.q, space.m
    pivots: list[int] = []
    for row in basis:
        j = row.index(1) if 1 in row else m + 1
        if j > m or any(row[:j]) or (pivots and j <= pivots[-1]):
            raise ValueError("span_points needs an echelon basis")
        pivots.append(j)
    steps, ids = _steps(space.f), space._ids
    cols = list(zip(*basis))
    out: list[int] = []
    for r in range(len(basis) - 1, -1, -1):
        j = pivots[r]
        n = q ** (len(basis) - 1 - r)
        # coordinates j+1..m, column by column, after a 0 column for j = m
        digits = b"".join(
            [bytes(n)] + [_values(steps, c[r], c[r + 1 :]) for c in cols[j + 1 :]]
        ).translate(_DIGITS)
        offset = (q ** (m - j) - 1) // (q - 1)
        out += [ids[offset + int(digits[p::n], q)] for p in range(n)]
    return out


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
        masks = self.space._flat_masks
        mask = masks.get(self.basis)
        if mask is None:
            mask = masks[self.basis] = indices_to_bits(span_points(self.space, self.basis))
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
    # each codimension-2 flat is cut out by the hyperplanes of one line
    pts = space.points
    bases = sorted(null_space(space.f, [pts[hs[0]], pts[hs[1]]]) for hs in space.all_lines())
    return tuple(Flat(space, b) for b in bases)


def line_through(space: ProjSpace, p: int, r: int) -> "PointSet":
    if p == r:
        raise SamePoint("line needs two distinct points")
    basis = rref(space.f, [space.points[p], space.points[r]])
    return point_set_from_indices(space, span_points(space, basis))


def bits_to_indices(mask: int) -> list[int]:
    """The set bits of a non-negative mask, ascending, read byte by byte."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return [k + c for k, byte in zip(range(0, 8 * len(raw), 8), raw) if byte for c in _BYTE_BITS[byte]]


def indices_to_bits(indices) -> int:
    """The mask with the given bits set: the inverse of ``bits_to_indices``."""
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


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
    return PointSet(space, indices_to_bits(indices))


class SubGeometry:
    """A flat viewed as its own PG(k, q), with index maps to the ambient and
    the flat's ambient mask."""

    __slots__ = ("flat", "sub", "to_ambient", "from_ambient", "ambient_mask")

    def __init__(
        self,
        flat: Flat,
        sub: ProjSpace,
        to_ambient: tuple[int, ...],
        from_ambient: dict[int, int],
        ambient_mask: int,
    ):
        self.flat = flat
        self.sub = sub
        self.to_ambient = to_ambient
        self.from_ambient = from_ambient
        self.ambient_mask = ambient_mask

    def mask_to_ambient(self, bits: int) -> int:
        return indices_to_bits(map(self.to_ambient.__getitem__, bits_to_indices(bits)))

    def mask_from_ambient(self, bits: int) -> int:
        """The points of bits inside the flat, in the flat's coordinates."""
        inside = bits_to_indices(bits & self.ambient_mask)
        return indices_to_bits(map(self.from_ambient.__getitem__, inside))


def subgeometry(space: ProjSpace, flat: Flat) -> SubGeometry:
    key = flat.basis
    cached = space._subgeoms.get(key)
    if cached is not None:
        return cached
    if flat.dim < 1:
        raise ValueError("subgeometry needs projective dimension >= 1")
    to_amb = span_points(space, flat.basis)
    sub = build_space(flat.dim, space.f)
    mask = indices_to_bits(to_amb)
    geom = SubGeometry(flat, sub, tuple(to_amb), {a: s for s, a in enumerate(to_amb)}, mask)
    space._subgeoms[key] = geom
    return geom
