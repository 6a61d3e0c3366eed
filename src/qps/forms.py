"""Quadratic and Hermitian forms, their point sets, perps, nuclei, cones.

A quadratic form is stored as an upper-triangular coefficient matrix A:
f(x) = sum over i <= j of A[i][j] x_i x_j.  A Hermitian form is stored as
the full Gram matrix A with A[j][i] = conj(A[i][j]) and diagonal in the
subfield fixed by conjugation: f(x) = conj(x)^T A x.

Canonical shapes (coordinates x_0 .. x_m):

    parabolic, m = 2n:    x_0^2 + x_1 x_2 + ... + x_{2n-1} x_{2n}
    hyperbolic, m = 2n+1: x_0 x_1 + x_2 x_3 + ... + x_{2n} x_{2n+1}
    elliptic, m = 2n+1:   x_0^2 + x_0 x_1 + a x_1^2 + x_2 x_3 + ...
                          with a minimal such that t^2 + t + a is irreducible
    hermitian:            x_0^{r+1} + ... + x_m^{r+1},  r = sqrt(q)
"""

from __future__ import annotations

from .gf import FieldTable, build_field
from .pg import (
    Flat,
    PointSet,
    ProjSpace,
    bits_to_indices,
    normalize_vec,
    null_space,
    scale,
    span_points,
    vadd,
)


class IncompatibleKind(ValueError):
    """Kind parameters do not fit the requested space or field."""


class NucleusHasNoPerp(ValueError):
    """perp() was asked for the nucleus of an even-order parabolic form."""


class DegenerateForm(ValueError):
    """Operation requires a non-degenerate form."""


class NotParabolicEven(ValueError):
    """Nucleus exists only for parabolic forms in even characteristic."""


class VertexMeetsBase(ValueError):
    """Cone vertex flat intersects the base set."""


class NotApplicable(ValueError):
    """Point classification not defined for these parameters."""


FAMILIES = ("parabolic", "hyperbolic", "elliptic", "hermitian")


def _is_square(q: int) -> int | None:
    r = int(round(q**0.5))
    return r if r * r == q else None


class PolarKind:
    """A classical polar space family together with ambient dimension and order.

    Kinds with the same family, m and q are equal and hash alike.
    """

    __slots__ = ("family", "m", "q")

    def __init__(self, family: str, m: int, q: int):
        if family not in FAMILIES:
            raise IncompatibleKind(f"unknown family {family!r}")
        if family == "parabolic":
            if m < 2 or m % 2 != 0:
                raise IncompatibleKind("parabolic needs even ambient dimension >= 2")
        elif family in ("hyperbolic", "elliptic"):
            if m < 1 or m % 2 != 1:
                raise IncompatibleKind(f"{family} needs odd ambient dimension >= 1")
        else:
            if m < 1:
                raise IncompatibleKind("hermitian needs ambient dimension >= 1")
            if _is_square(q) is None:
                raise IncompatibleKind("hermitian needs a square field order")
        self.family = family
        self.m = m
        self.q = q

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolarKind):
            return NotImplemented
        return (self.family, self.m, self.q) == (other.family, other.m, other.q)

    def __hash__(self) -> int:
        return hash((self.family, self.m, self.q))

    def __repr__(self) -> str:
        return f"PolarKind(family={self.family!r}, m={self.m!r}, q={self.q!r})"

    @property
    def n(self) -> int:
        """Rank parameter: m = 2n (parabolic) or m = 2n+1 (hyperbolic/elliptic)."""
        if self.family == "parabolic":
            return self.m // 2
        if self.family in ("hyperbolic", "elliptic"):
            return (self.m - 1) // 2
        raise IncompatibleKind("rank parameter is only for quadric kinds")


def n_points_pg(m: int, q: int) -> int:
    if m < 0:
        return 0
    return (q ** (m + 1) - 1) // (q - 1)


def card_parabolic(n: int, q: int) -> int:
    # |set| for parabolic kind in dimension 2n
    if n < 0:
        return 0
    return (q ** (2 * n) - 1) // (q - 1)


def card_pm(n: int, q: int, eps: int) -> int:
    # |set| for hyperbolic (eps=+1) / elliptic (eps=-1) kind in dimension 2n+1
    if n < 0:
        return 0
    return (q ** (n + 1) - eps) * (q**n + eps) // (q - 1)


def card_hermitian(m: int, q: int) -> int:
    # |set| for hermitian kind in dimension m over GF(q), q = r^2
    if m < 0:
        return 0
    r = _is_square(q)
    sm = -1 if m % 2 else 1
    return (r ** (m + 1) + sm) * (r**m - sm) // (q - 1)


def classical_cardinality(kind: PolarKind) -> int:
    if kind.family == "parabolic":
        return card_parabolic(kind.n, kind.q)
    if kind.family == "hyperbolic":
        return card_pm(kind.n, kind.q, 1)
    if kind.family == "elliptic":
        return card_pm(kind.n, kind.q, -1)
    return card_hermitian(kind.m, kind.q)


class Form:
    """A form of the kind on the space, with its zero set and bilinear matrix cached."""

    def __init__(self, kind: PolarKind, space: ProjSpace, matrix: tuple[tuple[int, ...], ...]):
        self.kind = kind
        self.space = space
        self.matrix = matrix
        self._mask: int | None = None
        self._bilinear: tuple[tuple[int, ...], ...] | None = None

    def eval_vec(self, x: tuple[int, ...]) -> int:
        f = self.space.f
        if self.kind.family == "hermitian":
            s = 0
            for i, xi in enumerate(x):
                ci = f.conj[xi]
                if ci == 0:
                    continue
                row = self.matrix[i]
                t = 0
                for j, xj in enumerate(x):
                    a = row[j]
                    if a and xj:
                        t = f.add[t][f.mul[a][xj]]
                if t:
                    s = f.add[s][f.mul[ci][t]]
            return s
        s = 0
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            row = self.matrix[i]
            for j in range(i, len(x)):
                a = row[j]
                if a and x[j]:
                    s = f.add[s][f.mul[f.mul[a][xi]][x[j]]]
        return s

    def bilinear(self) -> tuple[tuple[int, ...], ...]:
        """Matrix of the associated (sesqui)bilinear form."""
        if self._bilinear is None:
            f = self.space.f
            d = self.space.m + 1
            if self.kind.family == "hermitian":
                self._bilinear = self.matrix
            else:
                B = [[0] * d for _ in range(d)]
                for i in range(d):
                    for j in range(d):
                        a = self.matrix[i][j] if i <= j else self.matrix[j][i]
                        if i == j:
                            B[i][j] = f.add[a][a]
                        else:
                            B[i][j] = a
                self._bilinear = tuple(tuple(r) for r in B)
        return self._bilinear


def canonical_form(kind: PolarKind, space: ProjSpace) -> Form:
    if space.m != kind.m or space.q != kind.q:
        raise IncompatibleKind(
            f"kind {kind.family}/m={kind.m}/q={kind.q} does not match PG({space.m},{space.q})"
        )
    f = space.f
    d = space.m + 1
    A = [[0] * d for _ in range(d)]
    if kind.family == "parabolic":
        A[0][0] = 1
        for i in range(kind.n):
            A[2 * i + 1][2 * i + 2] = 1
    elif kind.family == "hyperbolic":
        for i in range(kind.n + 1):
            A[2 * i][2 * i + 1] = 1
    elif kind.family == "elliptic":
        a = _irreducible_a(f)
        A[0][0] = 1
        A[0][1] = 1
        A[1][1] = a
        for i in range(1, kind.n + 1):
            A[2 * i][2 * i + 1] = 1
    else:
        for i in range(d):
            A[i][i] = 1
    form = Form(kind=kind, space=space, matrix=tuple(tuple(r) for r in A))
    if not form_is_nondegenerate(form):
        raise DegenerateForm("canonical form failed the non-degeneracy check")
    return form


def _irreducible_a(f: FieldTable) -> int:
    # smallest a with t^2 + t + a having no root
    for a in range(1, f.q):
        ok = True
        for t in range(f.q):
            if f.add[f.add[f.mul[t][t]][t]][a] == 0:
                ok = False
                break
        if ok:
            return a
    raise IncompatibleKind("no irreducible t^2 + t + a found")


def radical_basis(form: Form) -> tuple[tuple[int, ...], ...]:
    """RREF basis of the radical of the associated bilinear form."""
    B = form.bilinear()
    f = form.space.f
    if form.kind.family == "hermitian":
        # x in radical iff conj(x)^T A = 0 iff A^T conj(x) = 0
        rows = [tuple(B[j][i] for j in range(len(B))) for i in range(len(B))]
        ker = null_space(f, rows)
        return tuple(tuple(f.conj[v] for v in vec) for vec in ker)
    return null_space(f, [tuple(r) for r in B])


def form_is_nondegenerate(form: Form) -> bool:
    rad = radical_basis(form)
    if not rad:
        return True
    if form.kind.family == "hermitian":
        return False
    # degenerate iff some radical point is a zero of f
    pts = form.space.points
    return all(form.eval_vec(pts[i]) != 0 for i in span_points(form.space, rad))


def point_set(form: Form) -> PointSet:
    if form._mask is None:
        bits = 0
        bit = 1
        for v in form.space.points:
            if form.eval_vec(v) == 0:
                bits |= bit
            bit <<= 1
        form._mask = bits
    return PointSet(form.space, form._mask)


def perp(form: Form, p: int) -> int:
    """Hyperplane index of the polar hyperplane of point p."""
    space = form.space
    f = space.f
    x = space.points[p]
    # w = x^T B, with conj(x) in place of x for a Hermitian form
    B = form.bilinear()
    y = [f.conj[v] for v in x] if form.kind.family == "hermitian" else x
    w = []
    for j in range(space.m + 1):
        t = 0
        for i in range(space.m + 1):
            if y[i] and B[i][j]:
                t = f.add[t][f.mul[y[i]][B[i][j]]]
        w.append(t)
    if all(v == 0 for v in w):
        if (
            form.kind.family == "parabolic"
            and f.p == 2
            and form.eval_vec(x) != 0
        ):
            raise NucleusHasNoPerp("the nucleus has no polar hyperplane")
        raise DegenerateForm("radical point outside the nucleus case")
    return space.point_index[normalize_vec(f, tuple(w))]


def nucleus_point(form: Form) -> int:
    """The nucleus of a parabolic form in even characteristic."""
    if form.kind.family != "parabolic" or form.space.f.p != 2:
        raise NotParabolicEven("nucleus needs a parabolic form with q even")
    rad = radical_basis(form)
    if len(rad) != 1 or form.eval_vec(rad[0]) == 0:
        raise DegenerateForm("radical is not a single non-singular point")
    return form.space.point_index[normalize_vec(form.space.f, rad[0])]


def cone(vertex: Flat, base: PointSet) -> PointSet:
    """Union of the flats spanned by the vertex and one base point each.

    An empty base yields the vertex itself.
    """
    space = vertex.space
    if base.space is not space:
        raise ValueError("vertex and base live in different spaces")
    vmask = vertex.mask()
    if vmask & base.bits:
        raise VertexMeetsBase("vertex flat meets the base")
    f = space.f
    # every vector of the vertex subspace: zero and the multiples of its points
    subvectors = [(0,) * (space.m + 1)] + [
        scale(f, c, space.points[i])
        for i in span_points(space, vertex.basis)
        for c in range(1, f.q)
    ]
    bits = vmask
    for b in bits_to_indices(base.bits):
        bvec = space.points[b]
        for w in subvectors:
            bits |= 1 << space.point_index[normalize_vec(f, vadd(f, w, bvec))]
    return PointSet(space, bits)


def is_cone_vertex(bits: int, v: int, lines) -> bool:
    """True when each of the given lines through v meets bits, off v, in
    either no point or all of its points."""
    rest = ~(1 << v)
    for line in lines:
        t = line & bits & rest
        if t and t != line & rest:
            return False
    return True


def cone_vertices(s: PointSet) -> list[int]:
    """Points V such that every line through V meets s in 0 or q points off V."""
    space = s.space
    return [
        v for v in range(space.n_points) if is_cone_vertex(s.bits, v, space.lines_through(v))
    ]


def point_class(form: Form, p: int) -> str:
    """Classify a point: on / nucleus / internal / external."""
    space = form.space
    x = space.points[p]
    if form.eval_vec(x) == 0:
        return "on"
    if form.kind.family == "parabolic" and space.f.p == 2:
        if p == nucleus_point(form):
            return "nucleus"
        raise NotApplicable("off-points are not classified for q even")
    if form.kind.family != "parabolic" or space.q % 2 == 0:
        raise NotApplicable("internal/external needs a parabolic form with q odd")
    h = perp(form, p)
    sec = (point_set(form).bits & space.incidence[h]).bit_count()
    n = form.kind.n
    elliptic_size = card_pm(n - 1, space.q, -1)
    hyperbolic_size = card_pm(n - 1, space.q, 1)
    if sec == elliptic_size:
        return "internal"
    if sec == hyperbolic_size:
        return "external"
    raise DegenerateForm("perp section size matches no classical type")
