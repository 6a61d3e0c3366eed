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

import functools
from operator import or_

from .gf import FieldTable
from .pg import (
    Flat,
    PointSet,
    ProjSpace,
    _ZERO_TO_ONE,
    _image,
    _planes,
    bits_to_indices,
    indices_to_bits,
    normalize_vec,
    null_space,
    rref,
    span_points,
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


def _cardinality(family: str, m: int, q: int) -> int:
    """|set| of the family's classical polar space in PG(m, q); 0 below the
    family's least dimension, where the base of a point cone is empty."""
    if family == "parabolic":
        return card_parabolic(m // 2, q)
    if family == "hermitian":
        return card_hermitian(m, q)
    return card_pm((m - 1) // 2, q, 1 if family == "hyperbolic" else -1)


def classical_cardinality(kind: PolarKind) -> int:
    return _cardinality(kind.family, kind.m, kind.q)


class Form:
    """A form of the kind on the space, with its zero set and bilinear matrix cached."""

    def __init__(self, kind: PolarKind, space: ProjSpace, matrix: tuple[tuple[int, ...], ...]):
        self.kind = kind
        self.space = space
        self.matrix = matrix
        self._mask: int | None = None
        self._bilinear: tuple[tuple[int, ...], ...] | None = None

    def eval_vec(self, x: tuple[int, ...]) -> int:
        """f(x) = Σᵢ uᵢ·Σₖ aᵢₖxₖ, with u = x, or conj(x) for a Hermitian form,
        and k running from i over the upper-triangular quadratic matrix and
        from 0 over the Gram matrix, as ``_value_planes`` reads it."""
        f = self.space.f
        add, mul, conj = f.add, f.mul, f.conj
        hermitian = self.kind.family == "hermitian"
        s = 0
        for i, row in enumerate(self.matrix):
            u = conj[x[i]] if hermitian else x[i]
            if u:
                t = 0
                for k in range(0 if hermitian else i, len(x)):
                    a = row[k]
                    if a and x[k]:
                        t = add[t][mul[a][x[k]]]
                if t:
                    s = add[s][mul[u][t]]
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
        space = form.space
        if space.f.p == 2:
            # the points where no bit-plane of the form's value is set
            form._mask = space.all_mask ^ functools.reduce(or_, _value_planes(form))
        else:
            # one byte per point, its value; read as the incidence rows are
            zeros = bytes(map(form.eval_vec, space.points)).translate(_ZERO_TO_ONE)
            form._mask = int(zeros[::-1], 2)
    return PointSet(form.space, form._mask)


def _value_planes(form: Form) -> list[int]:
    """The bit-planes of the form's value over all points of PG(m, 2^e).

    Each term a·u·x_k, with u = x_i, or conj(x_i) for a Hermitian form, is
    the sum over the bits c of u of u_c·(a·2^c)·x_k: plane j gains the AND of
    u's plane c and plane j of (a·2^c)·x_k, read off ``pg._planes``.
    """
    f = form.space.f
    planes = _planes(form.space)
    hermitian = form.kind.family == "hermitian"
    out = [0] * f.e
    for i, row in enumerate(form.matrix):
        u = _image(planes[i][1], f.conj) if hermitian else planes[i][1]
        for k in range(0 if hermitian else i, len(row)):
            a = row[k]
            if not a:
                continue
            for c, u_c in enumerate(u):
                for j, w_j in enumerate(planes[k][f.mul[a][1 << c]]):
                    out[j] ^= u_c & w_j
    return out


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
    bits = vmask
    for b in bits_to_indices(base.bits):
        bits |= indices_to_bits(span_points(space, rref(space.f, [*vertex.basis, space.points[b]])))
    return PointSet(space, bits)


def is_cone_vertex(space: ProjSpace, bits: int, v: int) -> bool:
    """True when each line of space through v meets bits, off v, in either no
    point or all of its points.  For bits inside a flat through v, only the
    lines in the flat can fail: any other line through v meets it in v alone."""
    rest = ~(1 << v)
    for line in space.lines_through(v):
        t = line & bits & rest
        if t and t != line & rest:
            return False
    return True


def cone_vertices(s: PointSet) -> list[int]:
    """Points V such that every line through V meets s in 0 or q points off V."""
    space = s.space
    return [v for v in range(space.n_points) if is_cone_vertex(space, s.bits, v)]


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
