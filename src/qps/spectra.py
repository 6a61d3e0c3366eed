"""Hyperplane-intersection spectra, admissible-size profiles, nucleus conditions.

A point set is quasi-polar for a kind when every hyperplane meets it in one
of the kind's admissible sizes.  For the two-size kinds the set's cardinality
is then forced up to two named exceptional shapes (a line for the elliptic
kind in PG(3, q), a Baer subplane for the Hermitian kind in a plane); the
three-size parabolic kind does not force cardinality.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .forms import (
    IncompatibleKind,
    PolarKind,
    card_hermitian,
    card_parabolic,
    card_pm,
    classical_cardinality,
    n_points_pg,
    _is_square,
)
from .pg import PointSet, ProjSpace, bits_to_indices, point_set_from_indices


class NotQuasiPolar(ValueError):
    """Operation requires a quasi-polar point set."""


class NotEvenDimension(ValueError):
    """Nucleus conditions are defined in even ambient dimension only."""


class InvariantViolated(RuntimeError):
    """An internal consistency check failed: a bug, not a bad input."""


@dataclass(frozen=True)
class SpectrumProfile:
    kind: PolarKind
    sizes: tuple[int, ...]
    singular_size: int
    expected_counts: dict[int, int]
    cardinality: int
    cardinality_forced: bool


_PROFILES: dict[PolarKind, SpectrumProfile] = {}


def profile(kind: PolarKind) -> SpectrumProfile:
    """Admissible hyperplane-section sizes and their counts for the classical set."""
    if kind in _PROFILES:
        return _PROFILES[kind]
    q = kind.q
    m = kind.m
    if kind.family == "parabolic":
        n = kind.n
        sizes = (
            card_pm(n - 1, q, -1),
            q * card_parabolic(n - 1, q) + 1,
            card_pm(n - 1, q, 1),
        )
        singular = sizes[1]
    elif kind.family == "hyperbolic":
        n = kind.n
        sizes = (card_parabolic(n, q), q * card_pm(n - 1, q, 1) + 1)
        singular = sizes[1]
    elif kind.family == "elliptic":
        n = kind.n
        sizes = (q * card_pm(n - 1, q, -1) + 1, card_parabolic(n, q))
        singular = sizes[0]
    else:
        sizes = (q * card_hermitian(m - 2, q) + 1, card_hermitian(m - 1, q))
        singular = sizes[0]
        if m % 2 == 1:
            sizes = (sizes[1], sizes[0])
    ordered = tuple(sorted(set(sizes)))
    counts = _classical_counts(kind, ordered)
    prof = SpectrumProfile(
        kind=kind,
        sizes=ordered,
        singular_size=singular,
        expected_counts=counts,
        cardinality=classical_cardinality(kind),
        cardinality_forced=kind.family != "parabolic",
    )
    _PROFILES[kind] = prof
    return prof


def _classical_counts(kind: PolarKind, sizes: tuple[int, ...]) -> dict[int, int]:
    """Counts per section size for the classical set, by double counting."""
    q = kind.q
    m = kind.m
    S = classical_cardinality(kind)
    H = Fraction(n_points_pg(m, q))
    t1 = Fraction(n_points_pg(m - 1, q))
    t2 = Fraction(n_points_pg(m - 2, q))
    rhs = [H, S * t1, S * (S - 1) * t2]
    us = [Fraction(u) for u in sizes]
    if len(us) == 1:
        counts = [H]
        if us[0] * counts[0] != rhs[1]:
            raise InvariantViolated(f"{kind}: section count fails the point count")
    elif len(us) == 2:
        u, v = us
        a = (rhs[1] - v * H) / (u - v)
        b = H - a
        counts = [a, b]
        if u * (u - 1) * a + v * (v - 1) * b != rhs[2]:
            raise InvariantViolated(f"{kind}: section counts fail the pair count")
    else:
        counts = _solve3(us, rhs)
    out = {}
    for u, c in zip(sizes, counts):
        if c.denominator != 1 or c < 0:
            raise InvariantViolated(f"{kind}: section count {c} for size {u}")
        out[u] = int(c)
    return out


def _solve3(us: list[Fraction], rhs: list[Fraction]) -> list[Fraction]:
    rows = [
        [Fraction(1)] * 3 + [rhs[0]],
        [u for u in us] + [rhs[1]],
        [u * (u - 1) for u in us] + [rhs[2]],
    ]
    for c in range(3):
        piv = next(i for i in range(c, 3) if rows[i][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(3):
            if i != c and rows[i][c] != 0:
                coef = rows[i][c]
                rows[i] = [x - coef * y for x, y in zip(rows[i], rows[c])]
    return [rows[i][3] for i in range(3)]


@dataclass(frozen=True)
class Spectrum:
    histogram: dict[int, int]
    per_hyperplane: tuple[int, ...]


def spectrum(s: PointSet) -> Spectrum:
    """Section size of s for every hyperplane, plus the size histogram."""
    bits = s.bits
    per = [(bits & hmask).bit_count() for hmask in s.space.incidence]
    hist: dict[int, int] = {}
    for v in per:
        hist[v] = hist.get(v, 0) + 1
    return Spectrum(histogram=dict(sorted(hist.items())), per_hyperplane=tuple(per))


@dataclass(frozen=True)
class Classification:
    kind: PolarKind
    size: int
    histogram: dict[int, int]
    quasi_polar: bool
    classical_size: bool
    exceptional: str | None


def _profile_for(s: PointSet, kind: PolarKind) -> SpectrumProfile:
    if s.space.m != kind.m or s.space.q != kind.q:
        raise IncompatibleKind("kind does not match the ambient space")
    return profile(kind)


def classify(s: PointSet, kind: PolarKind) -> Classification:
    """Spectrum-based verdict: is s quasi-polar for the kind?"""
    prof = _profile_for(s, kind)
    spec = spectrum(s)
    quasi = set(spec.histogram) <= set(prof.sizes)
    size = s.size
    exceptional = None
    if quasi and kind.family == "elliptic" and kind.m == 3 and size == kind.q + 1:
        if _collinear(s):
            exceptional = "line"
    if quasi and kind.family == "hermitian" and kind.m == 2:
        r = _is_square(kind.q)
        if size == r * r + r + 1:
            exceptional = "baer_subplane"
    return Classification(
        kind=kind,
        size=size,
        histogram=spec.histogram,
        quasi_polar=quasi,
        classical_size=size == prof.cardinality,
        exceptional=exceptional,
    )


def _collinear(s: PointSet) -> bool:
    from .pg import rref

    vecs = s.vectors()
    return len(vecs) >= 2 and len(rref(s.space.f, vecs)) == 2


def singular_hyperplanes(s: PointSet, kind: PolarKind) -> list[int]:
    """Hyperplanes meeting s in the singular (cone) section size."""
    prof = _profile_for(s, kind)
    spec = spectrum(s)
    if not set(spec.histogram) <= set(prof.sizes):
        raise NotQuasiPolar("set is not quasi-polar for the kind")
    return [h for h, v in enumerate(spec.per_hyperplane) if v == prof.singular_size]


@dataclass(frozen=True)
class RootsReport:
    kind: PolarKind
    classical_root: int
    other_root: Fraction
    other_integral: bool
    tag: str | None


def cardinality_roots(kind: PolarKind) -> RootsReport:
    """Both roots of the quadratic forced on the cardinality by a two-size spectrum."""
    if kind.family == "parabolic":
        raise IncompatibleKind("cardinality is not forced for the parabolic kind")
    prof = profile(kind)
    u, v = (Fraction(x) for x in prof.sizes)
    q = kind.q
    m = kind.m
    if kind.m < 2:
        raise IncompatibleKind("no quadratic constraint in dimension below 2")
    H = Fraction(n_points_pg(m, q))
    t1 = Fraction(n_points_pg(m - 1, q))
    t2 = Fraction(n_points_pg(m - 2, q))
    S = Fraction(prof.cardinality)
    # t2*S^2 - (t2 + t1*(u+v-1))*S + u*v*H = 0
    if t2 * S * S - (t2 + t1 * (u + v - 1)) * S + u * v * H != 0:
        raise InvariantViolated(f"{kind}: classical cardinality is not a root")
    other = u * v * H / t2 / S
    if S + other != 1 + t1 * (u + v - 1) / t2:
        raise InvariantViolated(f"{kind}: roots do not sum to the linear coefficient")
    tag = None
    if other.denominator == 1:
        if kind.family == "elliptic" and m == 3 and other == q + 1:
            tag = "line"
        elif kind.family == "hermitian" and m == 2:
            r = _is_square(q)
            if other == r * r + r + 1:
                tag = "baer_subplane"
    return RootsReport(
        kind=kind,
        classical_root=prof.cardinality,
        other_root=other,
        other_integral=other.denominator == 1,
        tag=tag,
    )


def _line_nuclei_mask(space: ProjSpace, bits: int, sizes: Iterable[int]) -> int:
    """Points off the set ``bits`` through which every line is a 1-secant of it.

    ``sizes`` are the |set ∩ h| in hyperplane order, read lazily.  For m >= 2
    N off the set qualifies iff every hyperplane through N meets it in
    theta_{m-2} points: the lines through N in such a hyperplane are a
    hyperplane of the quotient PG(m-1, q), whose point-hyperplane incidence
    matrix is invertible.  In PG(1, q) the one line is the whole space.
    """
    off = space.all_mask & ~bits
    if space.m == 1:
        return off if bits.bit_count() == 1 else 0
    target = n_points_pg(space.m - 2, space.q)
    for hmask, v in zip(space.incidence, sizes):
        if v != target:
            off &= ~hmask
            if not off:
                break
    return off


def line_nuclei(s: PointSet) -> Iterator[int]:
    """Points off s through which every line is a 1-secant of s, ascending."""
    sizes = ((s.bits & hmask).bit_count() for hmask in s.space.incidence)
    yield from bits_to_indices(_line_nuclei_mask(s.space, s.bits, sizes))


def find_line_nucleus(s: PointSet) -> int | None:
    """First point off s through which every line is a 1-secant of s."""
    return next(line_nuclei(s), None)


def section_type(kind: PolarKind, size: int) -> str | None:
    """Type of a hyperplane section of the given size; None when not admissible.

    "singular" for the cone size, "elliptic" or "hyperbolic" for the other
    parabolic sizes, "nonsingular" for the other size of a two-size kind.
    """
    prof = profile(kind)
    if size == prof.singular_size:
        return "singular"
    if size not in prof.sizes:
        return None
    if kind.family == "parabolic":
        return "elliptic" if size == prof.sizes[0] else "hyperbolic"
    return "nonsingular"


@dataclass(frozen=True)
class ConditionReport:
    size: int
    a: bool
    b: bool
    b_prime: bool
    c: bool
    c_prime: bool
    d: bool
    d_prime: bool
    singular_count: int
    expected_singular: int
    nucleus_candidate: int | None
    b_candidates: int = field(repr=False)
    c_candidates: int = field(repr=False)
    d_common: int = field(repr=False)
    d_prime_candidates: int = field(repr=False)

    def flags(self) -> dict[str, bool]:
        return {
            "a": self.a,
            "b": self.b,
            "b_prime": self.b_prime,
            "c": self.c,
            "c_prime": self.c_prime,
            "d": self.d,
            "d_prime": self.d_prime,
        }


def nucleus_conditions(s: PointSet) -> ConditionReport:
    """Evaluate the nucleus-style conditions for a set in even ambient dimension.

    a: cardinality equals the classical parabolic value.
    b: some point N off s lies on every hyperplane whose section size is not
       one of the two non-singular sizes.
    b': every section size is admissible for the parabolic kind.
    c: some point N off s sees every line through it as a 1-secant of s,
       read from the section sizes: N is on no hyperplane of non-cone size.
    c': every codimension-2 flat lies in at least one singular-size hyperplane.
    d: the singular-size hyperplanes exist and share a common point.
    d': the singular-size hyperplanes are exactly those through one point.
    """
    space = s.space
    if space.m % 2 != 0:
        raise NotEvenDimension("conditions are defined for even ambient dimension")
    q = space.q
    kind = PolarKind("parabolic", space.m, q)
    prof = profile(kind)
    ell, cone_size, hyp = prof.sizes
    spec = spectrum(s)
    per = spec.per_hyperplane
    inc = space.incidence
    off = space.all_mask & ~s.bits

    a = s.size == prof.cardinality
    b_prime = set(spec.histogram) <= set(prof.sizes)

    bad = [h for h, v in enumerate(per) if v != ell and v != hyp]
    b_mask = space.all_mask
    for h in bad:
        b_mask &= inc[h]
        if not b_mask:
            break
    b_mask &= off

    # the cone size is theta_{m-2}: c, d and d' read one singular/other split
    c_mask = _line_nuclei_mask(space, s.bits, per)
    singular = [h for h, v in enumerate(per) if v == cone_size]
    d_mask = space.all_mask if singular else 0
    for h in singular:
        d_mask &= inc[h]
        if not d_mask:
            break

    t1 = n_points_pg(space.m - 1, q)
    dp_mask = d_mask if len(singular) == t1 else 0

    # hyperplane h is dual point h: the hyperplanes through a codim-2 flat form a line
    sing_mask = point_set_from_indices(space, singular).bits
    c_prime = all(line & sing_mask for line in space.all_lines())

    candidate = None
    if c_mask:
        candidate = (c_mask & -c_mask).bit_length() - 1
    elif dp_mask:
        candidate = (dp_mask & -dp_mask).bit_length() - 1

    return ConditionReport(
        size=s.size,
        a=a,
        b=bool(b_mask),
        b_prime=b_prime,
        c=bool(c_mask),
        c_prime=c_prime,
        d=bool(singular) and bool(d_mask),
        d_prime=bool(dp_mask),
        singular_count=len(singular),
        expected_singular=(q ** space.m - 1) // (q - 1),
        nucleus_candidate=candidate,
        b_candidates=b_mask,
        c_candidates=c_mask,
        d_common=d_mask,
        d_prime_candidates=dp_mask,
    )
