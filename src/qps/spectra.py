"""Hyperplane-intersection spectra, admissible-size profiles, nucleus conditions.

A point set is quasi-polar for a kind when every hyperplane meets it in one
of the kind's admissible sizes.  For the two-size kinds the set's cardinality
is then forced up to two named exceptional shapes (a line for the elliptic
kind in PG(3, q), a Baer subplane for the Hermitian kind in a plane); the
three-size parabolic kind does not force cardinality.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

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
from .pg import PointSet, ProjSpace, bits_to_indices


class NotQuasiPolar(ValueError):
    """Operation requires a quasi-polar point set."""


class NotEvenDimension(ValueError):
    """Nucleus conditions are defined in even ambient dimension only."""


class InvariantViolated(RuntimeError):
    """An internal consistency check failed: a bug, not a bad input."""


class SpectrumProfile:
    """Admissible section sizes of a kind and their counts for the classical set."""

    def __init__(
        self,
        kind: PolarKind,
        sizes: tuple[int, ...],
        singular_size: int,
        expected_counts: dict[int, int],
        cardinality: int,
        cardinality_forced: bool,
    ):
        self.kind = kind
        self.sizes = sizes
        self.singular_size = singular_size
        self.expected_counts = expected_counts
        self.cardinality = cardinality
        self.cardinality_forced = cardinality_forced


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
    """Counts per section size for the classical set, by double counting.

    The counts c_u satisfy sum c_u = H, sum u c_u = S t1 and
    sum u (u - 1) c_u = S (S - 1) t2.  The first len(sizes) equations give
    them by Cramer's rule, in integers; the others are checked.
    """
    q = kind.q
    m = kind.m
    S = classical_cardinality(kind)
    rhs = (n_points_pg(m, q), S * n_points_pg(m - 1, q), S * (S - 1) * n_points_pg(m - 2, q))
    eqs = [(1,) * len(sizes), sizes, tuple(u * (u - 1) for u in sizes)]
    rows = eqs[: len(sizes)]
    det = _det(rows)
    counts = []
    for i, u in enumerate(sizes):
        num = _det([r[:i] + (b,) + r[i + 1 :] for r, b in zip(rows, rhs)])
        if num % det or num // det < 0:
            raise InvariantViolated(f"{kind}: section count {num}/{det} for size {u}")
        counts.append(num // det)
    for row, b in zip(eqs[len(sizes) :], rhs[len(sizes) :]):
        if sum(x * c for x, c in zip(row, counts)) != b:
            raise InvariantViolated(f"{kind}: section counts fail the double count")
    return dict(zip(sizes, counts))


def _det(rows) -> int:
    """Determinant of a square integer matrix, by expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


class Spectrum:
    """Section size per hyperplane, and how many hyperplanes have each size."""

    __slots__ = ("histogram", "per_hyperplane")

    def __init__(self, histogram: dict[int, int], per_hyperplane: tuple[int, ...]):
        self.histogram = histogram
        self.per_hyperplane = per_hyperplane


def spectrum(s: PointSet) -> Spectrum:
    """Section size of s for every hyperplane, plus the size histogram."""
    bits = s.bits
    per = [(bits & hmask).bit_count() for hmask in s.space.incidence]
    hist: dict[int, int] = {}
    for v in per:
        hist[v] = hist.get(v, 0) + 1
    return Spectrum(histogram=dict(sorted(hist.items())), per_hyperplane=tuple(per))


class Classification:
    """The spectrum verdict of one set for one kind."""

    def __init__(
        self,
        kind: PolarKind,
        size: int,
        histogram: dict[int, int],
        quasi_polar: bool,
        classical_size: bool,
        exceptional: str | None,
    ):
        self.kind = kind
        self.size = size
        self.histogram = histogram
        self.quasi_polar = quasi_polar
        self.classical_size = classical_size
        self.exceptional = exceptional


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


class RootsReport:
    """The classical cardinality and the other root, a ``Fraction``, of its quadratic."""

    def __init__(
        self,
        kind: PolarKind,
        classical_root: int,
        other_root,
        other_integral: bool,
        tag: str | None,
    ):
        self.kind = kind
        self.classical_root = classical_root
        self.other_root = other_root
        self.other_integral = other_integral
        self.tag = tag


def cardinality_roots(kind: PolarKind) -> RootsReport:
    """Both roots of the quadratic forced on the cardinality by a two-size spectrum."""
    # imported here: fractions pulls in decimal, which no other command needs
    from fractions import Fraction

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


class ConditionReport:
    """The flags a-d' of ``nucleus_conditions``, with counts and candidate masks."""

    def __init__(
        self,
        size: int,
        a: bool,
        b: bool,
        b_prime: bool,
        c: bool,
        c_prime: bool,
        d: bool,
        d_prime: bool,
        singular_count: int,
        expected_singular: int,
        nucleus_candidate: int | None,
        b_candidates: int,
        c_candidates: int,
        d_common: int,
        d_prime_candidates: int,
    ):
        self.size = size
        self.a = a
        self.b = b
        self.b_prime = b_prime
        self.c = c
        self.c_prime = c_prime
        self.d = d
        self.d_prime = d_prime
        self.singular_count = singular_count
        self.expected_singular = expected_singular
        self.nucleus_candidate = nucleus_candidate
        self.b_candidates = b_candidates
        self.c_candidates = c_candidates
        self.d_common = d_common
        self.d_prime_candidates = d_prime_candidates

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


def _every_pencil_meets(space: ProjSpace, hyperplanes: list[int]) -> bool:
    """Does every codimension-2 flat lie in one of the given hyperplanes?

    The hyperplanes through a codimension-2 flat F form a pencil, a dual
    line, and every dual line meets the dual hyperplane of a fixed point p0:
    some hyperplane x of the pencil passes through p0.  If x is not given,
    the given y that contain F are those with x ∩ y = F; so every pencil
    through x meets the given set iff the meets x ∩ y take all theta_{m-1}
    values, one per hyperplane of x.  Only the incidence is read.  p0 lies
    on the most given hyperplanes, which leaves the fewest x to check.
    """
    n_flats = n_points_pg(space.m - 1, space.q)
    if len(hyperplanes) < n_flats:
        # some hyperplane x is not given, and the theta_{m-1} pencils
        # through x share only x, so each needs a given member of its own
        return False
    inc = space.incidence
    given = sum(1 << h for h in hyperplanes)
    # the incidence is symmetric: row p is also the mask of the hyperplanes through p
    counts = [(row & given).bit_count() for row in inc]
    p0 = counts.index(max(counts))
    for x in bits_to_indices(inc[p0] & ~given):
        row = inc[x]
        if len({row & inc[y] for y in hyperplanes}) != n_flats:
            return False
    return True


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

    c_prime = _every_pencil_meets(space, singular)

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
