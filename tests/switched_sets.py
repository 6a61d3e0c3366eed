"""Valid inputs other than the canonical sets: seeded projective images, the
classical-size quasi-polar sets of PG(4,2) that switching one non-singular
section of Q(4,2) gives, and the quasi-polar sets of PG(4,3) that switching
one non-singular section of Q(4,3) gives."""

import functools
import random

from qps import census
from qps.census import enumerate_quadrics
from qps.forms import PolarKind, canonical_form, point_set
from qps.pg import PointSet, dot, hyperplane_flat, normalize_vec, rref, space_for, subgeometry
from qps.spectra import profile, spectrum


def projective_image(s, seed):
    """Image of s under a seeded random invertible matrix."""
    sp = s.space
    f = sp.f
    d = sp.m + 1
    rng = random.Random(seed)
    while True:
        rows = [tuple(rng.randrange(sp.q) for _ in range(d)) for _ in range(d)]
        if len(rref(f, rows)) == d:
            break
    bits = 0
    for v in s.vectors():
        bits |= 1 << sp.point_index[normalize_vec(f, tuple(dot(f, row, v) for row in rows))]
    return PointSet(sp, bits)


@functools.cache
def q42_switched_sets() -> tuple[int, ...]:
    """The distinct sets that switching one non-singular section of the
    canonical Q(4,2) for a classical set of the same type gives, sorted."""
    sp = space_for(4, 2)
    s = point_set(canonical_form(PolarKind("parabolic", 4, 2), sp))
    out = set()
    for h, v in enumerate(spectrum(s).per_hyperplane):
        if v in (5, 9):
            geom = subgeometry(sp, hyperplane_flat(sp, h))
            base = s.bits & ~sp.incidence[h]
            sub_kind = PolarKind("elliptic" if v == 5 else "hyperbolic", 3, 2)
            for t in enumerate_quadrics(geom.sub, sub_kind):
                out.add(base | geom.mask_to_ambient(t.bits))
    return tuple(sorted(out))


@functools.cache
def q43_switched_sets() -> tuple[int, ...]:
    """The sets other than Q(4,3) that switching the section of the canonical
    Q(4,3) at the nonsingular-switch census's hyperplane of each type for a
    classical set of that type gives, when the census finds them quasi-polar:
    10 from the elliptic and 16 from the hyperbolic hyperplane, sorted."""
    sp = space_for(4, 3)
    kind = PolarKind("parabolic", 4, 3)
    s = point_set(canonical_form(kind, sp))
    sizes = set(profile(kind).sizes)
    out = []
    for fam, pi in census.nonsingular_switch_census(s, kind).extra["hyperplanes"].items():
        sub = profile(PolarKind(fam, 3, 3))
        pi_space = space_for(3, 3)
        cands = [t.bits for t in enumerate_quadrics(pi_space, sub.kind)]
        family = census._Family(cands, pi_space.n_points, sub.sizes)
        geom, checks = census._switch_test(sp, s.bits, pi, sizes, family)
        base = s.bits & ~sp.incidence[pi]
        for t in census._survivors(checks, family):
            out.append(base | geom.mask_to_ambient(t))
    # the identity survives at both hyperplanes
    out.remove(s.bits)
    out.remove(s.bits)
    return tuple(sorted(out))
