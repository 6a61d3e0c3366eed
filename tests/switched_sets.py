"""Valid non-classical inputs: the classical-size quasi-polar sets of PG(4,2)
that switching one non-singular section of Q(4,2) gives."""

import functools

from qps.census import enumerate_quadrics
from qps.forms import PolarKind, canonical_form, point_set
from qps.pg import hyperplane_flat, space_for, subgeometry
from qps.spectra import spectrum


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
