"""The cone decomposition of a singular section, and the tangent hyperplane
at a point, as ambient objects, for tests that check the surgeries against
flats and lines of the whole space."""

from qps import surgery
from qps.forms import is_cone_vertex
from qps.pg import PointSet, flat_from_mask
from qps.spectra import spectrum


def cone_decomposition(s, pi):
    """Vertex, carrier flat and base of the cone that s cuts out of hyperplane
    pi, from the decomposition in pi's own coordinates."""
    geom, section = surgery._pi_geometry(s, pi)
    v, mu, base = surgery._decompose(geom.sub, section, range(geom.sub.n_points))
    carrier = flat_from_mask(s.space, geom.mask_to_ambient(geom.sub.incidence[mu]))
    return geom.to_ambient[v], carrier, PointSet(s.space, geom.mask_to_ambient(base))


def tangent_hyperplane(s, singular_size, p):
    """First hyperplane of the singular size through p whose section is a cone
    with vertex p, found by walking the ambient lines through p: those off the
    hyperplane meet the section in p alone."""
    space = s.space
    sizes = spectrum(s).per_hyperplane
    for h, hmask in enumerate(space.incidence):
        if sizes[h] != singular_size or not hmask >> p & 1:
            continue
        if is_cone_vertex(space, s.bits & hmask, p):
            return h
    raise surgery.NoConeDecomposition(f"no tangent hyperplane found at point {p}")
