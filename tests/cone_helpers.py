"""The cone decomposition of a singular section as ambient objects, for
tests that check the surgeries against flats of the whole space."""

from qps import surgery
from qps.pg import PointSet


def cone_decomposition(s, pi):
    """Vertex, carrier flat and base of the cone that s cuts out of hyperplane
    pi, from the decomposition in pi's own coordinates."""
    geom, section = surgery._pi_geometry(s, pi)
    v, mu, base = surgery._decompose(geom.sub, section, range(geom.sub.n_points))
    return geom.to_ambient[v], surgery._sub_hyperplane(geom, mu), PointSet(s.space, geom.mask_to_ambient(base))
