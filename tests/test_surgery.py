import itertools
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import forms, pg, surgery
from qps.forms import (
    IncompatibleKind,
    PolarKind,
    canonical_form,
    cone,
    nucleus_point,
    point_class,
    point_set,
)
from qps.census import enumerate_quadrics
from qps.gf import build_field
from qps.pg import (
    PointSet,
    bits_to_indices,
    dot,
    flat_from_mask,
    flat_from_points,
    hyperplane_flat,
    line_through,
    normalize_vec,
    point_set_from_indices,
    rref,
    space_for,
    subgeometry,
)
from qps.spectra import classify, find_line_nucleus, profile, singular_hyperplanes
from qps.surgery import (
    BadHyperplanes,
    BaseWrongType,
    ConstraintViolated,
    NoConeDecomposition,
    NotEvenQ,
    NotOval,
    NotQ2,
    NotQ3,
    NotSingular,
    NotTangent,
    RemovedNotInSet,
    SetsNotInHyperplane,
    SingularHyperplane,
    affine_switch,
    cone_swap,
    internal_switch_q3,
    nonsingular_switch_q2,
    oval_nucleus_swap,
    pivot,
    repeated_pivot,
    shifted_nucleus_pivot,
    switch,
)

from cone_helpers import cone_decomposition
from switched_sets import q42_switched_sets


def canonical(fam, m, q):
    return point_set(canonical_form(PolarKind(fam, m, q), space_for(m, q)))


def per_hyperplane_sizes(s):
    sp = s.space
    return [(s.bits & sp.incidence[h]).bit_count() for h in range(sp.n_points)]


def first_hyperplane_of_size(s, size):
    return per_hyperplane_sizes(s).index(size)


def check_record(s, result, rec):
    assert result.bits == (s.bits & ~rec.removed.bits) | rec.added.bits
    d = rec.to_dict()
    assert d["construction"] == rec.kind
    json.dumps(d)
    return d


# ---------------------------------------------------------------------------
# Bare switch
# ---------------------------------------------------------------------------


def test_switch_basic():
    s = canonical("parabolic", 4, 2)
    sp = s.space
    h = 0
    inside = s.bits & sp.incidence[h]
    outside = sp.incidence[h] & ~s.bits
    removed = PointSet(sp, 1 << bits_to_indices(inside)[0])
    added = PointSet(sp, 1 << bits_to_indices(outside)[0])
    result, rec = switch(s, h, removed, added)
    assert result.size == s.size
    assert rec.kind == "switch"
    d = check_record(s, result, rec)
    assert d["hyperplane"] == list(sp.points[h])


def test_switch_errors():
    s = canonical("parabolic", 4, 2)
    sp = s.space
    h = 0
    outside_set = sp.incidence[h] & ~s.bits
    with pytest.raises(RemovedNotInSet):
        switch(s, h, PointSet(sp, 1 << bits_to_indices(outside_set)[0]), PointSet(sp, 0))
    off_h = 1 << bits_to_indices(s.bits & ~sp.incidence[h])[0]
    with pytest.raises(SetsNotInHyperplane):
        switch(s, h, PointSet(sp, off_h), PointSet(sp, 0))
    inside = 1 << bits_to_indices(s.bits & sp.incidence[h])[0]
    with pytest.raises(ValueError, match="overlap"):
        switch(s, h, PointSet(sp, inside), PointSet(sp, inside))


# ---------------------------------------------------------------------------
# Pivot
# ---------------------------------------------------------------------------


def test_pivot_identity():
    s = canonical("parabolic", 4, 2)
    kind = PolarKind("parabolic", 4, 2)
    pi = first_hyperplane_of_size(s, 7)
    _v, _mu, base = cone_decomposition(s, pi)
    result, rec = pivot(s, kind, pi, base)
    assert result.bits == s.bits
    assert rec.kind == "pivot"
    check_record(s, result, rec)


def test_pivot_new_base_stays_quasi_polar():
    s = canonical("parabolic", 4, 2)
    sp = s.space
    kind = PolarKind("parabolic", 4, 2)
    pi = first_hyperplane_of_size(s, 7)
    _v, mu, base = cone_decomposition(s, pi)
    carrier_pts = bits_to_indices(mu.mask())
    hits = 0
    for trio in itertools.combinations(carrier_pts, 3):
        cand = point_set_from_indices(sp, trio)
        if cand.bits == base.bits:
            continue
        if line_through(sp, trio[0], trio[1]).contains(trio[2]):
            continue
        result, rec = pivot(s, kind, pi, cand)
        cls = classify(result, kind)
        assert cls.quasi_polar and cls.classical_size
        check_record(s, result, rec)
        hits += 1
        if hits == 3:
            break
    assert hits == 3


def test_pivot_rejects_nonsingular_hyperplane():
    s = canonical("parabolic", 4, 2)
    kind = PolarKind("parabolic", 4, 2)
    pi = first_hyperplane_of_size(s, 5)
    with pytest.raises(NotSingular):
        pivot(s, kind, pi, PointSet(s.space, 0))


def test_pivot_rejects_collinear_base():
    s = canonical("parabolic", 4, 2)
    sp = s.space
    kind = PolarKind("parabolic", 4, 2)
    pi = first_hyperplane_of_size(s, 7)
    _v, mu, _base = cone_decomposition(s, pi)
    a, b = bits_to_indices(mu.mask())[:2]
    with pytest.raises(BaseWrongType):
        pivot(s, kind, pi, line_through(sp, a, b))


# the singular hyperplanes of a classical polar space are its tangent
# hyperplanes, one per point, and each section is a cone over a polar space
# of the same family two dimensions down
CONE_SPACES = [
    ("parabolic", 4, 2),
    ("parabolic", 4, 3),
    ("parabolic", 4, 4),
    ("elliptic", 5, 2),
    ("hyperbolic", 5, 2),
    ("hermitian", 3, 4),
]


@pytest.mark.parametrize("fam,m,q", CONE_SPACES)
def test_cone_decomposition_matches_vector_cone(fam, m, q):
    for s in (canonical(fam, m, q), projective_image(canonical(fam, m, q), m * 100 + q)):
        sp = s.space
        singular = singular_hyperplanes(s, PolarKind(fam, m, q))
        assert len(singular) == s.size
        for pi in singular:
            section = s.bits & sp.incidence[pi]
            v, mu, base = cone_decomposition(s, pi)
            assert section >> v & 1
            assert mu.dim == m - 2
            assert not mu.mask() & ~sp.incidence[pi]
            assert not mu.contains_point(v)
            assert base.bits == section & mu.mask()
            assert cone(flat_from_points(sp, [v]), base).bits == section


@pytest.mark.parametrize("fam,m,q", [("parabolic", 4, 2), ("parabolic", 4, 4), ("hyperbolic", 5, 2), ("hermitian", 3, 4)])
def test_pivot_adds_the_vector_cone_over_the_new_base(fam, m, q):
    s = projective_image(canonical(fam, m, q), 7)
    sp = s.space
    kind = PolarKind(fam, m, q)
    rng = random.Random(m * 100 + q)
    bases = enumerate_quadrics(space_for(m - 2, q), PolarKind(fam, m - 2, q))
    for pi in rng.sample(singular_hyperplanes(s, kind), 4):
        v, _mu, _base = cone_decomposition(s, pi)
        geom = subgeometry(sp, hyperplane_flat(sp, pi))
        v_sub = geom.from_ambient[v]
        carriers = [h for h in range(geom.sub.n_points) if not geom.sub.incidence[h] >> v_sub & 1]
        for h in rng.sample(carriers, 3):
            carrier = subgeometry(geom.sub, hyperplane_flat(geom.sub, h))
            new = rng.choice(bases).bits
            new_base = PointSet(sp, geom.mask_to_ambient(carrier.mask_to_ambient(new)))
            result, rec = pivot(s, kind, pi, new_base)
            assert rec.vertex == v
            assert rec.removed.bits == s.bits & sp.incidence[pi]
            assert rec.added.bits == cone(flat_from_points(sp, [v]), new_base).bits
            assert classify(result, kind).quasi_polar


def test_cone_surgeries_do_no_vector_cone_arithmetic(monkeypatch):
    """The cone surgeries build cones from cached lines, never with forms.cone."""

    def refuse(*_args):
        raise AssertionError("forms.cone called")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("qps") and getattr(mod, "cone", None) is cone:
            monkeypatch.setattr(mod, "cone", refuse)
    assert forms.cone is refuse
    for q in (2, 4):
        s = canonical("parabolic", 4, q)
        sp = s.space
        kind = PolarKind("parabolic", 4, q)
        pi = singular_hyperplanes(s, kind)[0]
        v, mu, base = cone_decomposition(s, pi)
        other = next(c for c in enumerate_quadrics(space_for(2, q), PolarKind("parabolic", 2, q)))
        new_base = PointSet(sp, subgeometry(sp, mu).mask_to_ambient(other.bits))
        assert pivot(s, kind, pi, new_base)[1].vertex == v
        assert classify(shifted_nucleus_pivot(s, pi)[0], kind).quasi_polar
        assert classify(cone_swap(s, pi)[0], kind).quasi_polar
    # the repeated pivot of the golden Q(4,4) case
    s = canonical("parabolic", 4, 4)
    sp = s.space
    p, r = (sp.point_index[v] for v in [(0, 0, 0, 0, 1), (0, 0, 1, 0, 0)])
    choice = [(0, 0, 1, 0, 0), (0, 1, 1, 0, 0), (1, 1, 1, 0, 0), (1, 2, 0, 0, 0), (1, 3, 0, 0, 0)]
    choice = point_set_from_indices(sp, [sp.point_index[v] for v in choice])
    result, rec = repeated_pivot(s, PolarKind("parabolic", 4, 4), p, r, {p: choice})
    assert rec.removed.size == rec.added.size == 12


@pytest.mark.parametrize(
    "op,fam,m,q",
    [
        ("cone_swap", "parabolic", 4, 2),
        ("cone_swap", "parabolic", 4, 4),
        ("cone_swap", "parabolic", 6, 2),
        ("shifted_nucleus_pivot", "parabolic", 4, 2),
        ("shifted_nucleus_pivot", "parabolic", 4, 4),
        ("affine_switch", "hyperbolic", 3, 2),
        ("affine_switch", "hyperbolic", 5, 2),
    ],
)
def test_surgeries_cache_only_hyperplane_subgeometries(op, fam, m, q, monkeypatch):
    """Carriers and generators are handled inside the switched hyperplane's
    own coordinates, so the space caches no smaller subgeometry."""
    sp = space_for(m, q)
    monkeypatch.setattr(sp, "_subgeoms", {})
    for seed in range(3):
        s = projective_image(canonical(fam, m, q), 40 + seed)
        args = () if op == "affine_switch" else (singular_hyperplanes(s, PolarKind(fam, m, q))[seed],)
        getattr(surgery, op)(s, *args)
    assert all(len(basis) == m for basis in sp._subgeoms)


# ---------------------------------------------------------------------------
# Cone swap
# ---------------------------------------------------------------------------


def test_cone_swap_q42():
    s = canonical("parabolic", 4, 2)
    kind = PolarKind("parabolic", 4, 2)
    pi = singular_hyperplanes(s, kind)[0]
    nucleus = find_line_nucleus(s)
    result, rec = cone_swap(s, pi)
    assert result.size == 15
    cls = classify(result, kind)
    assert cls.quasi_polar and cls.classical_size
    assert result.contains(nucleus)
    assert not result.contains(rec.vertex)
    d = check_record(s, result, rec)
    assert d["vertex"] == list(s.space.points[rec.vertex])
    assert set(rec.details) == {"nucleus", "base_nucleus", "mu", "nu_p", "nu_n"}


def test_cone_swap_q44():
    s = canonical("parabolic", 4, 4)
    kind = PolarKind("parabolic", 4, 4)
    pi = singular_hyperplanes(s, kind)[0]
    result, rec = cone_swap(s, pi)
    cls = classify(result, kind)
    assert cls.quasi_polar and cls.classical_size
    check_record(s, result, rec)


def test_cone_swap_rejects_odd_q():
    s = canonical("parabolic", 4, 3)
    with pytest.raises(NotEvenQ):
        cone_swap(s, 0)


def test_cone_swap_rejects_nonsingular_hyperplane():
    s = canonical("parabolic", 4, 2)
    pi = first_hyperplane_of_size(s, 9)
    with pytest.raises(NotSingular):
        cone_swap(s, pi)


# ---------------------------------------------------------------------------
# Repeated pivot
# ---------------------------------------------------------------------------


def line_inside(s):
    idx = s.indices()
    for i, j in itertools.combinations(range(len(idx)), 2):
        line = line_through(s.space, idx[i], idx[j])
        if not line.bits & ~s.bits:
            return idx[i], idx[j]
    raise AssertionError("no full line inside the set")


def test_repeated_pivot_identity():
    s = canonical("parabolic", 4, 2)
    kind = PolarKind("parabolic", 4, 2)
    p, r = line_inside(s)
    result, rec = repeated_pivot(s, kind, p, r)
    assert result.bits == s.bits
    assert rec.removed.size == 0 and rec.added.size == 0
    assert rec.kind == "repeated-pivot"
    d = check_record(s, result, rec)
    assert len(d["details"]["line"]) == 3
    assert len(d["details"]["tangent_hyperplanes"]) == 3


def test_repeated_pivot_new_base():
    s = canonical("parabolic", 4, 2)
    sp = s.space
    kind = PolarKind("parabolic", 4, 2)
    p, r = line_inside(s)
    per = per_hyperplane_sizes(s)
    hp = surgery._tangent_hyperplane(s, per, 7, p)
    geom = subgeometry(sp, hyperplane_flat(sp, hp))
    p_sub = geom.from_ambient[p]
    sigma_sub = next(
        h for h in range(geom.sub.n_points) if not geom.sub.incidence[h] >> p_sub & 1
    )
    sigma_pts = [geom.to_ambient[i] for i in bits_to_indices(geom.sub.incidence[sigma_sub])]
    old_base = flat_from_points(sp, sigma_pts).mask() & s.bits & sp.incidence[hp]
    found = None
    for trio in itertools.combinations(sigma_pts, 3):
        cand = point_set_from_indices(sp, trio)
        if cand.bits == old_base:
            continue
        try:
            result, rec = repeated_pivot(s, kind, p, r, {p: cand})
        except (ConstraintViolated, BaseWrongType, NoConeDecomposition):
            continue
        if result.bits != s.bits:
            found = (result, rec)
            break
    assert found is not None
    result, rec = found
    assert result.size == 15
    assert classify(result, kind).quasi_polar
    check_record(s, result, rec)


def test_repeated_pivot_rejects_external_line():
    s = canonical("parabolic", 4, 2)
    kind = PolarKind("parabolic", 4, 2)
    sp = s.space
    p = s.indices()[0]
    r = bits_to_indices(~s.bits & ((1 << sp.n_points) - 1))[0]
    with pytest.raises(surgery.NotCollinear):
        repeated_pivot(s, kind, p, r)


# ---------------------------------------------------------------------------
# Affine switch
# ---------------------------------------------------------------------------


def test_affine_switch_q32():
    # removing the symmetric difference of two generators flips the type
    s = canonical("hyperbolic", 3, 2)
    result, rec = affine_switch(s)
    assert result.size == 5
    assert rec.removed.size == 4 and rec.added.size == 0
    assert rec.kind == "affine-switch"
    cls = classify(result, PolarKind("elliptic", 3, 2))
    assert cls.quasi_polar and cls.classical_size
    d = check_record(s, result, rec)
    assert set(d["details"]) == {"generator_1", "generator_2", "wall"}


def test_affine_switch_q52():
    s = canonical("hyperbolic", 5, 2)
    result, rec = affine_switch(s)
    assert result.size == 27
    assert rec.removed.size == 8
    cls = classify(result, PolarKind("elliptic", 5, 2))
    assert cls.quasi_polar and cls.classical_size
    assert not classify(result, PolarKind("hyperbolic", 5, 2)).quasi_polar


def test_affine_switch_rejects_wrong_input():
    with pytest.raises(surgery.NotQ2Hyperbolic):
        affine_switch(canonical("hyperbolic", 3, 3))
    sp = space_for(3, 2)
    with pytest.raises(surgery.NotQ2Hyperbolic):
        affine_switch(point_set_from_indices(sp, range(9)))


# ---------------------------------------------------------------------------
# Non-singular switches
# ---------------------------------------------------------------------------


def test_q2_switch_identity_and_replacement():
    from qps.census import enumerate_quadrics

    s = canonical("parabolic", 4, 2)
    sp = s.space
    pi = first_hyperplane_of_size(s, 5)
    section = PointSet(sp, s.bits & sp.incidence[pi])
    same, rec = nonsingular_switch_q2(s, pi, section)
    assert same.bits == s.bits
    assert rec.kind == "q2-switch"
    assert rec.details["section_type"] == "elliptic"

    geom = subgeometry(sp, hyperplane_flat(sp, pi))
    sec_sub = geom.mask_from_ambient(section.bits)
    cand = next(
        c
        for c in enumerate_quadrics(geom.sub, PolarKind("elliptic", 3, 2))
        if c.bits != sec_sub
    )
    new_section = PointSet(sp, geom.mask_to_ambient(cand.bits))
    result, rec = nonsingular_switch_q2(s, pi, new_section)
    assert result.size == 15
    cls = classify(result, PolarKind("parabolic", 4, 2))
    assert cls.quasi_polar and cls.classical_size
    check_record(s, result, rec)


def test_q2_switch_rejects_singular_junk_and_undersized():
    s = canonical("parabolic", 4, 2)
    sp = s.space
    with pytest.raises(SingularHyperplane):
        nonsingular_switch_q2(s, first_hyperplane_of_size(s, 7), PointSet(sp, 0))
    pi = first_hyperplane_of_size(s, 9)
    h_pts = bits_to_indices(sp.incidence[pi])
    with pytest.raises(surgery.SectionWrongType):
        nonsingular_switch_q2(s, pi, point_set_from_indices(sp, h_pts[:6]))
    # a line is elliptic quasi-polar but lacks the classical cardinality
    pi5 = first_hyperplane_of_size(s, 5)
    l_pts = bits_to_indices(sp.incidence[pi5])
    with pytest.raises(surgery.SectionWrongType):
        nonsingular_switch_q2(s, pi5, line_through(sp, l_pts[0], l_pts[1]))
    with pytest.raises(NotQ2):
        nonsingular_switch_q2(canonical("parabolic", 4, 4), 0, PointSet(space_for(4, 4), 0))


def singular_subflat(s, xi, target):
    sp = s.space
    geom = subgeometry(sp, hyperplane_flat(sp, xi))
    sec_sub = geom.mask_from_ambient(s.bits & sp.incidence[xi])
    for h_sub in range(geom.sub.n_points):
        if (geom.sub.incidence[h_sub] & sec_sub).bit_count() == target:
            pts = [geom.to_ambient[i] for i in bits_to_indices(geom.sub.incidence[h_sub])]
            return flat_from_points(sp, pts)
    raise AssertionError("no subflat with the requested section size")


@pytest.mark.parametrize(
    "size,family,wanted",
    [(10, "elliptic", "internal"), (16, "hyperbolic", "external")],
)
def test_q3_switch(size, family, wanted):
    s = canonical("parabolic", 4, 3)
    sp = s.space
    kind = PolarKind("parabolic", 4, 3)
    form = canonical_form(kind, sp)
    xi = first_hyperplane_of_size(s, size)
    sub_singular = profile(PolarKind(family, 3, 3)).singular_size
    pi_sub = singular_subflat(s, xi, sub_singular)
    result, rec = internal_switch_q3(s, xi, pi_sub)
    assert result.size == 40
    assert rec.removed.size == size - sub_singular
    assert rec.added.size == rec.removed.size
    assert rec.details["section_type"] == family
    for p in rec.added.indices():
        assert point_class(form, p) == wanted
    cls = classify(result, kind)
    assert cls.quasi_polar and cls.classical_size
    check_record(s, result, rec)
    # a trisecant line certifies the result is not a quadric
    assert any(
        (line & result.bits).bit_count() == 3
        for p in rec.added.indices()
        for line in sp.lines_through(p)
    )


def test_q3_switch_rejects_bad_input():
    s = canonical("parabolic", 4, 3)
    with pytest.raises(NotQ3):
        internal_switch_q3(canonical("parabolic", 4, 2), 0, hyperplane_flat(space_for(4, 2), 1))
    xi = first_hyperplane_of_size(s, 13)
    pi_sub = singular_subflat(s, first_hyperplane_of_size(s, 10), 1)
    with pytest.raises(BadHyperplanes):
        internal_switch_q3(s, xi, pi_sub)


# ---------------------------------------------------------------------------
# Oval nucleus swap
# ---------------------------------------------------------------------------


def test_oval_swap_pg24():
    s = canonical("parabolic", 2, 4)
    sp = s.space
    form = canonical_form(PolarKind("parabolic", 2, 4), sp)
    tangent = first_hyperplane_of_size(s, 1)
    result, rec = oval_nucleus_swap(s, tangent)
    assert result.size == 5
    assert result.contains(nucleus_point(form))
    assert classify(result, PolarKind("parabolic", 2, 4)).quasi_polar
    d = check_record(s, result, rec)
    assert d["details"]["nucleus"] == list(sp.points[nucleus_point(form)])


def test_oval_swap_rejects_secant_and_odd_order():
    s = canonical("parabolic", 2, 4)
    with pytest.raises(NotTangent):
        oval_nucleus_swap(s, first_hyperplane_of_size(s, 2))
    with pytest.raises(NotOval):
        oval_nucleus_swap(canonical("parabolic", 2, 3), 0)


# ---------------------------------------------------------------------------
# Shifted nucleus pivot
# ---------------------------------------------------------------------------


def test_shifted_nucleus_pivot_kills_nucleus():
    s = canonical("parabolic", 4, 2)
    kind = PolarKind("parabolic", 4, 2)
    pi = singular_hyperplanes(s, kind)[0]
    result, rec = shifted_nucleus_pivot(s, pi)
    assert result.size == 15
    cls = classify(result, kind)
    assert cls.quasi_polar and cls.classical_size
    assert find_line_nucleus(result) is None
    assert rec.kind == "shifted-nucleus-pivot"
    assert rec.details["base_nucleus_after"] != rec.details["base_nucleus_before"]
    check_record(s, result, rec)


def test_shifted_nucleus_pivot_rejects_odd_q():
    with pytest.raises(NotEvenQ):
        shifted_nucleus_pivot(canonical("parabolic", 4, 3), 0)


def test_nucleus_surgeries_build_no_ambient_line_table():
    # line nuclei are read from hyperplane section sizes, so the nucleus
    # surgeries on Q(4,4) use the incidence of PG(4,4) and never its lines;
    # a fresh space, not the shared one, shows which tables were built
    sp = pg.ProjSpace(4, build_field(4))
    kind = PolarKind("parabolic", 4, 4)
    s = point_set(canonical_form(kind, sp))
    assert find_line_nucleus(s) is not None
    pi = singular_hyperplanes(s, kind)[0]
    cone_swap(s, pi)
    shifted_nucleus_pivot(s, pi)
    assert sp._all_lines is None
    assert sp._lines_through is None


def test_surgeries_raise_no_invariant_on_switched_quadrics():
    # classical-size quasi-polar sets from switching one non-singular section
    # of Q(4,2).  A surgery may refuse one (ValueError, exit 2); an
    # InvariantViolated, a RuntimeError, would report a bug for a valid input
    # and fail the test.  The cone surgeries run at every singular
    # hyperplane, repeated pivot on every line of the set through its first
    # point
    sp = space_for(4, 2)
    kind = PolarKind("parabolic", 4, 2)
    outcomes = Counter()

    def attempt(name, op, *args):
        try:
            op(*args)
        except ValueError:
            outcomes[name, "refused"] += 1
        else:
            outcomes[name, "ok"] += 1

    for bits in random.Random(12).sample(q42_switched_sets(), 300):
        s = PointSet(sp, bits)
        for pi in singular_hyperplanes(s, kind):
            attempt("cone-swap", cone_swap, s, pi)
            attempt("shifted-nucleus", shifted_nucleus_pivot, s, pi)
        p = s.indices()[0]
        for line in sp.lines_through(p):
            if not line & ~bits:
                r = bits_to_indices(line & ~(1 << p))[0]
                attempt("repeated-pivot", repeated_pivot, s, kind, p, r)
    assert outcomes == {
        ("cone-swap", "ok"): 180,
        ("cone-swap", "refused"): 4320,
        ("shifted-nucleus", "ok"): 180,
        ("shifted-nucleus", "refused"): 4320,
        ("repeated-pivot", "ok"): 43,
        ("repeated-pivot", "refused"): 869,
    }


# ---------------------------------------------------------------------------
# Record serialization
# ---------------------------------------------------------------------------


def test_record_json_shape():
    s = canonical("parabolic", 4, 2)
    kind = PolarKind("parabolic", 4, 2)
    pi = first_hyperplane_of_size(s, 7)
    _v, _mu, base = cone_decomposition(s, pi)
    _result, rec = pivot(s, kind, pi, base)
    d = rec.to_dict()
    assert set(d) == {"construction", "hyperplane", "vertex", "removed", "added", "details"}
    assert all(len(row) == 5 for row in d["removed"])
    assert all(isinstance(c, int) for row in d["added"] for c in row)
    assert all(len(row) == 5 for row in d["details"]["mu"])


# ---------------------------------------------------------------------------
# Replay property over seeded projective images
# ---------------------------------------------------------------------------


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


def sub_sets(sp, h, family):
    """Classical sets of the family in hyperplane h, as ambient masks."""
    geom = subgeometry(sp, hyperplane_flat(sp, h))
    kind = PolarKind(family, sp.m - 1, sp.q)
    return [geom.mask_to_ambient(c.bits) for c in enumerate_quadrics(geom.sub, kind)]


def replay_case(op, s, rng):
    """(arguments after s, kind the result must satisfy) for one surgery."""
    sp = s.space
    sizes = per_hyperplane_sizes(s)
    kind = PolarKind("parabolic", sp.m, sp.q) if sp.m % 2 == 0 else None
    if kind is not None:
        prof = profile(kind)
        singular = [h for h, v in enumerate(sizes) if v == prof.singular_size]
        nonsingular = [h for h, v in enumerate(sizes) if v in prof.sizes and v != prof.singular_size]
    if op in ("cone_swap", "shifted_nucleus_pivot"):
        return (rng.choice(singular),), kind
    if op == "pivot":
        pi = rng.choice(singular)
        _v, mu, base = cone_decomposition(s, pi)
        geom = subgeometry(sp, mu)
        conics = enumerate_quadrics(geom.sub, PolarKind("parabolic", 2, sp.q))
        new = rng.choice([c for c in conics if geom.mask_to_ambient(c.bits) != base.bits])
        return (kind, pi, PointSet(sp, geom.mask_to_ambient(new.bits))), kind
    if op == "repeated_pivot":
        p = rng.choice(s.indices())
        line = rng.choice([ln for ln in sp.lines_through(p) if not ln & ~s.bits])
        r = rng.choice([x for x in bits_to_indices(line) if x != p])
        hp = surgery._tangent_hyperplane(s, sizes, prof.singular_size, p)
        geom = subgeometry(sp, hyperplane_flat(sp, hp))
        p_sub = geom.from_ambient[p]
        sigma = rng.choice([h for h in range(geom.sub.n_points) if not geom.sub.incidence[h] >> p_sub & 1])
        sigma_pts = bits_to_indices(geom.mask_to_ambient(geom.sub.incidence[sigma]))
        trios = list(itertools.combinations(sigma_pts, 3))
        rng.shuffle(trios)
        for trio in trios:
            choice = {p: point_set_from_indices(sp, trio)}
            try:
                repeated_pivot(s, kind, p, r, choice)
            except (ConstraintViolated, BaseWrongType):
                continue
            return (kind, p, r, choice), kind
        return (kind, p, r), kind
    if op == "affine_switch":
        return (), PolarKind("elliptic", sp.m, sp.q)
    if op == "nonsingular_switch_q2":
        pi = rng.choice(nonsingular)
        family = "elliptic" if sizes[pi] == prof.sizes[0] else "hyperbolic"
        new = rng.choice([b for b in sub_sets(sp, pi, family) if b != s.bits & sp.incidence[pi]])
        return (pi, PointSet(sp, new)), kind
    if op == "internal_switch_q3":
        xi = rng.choice(nonsingular)
        family = "elliptic" if sizes[xi] == prof.sizes[0] else "hyperbolic"
        target = profile(PolarKind(family, sp.m - 1, sp.q)).singular_size
        geom = subgeometry(sp, hyperplane_flat(sp, xi))
        sec = geom.mask_from_ambient(s.bits & sp.incidence[xi])
        h = rng.choice([h for h in range(geom.sub.n_points) if (geom.sub.incidence[h] & sec).bit_count() == target])
        return (xi, flat_from_mask(sp, geom.mask_to_ambient(geom.sub.incidence[h]))), kind
    assert op == "oval_nucleus_swap"
    return (rng.choice([h for h, v in enumerate(sizes) if v == 1]),), kind


REPLAY_INPUTS = {
    "pivot": [("parabolic", 4, 2)],
    "cone_swap": [("parabolic", 4, 2), ("parabolic", 4, 4)],
    "repeated_pivot": [("parabolic", 4, 2)],
    "affine_switch": [("hyperbolic", 3, 2), ("hyperbolic", 5, 2)],
    "nonsingular_switch_q2": [("parabolic", 4, 2)],
    "internal_switch_q3": [("parabolic", 4, 3)],
    "oval_nucleus_swap": [("parabolic", 2, 4), ("parabolic", 2, 8)],
    "shifted_nucleus_pivot": [("parabolic", 4, 2), ("parabolic", 4, 4)],
}


@pytest.mark.parametrize("op", sorted(REPLAY_INPUTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_replay_and_quasi_polar(op, data):
    fam, m, q = data.draw(st.sampled_from(REPLAY_INPUTS[op]), label="space")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    s = projective_image(canonical(fam, m, q), seed)
    rng = random.Random(seed)
    args, verify_kind = replay_case(op, s, rng)
    result, rec = getattr(surgery, op)(s, *args)
    assert result.bits == (s.bits & ~rec.removed.bits) | rec.added.bits
    assert classify(result, verify_kind).quasi_polar
