import random

import pytest

from qps import forms
from qps.forms import (
    DegenerateForm,
    Form,
    IncompatibleKind,
    NotApplicable,
    NotParabolicEven,
    NucleusHasNoPerp,
    PolarKind,
    VertexMeetsBase,
    canonical_form,
    card_hermitian,
    card_parabolic,
    card_pm,
    classical_cardinality,
    cone,
    cone_vertices,
    form_is_nondegenerate,
    nucleus_point,
    perp,
    point_class,
    point_set,
    radical_basis,
)
from qps.pg import (
    PointSet,
    flat_from_points,
    line_through,
    normalize_point,
    point_set_from_indices,
    space_for,
)

# every classical set with at most a few hundred ambient points
SMALL_KINDS = [
    ("parabolic", 2, 2),
    ("parabolic", 2, 3),
    ("parabolic", 2, 4),
    ("parabolic", 2, 5),
    ("parabolic", 2, 7),
    ("parabolic", 2, 8),
    ("parabolic", 4, 2),
    ("parabolic", 4, 3),
    ("parabolic", 4, 4),
    ("parabolic", 6, 2),
    ("hyperbolic", 3, 2),
    ("hyperbolic", 3, 3),
    ("hyperbolic", 3, 4),
    ("hyperbolic", 5, 2),
    ("elliptic", 3, 2),
    ("elliptic", 3, 3),
    ("elliptic", 3, 4),
    ("elliptic", 5, 2),
    ("hermitian", 2, 4),
    ("hermitian", 3, 4),
    ("hermitian", 2, 9),
]


def make(fam, m, q):
    kind = PolarKind(fam, m, q)
    form = canonical_form(kind, space_for(m, q))
    return kind, form, point_set(form)


# ---------------------------------------------------------------------------
# PolarKind validation
# ---------------------------------------------------------------------------


def test_polar_kind_parity_rules():
    with pytest.raises(IncompatibleKind):
        PolarKind("parabolic", 3, 2)
    with pytest.raises(IncompatibleKind):
        PolarKind("hyperbolic", 4, 2)
    with pytest.raises(IncompatibleKind):
        PolarKind("elliptic", 2, 3)
    with pytest.raises(IncompatibleKind):
        PolarKind("hermitian", 2, 2)
    with pytest.raises(IncompatibleKind):
        PolarKind("symplectic", 3, 2)


def test_polar_kind_rank():
    assert PolarKind("parabolic", 4, 2).n == 2
    assert PolarKind("hyperbolic", 5, 2).n == 2
    assert PolarKind("elliptic", 3, 3).n == 1


# ---------------------------------------------------------------------------
# Cardinality formulas against brute-force zero counts
# ---------------------------------------------------------------------------


def test_classical_cardinalities():
    for fam, m, q in SMALL_KINDS:
        kind, form, s = make(fam, m, q)
        assert s.size == classical_cardinality(kind), (fam, m, q)


def test_cardinality_closed_forms():
    assert card_parabolic(2, 2) == 15
    assert card_pm(2, 2, 1) == 35
    assert card_pm(2, 2, -1) == 27
    assert card_pm(1, 3, 1) == 16
    assert card_pm(1, 3, -1) == 10
    assert card_hermitian(2, 4) == 9
    assert card_hermitian(3, 4) == 45


def test_canonical_conic_points():
    _, _, s = make("parabolic", 2, 2)
    assert set(s.vectors()) == {(0, 1, 0), (0, 0, 1), (1, 1, 1)}


def _zeros_by_eval(form):
    """The zero set of a form, one point at a time."""
    bits = 0
    for i, v in enumerate(form.space.points):
        if form.eval_vec(v) == 0:
            bits |= 1 << i
    return bits


# the characteristic-2 kinds a query stream reads, and some of odd order
@pytest.mark.parametrize(
    "fam,m,q",
    [("parabolic", 4, 3), ("hermitian", 2, 25)]
    + [("parabolic", 4, 2), ("parabolic", 4, 4), ("parabolic", 6, 2), ("parabolic", 2, 16)]
    + [("hyperbolic", 5, 2), ("elliptic", 5, 2), ("hermitian", 3, 4), ("elliptic", 3, 4)]
    + [("hyperbolic", 3, 4), ("elliptic", 3, 8), ("hyperbolic", 3, 8)],
)
def test_point_set_matches_the_per_point_loop(fam, m, q):
    # the mask read off bit-planes (q even) or one byte string of zero tests
    # (q odd) is the one set bit by bit
    form = canonical_form(PolarKind(fam, m, q), space_for(m, q))
    s = point_set(form)
    assert s.bits == _zeros_by_eval(form)
    assert s.size == classical_cardinality(PolarKind(fam, m, q))


def _random_matrix(rng, f, d, hermitian, rank):
    """A seeded matrix: upper-triangular (quadratic) or Hermitian, in the
    first rank coordinates only, so rank < d gives a degenerate form."""
    A = [[0] * d for _ in range(d)]
    for i in range(rank):
        for k in range(i, rank):
            a = rng.randrange(f.q)
            if hermitian and i == k:
                a = rng.choice([x for x in range(f.q) if f.conj[x] == x])
            A[i][k] = a
            if hermitian and i != k:
                A[k][i] = f.conj[a]
    return tuple(map(tuple, A))


@pytest.mark.parametrize(
    "family,m,q",
    [("parabolic", 2, 2), ("hyperbolic", 3, 2), ("parabolic", 4, 2), ("parabolic", 2, 4)]
    + [("hyperbolic", 3, 4), ("parabolic", 2, 8), ("hyperbolic", 3, 8), ("parabolic", 2, 16)]
    + [("hermitian", 2, 4), ("hermitian", 3, 4), ("hermitian", 2, 16)],
)
def test_point_set_of_random_forms_matches_eval_vec(family, m, q):
    # seeded forms, degenerate ones and the zero form included, point by point
    sp = space_for(m, q)
    rng = random.Random(f"{family}{m},{q}")
    for rank in [0, 1, m, m + 1, m + 1, m + 1]:
        form = Form(PolarKind(family, m, q), sp, _random_matrix(rng, sp.f, m + 1, family == "hermitian", rank))
        assert point_set(form).bits == _zeros_by_eval(form)


def test_canonical_form_space_mismatch():
    with pytest.raises(IncompatibleKind):
        canonical_form(PolarKind("parabolic", 2, 2), space_for(3, 2))


def test_eval_is_scaling_invariant():
    for fam, m, q in [("parabolic", 2, 4), ("hermitian", 2, 4), ("elliptic", 3, 3)]:
        kind, form, s = make(fam, m, q)
        sp = form.space
        f = sp.f
        for v in sp.points:
            base = form.eval_vec(v) == 0
            for c in range(2, q):
                scaled = tuple(f.mul[c][x] for x in v)
                assert (form.eval_vec(scaled) == 0) == base


def test_canonical_forms_nondegenerate():
    for fam, m, q in SMALL_KINDS:
        _, form, _ = make(fam, m, q)
        assert form_is_nondegenerate(form), (fam, m, q)


def test_degenerate_form_detected():
    # x0*x1 in PG(3,2) has a radical plane full of zeros
    kind = PolarKind("hyperbolic", 3, 2)
    sp = space_for(3, 2)
    M = ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    form = Form(kind, sp, M)
    assert not form_is_nondegenerate(form)
    assert len(radical_basis(form)) == 2


# ---------------------------------------------------------------------------
# Perp
# ---------------------------------------------------------------------------


def test_perp_conic_tangent():
    _, form, s = make("parabolic", 2, 2)
    sp = form.space
    p = sp.point_index[(0, 1, 0)]
    h = perp(form, p)
    assert sp.points[h] == (0, 0, 1)
    assert sp.incidence[h] >> p & 1


def test_perp_on_point_gives_singular_section():
    for fam, m, q in [("hyperbolic", 3, 2), ("parabolic", 4, 3), ("hermitian", 3, 4)]:
        kind, form, s = make(fam, m, q)
        sp = form.space
        p = s.indices()[0]
        h = perp(form, p)
        sec = PointSet(sp, s.bits & sp.incidence[h])
        assert sec.contains(p)
        assert p in cone_vertices(sec)


def test_perp_hyperbolic_q2_section_size():
    _, form, s = make("hyperbolic", 3, 2)
    sp = form.space
    for p in s.indices():
        h = perp(form, p)
        assert (s.bits & sp.incidence[h]).bit_count() == 5


def test_perp_polarity_symmetry():
    for fam, m, q in [("elliptic", 3, 3), ("hermitian", 2, 4), ("hyperbolic", 3, 3)]:
        kind, form, _ = make(fam, m, q)
        sp = form.space
        for p in range(sp.n_points):
            hp = perp(form, p)
            for r in range(p + 1, sp.n_points):
                hr = perp(form, r)
                assert (sp.incidence[hp] >> r & 1) == (sp.incidence[hr] >> p & 1)


def test_perp_at_nucleus_raises():
    _, form, _ = make("parabolic", 4, 2)
    with pytest.raises(NucleusHasNoPerp):
        perp(form, nucleus_point(form))


# ---------------------------------------------------------------------------
# Nucleus
# ---------------------------------------------------------------------------


def test_nucleus_point_is_e0():
    for m, q in [(2, 2), (2, 4), (4, 2), (4, 4), (6, 2)]:
        _, form, _ = make("parabolic", m, q)
        sp = form.space
        assert form.space.points[nucleus_point(form)] == (1,) + (0,) * m


def test_all_lines_through_nucleus_are_tangent():
    for m, q in [(2, 4), (4, 2), (4, 4)]:
        _, form, s = make("parabolic", m, q)
        sp = form.space
        n = nucleus_point(form)
        for line in sp.lines_through(n):
            assert (line & s.bits).bit_count() == 1


def test_conic_tangent_lines_meet_in_nucleus():
    _, form, s = make("parabolic", 2, 4)
    sp = form.space
    n = nucleus_point(form)
    for p in s.indices():
        tangents = [l for l in sp.lines_through(p) if (l & s.bits).bit_count() == 1]
        assert len(tangents) == 1
        assert tangents[0] >> n & 1


def test_nucleus_odd_q_raises():
    _, form, _ = make("parabolic", 4, 3)
    with pytest.raises(NotParabolicEven):
        nucleus_point(form)
    with pytest.raises(NotParabolicEven):
        nucleus_point(canonical_form(PolarKind("hyperbolic", 3, 2), space_for(3, 2)))


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------


def test_cone_point_vertex_cardinality():
    sp = space_for(3, 2)
    conic = point_set_from_indices(
        sp,
        [
            normalize_point(sp, (0, 0, 1, 0)),
            normalize_point(sp, (0, 0, 0, 1)),
            normalize_point(sp, (0, 1, 1, 1)),
        ],
    )
    vertex = flat_from_points(sp, [normalize_point(sp, (1, 0, 0, 0))])
    c = cone(vertex, conic)
    assert c.size == 2 * conic.size + 1


def test_cone_empty_base_is_vertex():
    sp = space_for(3, 2)
    p = 4
    vertex = flat_from_points(sp, [p])
    c = cone(vertex, PointSet(sp, 0))
    assert c.indices() == [p]


def test_cone_line_vertex_cardinality():
    # line vertex over a conic in a disjoint plane: q^2*|C| + q + 1
    sp = space_for(4, 2)
    conic = point_set_from_indices(
        sp,
        [
            normalize_point(sp, (0, 1, 0, 0, 0)),
            normalize_point(sp, (0, 0, 1, 0, 0)),
            normalize_point(sp, (1, 1, 1, 0, 0)),
        ],
    )
    vertex = flat_from_points(
        sp,
        [normalize_point(sp, (0, 0, 0, 1, 0)), normalize_point(sp, (0, 0, 0, 0, 1))],
    )
    c = cone(vertex, conic)
    assert c.size == 4 * 3 + 2 + 1


def test_cone_vertex_meets_base():
    sp = space_for(3, 2)
    base = point_set_from_indices(sp, [0, 1])
    vertex = flat_from_points(sp, [0])
    with pytest.raises(VertexMeetsBase):
        cone(vertex, base)


def test_cone_vertices_detects_vertex():
    sp = space_for(3, 2)
    conic = point_set_from_indices(
        sp,
        [
            normalize_point(sp, (0, 0, 1, 0)),
            normalize_point(sp, (0, 0, 0, 1)),
            normalize_point(sp, (0, 1, 1, 1)),
        ],
    )
    p = normalize_point(sp, (1, 0, 0, 0))
    c = cone(flat_from_points(sp, [p]), conic)
    assert p in cone_vertices(c)


def test_cone_vertices_nonsingular_quadric_empty():
    _, _, s = make("hyperbolic", 3, 2)
    assert cone_vertices(s) == []


def test_cone_vertices_full_line():
    sp = space_for(3, 2)
    line = line_through(sp, 0, 1)
    vs = cone_vertices(line)
    assert set(line.indices()) <= set(vs)


# ---------------------------------------------------------------------------
# Point classification
# ---------------------------------------------------------------------------


def test_point_class_q43_totals():
    kind, form, s = make("parabolic", 4, 3)
    sp = form.space
    counts = {"on": 0, "internal": 0, "external": 0}
    for p in range(sp.n_points):
        counts[point_class(form, p)] += 1
    assert counts["on"] == 40
    assert counts["internal"] == 36
    assert counts["external"] == 45


def test_point_class_q43_per_hyperplane():
    kind, form, s = make("parabolic", 4, 3)
    sp = form.space
    elliptic_size = card_pm(1, 3, -1)
    hyperbolic_size = card_pm(1, 3, 1)
    per = [(s.bits & sp.incidence[h]).bit_count() for h in range(sp.n_points)]
    internal = [
        p for p in range(sp.n_points) if point_class(form, p) == "internal"
    ]
    for h in range(sp.n_points):
        cnt = sum(1 for p in internal if sp.incidence[h] >> p & 1)
        if per[h] == elliptic_size:
            assert cnt == 15
        elif per[h] == hyperbolic_size:
            assert cnt == 12


def test_point_class_on_and_nucleus():
    _, form, s = make("parabolic", 2, 3)
    assert point_class(form, s.indices()[0]) == "on"
    _, form2, _ = make("parabolic", 4, 2)
    assert point_class(form2, nucleus_point(form2)) == "nucleus"


def test_point_class_not_applicable():
    _, form, s = make("parabolic", 4, 2)
    off = next(p for p in range(31) if not s.contains(p) and p != nucleus_point(form))
    with pytest.raises(NotApplicable):
        point_class(form, off)
    _, form3, s3 = make("hyperbolic", 3, 3)
    off3 = next(p for p in range(40) if not s3.contains(p))
    with pytest.raises(NotApplicable):
        point_class(form3, off3)


def _seeded_forms(family, m, q):
    """Three forms of the family on PG(m, q) with seeded full-rank matrices."""
    sp = space_for(m, q)
    rng = random.Random(f"eval {family} {m} {q}")
    return [
        Form(PolarKind(family, m, q), sp, _random_matrix(rng, sp.f, m + 1, family == "hermitian", m + 1))
        for _ in range(3)
    ]


@pytest.mark.parametrize(
    "family,m,q",
    [
        ("parabolic", 4, 4),
        ("hyperbolic", 3, 8),
        ("parabolic", 2, 16),
        ("hermitian", 3, 4),
        ("hermitian", 2, 16),
    ],
)
def test_eval_vec_matches_the_bit_planes_over_gf2e(family, m, q):
    # over GF(2^e) point_set reads the form's value off bit-planes, without
    # eval_vec: the value's planes, and the zero set, agree at every point
    for form in _seeded_forms(family, m, q):
        planes = forms._value_planes(form)
        zeros = point_set(form).bits
        for p, x in enumerate(form.space.points):
            value = form.eval_vec(x)
            assert value == sum((plane >> p & 1) << j for j, plane in enumerate(planes))
            assert (value == 0) == bool(zeros >> p & 1)


@pytest.mark.parametrize(
    "family,m,q",
    [
        ("parabolic", 4, 3),
        ("hyperbolic", 3, 5),
        ("parabolic", 2, 9),
        ("hermitian", 3, 9),
        ("parabolic", 2, 25),
        ("hermitian", 2, 25),
    ],
)
def test_eval_vec_matches_the_written_out_sum(family, m, q):
    # f(x) = sum over i <= j of A[i][j] x_i x_j, or over all i, j of
    # conj(x_i) A[i][j] x_j for a Hermitian form, term by term
    f = space_for(m, q).f
    for form in _seeded_forms(family, m, q):
        A = form.matrix
        for x in form.space.points:
            want = 0
            for i in range(m + 1):
                for j in range(m + 1):
                    if family == "hermitian":
                        want = f.add[want][f.mul[f.mul[f.conj[x[i]]][A[i][j]]][x[j]]]
                    elif i <= j:
                        want = f.add[want][f.mul[f.mul[x[i]][A[i][j]]][x[j]]]
            assert form.eval_vec(x) == want
