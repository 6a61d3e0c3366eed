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
from qps.census import (
    enumerate_quadrics,
    nonsingular_switch_census,
    nucleus_pivot_census,
    singular_switch_census,
)
from qps.gf import build_field
from qps.pg import (
    PointSet,
    bits_to_indices,
    flat_from_mask,
    flat_from_points,
    hyperplane_flat,
    line_through,
    point_set_from_indices,
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

from cone_helpers import cone_decomposition, tangent_hyperplane
from line_helpers import forbid_all_lines
from switched_sets import projective_image, q42_switched_sets, q43_switched_sets


def canonical(fam, m, q):
    return point_set(canonical_form(PolarKind(fam, m, q), space_for(m, q)))


def per_hyperplane_sizes(s):
    sp = s.space
    return [(s.bits & sp.incidence[h]).bit_count() for h in range(sp.n_points)]


def first_hyperplane_of_size(s, size):
    return per_hyperplane_sizes(s).index(size)


def check_record(s, result, rec):
    assert result.bits == (s.bits & ~rec.removed.bits) | rec.added.bits
    # the definition of a switch: the removed points lie in the input, and
    # both pieces lie in the switching hyperplane when the record names one
    assert not rec.removed.bits & ~s.bits
    if rec.hyperplane is not None:
        assert not (rec.removed.bits | rec.added.bits) & ~s.space.incidence[rec.hyperplane]
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


def test_a_switch_off_its_hyperplane_is_an_invariant_violation(tmp_path, capsys, monkeypatch):
    from qps.cli import run, save_point_set
    from qps.spectra import InvariantViolated

    s = canonical("parabolic", 4, 2)
    sp = s.space
    kind = PolarKind("parabolic", 4, 2)
    pi = first_hyperplane_of_size(s, 7)
    _v, _mu, base = cone_decomposition(s, pi)
    off_pi = bits_to_indices(~sp.incidence[pi] & ((1 << sp.n_points) - 1))[0]
    cone_bits = surgery._cone_bits
    monkeypatch.setattr(surgery, "_cone_bits", lambda *a: cone_bits(*a) | 1 << off_pi)
    with pytest.raises(InvariantViolated, match="pivot switches points off its hyperplane"):
        pivot(s, kind, pi, base)

    src, base_file = tmp_path / "q42.qps", tmp_path / "base.qps"
    save_point_set(str(src), s)
    save_point_set(str(base_file), base)
    argv = ["surgery", "pivot", "--in", str(src), "--kind", "parabolic", "--base", str(base_file)]
    out = tmp_path / "out.qps"
    hyperplane = ",".join(map(str, sp.points[pi]))
    assert run([*argv, "--hyperplane", hyperplane, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invariant violated: ") and captured.err.count("\n") == 1
    assert not out.exists()


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
    hp = tangent_hyperplane(s, 7, p)
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


def test_repeated_pivot_rejects_a_base_choice_off_the_line():
    s = canonical("parabolic", 4, 4)
    sp = s.space
    p, r = (sp.point_index[v] for v in [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0)])
    off = sp.point_index[(1, 0, 0, 0, 0)]
    with pytest.raises(ValueError, match=r"^base choice at point 1,0,0,0,0 is not on the line$"):
        repeated_pivot(s, PolarKind("parabolic", 4, 4), p, r, {off: s})


def ambient_repeated_pivot(s, kind, p, r, base_choices=None):
    """Repeated pivot whose tangent hyperplane at R is the first singular-size
    hyperplane through R, held line or not, where the ambient lines through
    R show a cone with vertex R; each new cone is the vector cone over its
    base."""
    space = s.space
    base_choices = base_choices or {}
    line = line_through(space, p, r)
    if line.bits & ~s.bits:
        raise surgery.NotCollinear("the line through p and r must lie inside the set")
    singular = profile(kind).singular_size
    tangents = {x: tangent_hyperplane(s, singular, x) for x in (p, r)}
    xi = space.incidence[tangents[p]] & space.incidence[tangents[r]]
    result = 0
    for R in line.indices():
        if R not in tangents:
            tangents[R] = tangent_hyperplane(s, singular, R)
        h = tangents[R]
        geom, section = surgery._pi_geometry(s, h)
        sub = geom.sub
        _v, sigma, base = surgery._decompose(sub, section, [geom.from_ambient[R]])
        choice = base_choices.get(R)
        if choice is not None and choice.bits != geom.mask_to_ambient(base):
            if choice.bits & ~geom.mask_to_ambient(sub.incidence[sigma]):
                raise BaseWrongType("replacement base must lie in the carrier flat")
            base = geom.mask_from_ambient(choice.bits)
            surgery._validate_base(sub, kind, sigma, base)
        new_cone = cone(flat_from_points(space, [R]), PointSet(space, geom.mask_to_ambient(base))).bits
        if (new_cone ^ s.bits) & xi & space.incidence[h]:
            raise ConstraintViolated(R)
        result |= new_cone
    details = {
        "line": [list(space.points[x]) for x in line.indices()],
        "tangent_hyperplanes": {
            ",".join(map(str, space.points[x])): list(space.points[h]) for x, h in sorted(tangents.items())
        },
        "xi": [list(row) for row in flat_from_mask(space, xi).basis],
    }
    removed = PointSet(space, s.bits & ~result)
    added = PointSet(space, result & ~s.bits)
    return PointSet(space, result), surgery.SurgeryRecord("repeated-pivot", None, None, removed, added, details)


def pivot_outcome(op, *args):
    """Result bits and record, or the type and message of the refusal."""
    try:
        result, rec = op(*args)
    except ValueError as e:
        return type(e), str(e)
    return result.bits, rec.to_dict()


def base_choice_cases():
    """(s, kind, p, r, base choices) of every candidate that
    test_repeated_pivot_new_base, test_07 and the golden Q(4,4) case try."""
    s = canonical("parabolic", 4, 2)
    sp = s.space
    kind = PolarKind("parabolic", 4, 2)
    p, r = line_inside(s)
    geom = subgeometry(sp, hyperplane_flat(sp, tangent_hyperplane(s, 7, p)))
    p_sub = geom.from_ambient[p]
    sigma = next(h for h in range(geom.sub.n_points) if not geom.sub.incidence[h] >> p_sub & 1)
    for trio in itertools.combinations(bits_to_indices(geom.mask_to_ambient(geom.sub.incidence[sigma])), 3):
        yield s, kind, p, r, {p: point_set_from_indices(sp, trio)}
    for fam, m, q in [("hyperbolic", 5, 2), ("parabolic", 4, 2)]:
        s = canonical(fam, m, q)
        sp = s.space
        kind = PolarKind(fam, m, q)
        p, r = next(
            (a, b)
            for a, b in itertools.combinations(s.indices(), 2)
            if not line_through(sp, a, b).bits & ~s.bits
        )
        _, mu, _base = cone_decomposition(s, tangent_hyperplane(s, profile(kind).singular_size, p))
        carrier = subgeometry(sp, mu)
        for c in enumerate_quadrics(carrier.sub, PolarKind(fam, m - 2, q)):
            yield s, kind, p, r, {p: PointSet(sp, carrier.mask_to_ambient(c.bits))}
    s = canonical("parabolic", 4, 4)
    sp = s.space
    p, r = (sp.point_index[v] for v in [(0, 0, 0, 0, 1), (0, 0, 1, 0, 0)])
    choice = [(0, 0, 1, 0, 0), (0, 1, 1, 0, 0), (1, 1, 1, 0, 0), (1, 2, 0, 0, 0), (1, 3, 0, 0, 0)]
    yield s, PolarKind("parabolic", 4, 4), p, r, {p: point_set_from_indices(sp, [sp.point_index[v] for v in choice])}


def test_repeated_pivot_matches_the_ambient_tangent_rule():
    # the tangent hyperplanes come from one scan of the hyperplanes holding
    # the line, decomposed in their own coordinates; the rule they replace
    # walks the ambient lines at every singular-size hyperplane through R
    cases = []
    for fam, m, q in [
        ("parabolic", 4, 2),
        ("parabolic", 4, 3),
        ("parabolic", 4, 4),
        ("hyperbolic", 5, 2),
        ("elliptic", 5, 2),
        ("parabolic", 6, 2),
        ("hermitian", 3, 4),
    ]:
        kind = PolarKind(fam, m, q)
        for seed in range(3):
            s = canonical(fam, m, q)
            if seed:
                s = projective_image(s, 70 + seed)
            rng = random.Random(seed)
            for p in rng.sample(s.indices(), 3):
                lines = [ln for ln in s.space.lines_through(p) if not ln & ~s.bits]
                if lines:
                    r = rng.choice([x for x in bits_to_indices(rng.choice(lines)) if x != p])
                    cases.append((s, kind, p, r))
    sp = space_for(4, 2)
    kind = PolarKind("parabolic", 4, 2)
    for bits in random.Random(13).sample(q42_switched_sets(), 300):
        s = PointSet(sp, bits)
        p = s.indices()[0]
        for line in [ln for ln in sp.lines_through(p) if not ln & ~bits][:2]:
            cases.append((s, kind, p, bits_to_indices(line & ~(1 << p))[-1]))
    cases.extend(base_choice_cases())
    outcomes = Counter()
    for args in cases:
        got = pivot_outcome(repeated_pivot, *args)
        assert got == pivot_outcome(ambient_repeated_pivot, *args), args[1:4]
        outcomes[got[0].__name__ if isinstance(got[0], type) else "ok"] += 1
    assert outcomes == {
        "ok": 110,
        "NoConeDecomposition": 560,
        "ConstraintViolated": 320,
        "BaseWrongType": 7,
    }


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
    from qps.census import (
    enumerate_quadrics,
    nonsingular_switch_census,
    nucleus_pivot_census,
    singular_switch_census,
)

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


@pytest.mark.parametrize("m,q", [(4, 2), (4, 4), (6, 2)])
def test_nucleus_surgeries_decompose_once_through_one_frame(m, q, monkeypatch):
    # shifted-nucleus pivot switches through the core of pivot, never through
    # the public pivot, which would decompose pi's section a second time; it
    # and cone swap decompose the section once, in the one nucleus frame
    kind = PolarKind("parabolic", m, q)
    s = canonical("parabolic", m, q)
    pi = singular_hyperplanes(s, kind)[0]

    def refuse(*args):
        raise AssertionError("shifted-nucleus pivot called the public pivot")

    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(surgery, name, wrapped)

    monkeypatch.setattr(surgery, "pivot", refuse)
    counted("_decompose", surgery._decompose)
    result, rec = shifted_nucleus_pivot(s, pi)
    assert calls == ["_decompose"]
    assert rec.kind == "shifted-nucleus-pivot"
    assert list(rec.details) == ["mu", "carrier", "nucleus", "base_nucleus_before", "base_nucleus_after"]
    assert classify(result, kind).quasi_polar
    check_record(s, result, rec)
    counted("_nucleus_frame", surgery._nucleus_frame)
    for op in (shifted_nucleus_pivot, cone_swap):
        calls.clear()
        op(s, pi)
        assert calls == ["_nucleus_frame", "_decompose"]


def test_shifted_nucleus_pivot_is_a_pivot_onto_its_new_base():
    # every shifted pivot of the sweep below is the public pivot onto the
    # points it adds on its carrier: same result, vertex and flats
    sp = space_for(4, 2)
    kind = PolarKind("parabolic", 4, 2)
    done = 0
    for bits in random.Random(12).sample(q42_switched_sets(), 300):
        s = PointSet(sp, bits)
        for pi in singular_hyperplanes(s, kind):
            try:
                result, rec = shifted_nucleus_pivot(s, pi)
            except ValueError:
                continue
            carrier = flat_from_points(sp, [sp.point_index[tuple(r)] for r in rec.details["carrier"]])
            got, prec = pivot(s, kind, pi, PointSet(sp, rec.added.bits & carrier.mask()))
            assert got.bits == result.bits and prec.vertex == rec.vertex
            assert [prec.details[k] for k in ("mu", "carrier")] == [rec.details[k] for k in ("mu", "carrier")]
            done += 1
    assert done == 180


def test_nucleus_surgeries_build_no_ambient_line_table(monkeypatch):
    # line nuclei are read from hyperplane section sizes, so the nucleus
    # surgeries on Q(4,4) use the incidence of PG(4,4) and never its lines;
    # repeated pivot finds its tangent hyperplanes in their own coordinates.
    # A fresh space, not the shared one, shows which tables were built
    forbid_all_lines(monkeypatch)
    sp = pg.ProjSpace(4, build_field(4))
    kind = PolarKind("parabolic", 4, 4)
    s = point_set(canonical_form(kind, sp))
    assert find_line_nucleus(s) is not None
    pi = singular_hyperplanes(s, kind)[0]
    cone_swap(s, pi)
    shifted_nucleus_pivot(s, pi)
    p, r = (sp.point_index[v] for v in [(0, 1, 0, 0, 0), (0, 0, 0, 1, 0)])
    assert repeated_pivot(s, kind, p, r)[0].bits == s.bits
    assert sp._lines == {}


@pytest.mark.parametrize("m,q", [(4, 4), (6, 2)])
def test_cone_surgeries_cache_lines_only_for_the_points_asked(m, q, monkeypatch):
    # fresh spaces, the ambient one and those of pi and its carriers, show
    # which lines the cone surgeries build: never all_lines(), and the lines
    # through a point only when a surgery asked for them
    monkeypatch.setattr(pg, "_SPACES", {})
    forbid_all_lines(monkeypatch)
    asked = {}
    lines_through = pg.ProjSpace.lines_through

    def record(space, p):
        asked.setdefault(space, set()).add(p)
        return lines_through(space, p)

    monkeypatch.setattr(pg.ProjSpace, "lines_through", record)
    sp = space_for(m, q)
    kind = PolarKind("parabolic", m, q)
    s = point_set(canonical_form(kind, sp))
    pi = singular_hyperplanes(s, kind)[0]
    assert pivot(s, kind, pi, cone_decomposition(s, pi)[2])[0].bits == s.bits
    cone_swap(s, pi)
    shifted_nucleus_pivot(s, pi)
    p = s.indices()[0]
    r = next(r for r in s.indices()[1:] if line_through(sp, p, r) <= s)
    assert repeated_pivot(s, kind, p, r)[0].bits == s.bits
    spaces = list(pg._SPACES.values())
    assert {x.m for x in spaces} >= {m, m - 1, m - 2}
    assert asked and sp not in asked
    for space in spaces:
        assert set(space._lines) == asked.get(space, set()), space


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


def attempt_every_operation(s, kind, attempt):
    """Every census and every surgery on s: the cone surgeries at each singular
    hyperplane (pivot onto the section's own base), the section switches at
    the first hyperplane of each non-singular size, repeated pivot on every
    line of s through its first point."""
    sp = s.space
    prof = profile(kind)
    sizes = per_hyperplane_sizes(s)
    for pi in [h for h, v in enumerate(sizes) if v == prof.singular_size]:
        attempt("pivot", lambda: pivot(s, kind, pi, cone_decomposition(s, pi)[2]))
        attempt("cone-swap", cone_swap, s, pi)
        attempt("shifted-nucleus", shifted_nucleus_pivot, s, pi)
    p = s.indices()[0]
    for line in sp.lines_through(p):
        if not line & ~s.bits:
            attempt("repeated-pivot", repeated_pivot, s, kind, p, bits_to_indices(line & ~(1 << p))[0])
    for size, family in [(prof.sizes[0], "elliptic"), (prof.sizes[-1], "hyperbolic")]:
        xi = sizes.index(size)
        attempt("q2-switch", nonsingular_switch_q2, s, xi, PointSet(sp, s.bits & sp.incidence[xi]))
        geom = subgeometry(sp, hyperplane_flat(sp, xi))
        section = geom.mask_from_ambient(s.bits)
        target = profile(PolarKind(family, sp.m - 1, sp.q)).singular_size
        h = next(h for h, mask in enumerate(geom.sub.incidence) if (mask & section).bit_count() == target)
        attempt("q3-switch", internal_switch_q3, s, xi, flat_from_mask(sp, geom.mask_to_ambient(geom.sub.incidence[h])))
    attempt("affine-switch", affine_switch, s)
    attempt("oval-swap", oval_nucleus_swap, s, 0)
    attempt("nucleus-pivot", nucleus_pivot_census, s)
    attempt("singular-switch", singular_switch_census, s)
    attempt("nonsingular-switch", nonsingular_switch_census, s, kind)


def test_operations_raise_no_invariant_on_images_and_q43_switches():
    # seeded projective images of the switched Q(4,2) sets, and a seeded
    # sample of the quasi-polar sets that switching one non-singular section
    # of Q(4,3) gives.  Every operation may refuse (ValueError, exit 2); an
    # InvariantViolated would report a bug for a valid input and fail the test
    outcomes = Counter()

    def attempt(name, op, *args):
        try:
            op(*args)
        except ValueError:
            outcomes[name, "refused"] += 1
        else:
            outcomes[name, "ok"] += 1

    sp = space_for(4, 2)
    q43 = q43_switched_sets()
    assert len(q43) == 26
    rng = random.Random(14)
    inputs = [
        (projective_image(PointSet(sp, bits), 140 + i), PolarKind("parabolic", 4, 2))
        for i, bits in enumerate(rng.sample(q42_switched_sets(), 30))
    ]
    inputs += [(PointSet(space_for(4, 3), bits), PolarKind("parabolic", 4, 3)) for bits in rng.sample(q43, 6)]
    for s, kind in inputs:
        cls = classify(s, kind)
        assert cls.quasi_polar and cls.classical_size
        attempt_every_operation(s, kind, attempt)
    assert outcomes == {
        ("pivot", "ok"): 132,
        ("pivot", "refused"): 558,
        ("cone-swap", "ok"): 45,
        ("cone-swap", "refused"): 645,
        ("shifted-nucleus", "ok"): 45,
        ("shifted-nucleus", "refused"): 645,
        ("repeated-pivot", "ok"): 11,
        ("repeated-pivot", "refused"): 92,
        ("q2-switch", "ok"): 14,
        ("q2-switch", "refused"): 58,
        ("q3-switch", "ok"): 12,
        ("q3-switch", "refused"): 60,
        ("affine-switch", "refused"): 36,
        ("oval-swap", "refused"): 36,
        ("nucleus-pivot", "ok"): 3,
        ("nucleus-pivot", "refused"): 33,
        ("singular-switch", "ok"): 3,
        ("singular-switch", "refused"): 33,
        ("nonsingular-switch", "ok"): 16,
        ("nonsingular-switch", "refused"): 20,
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
        hp = tangent_hyperplane(s, prof.singular_size, p)
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


@pytest.mark.parametrize("m,q", [(3, 2), (4, 2), (3, 3), (4, 3), (3, 4), (2, 5), (3, 5), (5, 2)])
def test_ambient_rows_are_the_rref_of_the_flat_in_the_ambient_space(m, q):
    # every hyperplane flat of every hyperplane's subgeometry: the rows read
    # off the flat's basis points are the rref of all its ambient points
    sp = space_for(m, q)
    for pi in range(sp.n_points):
        geom = subgeometry(sp, hyperplane_flat(sp, pi))
        for h in range(geom.sub.n_points):
            flat = hyperplane_flat(geom.sub, h)
            want = flat_from_mask(sp, geom.mask_to_ambient(flat.mask()))
            assert surgery._ambient_rows(geom, flat) == [list(row) for row in want.basis]
