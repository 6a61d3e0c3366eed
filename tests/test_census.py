import itertools
import math
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from qps import census, forms, pg
from qps.census import (
    PointIsNucleus,
    PointOnQuadric,
    classical_distribution,
    enumerate_quadrics,
    nonsingular_switch_census,
    nucleus_pivot_census,
    q4_shape_classify,
    singular_switch_census,
    two_secant_count,
)
from qps.forms import (
    IncompatibleKind,
    PolarKind,
    canonical_form,
    classical_cardinality,
    nucleus_point,
    point_set,
)
from qps.gf import build_field
from qps.pg import (
    PointSet,
    SpaceTooLarge,
    bits_to_indices,
    flats_of_codim,
    hyperplane_flat,
    point_set_from_indices,
    space_for,
    subgeometry,
)
from qps.spectra import (
    InvariantViolated,
    classify,
    find_line_nucleus,
    line_nuclei,
    profile,
    spectrum,
)
from qps.surgery import shifted_nucleus_pivot

from switched_sets import q42_switched_sets


def canonical(fam, m, q):
    return point_set(canonical_form(PolarKind(fam, m, q), space_for(m, q)))


# ---------------------------------------------------------------------------
# Form enumeration
# ---------------------------------------------------------------------------


def test_enumerate_counts():
    assert len(enumerate_quadrics(space_for(2, 2), PolarKind("parabolic", 2, 2))) == 28
    assert len(enumerate_quadrics(space_for(2, 3), PolarKind("parabolic", 2, 3))) == 234
    assert len(enumerate_quadrics(space_for(3, 2), PolarKind("hyperbolic", 3, 2))) == 280
    assert len(enumerate_quadrics(space_for(3, 2), PolarKind("elliptic", 3, 2))) == 168
    assert len(enumerate_quadrics(space_for(2, 4), PolarKind("hermitian", 2, 4))) == 280
    assert len(enumerate_quadrics(space_for(1, 4), PolarKind("hermitian", 1, 4))) == 10


def test_enumerate_output_is_sorted_and_distinct():
    sets = enumerate_quadrics(space_for(3, 2), PolarKind("elliptic", 3, 2))
    bits = [s.bits for s in sets]
    assert bits == sorted(bits)
    assert len(set(bits)) == len(bits)
    kind = PolarKind("elliptic", 3, 2)
    for s in sets[:20]:
        cls = classify(s, kind)
        assert cls.quasi_polar and cls.classical_size


def _form_scan(space, kind):
    """Zero sets of every nondegenerate form of the kind with the classical size.

    Walks every coefficient vector (upper-triangular for a quadratic form,
    Hermitian for a Hermitian one), adding one coefficient's value vector
    over all points at a time, and keeps a zero set of the classical size
    once some form giving it is nondegenerate.
    """
    f = space.f
    q = space.q
    d = space.m + 1
    pts = space.points
    size = classical_cardinality(kind)
    hermitian = kind.family == "hermitian"
    if hermitian:
        fixed = [c for c in range(q) if f.conj[c] == c]
        slots = [(i, i) for i in range(d)] + [(i, j) for i in range(d) for j in range(i + 1, d)]
    else:
        slots = [(i, j) for i in range(d) for j in range(i, d)]

    def term(i, j, c, x):
        if not hermitian:
            return f.mul[c][f.mul[x[i]][x[j]]]
        if i == j:
            return f.mul[c][f.mul[f.conj[x[i]]][x[i]]]
        t = f.mul[c][f.mul[f.conj[x[i]]][x[j]]]
        return f.add[t][f.conj[t]]

    values = [[[term(i, j, c, x) for x in pts] for c in range(q)] for (i, j) in slots]

    def polar_matrix(coeffs):
        A = [[0] * d for _ in range(d)]
        for (i, j), c in zip(slots, coeffs):
            if hermitian:
                A[i][j] = c
                A[j][i] = f.conj[c]
            elif i == j:
                A[i][i] = f.add[c][c]
            else:
                A[i][j] = A[j][i] = c
        return A

    def in_radical(B, x):
        for row in B:
            s = 0
            for b, y in zip(row, x):
                s = f.add[s][f.mul[b][y]]
            if s:
                return False
        return True

    kept = set()

    def walk(k, acc, coeffs):
        if k == len(slots):
            zeros = [a for a, v in enumerate(acc) if v == 0]
            bits = sum(1 << a for a in zeros)
            if len(zeros) != size or bits in kept:
                return
            # a nonzero radical vector of the polar form is a zero of the
            # form, so nondegeneracy needs only the points of the zero set
            B = polar_matrix(coeffs)
            if not any(in_radical(B, pts[a]) for a in zeros):
                kept.add(bits)
            return
        for c in fixed if hermitian and k < d else range(q):
            row = values[k][c]
            walk(k + 1, [f.add[a][b] for a, b in zip(acc, row)], coeffs + (c,))

    walk(0, [0] * len(pts), ())
    return sorted(kept)


@pytest.mark.parametrize(
    "fam,m,q",
    [
        ("hyperbolic", 1, 2),
        ("elliptic", 1, 2),
        ("hyperbolic", 1, 3),
        ("elliptic", 1, 3),
        ("parabolic", 2, 2),
        ("parabolic", 2, 3),
        ("hyperbolic", 3, 2),
        ("elliptic", 3, 2),
        ("hyperbolic", 3, 3),
        ("elliptic", 3, 3),
        ("parabolic", 4, 2),
        ("hermitian", 1, 4),
        ("hermitian", 2, 4),
    ],
)
def test_enumerate_orbit_matches_form_scan(fam, m, q):
    sp = space_for(m, q)
    kind = PolarKind(fam, m, q)
    assert [s.bits for s in enumerate_quadrics(sp, kind)] == _form_scan(sp, kind)


def _gl_order(d, q):
    return math.prod(q**d - q**i for i in range(d))


def _stabiliser_order(fam, d, q):
    """Order of the similitude group, which is the stabiliser of the set in GL(d, q)."""
    if fam == "hermitian":
        r = math.isqrt(q)
        gu = r ** (d * (d - 1) // 2) * math.prod(r**i - (-1) ** i for i in range(1, d + 1))
        return gu * (r - 1)  # the multipliers lie in GF(r)
    n = d // 2
    if fam == "parabolic":
        go = (1 if q % 2 == 0 else 2) * q ** (n * n) * math.prod(q ** (2 * i) - 1 for i in range(1, n + 1))
        return go * ((q - 1) // 2 if q % 2 else q - 1)  # odd d: the multipliers are squares
    eps = 1 if fam == "hyperbolic" else -1
    go = 2 * q ** (n * (n - 1)) * (q**n - eps) * math.prod(q ** (2 * i) - 1 for i in range(1, n))
    return go * (q - 1)


@pytest.mark.parametrize(
    "fam,m,q,count",
    [
        ("parabolic", 2, 9, 58_968),
        ("hermitian", 2, 9, 7_020),
        ("hermitian", 3, 4, 38_080),
        ("elliptic", 3, 4, 120_960),
        ("hyperbolic", 3, 4, 137_088),
    ],
)
def test_enumerate_orbit_sizes_match_group_orders(fam, m, q, count):
    kind = PolarKind(fam, m, q)
    assert _gl_order(m + 1, q) // _stabiliser_order(fam, m + 1, q) == count
    bits = [s.bits for s in enumerate_quadrics(space_for(m, q), kind)]
    assert len(bits) == count
    assert bits == sorted(set(bits))
    assert {b.bit_count() for b in bits} == {classical_cardinality(kind)}


def test_enumerate_guard_rejects_large_orbit_fast():
    # 4,586,868 parabolic quadrics of PG(4,3), over the 2**20-set cap
    assert _gl_order(5, 3) // _stabiliser_order("parabolic", 5, 3) == 4_586_868
    with pytest.raises(SpaceTooLarge):
        enumerate_quadrics(space_for(4, 3), PolarKind("parabolic", 4, 3))
    argv = ["census", "quadrics", "--kind", "parabolic", "--m", "4", "--q", "3"]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qps.cli", *argv], capture_output=True, text=True)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.fixture
def empty_conic_table(monkeypatch):
    """PG(2,4) with no orbit table, so that a test sees the search run, not a
    table an earlier test filled; the table comes back after the test."""
    monkeypatch.setattr(space_for(2, 4), "_orbits", {})


@pytest.mark.parametrize("drop", [0, 1, 2])
def test_enumerate_missing_generator_raises(monkeypatch, empty_conic_table, drop):
    # the conics of PG(2,4) are one orbit of the whole group, but not of the
    # subgroup that any two of the three generators give (without the
    # diagonal one, only matrices over GF(2) are left)
    gens = census._pgl_generators
    monkeypatch.setattr(
        census, "_pgl_generators", lambda d, f: gens(d, f)[:drop] + gens(d, f)[drop + 1 :]
    )
    with pytest.raises(InvariantViolated, match="orbit"):
        enumerate_quadrics(space_for(2, 4), PolarKind("parabolic", 2, 4))


def test_enumerate_rejects_kind_space_mismatch():
    with pytest.raises(IncompatibleKind):
        enumerate_quadrics(space_for(3, 2), PolarKind("parabolic", 2, 2))


def test_failed_search_stores_nothing(monkeypatch, empty_conic_table):
    sp = space_for(2, 4)
    kind = PolarKind("parabolic", 2, 4)
    gens = census._pgl_generators
    monkeypatch.setattr(census, "_pgl_generators", lambda d, f: gens(d, f)[1:])
    with pytest.raises(InvariantViolated, match="orbit"):
        enumerate_quadrics(sp, kind)
    assert sp._orbits == {}
    monkeypatch.setattr(census, "_pgl_generators", gens)
    assert [s.bits for s in enumerate_quadrics(sp, kind)] == _form_scan(sp, kind)


def test_enumerate_returns_a_new_list_each_call():
    sp = space_for(2, 3)
    kind = PolarKind("parabolic", 2, 3)
    first = enumerate_quadrics(sp, kind)
    first.clear()
    second = enumerate_quadrics(sp, kind)
    assert second is not first
    assert [s.bits for s in second] == _form_scan(sp, kind)
    assert enumerate_quadrics(sp, kind) == second


def test_warm_orbit_table_keeps_the_checks(monkeypatch):
    # tables of the same families, filled by real searches
    for fam, m, q in [("parabolic", 2, 2), ("hyperbolic", 3, 2), ("parabolic", 4, 2)]:
        enumerate_quadrics(space_for(m, q), PolarKind(fam, m, q))
    with pytest.raises(IncompatibleKind):
        enumerate_quadrics(space_for(3, 2), PolarKind("parabolic", 2, 2))
    with pytest.raises(IncompatibleKind):
        enumerate_quadrics(space_for(2, 2), PolarKind("hyperbolic", 3, 2))
    # a table stored under the family of a kind of another space
    monkeypatch.setitem(space_for(3, 2)._orbits, "parabolic", (0,))
    with pytest.raises(IncompatibleKind):
        enumerate_quadrics(space_for(3, 2), PolarKind("parabolic", 2, 2))
    # the cap: a table for the 4,586,868 parabolic quadrics of PG(4,3) is
    # never read, and a real table is not read once the cap is below its size
    monkeypatch.setitem(space_for(4, 3)._orbits, "parabolic", (0,))
    with pytest.raises(SpaceTooLarge):
        enumerate_quadrics(space_for(4, 3), PolarKind("parabolic", 4, 3))
    with pytest.raises(SpaceTooLarge):
        census.quadrics_census(PolarKind("parabolic", 4, 3))
    q42 = PolarKind("parabolic", 4, 2)
    monkeypatch.setattr(census, "ORBIT_CAP", census._orbit_size(q42) - 1)
    with pytest.raises(SpaceTooLarge):
        enumerate_quadrics(space_for(4, 2), q42)
    with pytest.raises(SpaceTooLarge):
        census.quadrics_census(q42)


def test_censuses_search_each_orbit_once(monkeypatch):
    q42 = canonical("parabolic", 4, 2)
    q43 = canonical("parabolic", 4, 3)
    runs = [
        lambda: nucleus_pivot_census(q42),
        lambda: nonsingular_switch_census(q43, PolarKind("parabolic", 4, 3)),
        lambda: census.quadrics_census(PolarKind("hermitian", 2, 4)),
    ]
    first = [run().to_dict() for run in runs]

    def searched(*args):
        raise AssertionError("an orbit was searched a second time")

    monkeypatch.setattr(census, "_pgl_generators", searched)
    monkeypatch.setattr(census, "_byte_tables", searched)
    assert [run().to_dict() for run in runs] == first


# ---------------------------------------------------------------------------
# Nucleus pivot census
# ---------------------------------------------------------------------------


def test_nucleus_pivot_census_q42():
    s = canonical("parabolic", 4, 2)
    res = nucleus_pivot_census(s)
    assert res.name == "nucleus-pivot"
    assert res.total_candidates == 448
    assert res.breakdown == {
        "hyperbolic_no_nucleus": 270,
        "hyperbolic_with_nucleus": 10,
        "elliptic_no_nucleus": 162,
        "elliptic_with_nucleus": 6,
    }
    assert res.extra["hyperplanes_checked"] == {"hyperbolic": 10, "elliptic": 6}
    assert len(res.witnesses["hyperbolic_no_nucleus"]) == 10
    for w in res.witnesses["elliptic_no_nucleus"]:
        assert len(w) == 15


def test_nucleus_pivot_census_threads_deterministic():
    s = canonical("parabolic", 4, 2)
    assert nucleus_pivot_census(s, threads=1).to_dict() == (
        nucleus_pivot_census(s, threads=4).to_dict()
    )


def test_nucleus_pivot_census_rejects_wrong_input():
    with pytest.raises(ValueError):
        nucleus_pivot_census(canonical("parabolic", 4, 3))
    sp = space_for(4, 2)
    with pytest.raises(ValueError):
        nucleus_pivot_census(PointSet(sp, (1 << 15) - 1))


# ---------------------------------------------------------------------------
# Singular switch census
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def singular_census():
    s = canonical("parabolic", 4, 2)
    return s, singular_switch_census(s)


def test_singular_switch_census_breakdown(singular_census):
    _s, res = singular_census
    assert res.total_candidates == 6435
    assert res.breakdown == {
        "not_quasi_polar": 6331,
        "cone_vertex": 28,
        "cone_nucleus": 28,
        "truncated_vertex_plus_nucleus_line": 24,
        "truncated_nucleus_plus_vertex_line": 24,
    }
    assert res.extra["multi_shape"] == 24
    assert sum(res.breakdown.values()) == 6435


def test_singular_switch_census_original_section_survives(singular_census):
    s, res = singular_census
    sp = s.space
    pi = res.extra["hyperplane"]
    section = s.bits & sp.incidence[pi]
    assert q4_shape_classify(s, pi, section) == ["cone_vertex"]


def test_singular_switch_witnesses_are_sections(singular_census):
    s, res = singular_census
    sp = s.space
    pi = res.extra["hyperplane"]
    base = s.bits & ~sp.incidence[pi]
    sizes = set(profile(PolarKind("parabolic", 4, 2)).sizes)
    for label, group in res.witnesses.items():
        for w in group[:3]:
            t_bits = 0
            for i in w:
                t_bits |= 1 << i
            assert label in q4_shape_classify(s, pi, t_bits)
            hist = spectrum(PointSet(sp, base | t_bits)).histogram
            assert set(hist) <= sizes


def test_singular_switch_census_rejects_a_set_without_nucleus():
    # a classical-size quasi-polar set of Q(4,2) on which condition c fails:
    # one non-singular section of the quadric switched for another of its
    # type; a bad input, not a broken invariant
    sp = space_for(4, 2)
    words = "00010 00011 00100 00101 00110 01000 01001 01010 01101 10011 10111 11011 11100 11101 11110"
    s = point_set_from_indices(sp, [sp.point_index[tuple(map(int, w))] for w in words.split()])
    cls = classify(s, PolarKind("parabolic", 4, 2))
    assert cls.quasi_polar and cls.classical_size
    assert find_line_nucleus(s) is None
    with pytest.raises(ValueError, match="no line nucleus"):
        singular_switch_census(s)


# ---------------------------------------------------------------------------
# Shape classification
# ---------------------------------------------------------------------------


def test_q4_shape_classify_rejects_bad_input(singular_census):
    s, res = singular_census
    sp = s.space
    pi = res.extra["hyperplane"]
    with pytest.raises(ValueError, match="PG"):
        q4_shape_classify(canonical("hyperbolic", 3, 2), 0, 0)
    with pytest.raises(ValueError, match="7 points"):
        q4_shape_classify(s, pi, bits_to_indices(sp.incidence[pi])[:6])
    outside = [i for i in range(sp.n_points) if not sp.incidence[pi] >> i & 1]
    with pytest.raises(ValueError, match="inside"):
        q4_shape_classify(s, pi, outside[:7])
    moved, _rec = shifted_nucleus_pivot(s, pi)
    with pytest.raises(ValueError, match="nucleus"):
        q4_shape_classify(moved, pi, s.bits & sp.incidence[pi])


def test_q4_shape_classify_rejects_non_survivor(singular_census):
    s, _res = singular_census
    sp = s.space
    per = spectrum(s).per_hyperplane
    pi = per.index(7)
    pi_pts = bits_to_indices(sp.incidence[pi])
    base = s.bits & ~sp.incidence[pi]
    sizes = set(profile(PolarKind("parabolic", 4, 2)).sizes)
    seen_empty = 0
    for combo in itertools.combinations(pi_pts, 7):
        t_bits = 0
        for i in combo:
            t_bits |= 1 << i
        labels = q4_shape_classify(s, pi, t_bits)
        hist = spectrum(PointSet(sp, base | t_bits)).histogram
        if labels:
            assert set(hist) <= sizes
        else:
            assert not set(hist) <= sizes
            seen_empty += 1
        if seen_empty >= 20:
            break
    assert seen_empty == 20


# ---------------------------------------------------------------------------
# Non-singular switch census
# ---------------------------------------------------------------------------


# H(3,4) sets: |GL(4,4)| / |stabiliser|.  The stabiliser is GU(4,2), of
# order 2^6 (2+1)(4-1)(8+1)(16-1), times the scalars, and every scalar of
# GF(4) is already unitary (r - 1 = 1)
H34_SETS = math.prod(4**4 - 4**i for i in range(4)) // (2**6 * 3 * 3 * 9 * 15)


@pytest.mark.parametrize(
    "fam,m,q,n_cand",
    [
        ("hyperbolic", 3, 3, 234),
        ("elliptic", 3, 3, 234),
        ("hermitian", 3, 4, 280),
        # the Hermitian q >= 4 case of the paper's main theorem
        ("hermitian", 4, 4, H34_SETS),
    ],
)
def test_nonsingular_switch_census_identity_only(fam, m, q, n_cand):
    s = canonical(fam, m, q)
    res = nonsingular_switch_census(s, PolarKind(fam, m, q))
    assert res.name == "nonsingular-switch"
    sub_fam = census._SECTION_FAMILIES[fam][0]
    assert res.breakdown[f"{sub_fam}_identity"] == 1
    assert res.breakdown[f"{sub_fam}_other_survivor"] == 0
    assert res.breakdown[f"{sub_fam}_not_quasi_polar"] == n_cand - 1
    assert res.witnesses[f"{sub_fam}_other_survivor"] == []
    assert res.extra["candidates"][sub_fam] == n_cand


def _dot_incidence(sp):
    """Hyperplane bitmasks from dot products mod p (prime q only)."""
    p = sp.q
    masks = []
    for h in sp.points:
        mask = 0
        for i, x in enumerate(sp.points):
            if sum(a * b for a, b in zip(h, x)) % p == 0:
                mask |= 1 << i
        masks.append(mask)
    return masks


@pytest.mark.parametrize(
    "fam,m,q,others",
    [
        # over GF(2) and GF(3) the identity is not the only survivor; on
        # Q(4,2) every same-type set survives, which q2-switch rests on
        ("parabolic", 4, 2, {"elliptic": 167, "hyperbolic": 279}),
        ("parabolic", 4, 3, {"elliptic": 10, "hyperbolic": 16}),
        ("elliptic", 5, 2, {"parabolic": 447}),
    ],
)
def test_nonsingular_switch_census_small_q_survivors(fam, m, q, others):
    sp = space_for(m, q)
    s = canonical(fam, m, q)
    res = nonsingular_switch_census(s, PolarKind(fam, m, q))
    assert {k: res.breakdown[f"{k}_other_survivor"] for k in others} == others
    # recount over the same candidates; the admissible sizes are those of s
    inc = _dot_incidence(sp)
    sizes = {(s.bits & h).bit_count() for h in inc}
    for sub_fam, n_other in others.items():
        pi = res.extra["hyperplanes"][sub_fam]
        hmask = inc[pi]
        geom = subgeometry(sp, hyperplane_flat(sp, pi))
        cands = enumerate_quadrics(geom.sub, PolarKind(sub_fam, m - 1, q))
        assert len(cands) == res.extra["candidates"][sub_fam]
        survivors = 0
        for cand in cands:
            t_bits = geom.mask_to_ambient(cand.bits)
            assert not t_bits & ~hmask
            bits = (s.bits & ~hmask) | t_bits
            survivors += all((bits & h).bit_count() in sizes for h in inc)
        assert survivors == n_other + 1
        assert res.breakdown[f"{sub_fam}_not_quasi_polar"] == len(cands) - survivors


def test_nonsingular_switch_census_rejects_non_classical():
    sp = space_for(3, 3)
    with pytest.raises(ValueError):
        nonsingular_switch_census(PointSet(sp, 0), PolarKind("hyperbolic", 3, 3))


def test_nonsingular_switch_census_checks_the_orbit_cap_first():
    # the parabolic sections of Q-(5,3) are the 4,586,868 quadrics of PG(4,3),
    # over the cap: the census refuses before it builds a subgeometry or lines
    kind = PolarKind("elliptic", 5, 3)
    sp = pg.ProjSpace(5, build_field(3))
    s = point_set(canonical_form(kind, sp))
    with pytest.raises(SpaceTooLarge, match="enumeration cap"):
        nonsingular_switch_census(s, kind)
    assert sp._subgeoms == {}
    assert sp._lines_through is None


# ---------------------------------------------------------------------------
# Plane-table survivor kernel and subgeometry nucleus test
# ---------------------------------------------------------------------------


def _incident_incidence(sp):
    """Hyperplane bitmasks from per-pair ``pg.incident`` (any q)."""
    return [
        sum(1 << p for p in range(sp.n_points) if pg.incident(sp, h, p))
        for h in range(sp.n_points)
    ]


def _recount_survivors(sp, s, pi, sections, sizes):
    """The sections T (subgeometry masks) for which (s off pi) ∪ T meets
    every hyperplane in one of sizes, by a full recount."""
    inc = _dot_incidence(sp) if sp.q == sp.f.p else _incident_incidence(sp)
    base = s.bits & ~inc[pi]
    geom = subgeometry(sp, hyperplane_flat(sp, pi))
    out = set()
    for t in sections:
        bits = base | geom.mask_to_ambient(t)
        if all((bits & h).bit_count() in sizes for h in inc):
            out.add(t)
    return out


def _kernel_survivors(sp, s, pi, sections, sizes):
    _geom, survives = census._switch_test(sp, s.bits, pi, sizes)
    return {t for t in sections if survives(t)}


@pytest.mark.parametrize(
    "fam,m,q",
    [
        ("parabolic", 4, 2),
        ("parabolic", 4, 3),
        ("elliptic", 5, 2),
        ("hyperbolic", 3, 3),
        ("elliptic", 3, 3),
        ("hermitian", 3, 4),
    ],
)
def test_plane_table_survivors_match_full_recount(fam, m, q):
    sp = space_for(m, q)
    s = canonical(fam, m, q)
    sizes = set(profile(PolarKind(fam, m, q)).sizes)
    per = spectrum(s).per_hyperplane
    for sub_fam in census._SECTION_FAMILIES[fam]:
        sub_kind = PolarKind(sub_fam, m - 1, q)
        pi = per.index(classical_cardinality(sub_kind))
        geom = subgeometry(sp, hyperplane_flat(sp, pi))
        cands = [c.bits for c in enumerate_quadrics(geom.sub, sub_kind)]
        got = _kernel_survivors(sp, s, pi, cands, sizes)
        assert got == _recount_survivors(sp, s, pi, cands, sizes)
        assert s.bits & sp.incidence[pi] in {geom.mask_to_ambient(t) for t in got}


@pytest.mark.parametrize("size", [5, 7, 9])
def test_plane_table_survivors_every_subset_of_a_solid(size):
    # every subset of one solid of each type of Q(4,2), of every size; for
    # the singular solid these include the 6,435 seven-subsets that the
    # singular switch walks, survivors and non-survivors alike.  Some
    # subsets of the elliptic solid pass every plane and fail only |T| in
    # sizes.
    sp = space_for(4, 2)
    s = canonical("parabolic", 4, 2)
    sizes = set(profile(PolarKind("parabolic", 4, 2)).sizes)
    pi = spectrum(s).per_hyperplane.index(size)
    subsets = range(1 << 15)
    got = _kernel_survivors(sp, s, pi, subsets, sizes)
    assert got == _recount_survivors(sp, s, pi, subsets, sizes)
    assert {t.bit_count() for t in got} <= sizes
    if size == 7:
        assert sum(t.bit_count() == 7 for t in subsets) == 6435
        assert sum(t.bit_count() == 7 for t in got) == 104


def test_subgeometry_nucleus_test_matches_find_line_nucleus():
    # the 2^15 - 6,435 sections T of one hyperplane of each type of Q(4,2)
    # with |T| != 7.  A nucleus inside pi needs every line through it in pi
    # to meet T once, so |T| = theta_2 = 7: none of these sets has one there,
    # and the test, which looks off pi only, finds every nucleus
    sp = space_for(4, 2)
    s = canonical("parabolic", 4, 2)
    per = spectrum(s).per_hyperplane
    nuclei_off_pi = 0
    for size in (5, 7, 9):
        pi = per.index(size)
        hmask = sp.incidence[pi]
        base = s.bits & ~hmask
        geom = subgeometry(sp, hyperplane_flat(sp, pi))
        has_nucleus = census._nucleus_test(sp, geom, s.bits, pi)
        for t in range(1 << 15):
            if t.bit_count() == 7:
                continue
            x = PointSet(sp, base | geom.mask_to_ambient(t))
            nuclei = sum(1 << n for n in line_nuclei(x))
            assert has_nucleus(t) == (find_line_nucleus(x) is not None), (size, t)
            assert not nuclei & hmask, (size, t)
            nuclei_off_pi += bool(nuclei)
    assert nuclei_off_pi > 0


def test_switch_censuses_raise_no_invariant_on_switched_quadrics():
    # all of these are classical-size quasi-polar sets, 121 of them quadrics.
    # A census may refuse an input (ValueError, exit 2); an InvariantViolated,
    # a RuntimeError, would report a bug for a valid input and fail the test
    sp = space_for(4, 2)
    kind = PolarKind("parabolic", 4, 2)
    sets = q42_switched_sets()
    quadrics = {t.bits for t in enumerate_quadrics(sp, kind)}
    assert len(sets) == 3523
    assert sum(bits in quadrics for bits in sets) == 121
    censuses = {
        "nucleus-pivot": nucleus_pivot_census,
        "singular-switch": singular_switch_census,
        "nonsingular-switch": lambda x: nonsingular_switch_census(x, kind),
    }
    refused = Counter()
    for bits in random.Random(11).sample(sets, 300):
        s = PointSet(sp, bits)
        for name, run in censuses.items():
            try:
                run(s)
            except ValueError:
                assert bits not in quadrics, name
                refused[name] += 1
    # nonsingular-switch refuses a set only when no section of one size is a
    # classical set: 2,142 of all 3,523 sets
    assert refused == {"nucleus-pivot": 293, "singular-switch": 293, "nonsingular-switch": 179}


def test_switch_censuses_do_no_per_candidate_ambient_work(monkeypatch):
    calls = Counter()
    to_ambient = pg.SubGeometry.mask_to_ambient

    def counted(geom, bits):
        calls["mask_to_ambient"] += 1
        return to_ambient(geom, bits)

    def no_nucleus_search(_s):
        raise AssertionError("find_line_nucleus called")

    monkeypatch.setattr(pg.SubGeometry, "mask_to_ambient", counted)
    monkeypatch.setattr(census, "find_line_nucleus", no_nucleus_search)
    res = nucleus_pivot_census(canonical("parabolic", 4, 2))
    assert res.total_candidates == 448
    # only the witnesses are mapped: ten per base type
    assert calls["mask_to_ambient"] <= 20

    calls.clear()
    res = nonsingular_switch_census(canonical("parabolic", 4, 3), PolarKind("parabolic", 4, 3))
    survivors = sum(
        v for k, v in res.breakdown.items() if k.endswith(("_identity", "_other_survivor"))
    )
    assert survivors == 28
    assert calls["mask_to_ambient"] <= survivors


# ---------------------------------------------------------------------------
# Classical type distributions
# ---------------------------------------------------------------------------


def test_classical_distribution_q43_all_planes():
    # size-4 sections split into conics and full quadric lines
    sp = space_for(4, 3)
    form = canonical_form(PolarKind("parabolic", 4, 3), sp)
    tally = Counter()
    for flat in flats_of_codim(sp, 2):
        d = classical_distribution(form, flat)
        tally[(d["flat_section"], tuple(sorted(d["hyperplanes"].items())))] += 1
    assert tally == {
        (1, (("elliptic", 3), ("singular", 1))): 120,
        (4, (("elliptic", 1), ("hyperbolic", 1), ("singular", 2))): 540,
        (4, (("elliptic", 2), ("hyperbolic", 2))): 270,
        (4, (("singular", 4),)): 40,
        (7, (("hyperbolic", 3), ("singular", 1))): 240,
    }
    assert sum(tally.values()) == 1210


def test_classical_distribution_q44_split_by_nucleus():
    # every plane through the nucleus meets the quadric in a line
    sp = space_for(4, 4)
    form = canonical_form(PolarKind("parabolic", 4, 4), sp)
    nuc = nucleus_point(form)
    tally = Counter()
    for flat in flats_of_codim(sp, 2):
        through = bool(flat.mask() >> nuc & 1)
        d = classical_distribution(form, flat)
        tally[(through, d["flat_section"], tuple(sorted(d["hyperplanes"].items())))] += 1
    assert tally == {
        (False, 1, (("elliptic", 4), ("singular", 1))): 510,
        (False, 5, (("elliptic", 2), ("hyperbolic", 2), ("singular", 1))): 4080,
        (False, 9, (("hyperbolic", 4), ("singular", 1))): 850,
        (True, 5, (("singular", 5),)): 357,
    }


def test_classical_distribution_hermitian_lines():
    sp = space_for(3, 4)
    form = canonical_form(PolarKind("hermitian", 3, 4), sp)
    tally = Counter()
    for flat in flats_of_codim(sp, 2):
        d = classical_distribution(form, flat)
        tally[(d["flat_section"], tuple(sorted(d["hyperplanes"].items())))] += 1
    assert tally == {
        (1, (("nonsingular", 4), ("singular", 1))): 90,
        (3, (("nonsingular", 2), ("singular", 3))): 240,
        (5, (("singular", 5),)): 27,
    }


@pytest.mark.parametrize("fam,m,q", [("parabolic", 4, 3), ("elliptic", 5, 2), ("hermitian", 3, 4)])
def test_classical_dist_census_uses_lines_not_flat_spans(fam, m, q, monkeypatch):
    """The census tallies what classical_distribution gives each flat, from
    the lines and the incidence alone: no flat is spanned point by point."""
    kind = PolarKind(fam, m, q)
    sp = space_for(m, q)
    form = canonical_form(kind, sp)
    expect = Counter()
    for flat in flats_of_codim(sp, 2):
        d = classical_distribution(form, flat)
        expect[f"sec={d['flat_section']};" + ";".join(f"{k}={v}" for k, v in d["hyperplanes"].items())] += 1

    def boom(*args):
        raise AssertionError("per-flat span in the census")

    for module, name in [
        (pg, "span_points"),
        (forms, "span_points"),
        (pg, "flats_of_codim"),
        (census, "classical_distribution"),
        (census, "hyperplanes_containing"),
    ]:
        monkeypatch.setattr(module, name, boom)
    res = census.classical_dist_census(kind)
    assert res.breakdown == dict(sorted(expect.items()))
    assert res.total_candidates == sum(expect.values())


# ---------------------------------------------------------------------------
# Two-secant counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,q,expect", [(4, 2, 4), (4, 4, 32), (6, 2, 16)])
def test_two_secant_count_off_points(m, q, expect):
    sp = space_for(m, q)
    form = canonical_form(PolarKind("parabolic", m, q), sp)
    zeros = point_set(form)
    nuc = nucleus_point(form)
    checked = 0
    for p in range(sp.n_points):
        if zeros.contains(p) or p == nuc:
            continue
        assert two_secant_count(form, p) == expect
        checked += 1
        if checked == 8:
            break
    assert checked == 8


def test_two_secant_count_rejects_special_points():
    sp = space_for(4, 2)
    form = canonical_form(PolarKind("parabolic", 4, 2), sp)
    zeros = point_set(form)
    with pytest.raises(PointOnQuadric):
        two_secant_count(form, zeros.indices()[0])
    with pytest.raises(PointIsNucleus):
        two_secant_count(form, nucleus_point(form))
    odd = canonical_form(PolarKind("parabolic", 4, 3), space_for(4, 3))
    with pytest.raises(IncompatibleKind):
        two_secant_count(odd, 0)


# ---------------------------------------------------------------------------
# Result serialization
# ---------------------------------------------------------------------------


def test_census_result_dict_shape(singular_census):
    _s, res = singular_census
    d = res.to_dict()
    assert set(d) == {
        "name",
        "space",
        "total_candidates",
        "breakdown",
        "witnesses",
        "extra",
    }
    assert d["space"] == {"m": 4, "q": 2}
    import json

    json.dumps(d)
