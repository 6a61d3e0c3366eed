import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from qps import census, cli, forms, pg, spectra
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
    line_through,
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

from line_helpers import forbid_all_lines
from switched_sets import projective_image, q42_switched_sets


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


def test_enumerate_guard_rejects_large_orbit_fast(monkeypatch, capsys):
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
    # the cap is checked before the space is built: PG(7,7) has 960,800 points
    monkeypatch.setattr(pg, "_SPACES", {})
    assert cli.run(["census", "quadrics", "--kind", "elliptic", "--m", "7", "--q", "7"]) == 2
    assert capsys.readouterr().err.endswith(" classical sets exceed the enumeration cap\n")
    assert (7, 7) not in pg._SPACES


def test_orbit_cap_from_the_dimension_alone():
    """Above ORBIT_MAX_M every kind of every supported order has more sets
    than ORBIT_CAP, by the closed form written here, so the refusal needs no
    count; it still names the space and ends as the counted refusals do."""
    from qps.gf import SUPPORTED_ORDERS

    top = census.ORBIT_MAX_M
    checked = 0
    for fam in ("parabolic", "hyperbolic", "elliptic", "hermitian"):
        for q in SUPPORTED_ORDERS:
            for m in range(top + 1, top + 5):
                try:
                    kind = PolarKind(fam, m, q)
                except forms.IncompatibleKind:
                    continue
                assert _gl_order(m + 1, q) // _stabiliser_order(fam, m + 1, q) > census.ORBIT_CAP
                with pytest.raises(SpaceTooLarge) as exc:
                    census._orbit_size(kind)
                assert str(exc.value) == f"PG({m},{q}): over {census.ORBIT_CAP} classical sets exceed the enumeration cap"
                checked += 1
    assert checked > 80
    start = time.perf_counter()
    for m in (10**4, 10**10):
        with pytest.raises(SpaceTooLarge, match=rf"^PG\({m},2\): over "):
            census._orbit_size(PolarKind("parabolic", m, 2))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("fam,m,q", [("elliptic", 7, 7), ("parabolic", 6, 5)])
def test_nonsingular_switch_checks_the_cap_before_any_space(fam, m, q, monkeypatch, capsys):
    # the sections' orbits are over the cap, which is arithmetic: the census
    # is refused before the form is evaluated at the 960,800 points of
    # PG(7,7) or the 19,531 of PG(6,5), and before any space is built
    monkeypatch.setattr(pg, "_SPACES", {})
    argv = ["census", "nonsingular-switch", "--kind", fam, "--m", str(m), "--q", str(q)]
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(" classical sets exceed the enumeration cap\n")
    assert (m, q) not in pg._SPACES
    assert (m - 1, q) not in pg._SPACES


@pytest.mark.parametrize(
    "name,m,q,guard",
    [
        ("classical-dist", 6, 7, "PG(6,7) incidence table needs about 2246 MiB"),
        ("two-secants", 6, 8, "PG(6,8) incidence table needs about 10700 MiB"),
    ],
)
def test_table_censuses_check_the_guard_before_the_form(name, m, q, guard, monkeypatch, capsys):
    def evaluated(form):
        raise AssertionError("the form was evaluated before the table guard")

    monkeypatch.setattr(census, "point_set", evaluated)
    monkeypatch.setattr(pg, "_SPACES", {})
    argv = ["census", name, "--kind", "parabolic", "--m", str(m), "--q", str(q)]
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == f"error: {guard}\n"


@pytest.mark.parametrize("fam,m,q", [("hyperbolic", 5, 4), ("parabolic", 4, 9), ("elliptic", 5, 9)])
def test_two_secant_census_checks_the_kind_before_any_space(fam, m, q, monkeypatch, capsys):
    # 2-secant counts need a parabolic form over a field of even order: any
    # other kind is refused before its space, incidence or form is built
    monkeypatch.setattr(pg, "_SPACES", {})
    argv = ["census", "two-secants", "--kind", fam, "--m", str(m), "--q", str(q)]
    assert cli.run(argv) == 2
    assert capsys.readouterr() == ("", "error: two-secant count needs a parabolic form, q even\n")
    assert (m, q) not in pg._SPACES


@pytest.fixture
def empty_conic_table(monkeypatch):
    """No cached orbit of the conics of PG(2,4), so that a test sees the search
    run, not an orbit an earlier test stored; the entry comes back after the
    test."""
    monkeypatch.delitem(census._ORBITS, PolarKind("parabolic", 2, 4), raising=False)


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
    built = []
    monkeypatch.setattr(census, "PointSet", lambda *args: built.append(args) or PointSet(*args))
    with pytest.raises(InvariantViolated, match="orbit"):
        enumerate_quadrics(sp, kind)
    # no entry, so no orbit and no point sets are kept, and none were built
    assert kind not in census._ORBITS
    assert built == []
    monkeypatch.setattr(census, "_pgl_generators", gens)
    sets = enumerate_quadrics(sp, kind)
    assert [s.bits for s in sets] == _form_scan(sp, kind)
    assert len(built) == len(sets)
    assert census._ORBITS[kind][2] == tuple(sets)


def test_enumerate_returns_a_new_list_each_call():
    sp = space_for(2, 3)
    kind = PolarKind("parabolic", 2, 3)
    first = enumerate_quadrics(sp, kind)
    first.clear()
    second = enumerate_quadrics(sp, kind)
    assert second is not first
    assert [s.bits for s in second] == _form_scan(sp, kind)
    assert enumerate_quadrics(sp, kind) == second


def test_warm_enumerate_returns_the_kept_point_sets(monkeypatch, empty_conic_table):
    sp = space_for(2, 4)
    kind = PolarKind("parabolic", 2, 4)
    first = enumerate_quadrics(sp, kind)

    def built(*args):
        raise AssertionError("a warm call built a point set")

    monkeypatch.setattr(census, "PointSet", built)
    second = enumerate_quadrics(sp, kind)
    assert second is not first and second == first
    assert all(a is b for a, b in zip(first, second, strict=True))
    assert [s.bits for s in second] == _form_scan(sp, kind)
    # a cleared entry is searched again and keeps no set of the old one
    monkeypatch.setattr(census, "PointSet", PointSet)
    monkeypatch.delitem(census._ORBITS, kind)
    fresh = enumerate_quadrics(sp, kind)
    assert fresh == first
    assert not any(a is b for a, b in zip(first, fresh, strict=True))


def test_enumerate_hands_out_sets_of_the_space_asked_for(monkeypatch):
    kind = PolarKind("hyperbolic", 3, 2)
    old = space_for(3, 2)
    kept = enumerate_quadrics(old, kind)
    monkeypatch.setattr(pg, "_SPACES", {})
    new = space_for(3, 2)
    assert new is not old
    sets = enumerate_quadrics(new, kind)
    assert all(s.space is new for s in sets)
    assert [s.bits for s in sets] == [s.bits for s in kept]
    # equal point sets share a space, so the old space's sets are not equal
    assert not set(sets) & set(kept)
    again = enumerate_quadrics(new, kind)
    assert all(a is b for a, b in zip(sets, again, strict=True))
    assert all(s.space is old for s in enumerate_quadrics(old, kind))


def test_warm_orbit_table_keeps_the_checks(monkeypatch):
    # orbits of the same kinds, stored by real searches
    for fam, m, q in [("parabolic", 2, 2), ("hyperbolic", 3, 2), ("parabolic", 4, 2)]:
        enumerate_quadrics(space_for(m, q), PolarKind(fam, m, q))
    with pytest.raises(IncompatibleKind):
        enumerate_quadrics(space_for(3, 2), PolarKind("parabolic", 2, 2))
    with pytest.raises(IncompatibleKind):
        enumerate_quadrics(space_for(2, 2), PolarKind("hyperbolic", 3, 2))
    # the cap: an entry for the 4,586,868 parabolic quadrics of PG(4,3) is
    # never read, and a real one is not read once the cap is below its size
    monkeypatch.setitem(census._ORBITS, PolarKind("parabolic", 4, 3), ((0,), None))
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
    sub_fam = spectra._SECTION_FAMILIES[fam][0]
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


def test_nonsingular_switch_census_checks_the_orbit_cap_first(monkeypatch):
    # the parabolic sections of Q-(5,3) are the 4,586,868 quadrics of PG(4,3),
    # over the cap: the census refuses before it builds a subgeometry or lines
    forbid_all_lines(monkeypatch)
    kind = PolarKind("elliptic", 5, 3)
    sp = pg.ProjSpace(5, build_field(3))
    s = point_set(canonical_form(kind, sp))
    with pytest.raises(SpaceTooLarge, match="enumeration cap"):
        nonsingular_switch_census(s, kind)
    assert sp._subgeoms == {}
    assert sp._lines == {}


# ---------------------------------------------------------------------------
# Plane-table survivor kernel and subgeometry nucleus test
# ---------------------------------------------------------------------------


def _incident_incidence(sp):
    """Hyperplane bitmasks from per-pair ``pg.incident`` (any q)."""
    return [
        sum(1 << p for p in range(sp.n_points) if pg.incident(sp, h, p))
        for h in range(sp.n_points)
    ]


@functools.cache
def _hyperplane_masks(sp):
    """Hyperplane bitmasks counted without ``space.incidence``."""
    return _dot_incidence(sp) if sp.q == sp.f.p else _incident_incidence(sp)


def _recount_survivors(sp, s, pi, sections, sizes):
    """The sections T (subgeometry masks) for which (s off pi) ∪ T meets
    every hyperplane in one of sizes, by a full recount."""
    inc = _hyperplane_masks(sp)
    base = s.bits & ~inc[pi]
    geom = subgeometry(sp, hyperplane_flat(sp, pi))
    out = set()
    for t in sections:
        bits = base | geom.mask_to_ambient(t)
        if all((bits & h).bit_count() in sizes for h in inc):
            out.add(t)
    return out


def _kernel_survivors(sp, s, pi, sections, sizes, t_sizes):
    # the sections, all of one size, as a family of pi's own PG(m-1, q)
    family = census._Family(sections, space_for(sp.m - 1, sp.q).n_points, t_sizes)
    _, checks = census._switch_test(sp, s.bits, pi, sizes, family)
    return set(census._survivors(checks, family))


PLANE_TABLE_SPACES = [
    ("parabolic", 2, 3),
    ("parabolic", 2, 4),
    ("parabolic", 2, 8),
    ("hermitian", 2, 4),
    ("hermitian", 2, 9),
    ("hyperbolic", 3, 3),
    ("elliptic", 3, 3),
    ("hyperbolic", 3, 4),
    ("elliptic", 3, 4),
    ("hermitian", 3, 4),
    ("parabolic", 4, 2),
    ("parabolic", 4, 3),
    ("elliptic", 5, 2),
]
# tables that _switch_test keeps at the census's hyperplane of each section
# family, out of one per hyperplane of pi plus pi's own; the others allow
# every size a classical set of the family can have and are dropped
TABLES_KEPT = {
    ("parabolic", 4, 2, "elliptic"): 0,
    ("parabolic", 4, 2, "hyperbolic"): 0,
    ("parabolic", 4, 3, "elliptic"): 15,
    ("parabolic", 4, 3, "hyperbolic"): 12,
    ("hyperbolic", 3, 3, "parabolic"): 13,
    ("elliptic", 3, 3, "parabolic"): 13,
    ("hermitian", 3, 4, "hermitian"): 21,
    ("elliptic", 5, 2, "parabolic"): 31,
}


@pytest.mark.parametrize("fam,m,q", PLANE_TABLE_SPACES)
def test_plane_table_survivors_match_full_recount(fam, m, q):
    # the canonical set and two projective images; the kernel runs on the
    # tables built for the candidates' sizes, and the census reports exactly
    # what the recount finds
    sp = space_for(m, q)
    kind = PolarKind(fam, m, q)
    sizes = set(profile(kind).sizes)
    s0 = canonical(fam, m, q)
    for s in (s0, projective_image(s0, f"tables {fam}"), projective_image(s0, f"tables {m} {q}")):
        res = nonsingular_switch_census(s, kind)
        for sub_fam in spectra._SECTION_FAMILIES[fam]:
            sub = profile(PolarKind(sub_fam, m - 1, q))
            pi = res.extra["hyperplanes"][sub_fam]
            pi_space = space_for(m - 1, q)
            cands = [c.bits for c in enumerate_quadrics(pi_space, sub.kind)]
            family = census._Family(cands, pi_space.n_points, sub.sizes)
            geom, checks = census._switch_test(sp, s.bits, pi, sizes, family)
            assert len(checks) == TABLES_KEPT.get((fam, m, q, sub_fam), len(checks))
            # a hyperplane of pi is a point of its dual, and pi's own table is dropped
            assert len(checks) <= geom.sub.n_points and sub.cardinality in sizes
            got = census._survivors(checks, family)
            want = _recount_survivors(sp, s, pi, cands, sizes)
            assert set(got) == want
            ident = geom.mask_from_ambient(s.bits)
            assert ident in want
            others = sorted(geom.mask_to_ambient(t) for t in want - {ident})
            assert {k: res.breakdown[f"{sub_fam}_{k}"] for k in ("identity", "other_survivor", "not_quasi_polar")} == {
                "identity": 1,
                "other_survivor": len(others),
                "not_quasi_polar": len(cands) - len(want),
            }
            assert res.witnesses[f"{sub_fam}_other_survivor"] == [bits_to_indices(t) for t in others[:10]]


def test_plane_table_survivors_match_full_recount_on_switched_sets():
    # classical-size quasi-polar sets of PG(4,2) other than quadrics, at a
    # seeded hyperplane of each non-singular size: tables are kept wherever
    # the base lets a classical set fail
    sp = space_for(4, 2)
    sizes = set(profile(PolarKind("parabolic", 4, 2)).sizes)
    rng = random.Random(19)
    kept = 0
    for bits in rng.sample(q42_switched_sets(), 100):
        s = PointSet(sp, bits)
        per = spectrum(s).per_hyperplane
        for sub_fam in ("elliptic", "hyperbolic"):
            sub = profile(PolarKind(sub_fam, 3, 2))
            pi = rng.choice([h for h, v in enumerate(per) if v == sub.cardinality])
            family = census._orbit_family(sub.kind)
            _, checks = census._switch_test(sp, bits, pi, sizes, family)
            got = census._survivors(checks, family)
            assert set(got) == _recount_survivors(sp, s, pi, family.cands, sizes)
            kept += len(checks)
    assert kept > 0


@pytest.mark.parametrize("size", [5, 7, 9])
def test_plane_table_survivors_every_subset_of_a_solid(size):
    # every subset of one solid of each type of Q(4,2), of every size, with
    # the tables built per size; for the singular solid these include the
    # 6,435 seven-subsets that the singular switch walks, survivors and
    # non-survivors alike.  Some subsets of the elliptic solid pass every
    # plane and fail only |T| in sizes, the table of pi that is kept when
    # |T| is not in sizes.
    sp = space_for(4, 2)
    s = canonical("parabolic", 4, 2)
    sizes = set(profile(PolarKind("parabolic", 4, 2)).sizes)
    pi = spectrum(s).per_hyperplane.index(size)
    subsets = range(1 << 15)
    got = set()
    for card in range(16):
        group = [t for t in subsets if t.bit_count() == card]
        got |= _kernel_survivors(sp, s, pi, group, sizes, range(8))
    assert got == _recount_survivors(sp, s, pi, subsets, sizes)
    assert {t.bit_count() for t in got} <= sizes
    if size == 7:
        assert sum(t.bit_count() == 7 for t in subsets) == 6435
        assert sum(t.bit_count() == 7 for t in got) == 104


@pytest.mark.parametrize(
    "fam,m,q",
    sorted({(sub, m - 1, q) for fam, m, q in PLANE_TABLE_SPACES for sub in spectra._SECTION_FAMILIES[fam]}),
)
def test_section_kind_sizes_hold_for_every_classical_set(fam, m, q):
    # what dropping a table rests on: every candidate of a switch census has
    # the section kind's cardinality and meets each hyperplane of its space
    # in one of the kind's sizes, counted here from hyperplanes of the test's own
    sp = space_for(m, q)
    prof = profile(PolarKind(fam, m, q))
    inc = _hyperplane_masks(sp)
    for t in census._orbit(prof.kind):
        assert t.bit_count() == prof.cardinality
        assert {(t & h).bit_count() for h in inc} <= set(prof.sizes)


class NoColumns:
    def __getitem__(self, i):
        raise AssertionError("a column was read")


def test_nucleus_pivot_census_adds_no_column_on_q42(monkeypatch):
    # every table of both section families of Q(4,2) allows every size a
    # classical set of the family has, at every non-singular hyperplane
    tables = []
    survivors = census._survivors

    def recorded(checks, family):
        tables.append(len(checks))
        monkeypatch.setattr(family, "cols", NoColumns())
        return survivors(checks, family)

    monkeypatch.setattr(census, "_survivors", recorded)
    s = canonical("parabolic", 4, 2)
    for t in (s, projective_image(s, "no column")):
        tables.clear()
        res = nucleus_pivot_census(t)
        assert res.total_candidates == 448
        assert res.extra["hyperplanes_checked"] == {"hyperbolic": 10, "elliptic": 6}
        assert tables == [0] * 16
        tables.clear()
        res = nonsingular_switch_census(t, PolarKind("parabolic", 4, 2))
        assert res.breakdown["elliptic_other_survivor"] == 167
        assert tables == [0, 0]


def _columns_by_loop(cands, n):
    return [sum(1 << c for c, t in enumerate(cands) if t >> i & 1) for i in range(n)]


def _loop_survivors(checks, cands):
    return [t for t in cands if all((t & mask).bit_count() in ok for mask, ok in checks)]


@pytest.mark.parametrize("m,q", [(3, 2), (3, 3), (4, 2), (2, 9)])
def test_survivors_match_a_per_candidate_loop(m, q):
    # random families of mixed cardinalities against random tables: masks
    # from the incidence, random masks and the whole space, allowed sets that
    # are empty, hold counts some candidates have, or hold counts that need
    # more bits than the counter's bit-planes
    sp = space_for(m, q)
    n = sp.n_points
    rng = random.Random(f"kernel {m} {q}")
    for _ in range(25):
        density = rng.random()
        cands = [
            sum(1 << i for i in range(n) if rng.random() < density)
            for _ in range(rng.randint(1, 400))
        ]
        family = census._Family(cands, n, range(n + 1))
        assert family.cols == _columns_by_loop(cands, n)
        checks = []
        for _ in range(rng.randint(1, 6)):
            mask = rng.choice([rng.choice(sp.incidence), rng.getrandbits(n), sp.all_mask])
            size = mask.bit_count()
            counts = {(t & mask).bit_count() for t in rng.sample(cands, min(3, len(cands)))}
            ok = rng.choice([
                frozenset(),
                frozenset(counts),
                frozenset(counts | {rng.randint(0, size)}),
                frozenset(rng.sample(range(size + 1), rng.randint(1, size + 1))),
                frozenset({size + 1, 1 << size.bit_length(), 3 << size.bit_length()}),
            ])
            checks.append((mask, ok))
            # each table alone, so that an early stop hides no table
            got = census._survivors([(mask, ok)], family)
            assert got == _loop_survivors([(mask, ok)], cands)
        # the masks asked for again are read from their kept classes
        assert census._survivors(checks, family) == _loop_survivors(checks, cands)
        assert census._survivors([], family) == list(cands)


def test_orbit_columns_follow_the_orbit_tuple(monkeypatch):
    kind = PolarKind("elliptic", 3, 2)
    cands = census._orbit(kind)
    monkeypatch.setitem(census._ORBITS, kind, (cands, None, None))
    built = []
    columns = census._columns

    def counted(cands, n):
        built.append(cands)
        return columns(cands, n)

    monkeypatch.setattr(census, "_columns", counted)
    family = census._orbit_family(kind)
    assert family.cands is cands and built == [cands]
    assert family.cols == _columns_by_loop(cands, 15)
    assert family.sizes == profile(kind).sizes
    # about n * N / 8 bytes: one N-bit int per point
    assert sum(c.bit_length() for c in family.cols) <= 15 * len(cands)
    assert census._orbit_family(kind) is family and built == [cands]
    assert census._ORBITS[kind] == (cands, family, None)
    # another orbit tuple held for the kind gets its own family and columns
    half = cands[::2]
    monkeypatch.setitem(census._ORBITS, kind, (half, None, None))
    got = census._orbit_family(kind)
    assert got.cands is half and got.cols == _columns_by_loop(half, 15)
    assert built == [cands, half]
    # a cleared entry is searched again: equal sets, a new tuple, new columns
    monkeypatch.delitem(census._ORBITS, kind)
    fresh = census._orbit_family(kind)
    assert fresh.cands == cands and fresh.cands is not cands and fresh.cols == family.cols
    assert built == [cands, half, fresh.cands]
    assert census._ORBITS[kind][0] is fresh.cands
    # a census switches in the sets of the tuple that the entry holds
    monkeypatch.setitem(census._ORBITS, kind, (half, None, None))
    res = nonsingular_switch_census(canonical("parabolic", 4, 2), PolarKind("parabolic", 4, 2))
    assert res.extra["candidates"]["elliptic"] == len(half)
    assert res.breakdown["elliptic_other_survivor"] == len(half) - 1
    assert census._ORBITS[kind][0] is half


def _fresh_family(monkeypatch, kind):
    """The census entry of the kind with no family yet, so that a test sees
    size classes kept from none; the entry comes back after the test."""
    monkeypatch.setitem(census._ORBITS, kind, (census._orbit(kind), None, None))


def test_only_nucleus_pivot_builds_member_sets(monkeypatch):
    # the Q(3,2) families' member sets are built by the first nucleus-pivot
    # census and kept; a switch census of another kind builds none
    q32 = [PolarKind(fam, 3, 2) for fam in ("hyperbolic", "elliptic")]
    q33 = [PolarKind(fam, 3, 3) for fam in ("hyperbolic", "elliptic")]
    for kind in q32 + q33:
        _fresh_family(monkeypatch, kind)
    nonsingular_switch_census(canonical("parabolic", 4, 3), PolarKind("parabolic", 4, 3))
    assert [census._ORBITS[k][1]._members for k in q33] == [None, None]
    res = nucleus_pivot_census(projective_image(canonical("parabolic", 4, 2), "members"))
    for kind in q32:
        family = census._orbit_family(kind)
        assert family.members() == frozenset(family.cands)
        assert family.members() is family.members()
        n = len(family.cands)
        assert res.breakdown[f"{kind.family}_no_nucleus"] + res.breakdown[f"{kind.family}_with_nucleus"] == n
    assert [census._ORBITS[k][1]._members for k in q33] == [None, None]


# the switch censuses whose section families keep tables, with the section
# kinds of each
KEPT_CLASS_CASES = [
    ("parabolic", 4, 3),
    ("elliptic", 5, 2),
    ("hermitian", 3, 4),
    ("hyperbolic", 3, 3),
    ("elliptic", 3, 3),
]


@pytest.mark.parametrize("fam,m,q", KEPT_CLASS_CASES)
def test_kept_size_classes_match_a_per_candidate_loop(fam, m, q, monkeypatch):
    # 20 seeded images, each switched at a hyperplane of its own: the classes
    # a family keeps at one pi are read again at the next, and the survivors
    # stay those of a per-candidate loop
    sp = space_for(m, q)
    kind = PolarKind(fam, m, q)
    sizes = set(profile(kind).sizes)
    subs = [profile(PolarKind(f, m - 1, q)) for f in spectra._SECTION_FAMILIES[fam]]
    for sub in subs:
        _fresh_family(monkeypatch, sub.kind)
    s0 = canonical(fam, m, q)
    pis = {sub.kind.family: set() for sub in subs}
    for i in range(20):
        s = projective_image(s0, f"kept classes {i}")
        res = nonsingular_switch_census(s, kind)
        for sub in subs:
            pi = res.extra["hyperplanes"][sub.kind.family]
            pis[sub.kind.family].add(pi)
            family = census._orbit_family(sub.kind)
            _, checks = census._switch_test(sp, s.bits, pi, sizes, family)
            want = _loop_survivors(checks, family.cands)
            assert census._survivors(checks, family) == want
            assert res.breakdown[f"{sub.kind.family}_other_survivor"] == len(want) - 1
    for sub in subs:
        assert len(pis[sub.kind.family]) > 1
        assert census._orbit_family(sub.kind)._classes


def test_kept_seven_subset_classes_match_a_per_candidate_loop(monkeypatch):
    # the singular switch's 7-subsets at the singular hyperplanes of switched
    # Q(4,2) sets, two per set, through one family of their own
    sp = space_for(4, 2)
    sizes = set(profile(PolarKind("parabolic", 4, 2)).sizes)
    family = census._Family(census._seven_subsets().cands, 15, range(8))
    monkeypatch.setattr(census, "_seven_subsets", lambda: family)
    rng = random.Random(25)
    for bits in rng.sample(q42_switched_sets(), 20):
        per = spectrum(PointSet(sp, bits)).per_hyperplane
        for pi in rng.sample([h for h, v in enumerate(per) if v == 7], 2):
            _, checks = census._switch_test(sp, bits, pi, sizes, family)
            assert census._survivors(checks, family) == _loop_survivors(checks, family.cands)
    assert family._classes
    res = singular_switch_census(projective_image(canonical("parabolic", 4, 2), "kept sevens"))
    assert res.breakdown == {
        "not_quasi_polar": 6331,
        "cone_vertex": 28,
        "cone_nucleus": 28,
        "truncated_vertex_plus_nucleus_line": 24,
        "truncated_nucleus_plus_vertex_line": 24,
    }


def test_size_classes_asked_for_twice_read_no_column_again(monkeypatch):
    # Q-(5,2) has a table at every hyperplane of pi: two censuses ask for
    # each class twice, and a third on a fresh image reads no column
    kind = PolarKind("elliptic", 5, 2)
    sub_kind = PolarKind("parabolic", 4, 2)
    _fresh_family(monkeypatch, sub_kind)
    s0 = canonical("elliptic", 5, 2)
    first = nonsingular_switch_census(projective_image(s0, "twice 0"), kind)
    family = census._orbit_family(sub_kind)
    assert not family._classes
    nonsingular_switch_census(projective_image(s0, "twice 1"), kind)
    assert len(family._classes) == 31
    monkeypatch.setattr(family, "cols", NoColumns())
    res = nonsingular_switch_census(projective_image(s0, "twice 2"), kind)
    assert res.breakdown == first.breakdown
    assert res.breakdown["parabolic_other_survivor"] == 447
    # on Q(4,3) only some classes are asked for twice: exactly those are
    # kept, and a fresh image builds none of them again
    kind = PolarKind("parabolic", 4, 3)
    asked = Counter()
    classes = census._Family.classes

    def counted(family, tau):
        if tau in family._classes:
            cols, family.cols = family.cols, NoColumns()
            try:
                return classes(family, tau)
            finally:
                family.cols = cols
        asked[(id(family), tau)] += 1
        return classes(family, tau)

    monkeypatch.setattr(census._Family, "classes", counted)
    subs = [PolarKind(f, 3, 3) for f in ("elliptic", "hyperbolic")]
    for sub_kind in subs:
        _fresh_family(monkeypatch, sub_kind)
    s0 = canonical("parabolic", 4, 3)
    for i in range(4):
        nonsingular_switch_census(projective_image(s0, f"twice q43 {i}"), kind)
    kept = {(id(fam), tau) for fam in map(census._orbit_family, subs) for tau in fam._classes}
    assert kept and kept == {key for key, n in asked.items() if n > 1}
    assert max(asked.values()) == 2
    nonsingular_switch_census(projective_image(s0, "twice q43 fresh"), kind)
    assert max(asked.values()) == 2


def test_cold_census_keeps_no_size_class(monkeypatch):
    # a census meets each hyperplane of pi once per family, so a family used
    # by one census keeps no class; its classes were built all the same
    kind = PolarKind("parabolic", 4, 3)
    subs = [PolarKind(f, 3, 3) for f in ("elliptic", "hyperbolic")]
    for sub_kind in subs:
        _fresh_family(monkeypatch, sub_kind)
    nonsingular_switch_census(canonical("parabolic", 4, 3), kind)
    for sub_kind in subs:
        family = census._orbit_family(sub_kind)
        assert family._seen and not family._classes
    family = census._Family(census._seven_subsets().cands, 15, range(8))
    monkeypatch.setattr(census, "_seven_subsets", lambda: family)
    singular_switch_census(canonical("parabolic", 4, 2))
    assert family._seen and not family._classes


@pytest.mark.parametrize("fam,m,q", [("elliptic", 3, 3), ("parabolic", 4, 2), ("hermitian", 2, 4)])
def test_corrupted_column_breaks_the_size_classes(fam, m, q):
    # one candidate's point flipped in one column: at a hyperplane through
    # that point it meets one point more or fewer, a size no set of the kind
    # has there, so the classes no longer cover every candidate
    kind = PolarKind(fam, m, q)
    sp = space_for(m, q)
    family = census._Family(census._orbit(kind), sp.n_points, profile(kind).sizes)
    family.cols[0] ^= 1
    tau = next(h for h in sp.incidence if h & 1)
    with pytest.raises(InvariantViolated, match="size classes"):
        family.classes(tau)
    # a hyperplane off the point still partitions the candidates
    tau = next(h for h in sp.incidence if not h & 1)
    assert sum(c.bit_count() for c in family.classes(tau).values()) == len(family.cands)


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
        required = census._nucleus_test(sp, geom, s.bits, pi)
        for t in range(1 << 15):
            if t.bit_count() == 7:
                continue
            x = PointSet(sp, base | geom.mask_to_ambient(t))
            nuclei = sum(1 << n for n in line_nuclei(x))
            assert (t in required) == (find_line_nucleus(x) is not None), (size, t)
            assert not nuclei & hmask, (size, t)
            nuclei_off_pi += bool(nuclei)
    assert nuclei_off_pi > 0


@functools.cache
def _line_points(n, y):
    """The points of line ny of PG(4, 2), from pg.line_through."""
    return line_through(space_for(4, 2), n, y).bits


def test_nucleus_test_matches_lines_through_each_point():
    # required is {T_n : n off pi and off base}, with y of pi in T_n exactly
    # when line ny holds no base point, at every hyperplane of the canonical
    # Q(4,2), two images and 20 switched sets; read from line_through, not
    # from lines_through or pi's frame
    sp = space_for(4, 2)
    s = canonical("parabolic", 4, 2)
    sets = [s.bits] + [projective_image(s, f"partners {i}").bits for i in range(2)]
    sets += random.Random(29).sample(q42_switched_sets(), 20)
    for bits in sets:
        per = spectrum(PointSet(sp, bits)).per_hyperplane
        assert set(per) <= {5, 7, 9}
        for pi in range(sp.n_points):
            hmask = sp.incidence[pi]
            base = bits & ~hmask
            geom = subgeometry(sp, hyperplane_flat(sp, pi))
            want = set()
            for n in bits_to_indices(sp.all_mask & ~hmask & ~base):
                ys = [y for y in bits_to_indices(hmask) if not _line_points(n, y) & base]
                want.add(pg.indices_to_bits(geom.from_ambient[y] for y in ys))
            assert census._nucleus_test(sp, geom, bits, pi) == want, (bits, pi)


@pytest.mark.parametrize("m,q", [(4, 2), (3, 3), (3, 4), (4, 3), (5, 2)])
def test_frame_tau_images_match_the_dual_vector_in_pi(m, q):
    # for h != pi, tau = h ∩ pi in pi's coordinates is the hyperplane of pi's
    # own space with dual vector (h·b_0, ..., h·b_k), b_i pi's RREF basis;
    # the pencils split the hyperplanes other than pi, q to each tau
    sp = space_for(m, q)
    for pi in (0, random.Random(f"frame {m} {q}").randrange(1, sp.n_points)):
        frame = census._frame(sp, pi)
        geom = frame.geom
        assert geom == subgeometry(sp, hyperplane_flat(sp, pi))
        seen = []
        for tau, pencil in frame.pencils:
            assert len(pencil) == q
            for h, mask in pencil:
                assert mask == sp.incidence[h] and tau == mask & sp.incidence[pi]
                dual = tuple(pg.dot(sp.f, sp.points[h], b) for b in geom.flat.basis)
                row = geom.sub.point_index[pg.normalize_vec(sp.f, dual)]
                assert frame.image(tau) == geom.sub.incidence[row]
                seen.append(h)
        assert sorted(seen) == [h for h in range(sp.n_points) if h != pi]
        assert len(frame.pencils) == geom.sub.n_points


def test_frames_are_built_on_first_use_and_kept(monkeypatch, tmp_path):
    # a cold census maps the tau of each table it builds but pi's own, once;
    # the same census again maps none
    monkeypatch.setattr(census, "_FRAMES", {})
    inside, mapped = [], []
    switch_test = census._switch_test
    mask_from_ambient = pg.SubGeometry.mask_from_ambient

    def traced_switch_test(space, s_bits, pi, sizes, family):
        inside.append(pi)
        try:
            return switch_test(space, s_bits, pi, sizes, family)
        finally:
            inside.pop()

    def counted(geom, bits):
        if inside:
            mapped.append(bits)
        return mask_from_ambient(geom, bits)

    monkeypatch.setattr(census, "_switch_test", traced_switch_test)
    monkeypatch.setattr(pg.SubGeometry, "mask_from_ambient", counted)
    kind = PolarKind("parabolic", 4, 3)
    s = projective_image(canonical("parabolic", 4, 3), "frames kept")
    res = nonsingular_switch_census(s, kind)
    assert len(census._FRAMES) == 2
    assert len(mapped) == len(set(mapped)) > 0
    cold = list(mapped)
    mapped.clear()
    assert nonsingular_switch_census(s, kind) == res
    assert mapped == []
    sizes = set(profile(kind).sizes)
    tables = 0
    for fam, pi in res.extra["hyperplanes"].items():
        family = census._orbit_family(PolarKind(fam, 3, 3))
        tables += len(switch_test(s.space, s.bits, pi, sizes, family)[1])
    assert tables == len(cold)
    # over GF(3) a line through a point off pi has two more points off it
    geom = census._frame(s.space, 0).geom
    with pytest.raises(InvariantViolated, match="more points off pi"):
        census._nucleus_test(s.space, geom, s.bits, 0)
    # import and the commands that switch nothing build no frame
    out = tmp_path / "q.qps"
    code = (
        "import sys\nimport qps.cli\nfrom qps import census\n"
        f"argv = ['construct', 'canonical', '--kind', 'parabolic', '--m', '4', '--q', '2', '--out', {str(out)!r}]\n"
        f"runs = [argv, ['spectrum', '--in', {str(out)!r}], ['verify', 'conditions', '--in', {str(out)!r}]]\n"
        "print(len(census._FRAMES), [qps.cli.run(a) for a in runs], len(census._FRAMES), file=sys.stderr)\n"
    )
    src = str(Path(census.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert proc.stderr == "0 [0, 0, 0] 0\n"


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
    # the witnesses are read from to_ambient bit by bit
    assert calls["mask_to_ambient"] == 0

    calls.clear()
    monkeypatch.setattr(census, "find_line_nucleus", find_line_nucleus)
    res = singular_switch_census(canonical("parabolic", 4, 2))
    assert sum(map(len, res.witnesses.values())) == 40
    assert calls["mask_to_ambient"] == 0


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
    the lines and the incidence alone: no flat is spanned point by point.
    The only spans are those of the dual lines, two rows each, one per line."""
    kind = PolarKind(fam, m, q)
    sp = space_for(m, q)
    form = canonical_form(kind, sp)
    expect = Counter()
    for flat in flats_of_codim(sp, 2):
        d = classical_distribution(form, flat)
        expect[f"sec={d['flat_section']};" + ";".join(f"{k}={v}" for k, v in d["hyperplanes"].items())] += 1

    def boom(*args):
        raise AssertionError("per-flat span in the census")

    spans = []
    span_points = pg.span_points

    def recorded(space, basis):
        spans.append(len(basis))
        return span_points(space, basis)

    monkeypatch.setattr(pg, "span_points", recorded)
    for module, name in [
        (forms, "span_points"),
        (pg, "flats_of_codim"),
        (census, "classical_distribution"),
        (census, "hyperplanes_containing"),
    ]:
        monkeypatch.setattr(module, name, boom)
    res = census.classical_dist_census(kind)
    assert res.breakdown == dict(sorted(expect.items()))
    # [m+1 choose 2]_q lines, as many as codimension-2 flats
    lines = (q ** (m + 1) - 1) * (q**m - 1) // ((q**2 - 1) * (q - 1))
    assert res.total_candidates == sum(expect.values()) == lines
    assert spans == [2] * lines


def test_classical_dist_census_holds_no_line(monkeypatch):
    # the lines are streamed: after the census a fresh PG(4,3) holds no line
    # mask and has counted none against its table budget
    monkeypatch.setattr(pg, "_SPACES", {})
    res = census.classical_dist_census(PolarKind("parabolic", 4, 3))
    assert res.total_candidates == 1210
    sp = space_for(4, 3)
    assert sp._lines == {} and sp._line_bytes == 0


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


def _two_secants_by_walk(sp, zeros, p):
    """2-secants through p by walking the lines through p that meet the
    quadric: the line pr for each quadric point r on no earlier one."""
    seen = 1 << p
    count = 0
    for r in bits_to_indices(zeros):
        if not seen >> r & 1:
            line = line_through(sp, p, r).bits
            seen |= line
            count += (line & zeros).bit_count() == 2
    return count


@pytest.mark.parametrize("m,q", [(2, 2), (2, 4), (2, 8), (2, 16), (4, 2), (4, 4), (6, 2)])
def test_two_secant_count_matches_a_line_walk(m, q):
    # every off point other than the nucleus lies on q^(m-1)/2 2-secants
    sp = space_for(m, q)
    form = canonical_form(PolarKind("parabolic", m, q), sp)
    zeros = point_set(form).bits
    nuc = nucleus_point(form)
    off = [p for p in range(sp.n_points) if not zeros >> p & 1 and p != nuc]
    assert len(off) == sp.n_points - (q**m - 1) // (q - 1) - 1
    for p in off:
        walked = _two_secants_by_walk(sp, zeros, p)
        assert two_secant_count(form, p) == walked == q ** (m - 1) // 2, p


@pytest.mark.parametrize("m,q", [(4, 8), (6, 4)])
def test_two_secant_census_builds_no_lines(m, q, capsys, monkeypatch):
    # the counts come from the polar hyperplanes, so the census runs where
    # the PG(6,4) line stream is refused and builds no line through any point
    forbid_all_lines(monkeypatch)
    sp = space_for(m, q)
    held = set(sp._lines)
    argv = ["census", "two-secants", "--kind", "parabolic", "--m", str(m), "--q", str(q), "--json"]
    assert cli.run(argv) == 0
    body = json.loads(capsys.readouterr().out)["census"]
    # Q(2n, q) has (q^2n - 1)/(q - 1) points; the others but the nucleus
    # each lie on q^(2n-1)/2 2-secants
    n = m // 2
    off = (q ** (m + 1) - 1) // (q - 1) - (q ** (2 * n) - 1) // (q - 1) - 1
    expect = q ** (2 * n - 1) // 2
    assert body["total_candidates"] == off
    assert body["breakdown"] == {f"two_secants={expect}": off}
    assert body["extra"] == {"expected": expect}
    assert set(sp._lines) == held


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
