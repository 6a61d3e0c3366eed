"""End-to-end checks, one test per shipping requirement.

Each test is self-contained and pins exact values; the slow ones also pin
wall-clock budgets.  Frozen numbers were recomputed from scratch with
independent scripts before being written down here.
"""

import itertools
import json
import random
import subprocess
import sys
import time

from qps import census, surgery
from qps.census import (
    enumerate_quadrics,
    nonsingular_switch_census,
    nucleus_pivot_census,
    singular_switch_census,
    two_secant_count,
)
from qps.forms import (
    PolarKind,
    canonical_form,
    cone,
    cone_vertices,
    nucleus_point,
    point_class,
    point_set,
)
from qps.pg import (
    PointSet,
    bits_to_indices,
    flats_of_codim,
    hyperplane_flat,
    line_through,
    space_for,
    subgeometry,
)
from qps.spectra import (
    cardinality_roots,
    classify,
    find_line_nucleus,
    nucleus_conditions,
    profile,
    spectrum,
)

from cone_helpers import cone_decomposition, tangent_hyperplane
from line_helpers import line_masks


def canonical(fam, m, q):
    space = space_for(m, q)
    form = canonical_form(PolarKind(fam, m, q), space)
    return space, form, point_set(form)


def first_hyperplane_of_size(s, size):
    space = s.space
    for h in range(space.n_points):
        if (s.bits & space.incidence[h]).bit_count() == size:
            return h
    raise AssertionError(f"no hyperplane section of size {size}")


# ---------------------------------------------------------------------------
# 1. nucleus pivot census on PG(4,2) reproduces the replacement-quadric
#    counts, single-threaded, under a minute
# ---------------------------------------------------------------------------


def test_01_nucleus_pivot_census_counts():
    _, _, s = canonical("parabolic", 4, 2)
    t0 = time.perf_counter()
    res = nucleus_pivot_census(s, threads=1)
    elapsed = time.perf_counter() - t0
    assert res.breakdown == {
        "hyperbolic_no_nucleus": 270,
        "hyperbolic_with_nucleus": 10,
        "elliptic_no_nucleus": 162,
        "elliptic_with_nucleus": 6,
    }
    assert res.breakdown["hyperbolic_no_nucleus"] + res.breakdown[
        "hyperbolic_with_nucleus"
    ] == 280
    assert res.breakdown["elliptic_no_nucleus"] + res.breakdown[
        "elliptic_with_nucleus"
    ] == 168
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. canonical spectra match the profile counts across the desk-scale grid
# ---------------------------------------------------------------------------


def test_02_canonical_spectra_battery():
    battery = [("parabolic", 2, q) for q in (2, 3, 4, 5, 7, 8)]
    battery += [("parabolic", 4, q) for q in (2, 3, 4)]
    battery += [("parabolic", 6, 2)]
    for q in (2, 3, 4):
        battery += [("hyperbolic", 3, q), ("elliptic", 3, q)]
    battery += [("hyperbolic", 5, 2), ("elliptic", 5, 2)]
    battery += [("hermitian", 2, 4), ("hermitian", 3, 4)]
    t0 = time.perf_counter()
    for fam, m, q in battery:
        _, _, s = canonical(fam, m, q)
        prof = profile(PolarKind(fam, m, q))
        assert spectrum(s).histogram == prof.expected_counts, (fam, m, q)
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3. the second cardinality root is integral exactly for lines (elliptic,
#    m=3) and Baer subplanes (hermitian, m=2) on the q <= 9 grid
# ---------------------------------------------------------------------------


def test_03_cardinality_root_integrality():
    grid = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in (3, 5, 7):
            grid.append(("hyperbolic", m, q))
            grid.append(("elliptic", m, q))
    for q in (4, 9):
        for m in (2, 3):
            grid.append(("hermitian", m, q))
    assert len(grid) == 46
    for fam, m, q in grid:
        rep = cardinality_roots(PolarKind(fam, m, q))
        if fam == "elliptic" and m == 3:
            assert rep.other_integral and rep.other_root == q + 1
            assert rep.tag == "line"
        elif fam == "hermitian" and m == 2:
            root = {4: 7, 9: 13}[q]
            assert rep.other_integral and rep.other_root == root
            assert rep.tag == "baer_subplane"
        else:
            assert not rep.other_integral, (fam, m, q, rep.other_root)
            assert rep.tag is None


# ---------------------------------------------------------------------------
# 4. pivoting in a singular hyperplane with three distinct non-identity
#    bases keeps the set quasi-polar, for all five base families
# ---------------------------------------------------------------------------


def test_04_pivot_three_bases_each_kind():
    cases = [
        ("parabolic", 4, 2, 28),
        ("parabolic", 4, 3, 234),
        ("hyperbolic", 5, 2, 280),
        ("elliptic", 5, 2, 168),
        ("hermitian", 3, 4, 10),
    ]
    for fam, m, q, n_bases in cases:
        kind = PolarKind(fam, m, q)
        space, _, s = canonical(fam, m, q)
        prof = profile(kind)
        pi = first_hyperplane_of_size(s, prof.singular_size)
        _, mu, base = cone_decomposition(s, pi)
        geom = subgeometry(space, mu)
        cands = enumerate_quadrics(geom.sub, PolarKind(fam, m - 2, q))
        assert len(cands) == n_bases
        picked = []
        for c in cands:
            amb = geom.mask_to_ambient(c.bits)
            if amb != base.bits:
                picked.append(PointSet(space, amb))
            if len(picked) == 3:
                break
        assert len(picked) == 3
        seen = set()
        for nb in picked:
            res, rec = surgery.pivot(s, kind, pi, nb)
            assert res.bits != s.bits
            seen.add(res.bits)
            cls = classify(res, kind)
            assert cls.quasi_polar and cls.classical_size, (fam, m, q)
        assert len(seen) == 3


# ---------------------------------------------------------------------------
# coordinate line scan for tests 5 and 6: cone vertices found from normalised
# coordinate tuples alone, with its own GF(2)/GF(4) arithmetic (elements
# encoded as in qps.gf: a0 + 2*a1, modulo x^2 + x + 1), never through
# lines_through or incidence bitmasks
# ---------------------------------------------------------------------------


def _mul4(a, b):
    r = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
    return r ^ 0b111 if r & 4 else r


def _normalised(v):
    lead = next(c for c in v if c)
    inv = next(t for t in (1, 2, 3) if _mul4(lead, t) == 1)
    return tuple(_mul4(inv, c) for c in v)


def _hyperplane_coords(dual, q):
    """Normalised points x of PG(len(dual) - 1, q) with dual . x = 0."""
    out = set()
    for v in itertools.product(range(q), repeat=len(dual)):
        if any(v) and _normalised(v) == v:
            dot = 0
            for a, b in zip(dual, v):
                dot ^= _mul4(a, b)
            if dot == 0:
                out.add(v)
    return out


def _coords(space, bits):
    return {space.points[i] for i in bits_to_indices(bits)}


def _cone_scan(section, ambient, q):
    """{vertex: lines through it inside the section} over the points ambient.

    A vertex v is a point whose every line meets the section off v in 0 or
    q points; each line is stored as the frozenset of its q points off v.
    """
    out = {}
    for v in ambient:
        lines = set()
        for x in ambient - {v}:
            off_v = frozenset(
                _normalised(tuple(a ^ _mul4(t, b) for a, b in zip(x, v)))
                for t in range(q)
            )
            hits = len(off_v & section)
            if hits == q:
                lines.add(off_v)
            elif hits:
                break
        else:
            out[v] = lines
    return out


def _gf2_rank(vectors):
    basis = []
    for v in vectors:
        x = int("".join(map(str, v)), 2)
        for b in basis:
            x = min(x, x ^ b)
        if x:
            basis.append(x)
    return len(basis)


def _triangle_cone_vertex(section, ambient):
    """The vertex of a 7-point cone over three non-coplanar lines of PG(3,2)."""
    scan = _cone_scan(section, ambient, 2)
    assert len(scan) == 1, sorted(scan)
    ((y, lines),) = scan.items()
    assert len(lines) == 3
    assert section == {y}.union(*lines)
    assert _gf2_rank(section) == 4
    return y


# ---------------------------------------------------------------------------
# 5. exhaustive replacement of a singular section of Q(4,2): the spectrum
#    filter and the constructive shape families give the same survivors
# ---------------------------------------------------------------------------


def test_05_singular_switch_census_agreement():
    space, _, s = canonical("parabolic", 4, 2)
    prof = profile(PolarKind("parabolic", 4, 2))
    sizes = set(prof.sizes)
    t0 = time.perf_counter()
    res = singular_switch_census(s, threads=2)
    assert res.total_candidates == 6435
    assert res.breakdown == {
        "not_quasi_polar": 6331,
        "cone_vertex": 28,
        "cone_nucleus": 28,
        "truncated_vertex_plus_nucleus_line": 24,
        "truncated_nucleus_plus_vertex_line": 24,
    }

    # independent enumeration: raw spectrum filter over all 7-subsets
    pi = res.extra["hyperplane"]
    hmask = space.incidence[pi]
    base_bits = s.bits & ~hmask
    inc = space.incidence
    brute = set()
    for combo in itertools.combinations(bits_to_indices(hmask), 7):
        t_bits = 0
        for i in combo:
            t_bits |= 1 << i
        bits = base_bits | t_bits
        if all((bits & inc[h]).bit_count() in sizes for h in range(space.n_points)):
            brute.add(t_bits)
    assert len(brute) == 104

    # the families are masks of pi's own PG(3,2)
    geom = subgeometry(space, hyperplane_flat(space, pi))
    families = census._q42_shape_families(
        geom.sub, geom.from_ambient[res.extra["vertex"]], geom.from_ambient[res.extra["nucleus"]]
    )
    union = set()
    for members in families.values():
        union |= {geom.mask_to_ambient(t) for t in members}
    assert brute == union
    assert time.perf_counter() - t0 < 10.0

    # every survivor is a cone over a triangle (three non-coplanar lines);
    # a triangle is a conic of PG(2,2), so no switch confined to pi gives a
    # section that is not a cone over a quasi-polar base (see test 6)
    plane = _hyperplane_coords(space.points[pi], 2)
    for t_bits in brute:
        _triangle_cone_vertex(_coords(space, t_bits), plane)


# ---------------------------------------------------------------------------
# 6. cone swap is a switch other than pivoting at the section vertex P: the
#    output stays quasi-polar of classical size, and its section is not a
#    cone over a quasi-polar base in Q(4,4) and Q(6,2).  In Q(4,2) every
#    admissible section is a cone over a triangle (test 5), so there the
#    section must be such a cone with its vertex moved off P, in the
#    truncated-vertex-plus-nucleus-line family.
# ---------------------------------------------------------------------------


def test_06_cone_swap_section_not_a_cone():
    offenders = []
    for m, q in [(4, 2), (4, 4), (6, 2)]:
        kind = PolarKind("parabolic", m, q)
        space, _, s = canonical("parabolic", m, q)
        prof = profile(kind)
        pi = first_hyperplane_of_size(s, prof.singular_size)
        res, rec = surgery.cone_swap(s, pi)
        cls = classify(res, kind)
        assert cls.quasi_polar and cls.classical_size, (m, q)
        swapped = res.bits & space.incidence[pi]
        geom = subgeometry(space, hyperplane_flat(space, pi))
        sec = PointSet(geom.sub, geom.mask_from_ambient(swapped))

        # the coordinate scan sees P as the only vertex before the swap and
        # agrees with forms.cone_vertices after it
        plane = _hyperplane_coords(space.points[pi], q)
        vertex = space.points[rec.vertex]
        before = _coords(space, s.bits & space.incidence[pi])
        assert set(_cone_scan(before, plane, q)) == {vertex}, (m, q)
        after = _coords(space, swapped)
        assert before | after <= plane
        assert set(_cone_scan(after, plane, q)) == {
            space.points[geom.to_ambient[v]] for v in cone_vertices(sec)
        }, (m, q)

        if (m, q) == (4, 2):
            assert _triangle_cone_vertex(after, plane) != vertex
            assert census.q4_shape_classify(s, pi, swapped) == [
                "truncated_vertex_plus_nucleus_line"
            ]
            continue
        for v in cone_vertices(sec):
            h_sub = next(
                h
                for h in range(geom.sub.n_points)
                if not geom.sub.incidence[h] >> v & 1
            )
            base_bits = geom.sub.incidence[h_sub] & sec.bits
            inner = subgeometry(geom.sub, hyperplane_flat(geom.sub, h_sub))
            bcls = classify(
                PointSet(inner.sub, inner.mask_from_ambient(base_bits)),
                PolarKind("parabolic", m - 2, q),
            )
            if bcls.quasi_polar:
                offenders.append(f"parabolic({m},{q}): vertex {v}")
    # (4,4) and (6,2): no cone vertex of the section sits over a quasi-polar
    # base
    assert offenders == []


# ---------------------------------------------------------------------------
# 7. repeated pivoting along a line with a non-identity base keeps the type
# ---------------------------------------------------------------------------


def test_07_repeated_pivot_non_identity():
    for fam, m, q in [("hyperbolic", 5, 2), ("parabolic", 4, 2)]:
        kind = PolarKind(fam, m, q)
        space, _, s = canonical(fam, m, q)
        p, r = next(
            (a, b)
            for a, b in itertools.combinations(s.indices(), 2)
            if not line_through(space, a, b).bits & ~s.bits
        )
        ident, _ = surgery.repeated_pivot(s, kind, p, r)
        assert ident.bits == s.bits

        hp = tangent_hyperplane(s, profile(kind).singular_size, p)
        _, mu, base = cone_decomposition(s, hp)
        geom = subgeometry(space, mu)
        found = False
        for c in enumerate_quadrics(geom.sub, PolarKind(fam, m - 2, q)):
            amb = geom.mask_to_ambient(c.bits)
            if amb == base.bits:
                continue
            try:
                res, rec = surgery.repeated_pivot(
                    s, kind, p, r, {p: PointSet(space, amb)}
                )
            except (
                surgery.ConstraintViolated,
                surgery.BaseWrongType,
                surgery.NoConeDecomposition,
            ):
                continue
            assert res.bits != s.bits
            cls = classify(res, kind)
            assert cls.quasi_polar, (fam, m, q)
            found = True
            break
        assert found, (fam, m, q)


# ---------------------------------------------------------------------------
# 8. removing the symmetric difference of two generators through a wall
#    turns a hyperbolic quadric over GF(2) into an elliptic quasi-quadric
# ---------------------------------------------------------------------------


def test_08_affine_switch_elliptic_outputs():
    for m, size in [(3, 5), (5, 27)]:
        space, _, s = canonical("hyperbolic", m, 2)
        res, rec = surgery.affine_switch(s)
        assert res.size == size
        ell = PolarKind("elliptic", m, 2)
        assert spectrum(res).histogram == profile(ell).expected_counts
        cls = classify(res, ell)
        assert cls.quasi_polar and cls.classical_size


# ---------------------------------------------------------------------------
# 9. the q=3 class-preserving switch on Q(4,3): both section types give
#    40-point quasi-quadrics with a trisecant; internal point counts match
# ---------------------------------------------------------------------------


def test_09_q3_switch_and_internal_counts():
    kind = PolarKind("parabolic", 4, 3)
    space, form, s = canonical("parabolic", 4, 3)

    internal_total = sum(
        1
        for p in range(space.n_points)
        if not s.contains(p) and point_class(form, p) == "internal"
    )

    prof = profile(kind)
    for sec_size, fam, sub_singular in [(10, "elliptic", 1), (16, "hyperbolic", 7)]:
        xi = first_hyperplane_of_size(s, sec_size)
        xi_mask = space.incidence[xi]
        pi_sub = next(
            fl
            for fl in flats_of_codim(space, 2)
            if not fl.mask() & ~xi_mask
            and (fl.mask() & s.bits & xi_mask).bit_count() == sub_singular
        )
        res, rec = surgery.internal_switch_q3(s, xi, pi_sub)
        assert res.size == 40
        cls = classify(res, kind)
        assert cls.quasi_polar and cls.classical_size
        assert rec.removed.size == rec.added.size == sec_size - sub_singular == 9
        assert any(
            (line & res.bits).bit_count() == 3 for line in line_masks(space)
        ), "no trisecant, so the output would be a quadric"

        if fam == "elliptic":
            internal_in_xi = sum(
                1
                for p in bits_to_indices(xi_mask & ~s.bits)
                if point_class(form, p) == "internal"
            )
            assert internal_in_xi == 15
            zone = xi_mask & ~pi_sub.mask()
            internal_zone = {
                p
                for p in bits_to_indices(zone & ~s.bits)
                if point_class(form, p) == "internal"
            }
            assert len(internal_zone) == 9
            assert set(rec.added.indices()) == internal_zone
    assert internal_total == 36


# ---------------------------------------------------------------------------
# 10. nucleus condition flags: implication lattice over a mixed corpus
# ---------------------------------------------------------------------------


def test_10_nucleus_condition_lattice():
    rng = random.Random(20260818)
    corpus = []

    parabolics = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (4, 2), (4, 3), (4, 4), (6, 2)]
    for m, q in parabolics:
        kind = PolarKind("parabolic", m, q)
        space, _, s = canonical("parabolic", m, q)
        corpus.append((kind, s))
        idx = s.indices()
        out = [p for p in range(space.n_points) if not s.contains(p)]
        for k in (1, 2, 3):
            for _ in range(6):
                bits = s.bits
                for d in rng.sample(idx, k):
                    bits &= ~(1 << d)
                for a in rng.sample(out, k):
                    bits |= 1 << a
                corpus.append((kind, PointSet(space, bits)))

    # surgery outputs in even ambient dimension
    for m, q in [(4, 2), (4, 4), (6, 2)]:
        kind = PolarKind("parabolic", m, q)
        space, _, s = canonical("parabolic", m, q)
        pi = first_hyperplane_of_size(s, profile(kind).singular_size)
        corpus.append((kind, surgery.cone_swap(s, pi)[0]))
        corpus.append((kind, surgery.shifted_nucleus_pivot(s, pi)[0]))
    kind42 = PolarKind("parabolic", 4, 2)
    space42, _, s42 = canonical("parabolic", 4, 2)
    pi42 = first_hyperplane_of_size(s42, profile(kind42).singular_size)
    _, mu, base = cone_decomposition(s42, pi42)
    geom = subgeometry(space42, mu)
    for c in enumerate_quadrics(geom.sub, PolarKind("parabolic", 2, 2))[:4]:
        nb = PointSet(space42, geom.mask_to_ambient(c.bits))
        corpus.append((kind42, surgery.pivot(s42, kind42, pi42, nb)[0]))
    kind43 = PolarKind("parabolic", 4, 3)
    space43, _, s43 = canonical("parabolic", 4, 3)
    for sec_size, sub_singular in [(10, 1), (16, 7)]:
        xi = first_hyperplane_of_size(s43, sec_size)
        xi_mask = space43.incidence[xi]
        pi_sub = next(
            fl
            for fl in flats_of_codim(space43, 2)
            if not fl.mask() & ~xi_mask
            and (fl.mask() & s43.bits & xi_mask).bit_count() == sub_singular
        )
        corpus.append((kind43, surgery.internal_switch_q3(s43, xi, pi_sub)[0]))

    assert len(corpus) >= 200
    for kind, s in corpus:
        rep = nucleus_conditions(s)
        f = rep.flags()
        a, b, bp = f["a"], f["b"], f["b_prime"]
        c, cp, d, dp = f["c"], f["c_prime"], f["d"], f["d_prime"]
        label = (kind.m, kind.q, rep.size)
        if b and c:
            assert bp, label
        if a and bp and d:
            assert b and c, label
        if a and bp and c:
            assert b and dp, label
        assert (a and bp and cp) == (a and b and c), label
        if bp and dp:
            assert a and kind.q % 2 == 0, label
        if a and bp:
            assert rep.singular_count == rep.expected_singular, label


# ---------------------------------------------------------------------------
# 11. the shifted pivot removes the nucleus
# ---------------------------------------------------------------------------


def test_11_shifted_pivot_has_no_nucleus():
    for m, q in [(4, 2), (4, 4), (6, 2)]:
        kind = PolarKind("parabolic", m, q)
        space, _, s = canonical("parabolic", m, q)
        assert find_line_nucleus(s) is not None
        pi = first_hyperplane_of_size(s, profile(kind).singular_size)
        res, rec = surgery.shifted_nucleus_pivot(s, pi)
        cls = classify(res, kind)
        assert cls.quasi_polar and cls.classical_size, (m, q)
        assert find_line_nucleus(res) is None, (m, q)


# ---------------------------------------------------------------------------
# 12. two-secant count through every eligible point
# ---------------------------------------------------------------------------


def test_12_two_secant_count_every_point():
    for m, q, want in [(4, 2, 4), (4, 4, 32), (6, 2, 16)]:
        space, form, s = canonical("parabolic", m, q)
        nuc = nucleus_point(form)
        checked = 0
        for p in range(space.n_points):
            if s.contains(p) or p == nuc:
                continue
            assert two_secant_count(form, p) == want, (m, q, p)
            checked += 1
        assert checked == space.n_points - s.size - 1


# ---------------------------------------------------------------------------
# 13. replacing a non-singular section by any same-type classical set is
#     the identity, exhaustively over all candidates
# ---------------------------------------------------------------------------


def test_13_nonsingular_switch_identity_only():
    cases = [
        ("hyperbolic", 3, 3, 234),
        ("elliptic", 3, 3, 234),
        ("parabolic", 4, 4, 258048),
        ("hermitian", 3, 4, 280),
    ]
    t0 = time.perf_counter()
    for fam, m, q, n_cand in cases:
        kind = PolarKind(fam, m, q)
        _, _, s = canonical(fam, m, q)
        res = nonsingular_switch_census(s, kind, threads=2)
        assert res.total_candidates == n_cand
        sub_fams = [
            key[: -len("_identity")]
            for key in res.breakdown
            if key.endswith("_identity")
        ]
        assert sub_fams
        for sub in sub_fams:
            assert res.breakdown[f"{sub}_identity"] == 1, (fam, m, q)
            assert res.breakdown[f"{sub}_other_survivor"] == 0, (fam, m, q)
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 14. plane-level switches: ovals over GF(3) and GF(4), Baer subplane cut
# ---------------------------------------------------------------------------


def test_14_plane_classifications():
    # exhaustive oval switching in PG(2,3): identity or external-point swap
    kind = PolarKind("parabolic", 2, 3)
    space, form, oval = canonical("parabolic", 2, 3)
    survivors = []
    for L in range(space.n_points):
        lmask = space.incidence[L]
        lpts = bits_to_indices(lmask)
        for k in range(len(lpts) + 1):
            for keep in itertools.combinations(lpts, k):
                bits = oval.bits & ~lmask
                for i in keep:
                    bits |= 1 << i
                if bin(bits).count("1") != 4:
                    continue
                if classify(PointSet(space, bits), kind).quasi_polar:
                    survivors.append((L, bits))
    identities = [pair for pair in survivors if pair[1] == oval.bits]
    swaps = [pair for pair in survivors if pair[1] != oval.bits]
    assert len(identities) == 13
    assert len(swaps) == 12
    for L, bits in swaps:
        lmask = space.incidence[L]
        assert (lmask & oval.bits).bit_count() == 2
        gone = oval.bits & ~bits
        new = bits & ~oval.bits
        assert gone.bit_count() == 1 and new.bit_count() == 1
        assert lmask >> (gone.bit_length() - 1) & 1
        added = new.bit_length() - 1
        assert lmask >> added & 1
        assert point_class(form, added) == "external"

    # oval plus nucleus in PG(2,4)
    kind4 = PolarKind("parabolic", 2, 4)
    space4, form4, oval4 = canonical("parabolic", 2, 4)
    tangent = first_hyperplane_of_size(oval4, 1)
    res, rec = surgery.oval_nucleus_swap(oval4, tangent)
    assert res.contains(nucleus_point(form4))
    cls = classify(res, kind4)
    assert cls.quasi_polar and cls.classical_size

    # Baer subplane minus a trisecant line leaves a 4-point quasi-conic
    baer = 0
    for p in range(space4.n_points):
        if all(x in (0, 1) for x in space4.points[p]):
            baer |= 1 << p
    assert bin(baer).count("1") == 7
    tri = next(
        h
        for h in range(space4.n_points)
        if (space4.incidence[h] & baer).bit_count() == 3
    )
    cut = PointSet(space4, baer & ~space4.incidence[tri])
    assert cut.size == 4
    cls = classify(cut, kind4)
    assert cls.quasi_polar and not cls.classical_size


# ---------------------------------------------------------------------------
# 15. censuses and reports are byte-identical across thread counts
# ---------------------------------------------------------------------------


def test_15_thread_determinism(tmp_path):
    pts = tmp_path / "q42.qps"
    build = subprocess.run(
        [
            sys.executable,
            "-m",
            "qps.cli",
            "construct",
            "canonical",
            "--kind",
            "parabolic",
            "--m",
            "4",
            "--q",
            "2",
            "--out",
            str(pts),
        ],
        capture_output=True,
    )
    assert build.returncode == 0, build.stderr

    commands = [
        ["census", "nucleus-pivot", "--json"],
        ["census", "singular-switch", "--json"],
        ["census", "nonsingular-switch", "--kind", "hyperbolic", "--m", "3", "--q", "3", "--json"],
        ["census", "quadrics", "--kind", "elliptic", "--m", "3", "--q", "2", "--json"],
        ["census", "classical-dist", "--kind", "hermitian", "--m", "3", "--q", "4", "--json"],
        ["census", "two-secants", "--json"],
        ["spectrum", "--in", str(pts), "--kind", "parabolic", "--json"],
        ["verify", "conditions", "--in", str(pts), "--json"],
        ["roots", "--kind", "hyperbolic", "--m", "3", "--q", "3", "--json"],
    ]
    for cmd in commands:
        outs = []
        for threads in ("1", "8"):
            run = subprocess.run(
                [sys.executable, "-m", "qps.cli", "--threads", threads, *cmd],
                capture_output=True,
            )
            assert run.returncode == 0, (cmd, run.stderr)
            outs.append(run.stdout)
        assert outs[0] == outs[1], cmd
        json.loads(outs[0])
