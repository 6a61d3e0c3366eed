import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps.forms import PolarKind, canonical_form, point_set
from qps.gf import build_field
from qps.pg import PointSet, ProjSpace, point_set_from_indices, space_for
from qps.spectra import (
    IncompatibleKind,
    NotEvenDimension,
    NotQuasiPolar,
    cardinality_roots,
    classify,
    find_line_nucleus,
    line_nuclei,
    nucleus_conditions,
    profile,
    singular_hyperplanes,
    spectrum,
)


def canonical(fam, m, q):
    return point_set(canonical_form(PolarKind(fam, m, q), space_for(m, q)))


def theta(m, q):
    return (q ** (m + 1) - 1) // (q - 1)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def test_profile_parabolic_q42():
    prof = profile(PolarKind("parabolic", 4, 2))
    assert prof.sizes == (5, 7, 9)
    assert prof.singular_size == 7
    assert prof.expected_counts == {5: 6, 7: 15, 9: 10}
    assert prof.cardinality == 15
    assert not prof.cardinality_forced


def test_profile_elliptic_pg32():
    prof = profile(PolarKind("elliptic", 3, 2))
    assert prof.sizes == (1, 3)
    assert prof.expected_counts == {1: 5, 3: 10}
    assert prof.cardinality == 5
    assert prof.cardinality_forced


def test_profile_hermitian_pg24():
    prof = profile(PolarKind("hermitian", 2, 4))
    assert prof.sizes == (1, 3)
    assert prof.expected_counts == {1: 9, 3: 12}
    assert prof.cardinality == 9


def test_profile_counts_sum_to_hyperplane_count():
    for fam, m, q in [
        ("parabolic", 4, 3),
        ("parabolic", 6, 2),
        ("hyperbolic", 5, 2),
        ("elliptic", 3, 4),
        ("hermitian", 3, 4),
    ]:
        prof = profile(PolarKind(fam, m, q))
        assert sum(prof.expected_counts.values()) == theta(m, q)


def test_profile_double_counting_identity():
    # sum of size*count equals |S| times hyperplanes through a point
    for fam, m, q in [
        ("parabolic", 4, 2),
        ("hyperbolic", 3, 3),
        ("elliptic", 5, 2),
        ("hermitian", 2, 9),
    ]:
        prof = profile(PolarKind(fam, m, q))
        total = sum(s * c for s, c in prof.expected_counts.items())
        assert total == prof.cardinality * theta(m - 1, q)


def test_profile_size_gap_recursion():
    # B - A doubles by q when the ambient dimension drops by 2
    for fam in ("hyperbolic", "elliptic"):
        for q in (2, 3, 4):
            big = profile(PolarKind(fam, 5, q))
            small = profile(PolarKind(fam, 3, q))
            assert big.sizes[1] - big.sizes[0] == q * (
                small.sizes[1] - small.sizes[0]
            )
    big = profile(PolarKind("hermitian", 4, 4))
    small = profile(PolarKind("hermitian", 2, 4))
    assert big.sizes[1] - big.sizes[0] == 4 * (small.sizes[1] - small.sizes[0])


def test_profile_matches_brute_force_spectrum():
    for fam, m, q in [
        ("parabolic", 4, 2),
        ("hyperbolic", 3, 3),
        ("elliptic", 3, 2),
        ("hermitian", 2, 4),
    ]:
        s = canonical(fam, m, q)
        assert spectrum(s).histogram == profile(PolarKind(fam, m, q)).expected_counts


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------


def test_spectrum_hyperbolic_pg32():
    assert spectrum(canonical("hyperbolic", 3, 2)).histogram == {3: 6, 5: 9}


def test_spectrum_empty_and_full():
    sp = space_for(2, 2)
    assert spectrum(PointSet(sp, 0)).histogram == {0: 7}
    assert spectrum(PointSet(sp, (1 << 7) - 1)).histogram == {3: 7}


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**13 - 1))
def test_spectrum_counting_identities(bits):
    sp = space_for(2, 3)
    s = PointSet(sp, bits)
    spec = spectrum(s)
    assert sum(spec.histogram.values()) == 13
    total = sum(size * cnt for size, cnt in spec.histogram.items())
    assert total == s.size * theta(1, 3)
    pair_total = sum(size * (size - 1) * cnt for size, cnt in spec.histogram.items())
    assert pair_total == s.size * (s.size - 1) * 1


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_classical_sets():
    for fam, m, q in [
        ("parabolic", 4, 2),
        ("hyperbolic", 5, 2),
        ("elliptic", 3, 3),
        ("hermitian", 3, 4),
    ]:
        cls = classify(canonical(fam, m, q), PolarKind(fam, m, q))
        assert cls.quasi_polar
        assert cls.classical_size
        assert cls.exceptional is None


def test_classify_space_mismatch():
    with pytest.raises(IncompatibleKind):
        classify(canonical("parabolic", 4, 2), PolarKind("parabolic", 4, 3))


def test_classify_line_is_exceptional_elliptic():
    for q in (2, 3):
        sp = space_for(3, q)
        from qps.pg import line_through

        line = line_through(sp, 0, 1)
        cls = classify(line, PolarKind("elliptic", 3, q))
        assert cls.quasi_polar
        assert cls.exceptional == "line"
        assert not cls.classical_size or q == 2


def test_classify_baer_subplane_exceptional_hermitian():
    sp = space_for(2, 4)
    idx = [
        sp.point_index[v]
        for v in sp.points
        if all(c in (0, 1) for c in v)
    ]
    assert len(idx) == 7
    cls = classify(point_set_from_indices(sp, idx), PolarKind("hermitian", 2, 4))
    assert cls.quasi_polar
    assert cls.exceptional == "baer_subplane"


def test_classify_random_sets_rarely_quasi_polar():
    # a random 15-set occasionally lands on a quadric image, but only rarely
    sp = space_for(4, 2)
    rng = random.Random(411)
    kind = PolarKind("parabolic", 4, 2)
    hits = 0
    for _ in range(300):
        pts = rng.sample(range(31), 15)
        if classify(point_set_from_indices(sp, pts), kind).quasi_polar:
            hits += 1
    assert hits <= 6


# ---------------------------------------------------------------------------
# Cardinality roots
# ---------------------------------------------------------------------------


def test_roots_elliptic_line_case():
    for q in (2, 3, 4, 5, 7, 8, 9):
        rr = cardinality_roots(PolarKind("elliptic", 3, q))
        assert rr.classical_root == q * q + 1
        assert rr.other_root == q + 1
        assert rr.other_integral
        assert rr.tag == "line"


def test_roots_hermitian_baer_case():
    for q in (4, 9):
        rr = cardinality_roots(PolarKind("hermitian", 2, q))
        r = 2 if q == 4 else 3
        assert rr.other_root == q + r + 1
        assert rr.other_integral
        assert rr.tag == "baer_subplane"


def test_roots_never_integral_otherwise():
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        cases.append(("hyperbolic", 3, q))
        cases.append(("hyperbolic", 5, q))
        cases.append(("hyperbolic", 7, q))
        cases.append(("elliptic", 5, q))
        cases.append(("elliptic", 7, q))
    for q in (4, 9):
        cases.append(("hermitian", 3, q))
    for fam, m, q in cases:
        rr = cardinality_roots(PolarKind(fam, m, q))
        assert not rr.other_integral, (fam, m, q)
        assert rr.tag is None
    assert not cardinality_roots(PolarKind("hyperbolic", 3, 2)).other_integral


def test_roots_reject_parabolic_and_low_dim():
    with pytest.raises(IncompatibleKind):
        cardinality_roots(PolarKind("parabolic", 4, 2))
    with pytest.raises(IncompatibleKind):
        cardinality_roots(PolarKind("elliptic", 1, 2))


def test_roots_sum_and_product_sanity():
    # both roots satisfy the defining quadratic, so classical is one of them
    rr = cardinality_roots(PolarKind("hyperbolic", 3, 3))
    assert rr.classical_root == 16
    assert isinstance(rr.other_root, Fraction)


# ---------------------------------------------------------------------------
# Singular hyperplanes
# ---------------------------------------------------------------------------


def test_singular_hyperplane_counts():
    assert len(singular_hyperplanes(canonical("parabolic", 4, 2), PolarKind("parabolic", 4, 2))) == 15
    assert len(singular_hyperplanes(canonical("parabolic", 4, 3), PolarKind("parabolic", 4, 3))) == 40
    assert len(singular_hyperplanes(canonical("hyperbolic", 3, 2), PolarKind("hyperbolic", 3, 2))) == 9


def test_singular_hyperplanes_takes_one_spectrum(monkeypatch):
    from qps import spectra

    calls = []
    inner = spectra.spectrum
    monkeypatch.setattr(spectra, "spectrum", lambda s: calls.append(s) or inner(s))
    kind = PolarKind("parabolic", 4, 3)
    s = canonical("parabolic", 4, 3)
    cone = [h for h, v in enumerate(inner(s).per_hyperplane) if v == 13]
    assert len(cone) == 40
    assert singular_hyperplanes(s, kind) == cone
    assert len(calls) == 1


def test_singular_hyperplanes_rejects_non_quasi():
    sp = space_for(4, 2)
    junk = point_set_from_indices(sp, range(12))
    with pytest.raises(NotQuasiPolar):
        singular_hyperplanes(junk, PolarKind("parabolic", 4, 2))


# ---------------------------------------------------------------------------
# Nucleus detection
# ---------------------------------------------------------------------------


def test_find_line_nucleus_even_q():
    for m, q in [(2, 4), (4, 2), (4, 4)]:
        form = canonical_form(PolarKind("parabolic", m, q), space_for(m, q))
        from qps.forms import nucleus_point

        assert find_line_nucleus(point_set(form)) == nucleus_point(form)


def test_find_line_nucleus_absent_odd_q():
    assert find_line_nucleus(canonical("parabolic", 4, 3)) is None


def test_nucleus_conditions_classical_q42():
    rpt = nucleus_conditions(canonical("parabolic", 4, 2))
    assert all(rpt.flags().values())
    sp = space_for(4, 2)
    assert rpt.nucleus_candidate == sp.point_index[(1, 0, 0, 0, 0)]
    assert rpt.singular_count == 15
    assert rpt.expected_singular == 15


def test_nucleus_conditions_empty_set():
    sp = space_for(4, 2)
    rpt = nucleus_conditions(PointSet(sp, 0))
    assert not any(rpt.flags().values())
    assert rpt.singular_count == 0


def test_nucleus_conditions_odd_dimension_raises():
    with pytest.raises(NotEvenDimension):
        nucleus_conditions(canonical("hyperbolic", 3, 2))


def test_nucleus_conditions_q43_no_nucleus_style_flags():
    rpt = nucleus_conditions(canonical("parabolic", 4, 3))
    assert rpt.a and rpt.b_prime
    assert not rpt.c
    assert rpt.singular_count == 40


def _pencils(sp):
    """Each pencil {a*u + b*v} of hyperplanes as a set of dual vectors mod p."""
    p = sp.q

    def normal(v):
        inv = pow(next(c for c in v if c), -1, p)
        return tuple(c * inv % p for c in v)

    pencils = set()
    duals = sp.points
    for i, u in enumerate(duals):
        for v in duals[i + 1 :]:
            pencils.add(
                frozenset(
                    normal(tuple((a * x + b * y) % p for x, y in zip(u, v)))
                    for a in range(p)
                    for b in range(p)
                    if a or b
                )
            )
    return pencils


def _c_prime_oracle(sp, pencils, bits):
    """c' from coordinates: every pencil holds a hyperplane meeting the set in
    the cone size 1 + q*theta(m - 3, q)."""
    p = sp.q
    members = [x for i, x in enumerate(sp.points) if bits >> i & 1]
    size = {
        w: sum(sum(a * b for a, b in zip(w, x)) % p == 0 for x in members) for w in sp.points
    }
    cone = 1 + p * theta(sp.m - 3, p)
    return all(any(size[w] == cone for w in pencil) for pencil in pencils)


@pytest.mark.parametrize("m,q", [(2, 2), (2, 3), (2, 5), (2, 7), (4, 2), (4, 3)])
def test_nucleus_conditions_c_prime_matches_pencil_oracle(m, q):
    # for q odd the classical set fails c' (the tangent hyperplanes form a
    # dual quadric, which misses some lines), while a hyperplane passes it:
    # every other hyperplane meets it in a cone-size flat
    sp = space_for(m, q)
    rng = random.Random(1000 * m + q)
    w = sp.points[rng.randrange(sp.n_points)]
    hyperplane = sum(
        1 << i for i, x in enumerate(sp.points) if sum(a * b for a, b in zip(w, x)) % q == 0
    )
    sets = []
    for start in (canonical("parabolic", m, q).bits, hyperplane):
        sets.append(start)
        for _ in range(6):
            bits = start
            for _ in range(rng.randint(1, 3)):
                bits ^= 1 << rng.randrange(sp.n_points)
            sets.append(bits)
    for _ in range(6):
        sets.append(rng.getrandbits(sp.n_points))
    if m == 2:
        # a line plus one point P off it fails c' at the pencil through P only
        sets += [hyperplane | 1 << i for i in range(sp.n_points) if not hyperplane >> i & 1]
    pencils = _pencils(sp)
    assert len(pencils) == theta(m, q) * theta(m - 1, q) // (q + 1)
    seen = set()
    for bits in sets:
        expect = _c_prime_oracle(sp, pencils, bits)
        assert nucleus_conditions(PointSet(sp, bits)).c_prime == expect, (m, q, bits)
        seen.add(expect)
    assert seen == {True, False}


def _c_prime_by_lines(sp, bits):
    """c' by the line walk.  Hyperplane h is dual point h, so the hyperplanes
    through a codimension-2 flat are the points of one line: every line must
    hold a hyperplane that meets the set in the cone size theta_{m-2}."""
    cone = theta(sp.m - 2, sp.q)
    singular = sum(1 << h for h, row in enumerate(sp.incidence) if (bits & row).bit_count() == cone)
    return all(line & singular for line in sp.all_lines())


def _c_prime_sets(m, q):
    """Seeded 0-3-point perturbations of the classical set, of a hyperplane
    and of a hyperplane plus the classical set, and seeded random sets."""
    sp = space_for(m, q)
    rng = random.Random(f"c' {m} {q}")
    classical = canonical("parabolic", m, q).bits
    hyperplane = sp.incidence[rng.randrange(sp.n_points)]
    for start in (classical, hyperplane, classical | hyperplane):
        for k in range(4):
            for _ in range(6):
                bits = start
                for p in rng.sample(range(sp.n_points), k):
                    bits ^= 1 << p
                yield bits
    for _ in range(4):
        yield rng.getrandbits(sp.n_points)


@pytest.mark.parametrize(
    "m,q,n_true", [(2, 16, 13), (4, 2, 15), (4, 3, 10), (4, 4, 15), (6, 2, 16)]
)
def test_c_prime_reads_no_lines_and_matches_the_line_walk(m, q, n_true):
    # c' is read from the incidence alone: a cold space builds no line table
    cold = ProjSpace(m, build_field(q))
    seen = []
    for bits in _c_prime_sets(m, q):
        expect = _c_prime_by_lines(space_for(m, q), bits)
        assert nucleus_conditions(PointSet(cold, bits)).c_prime == expect, (m, q, bits)
        seen.append(expect)
    assert cold._all_lines is None and cold._lines_through is None
    assert (len(seen), sum(seen)) == (76, n_true)


def _walk_nuclei(s):
    """Line nuclei by walking every line through every point off s."""
    sp = s.space
    return [
        p
        for p in range(sp.n_points)
        if not s.bits >> p & 1
        and all((line & s.bits).bit_count() == 1 for line in sp.lines_through(p))
    ]


def _nucleus_kernel_sets():
    """Every subset of PG(1, q), q = 2..5, and seeded 0-3-point perturbations
    of classical sets, with and without line nuclei."""
    for q in (2, 3, 4, 5):
        sp = space_for(1, q)
        for bits in range(1 << sp.n_points):
            yield PointSet(sp, bits)
    spaces = [("parabolic", 2, q) for q in (2, 4, 8, 16)] + [
        ("parabolic", 4, 2),
        ("parabolic", 4, 4),
        ("parabolic", 6, 2),
        ("hyperbolic", 3, 2),
        ("elliptic", 3, 4),
        ("hermitian", 2, 4),
    ]
    for fam, m, q in spaces:
        s = canonical(fam, m, q)
        sp = s.space
        rng = random.Random(f"{fam}{m}{q}")
        for k in range(4):
            for _ in range(10):
                bits = s.bits
                for p in rng.sample(range(sp.n_points), k):
                    bits ^= 1 << p
                yield PointSet(sp, bits)


def test_line_nuclei_match_the_line_walk():
    # the kernel reads hyperplane section sizes; the oracle walks the lines
    n_sets = with_nucleus = 0
    for s in _nucleus_kernel_sets():
        n_sets += 1
        expect = _walk_nuclei(s)
        assert list(line_nuclei(s)) == expect, (s.space, s.bits)
        assert find_line_nucleus(s) == (expect[0] if expect else None)
        if s.space.m % 2 == 0:
            assert nucleus_conditions(s).c_candidates == sum(1 << p for p in expect)
        with_nucleus += bool(expect)
    assert (n_sets, with_nucleus) == (520, 95)
