import inspect
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import pg
from qps.gf import build_field
from qps.pg import (
    Flat,
    ProjSpace,
    PointSet,
    SamePoint,
    SpaceTooLarge,
    ZeroVector,
    bits_to_indices,
    build_space,
    flat_from_mask,
    flat_from_points,
    flats_of_codim,
    hyperplane_flat,
    hyperplanes_containing,
    incident,
    indices_to_bits,
    line_through,
    normalize_point,
    normalize_vec,
    point_set_from_indices,
    rref,
    space_for,
    span_points,
    subgeometry,
)

from line_helpers import line_masks


def theta(m, q):
    return (q ** (m + 1) - 1) // (q - 1)


# ---------------------------------------------------------------------------
# Space construction
# ---------------------------------------------------------------------------


def test_point_counts():
    assert space_for(2, 2).n_points == 7
    assert space_for(4, 2).n_points == 31
    assert space_for(3, 4).n_points == 85
    assert space_for(3, 3).n_points == 40


def test_points_are_normalized_distinct_and_sorted():
    for m, q in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        sp = space_for(m, q)
        pts = sp.points
        assert len(pts) == theta(m, q)
        assert len(set(pts)) == len(pts)
        assert list(pts) == sorted(pts)
        for v in pts:
            first = next(c for c in v if c)
            assert first == 1


def test_space_too_large_guard():
    with pytest.raises(SpaceTooLarge):
        space_for(20, 2)
    # from m = MAX_POINTS.bit_length() = 20 on, PG(m, q) has over 2^20 points,
    # more than MAX_POINTS, and the refusal comes from m alone
    assert pg.MAX_POINTS.bit_length() == 20 and pg.MAX_POINTS < theta(19, 2) < 2**20
    start = time.perf_counter()
    for m in (20, 10**10, 10**100):
        with pytest.raises(SpaceTooLarge, match=rf"^PG\({m},2\) has more than 1000000 points$"):
            ProjSpace(m, build_field(2))
    assert time.perf_counter() - start < 1.0


def test_bulk_table_guard_rejects_before_building():
    # PG(4,16) incidence: 69,905 rows of 8,739 bytes (583 MiB); the lines of
    # PG(6,4), PG(4,11), PG(3,32) and PG(6,5) are over MAX_LINES = 2^20, and
    # all_lines() refuses them when called, before any line is spanned
    start = time.perf_counter()
    with pytest.raises(SpaceTooLarge, match="incidence"):
        space_for(4, 16).incidence
    assert time.perf_counter() - start < 1.0
    for m, q in [(6, 4), (4, 11), (3, 32), (6, 5)]:
        sp = space_for(m, q)
        count = gaussian_binomial_2(m, q)
        assert count > pg.MAX_LINES == 2**20
        start = time.perf_counter()
        with pytest.raises(SpaceTooLarge) as exc:
            sp.all_lines()
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == f"PG({m},{q}) has {count} lines, over the cap of 1048576"


def test_bulk_table_guard_estimates(monkeypatch):
    # PG(3,2): 15 hyperplanes, each a row of ceil(15/8) = 2 bytes, and 35
    # lines; the incidence counts against MAX_TABLE_BYTES, the line stream
    # against MAX_LINES alone
    sp = ProjSpace(3, build_field(2))
    monkeypatch.setattr(pg, "MAX_TABLE_BYTES", 29)
    with pytest.raises(SpaceTooLarge, match="incidence"):
        sp.incidence
    monkeypatch.setattr(pg, "MAX_TABLE_BYTES", 30)
    assert len(sp.incidence) == 15
    monkeypatch.setattr(pg, "MAX_LINES", 34)
    with pytest.raises(SpaceTooLarge, match=r"^PG\(3,2\) has 35 lines, over the cap of 34$"):
        sp.all_lines()
    monkeypatch.setattr(pg, "MAX_LINES", 35)
    monkeypatch.setattr(pg, "MAX_TABLE_BYTES", 0)
    assert len(list(sp.all_lines())) == 35
    assert sp._line_bytes == 0
    # under a zero cap the incidence refusal names its estimate, without building
    with pytest.raises(SpaceTooLarge, match="incidence") as exc:
        ProjSpace(3, build_field(32)).incidence
    assert str(exc.value) == "PG(3,32) incidence table needs about 136 MiB"
    monkeypatch.undo()
    # so the cap keeps the PG(3,32) incidence (33,825 rows of 4,229 bytes),
    # and the line cap admits the 605,242 lines of PG(4,9) and the 508,431
    # of PG(5,5): their streams are made, not run
    space_for(3, 32)._check_table("incidence", 33825 * 4229)
    for m, q, count in [(4, 9, 605242), (5, 5, 508431)]:
        assert gaussian_binomial_2(m, q) == count <= pg.MAX_LINES
        assert inspect.isgenerator(space_for(m, q).all_lines())


def test_line_guard_counts_every_line_mask_held(monkeypatch):
    # the lines through a point of PG(3,2) are 7 ints of 28 bytes; they count
    # against one cap, checked before each build, and a refused build holds
    # nothing.  Streaming every line holds none and is not counted
    sp = ProjSpace(3, build_field(2))
    monkeypatch.setattr(pg, "MAX_TABLE_BYTES", 2 * 196)
    assert len(sp.lines_through(0)) == 7
    assert len(sp.lines_through(1)) == 7
    with pytest.raises(SpaceTooLarge, match="lines"):
        sp.lines_through(2)
    assert set(sp._lines) == {0, 1}
    assert sp._line_bytes == 2 * 196
    assert len(list(sp.all_lines())) == 35
    assert set(sp._lines) == {0, 1} and sp._line_bytes == 2 * 196
    monkeypatch.setattr(pg, "MAX_TABLE_BYTES", 3 * 196)
    assert len(sp.lines_through(2)) == 7
    with pytest.raises(SpaceTooLarge, match="lines"):
        sp.lines_through(3)
    # cached lines are read without a check
    assert sp.lines_through(0) == space_for(3, 2).lines_through(0)


def test_build_space_cached():
    f = build_field(3)
    assert build_space(2, f) is build_space(2, f)


# ---------------------------------------------------------------------------
# Point normalization
# ---------------------------------------------------------------------------


def test_normalize_point_scaling():
    sp = space_for(2, 3)
    # (0,2,1) scaled by inv(2) = 2 gives (0,1,2)
    assert normalize_point(sp, (0, 2, 1)) == sp.point_index[(0, 1, 2)]


def test_normalize_point_fixed_point():
    sp = space_for(2, 2)
    idx = normalize_point(sp, (1, 1, 0))
    assert sp.points[idx] == (1, 1, 0)


def test_normalize_point_rejects_zero():
    sp = space_for(2, 2)
    with pytest.raises(ZeroVector):
        normalize_point(sp, (0, 0, 0))


def test_normalize_point_scale_invariance_gf4():
    sp = space_for(2, 4)
    f = sp.f
    for v in sp.points:
        for c in range(1, 4):
            scaled = tuple(f.mul[c][x] for x in v)
            assert normalize_point(sp, scaled) == sp.point_index[v]


# ---------------------------------------------------------------------------
# Incidence
# ---------------------------------------------------------------------------


def test_incident_fano_examples():
    sp = space_for(2, 2)
    h = sp.point_index[(0, 1, 0)]
    assert incident(sp, h, sp.point_index[(1, 0, 0)])
    assert not incident(sp, h, sp.point_index[(1, 1, 0)])


def test_hyperplane_row_popcounts():
    for m, q in [(2, 2), (3, 3), (3, 2), (2, 4)]:
        sp = space_for(m, q)
        for h in range(sp.n_points):
            assert sp.incidence[h].bit_count() == theta(m - 1, q)


def test_incidence_matrix_is_symmetric():
    for m, q in [(2, 3), (3, 2)]:
        sp = space_for(m, q)
        for h in range(sp.n_points):
            for p in range(sp.n_points):
                assert (sp.incidence[h] >> p & 1) == (sp.incidence[p] >> h & 1)


@pytest.mark.parametrize(
    "m,q",
    [(m, 2) for m in range(1, 6)] + [(m, 3) for m in range(1, 6)] + [(1, 5), (2, 5), (3, 5), (1, 7), (2, 7)],
)
def test_incidence_matches_dot_products_mod_p(m, q):
    sp = space_for(m, q)
    for h, hvec in enumerate(sp.points):
        row = sum(
            1 << p for p, pvec in enumerate(sp.points) if sum(a * b for a, b in zip(hvec, pvec)) % q == 0
        )
        assert sp.incidence[h] == row


def _sampled_rows(n, count=48):
    """All rows of a small space; the first, the last and a seeded sample otherwise."""
    if n <= 400:
        return range(n)
    return sorted({0, n - 1, *random.Random(n).sample(range(n), count)})


@pytest.mark.parametrize(
    "m,q",
    [(1, 9), (2, 9), (3, 9), (1, 25), (2, 25), (1, 27), (2, 27), (1, 32), (2, 32)]
    + [(3, 4), (4, 4), (3, 8), (2, 16), (3, 16)],
)
def test_incidence_matches_incident(m, q):
    sp = space_for(m, q)
    for h in _sampled_rows(sp.n_points):
        row = sum(1 << p for p in range(sp.n_points) if incident(sp, h, p))
        assert sp.incidence[h] == row


@pytest.mark.parametrize(
    "m,q",
    [(m, q) for q in (2, 4, 8, 16, 32) for m in (1, 2)] + [(3, 4), (4, 4), (6, 2), (3, 8), (3, 16)],
)
def test_bit_plane_rows_match_the_byte_rows(m, q):
    # over GF(2^e) every row read off bit-planes is the zero bytes of h·x,
    # the rows odd q builds
    sp = ProjSpace(m, build_field(q))
    rows = tuple(int(pg._dots(sp, h).translate(pg._ZERO_TO_ONE)[::-1], 2) for h in sp.points)
    assert sp.incidence == rows


# ---------------------------------------------------------------------------
# Lines
# ---------------------------------------------------------------------------


def test_line_through_pg32():
    sp = space_for(3, 2)
    p = sp.point_index[(1, 0, 0, 0)]
    r = sp.point_index[(0, 1, 0, 0)]
    line = line_through(sp, p, r)
    expect = {(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)}
    assert set(line.vectors()) == expect


def test_line_sizes():
    sp = space_for(2, 3)
    for p, r in itertools.combinations(range(sp.n_points), 2):
        assert line_through(sp, p, r).size == 4


def test_line_through_same_point_raises():
    sp = space_for(2, 2)
    with pytest.raises(SamePoint):
        line_through(sp, 3, 3)


def test_line_pg24_last_coordinate_zero():
    sp = space_for(2, 4)
    p = sp.point_index[(1, 0, 0)]
    r = sp.point_index[(0, 1, 0)]
    line = line_through(sp, p, r)
    assert line.size == 5
    assert all(v[2] == 0 for v in line.vectors())


def test_two_points_exactly_one_line():
    sp = space_for(3, 2)
    for p, r in itertools.combinations(range(sp.n_points), 2):
        lines = [l for l in sp.lines_through(p) if l >> r & 1]
        assert len(lines) == 1


def test_lines_through_partition():
    # the lines through p cover every other point exactly once
    for m, q in [(2, 3), (3, 2)]:
        sp = space_for(m, q)
        for p in range(sp.n_points):
            cover = 0
            total = 0
            for l in sp.lines_through(p):
                assert l >> p & 1
                cover |= l
                total += l.bit_count() - 1
            assert cover == (1 << sp.n_points) - 1
            assert total == sp.n_points - 1


LINE_SPACES = [
    (1, 2), (1, 9), (2, 2), (2, 3), (2, 4), (2, 9), (3, 2), (3, 3), (3, 4),
    (4, 2), (4, 3), (5, 2), (2, 25), (2, 32), (3, 8),
]


def gaussian_binomial_2(m, q):
    """[m+1 choose 2]_q, the number of lines of PG(m, q)."""
    return (q ** (m + 1) - 1) * (q**m - 1) // ((q**2 - 1) * (q - 1))


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


@pytest.mark.parametrize("m,q", LINE_SPACES)
def test_all_lines_are_the_lines(m, q):
    sp = space_for(m, q)
    lines = line_masks(sp)
    assert len(lines) == len(set(lines)) == gaussian_binomial_2(m, q)
    cover = [0] * sp.n_points
    for line in lines:
        pts = bits_to_indices(line)
        assert len(pts) == q + 1
        # a line is the line through any two of its points
        assert line_through(sp, pts[0], pts[-1]).bits == line
        for p in pts:
            cover[p] |= line
    # every pair of distinct points lies on a line, and the pair count
    # leaves room for no second one
    assert cover == [sp.all_mask] * sp.n_points
    assert len(lines) * (q + 1) * q == sp.n_points * (sp.n_points - 1)


@pytest.mark.parametrize("m,q", LINE_SPACES)
def test_lines_through_are_the_lines_through_p(m, q):
    sp = space_for(m, q)
    lines = line_masks(sp)
    for p in range(sp.n_points):
        assert set(sp.lines_through(p)) == {line for line in lines if line >> p & 1}


@pytest.mark.parametrize("m,q", LINE_SPACES)
def test_line_orders(m, q):
    sp = space_for(m, q)
    # all_lines(): by (lowest point, second-lowest point)
    keys = [(_lowest(line), _lowest(line & (line - 1))) for line in line_masks(sp)]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # lines_through(p): by the lowest point other than p
    for p in range(sp.n_points):
        keys = [_lowest(line & ~(1 << p)) for line in sp.lines_through(p)]
        assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("m,q", [(2, 3), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_line_orders_match_the_greedy_scan(m, q):
    """The orders of a per-point scan: lines_through(p) takes, for r
    ascending, the line pr whenever r is on no earlier line, and all_lines()
    is lines_through(0), lines_through(1), ... without repeats."""
    sp = space_for(m, q)
    expect_all = []
    for p in range(sp.n_points):
        seen = 1 << p
        expect = []
        for r in range(sp.n_points):
            if not seen >> r & 1:
                line = line_through(sp, p, r).bits
                seen |= line
                expect.append(line)
        assert list(sp.lines_through(p)) == expect
        expect_all += [line for line in expect if line not in expect_all]
    assert list(line_masks(sp)) == expect_all


@pytest.mark.parametrize("m,q", [(2, 32), (4, 3)])
def test_bulk_tables_use_no_per_pair_arithmetic(m, q, monkeypatch):
    def boom(*args):
        raise AssertionError("per-pair arithmetic in a bulk table build")

    warm = space_for(m, q)
    h = warm.n_points // 3
    expect_inc = warm.incidence
    expect_lines = line_masks(warm)
    expect_to_ambient = subgeometry(warm, hyperplane_flat(warm, h)).to_ambient
    codim2 = flats_of_codim(warm, 2)[-1].basis
    expect_mask = Flat(warm, codim2).mask()
    monkeypatch.setattr(pg, "dot", boom)
    monkeypatch.setattr(pg, "normalize_vec", boom)
    sp = ProjSpace(m, build_field(q))
    assert sp.incidence == expect_inc
    assert line_masks(sp) == expect_lines
    assert sp.lines_through(sp.n_points - 1) == warm.lines_through(sp.n_points - 1)
    # flats too: the span of a basis is read off byte columns, not normalized
    assert subgeometry(sp, hyperplane_flat(sp, h)).to_ambient == expect_to_ambient
    assert Flat(sp, codim2).mask() == expect_mask


# ---------------------------------------------------------------------------
# Flats
# ---------------------------------------------------------------------------


def test_flats_of_codim_counts():
    assert len(flats_of_codim(space_for(4, 2), 2)) == 155
    assert len(flats_of_codim(space_for(2, 2), 2)) == 7
    assert len(flats_of_codim(space_for(3, 3), 1)) == 40


@pytest.mark.parametrize(
    "m,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3)]
)
def test_flats_of_codim2_are_hyperplane_pair_meets(m, q):
    sp = space_for(m, q)
    f = sp.f

    def dot_zero(u, v):
        s = 0
        for a, b in zip(u, v):
            s = f.add[s][f.mul[a][b]]
        return s == 0

    zeros = [
        sum(1 << i for i, x in enumerate(sp.points) if dot_zero(h, x)) for h in sp.points
    ]
    meets = {a & b for i, a in enumerate(zeros) for b in zeros[i + 1 :]}
    flats = flats_of_codim(sp, 2)
    masks = [fl.mask() for fl in flats]
    assert len(set(masks)) == len(masks)
    assert set(masks) == meets
    assert all(a.basis < b.basis for a, b in zip(flats, flats[1:]))
    assert {fl.dim for fl in flats} == {m - 2}


def test_flats_of_codim_unsupported():
    with pytest.raises(ValueError):
        flats_of_codim(space_for(3, 2), 3)


def test_codim1_order_matches_hyperplane_indices():
    sp = space_for(2, 3)
    for h, fl in enumerate(flats_of_codim(sp, 1)):
        assert fl.mask() == sp.incidence[h]


def test_hyperplanes_containing_codim2():
    for m, q in [(4, 2), (4, 3)]:
        sp = space_for(m, q)
        for fl in flats_of_codim(sp, 2)[:25]:
            hs = hyperplanes_containing(sp, fl)
            assert len(hs) == q + 1
            assert hs == sorted(hs)
            for h in hs:
                assert fl.mask() & ~sp.incidence[h] == 0


@pytest.mark.parametrize("m,q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_hyperplanes_containing_matches_the_dual_vectors(m, q):
    # the reference: h contains the flat iff h·v = 0 for every basis vector v
    sp = space_for(m, q)
    rng = random.Random(100 * m + q)
    flats = [*flats_of_codim(sp, 1), *flats_of_codim(sp, 2)]
    flats += [
        flat_from_points(sp, rng.sample(range(sp.n_points), rng.randint(1, m + 1)))
        for _ in range(30)
    ]
    for fl in flats:
        expect = [
            h for h in range(sp.n_points) if all(pg.dot(sp.f, sp.points[h], v) == 0 for v in fl.basis)
        ]
        assert hyperplanes_containing(sp, fl) == expect


def test_hyperplanes_containing_line_in_pg32():
    sp = space_for(3, 2)
    fl = flat_from_points(sp, line_through(sp, 0, 1).indices())
    assert len(hyperplanes_containing(sp, fl)) == 3


def test_flat_basis_is_canonical():
    sp = space_for(3, 2)
    line = line_through(sp, 2, 7)
    idx = line.indices()
    a = flat_from_points(sp, idx[:2])
    b = flat_from_points(sp, idx[1:])
    assert a.basis == b.basis
    assert a.mask() == line.bits


def test_flat_dim_and_mask():
    sp = space_for(4, 2)
    fl = flat_from_points(sp, [0])
    assert fl.dim == 0
    assert fl.mask() == 1
    h = hyperplane_flat(sp, 5)
    assert h.dim == 3
    assert h.mask() == sp.incidence[5]


def test_flat_from_mask_roundtrip():
    sp = space_for(3, 2)
    fl = hyperplane_flat(sp, 3)
    assert flat_from_mask(sp, fl.mask()).basis == fl.basis


# ---------------------------------------------------------------------------
# PointSet
# ---------------------------------------------------------------------------


def test_point_set_algebra():
    sp = space_for(2, 2)
    a = point_set_from_indices(sp, [0, 1, 2])
    b = point_set_from_indices(sp, [2, 3])
    assert a.union(b).indices() == [0, 1, 2, 3]
    assert a.intersect(b).indices() == [2]
    assert a.minus(b).indices() == [0, 1]
    assert a.size == 3
    assert a.contains(1) and not a.contains(5)
    assert point_set_from_indices(sp, [2]) <= a


def test_point_set_takes_no_assignment():
    sp = space_for(2, 2)
    a = point_set_from_indices(sp, [0, 1, 2])
    for name, value in (("bits", 0), ("space", space_for(2, 3)), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.bits |= 8
    assert a.space is sp and a.bits == 0b111
    assert not hasattr(a, "extra")


def test_point_set_algebra_returns_new_sets():
    sp = space_for(2, 2)
    a = point_set_from_indices(sp, [0, 1, 2])
    b = point_set_from_indices(sp, [2, 3])
    empty = PointSet(sp, 0)
    for got, bits in (
        (a.union(b), 0b1111),
        (a.intersect(b), 0b100),
        (a.minus(b), 0b11),
        (a.union(empty), a.bits),
        (a.minus(empty), a.bits),
        (a.intersect(a), a.bits),
    ):
        assert got is not a and got is not b
        assert got == PointSet(sp, bits) and hash(got) == hash(PointSet(sp, bits))
    assert (a.bits, b.bits) == (0b111, 0b1100)


def test_bits_to_indices():
    assert bits_to_indices(0) == []
    assert bits_to_indices(0b101001) == [0, 3, 5]


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 13_888, 69_905])
@pytest.mark.parametrize("density", [0.5, 0.03])
def test_bits_to_indices_matches_the_binary_digits(width, density):
    # the set bits, read off the mask's binary digits, lowest first
    rng = random.Random(width * 7 + int(density * 100))
    masks = [sum(1 << i for i in range(width) if rng.random() < density) for _ in range(3)]
    if width:
        masks.append(1 << (width - 1) | 1)
    for mask in masks:
        expect = [i for i, d in enumerate(reversed(bin(mask)[2:])) if d == "1"]
        assert bits_to_indices(mask) == expect


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1_000])
def test_indices_to_bits_inverts_bits_to_indices(width):
    # seeded masks of each width, 0 and the full one among them, checked
    # against their binary digits; the indices may come in any order
    rng = random.Random(f"indices {width}")
    masks = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(10)]
    for mask in masks:
        digits = "".join("1" if mask >> i & 1 else "0" for i in reversed(range(width)))
        indices = bits_to_indices(mask)
        assert indices_to_bits(indices) == int(digits or "0", 2) == mask
        assert indices_to_bits(iter(indices[::-1])) == mask
        assert bits_to_indices(indices_to_bits(indices)) == indices


# ---------------------------------------------------------------------------
# Subgeometry
# ---------------------------------------------------------------------------


def test_subgeometry_roundtrip():
    sp = space_for(4, 2)
    geom = subgeometry(sp, hyperplane_flat(sp, 0))
    assert geom.sub.m == 3 and geom.sub.q == 2
    assert len(geom.to_ambient) == 15
    for s_idx, a_idx in enumerate(geom.to_ambient):
        assert geom.from_ambient[a_idx] == s_idx
    mask = sum(1 << i for i in range(5))
    assert geom.mask_from_ambient(geom.mask_to_ambient(mask)) == mask


def test_subgeometry_preserves_collinearity():
    sp = space_for(3, 2)
    geom = subgeometry(sp, hyperplane_flat(sp, 6))
    sub = geom.sub
    for l in sub.lines_through(0):
        amb = geom.mask_to_ambient(l)
        idx = bits_to_indices(amb)
        assert line_through(sp, idx[0], idx[1]).bits == amb


def test_subgeometry_rejects_points():
    sp = space_for(3, 2)
    with pytest.raises(ValueError):
        subgeometry(sp, flat_from_points(sp, [0]))


# ---------------------------------------------------------------------------
# Points of a span
# ---------------------------------------------------------------------------


def check_span_points(sp, basis):
    """span_points against a rank test and an explicit coefficient sum.

    p lies in span(B) iff adding p to B does not raise the rank; the i-th
    point is the combination of B with coefficient vector i of PG(k-1, q).
    """
    f = sp.f
    k = len(basis)
    got = list(span_points(sp, basis))
    assert len(got) == len(set(got)) == theta(k - 1, sp.q)
    in_span = {p for p in range(sp.n_points) if len(rref(f, list(basis) + [sp.points[p]])) == k}
    assert set(got) == in_span
    coefs = space_for(k - 1, sp.q).points if k > 1 else [(1,)]
    for i, coef in zip(got, coefs):
        vec = [0] * (sp.m + 1)
        for c, row in zip(coef, basis):
            vec = [f.add[a][f.mul[c][b]] for a, b in zip(vec, row)]
        assert i == sp.point_index[normalize_vec(f, tuple(vec))]


def test_span_points_rank_oracle_pg33_flats():
    sp = space_for(3, 3)
    flats = flats_of_codim(sp, 1) + flats_of_codim(sp, 2)
    assert len(flats) == 40 + 130
    for fl in flats:
        check_span_points(sp, fl.basis)
        assert fl.mask() == sum(1 << i for i in span_points(sp, fl.basis))
        if fl.dim >= 1:
            assert list(subgeometry(sp, fl).to_ambient) == list(span_points(sp, fl.basis))


def _unreduced(f, basis, rng):
    """A non-reduced echelon basis of the same span: each row plus a seeded
    multiple of each later row, which leaves its leading 1 in place."""
    rows = [list(r) for r in basis]
    for i in range(len(rows)):
        for later in rows[i + 1 :]:
            c = rng.randrange(f.q)
            rows[i] = [f.add[a][f.mul[c][b]] for a, b in zip(rows[i], later)]
    return [tuple(r) for r in rows]


def test_span_points_rank_oracle_pg42_seeded_bases():
    """Seeded independent rows, spanned in their RREF and in a non-reduced
    echelon form; the rows as drawn are refused unless already echelon."""
    sp = space_for(4, 2)
    rng = random.Random(20)
    checked = refused = unreduced = 0
    while checked < 60:
        k = rng.randint(1, 5)
        rows = [tuple(rng.randrange(2) for _ in range(5)) for _ in range(k)]
        red = rref(sp.f, rows)
        if len(red) != k:
            continue
        ech = _unreduced(sp.f, red, rng)
        check_span_points(sp, red)
        check_span_points(sp, ech)
        unreduced += ech != list(red)
        leads = [r.index(1) for r in rows if 1 in r]
        if len(leads) == k and _is_increasing(leads):
            check_span_points(sp, rows)
        else:
            with pytest.raises(ValueError, match="echelon"):
                span_points(sp, rows)
            refused += 1
        checked += 1
    assert refused > 30 and unreduced > 30


@pytest.mark.parametrize(
    "basis",
    [
        [(0, 1, 0), (1, 0, 0)],  # pivots decrease
        [(0, 1, 1), (0, 1, 0)],  # pivots repeat
        [(1, 0, 0), (0, 0, 2)],  # a pivot entry is not 1
        [(1, 0, 0), (0, 0, 0)],  # a zero row
    ],
)
def test_span_points_refuses_a_non_echelon_basis(basis):
    with pytest.raises(ValueError, match="echelon"):
        span_points(space_for(2, 3), basis)


@pytest.mark.parametrize("m,q", [(4, 4), (6, 4), (4, 9), (3, 32)])
def test_span_points_rank_oracle_seeded_hyperplanes(m, q):
    sp = space_for(m, q)
    rng = random.Random(m * 100 + q)
    basis = hyperplane_flat(sp, rng.randrange(sp.n_points)).basis
    check_span_points(sp, basis)
    check_span_points(sp, _unreduced(sp.f, basis, rng))


def _is_increasing(seq):
    return all(a < b for a, b in zip(seq, seq[1:]))


def test_to_ambient_is_increasing():
    """For an RREF basis, span order is ambient order, so masks in a flat's
    own coordinates sort as their ambient images do."""
    for m, q in [(3, 2), (4, 2), (3, 3), (2, 9)]:
        sp = space_for(m, q)
        for fl in flats_of_codim(sp, 1):
            assert _is_increasing(subgeometry(sp, fl).to_ambient)
    rng = random.Random(7)
    for m, q in [(4, 3), (3, 4), (5, 2), (3, 8), (2, 25)]:
        sp = space_for(m, q)
        for _ in range(20):
            fl = flat_from_points(sp, rng.sample(range(sp.n_points), rng.randint(2, m)))
            if fl.dim >= 1:
                assert _is_increasing(subgeometry(sp, fl).to_ambient)


@pytest.mark.parametrize("m,q", LINE_SPACES)
def test_lines_through_match_a_coordinate_sum(m, q):
    """lines_through(p) against {p, x} and hi + c·lo, c ≠ 0, normalized and
    looked up, for each x with x_j = 0 in turn, j the pivot of p."""
    sp = space_for(m, q)
    f = sp.f
    points = range(sp.n_points)
    if sp.n_points > 400:
        points = random.Random(m * 100 + q).sample(points, 40)
    for p in points:
        j = sp.points[p].index(1)
        expect = []
        for x in range(sp.n_points):
            if sp.points[x][j]:
                continue
            hi, lo = sp.points[max(p, x)], sp.points[min(p, x)]
            mask = 1 << p | 1 << x
            for c in range(1, q):
                vec = tuple(f.add[u][f.mul[c][v]] for u, v in zip(hi, lo))
                mask |= 1 << sp.point_index[normalize_vec(f, vec)]
            expect.append(mask)
        assert list(sp.lines_through(p)) == expect


# ---------------------------------------------------------------------------
# Separating hyperplanes
# ---------------------------------------------------------------------------


def test_distinct_sets_separated_by_some_hyperplane():
    """The per-hyperplane count vector determines the point set."""
    for m, q, trials in [(3, 2, 200), (3, 3, 60)]:
        sp = space_for(m, q)
        rng = random.Random(20240 + q)
        n = sp.n_points
        for _ in range(trials):
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            if a == b:
                continue
            assert any(
                (a & sp.incidence[h]).bit_count() != (b & sp.incidence[h]).bit_count()
                for h in range(n)
            )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**15 - 1))
def test_hyperplane_counts_determine_the_set(bits):
    sp = space_for(3, 2)
    counts = tuple((bits & sp.incidence[h]).bit_count() for h in range(15))
    # reconstruct point membership from the counts, point by point
    hits = theta(2, 2)
    for p in range(15):
        through = sum(counts[h] for h in range(15) if sp.incidence[h] >> p & 1)
        inside = bits >> p & 1
        # every point of the set contributes hits to its own sum and
        # theta(m-2) to any other point's sum
        expect = bits.bit_count() * theta(1, 2) + inside * (hits - theta(1, 2))
        assert through == expect
