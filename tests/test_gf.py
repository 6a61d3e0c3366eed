import pytest

from qps import gf
from qps.gf import (
    MODULI,
    SUPPORTED_ORDERS,
    DivisionByZero,
    NotASquareOrder,
    NotPrimePower,
    OrderTooLarge,
    arithmetic,
    build_field,
    conj,
    inv,
    sub,
)

SQUARE_ORDERS = [4, 9, 16, 25]


def elements(f):
    return range(f.q)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_build_field_supported_orders():
    for q in SUPPORTED_ORDERS:
        f = build_field(q)
        assert f.q == q
        assert f.p ** f.e == q


def test_build_field_rejects_non_prime_powers():
    for q in [6, 10, 12, 15, 21, 24]:
        with pytest.raises(NotPrimePower):
            build_field(q)


def test_build_field_rejects_large_orders():
    with pytest.raises(OrderTooLarge):
        build_field(64)
    with pytest.raises(OrderTooLarge):
        build_field(37)


def test_build_field_is_cached():
    assert build_field(9) is build_field(9)


def test_documented_moduli():
    # fixed primitive polynomials, ascending coefficient order
    assert MODULI[4] == (1, 1, 1)  # x^2 + x + 1
    assert MODULI[9] == (2, 2, 1)  # x^2 + 2x + 2
    assert MODULI[8] == (1, 1, 0, 1)  # x^3 + x + 1


# ---------------------------------------------------------------------------
# Field axioms, exhaustive per order
# ---------------------------------------------------------------------------


def test_additive_group_axioms():
    for q in SUPPORTED_ORDERS:
        f = build_field(q)
        for a in elements(f):
            assert f.add[a][0] == a
            assert f.add[a][f.neg[a]] == 0
            for b in elements(f):
                assert f.add[a][b] == f.add[b][a]


def test_multiplicative_group_axioms():
    for q in SUPPORTED_ORDERS:
        f = build_field(q)
        for a in elements(f):
            assert f.mul[a][1] == a
            assert f.mul[a][0] == 0
            if a:
                assert f.mul[a][f.inv[a]] == 1
            for b in elements(f):
                assert f.mul[a][b] == f.mul[b][a]


def test_associativity_and_distributivity():
    """Triple loops stay tractable because q <= 32."""
    for q in SUPPORTED_ORDERS:
        f = build_field(q)
        add, mul = f.add, f.mul
        for a in elements(f):
            for b in elements(f):
                ab_add = add[a][b]
                ab_mul = mul[a][b]
                for c in elements(f):
                    assert add[ab_add][c] == add[a][add[b][c]]
                    assert mul[ab_mul][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[ab_mul][mul[a][c]]


def _schoolbook_mul(a, b, p, e, mod):
    """a·b as polynomials over GF(p), reduced by the monic modulus mod."""
    da = [a // p**i % p for i in range(e)]
    db = [b // p**i % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * e - 2, e - 1, -1):
        c, prod[k] = prod[k], 0
        for j in range(e):
            prod[k - e + j] = (prod[k - e + j] - c * mod[j]) % p
    return sum(c * p**i for i, c in enumerate(prod[:e]))


def test_tables_match_their_definitions():
    """Each table against a computation that shares no code with gf: the
    schoolbook product mod MODULI[q] (or mod p), a^sqrt(q) by repeated
    products, and the least element whose powers cover GF(q)*."""
    for q in SUPPORTED_ORDERS:
        f = build_field(q)
        p, e = f.p, f.e
        for a in range(q):
            for b in range(q):
                want = (a * b) % p if e == 1 else _schoolbook_mul(a, b, p, e, MODULI[q])
                assert f.mul[a][b] == want, (q, a, b)
                digits = [(a // p**i + b // p**i) % p for i in range(e)]
                assert f.add[a][b] == sum(d * p**i for i, d in enumerate(digits))
            assert f.add[a][f.neg[a]] == 0
            assert a == 0 or f.mul[a][f.inv[a]] == 1
        assert f.inv[0] == 0
        r = int(q**0.5)
        for a in range(q):
            acc = 1
            for _ in range(r):
                acc = f.mul[acc][a]
            assert f.conj[a] == (acc if r * r == q else a)

        def covers(w):
            seen, x = set(), 1
            for _ in range(q - 1):
                seen.add(x)
                x = f.mul[x][w]
            return len(seen) == q - 1

        assert f.primitive == next(w for w in range(1, q) if covers(w))


def test_non_primitive_modulus_is_refused(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 is irreducible over GF(2), but x^5 = 1 under it
    monkeypatch.setitem(MODULI, 16, (1, 1, 1, 1, 1))
    monkeypatch.setattr(gf, "_CACHE", {})
    with pytest.raises(ValueError, match="not primitive"):
        build_field(16)


def test_unit_group_order():
    # a^(q-1) = 1 for a != 0
    for q in SUPPORTED_ORDERS:
        f = build_field(q)
        for a in range(1, q):
            acc = 1
            for _ in range(q - 1):
                acc = f.mul[acc][a]
            assert acc == 1


# ---------------------------------------------------------------------------
# Hand-checked small values
# ---------------------------------------------------------------------------


def test_gf2_addition():
    f = build_field(2)
    assert f.add[1][1] == 0


def test_gf3_values():
    f = build_field(3)
    assert f.mul[2][2] == 1
    assert f.neg[2] == 1
    assert sub(f, 0, 2) == 1


def test_gf4_polynomial_arithmetic():
    # element 2 is x; under x^2 + x + 1, x*x = x + 1 which encodes as 3
    f = build_field(4)
    assert f.mul[2][2] == 3
    assert f.mul[2][3] == 1
    assert f.inv[2] == 3
    assert f.add[2][3] == 1


def test_gf5_negation():
    f = build_field(5)
    assert f.neg[2] == 3


def test_gf9_characteristic():
    f = build_field(9)
    assert f.p == 3 and f.e == 2
    # 3 encodes x; x + x + x = 3x = 0 in characteristic 3
    x = 3
    assert f.add[f.add[x][x]][x] == 0


# ---------------------------------------------------------------------------
# arithmetic() dispatch
# ---------------------------------------------------------------------------


def test_arithmetic_dispatch():
    f = build_field(7)
    assert arithmetic(f, "add", 3, 5) == 1
    assert arithmetic(f, "mul", 3, 5) == 1
    assert arithmetic(f, "neg", 3) == 4
    assert arithmetic(f, "inv", 3) == 5


def test_arithmetic_division_by_zero():
    f = build_field(7)
    with pytest.raises(DivisionByZero):
        arithmetic(f, "inv", 0)
    with pytest.raises(DivisionByZero):
        inv(f, 0)


def test_arithmetic_unknown_op():
    f = build_field(7)
    with pytest.raises(ValueError):
        arithmetic(f, "pow", 2, 3)


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------


def test_conj_requires_square_order():
    for q in [2, 3, 5, 7, 8, 27, 32]:
        f = build_field(q)
        assert not f.has_conj
        with pytest.raises(NotASquareOrder):
            conj(f, 1)


def test_conj_gf4_values():
    f = build_field(4)
    assert conj(f, 2) == 3
    assert conj(f, 3) == 2
    assert conj(f, 0) == 0
    assert conj(f, 1) == 1


def test_conj_is_frobenius_involution():
    for q in SQUARE_ORDERS:
        f = build_field(q)
        r = 1
        while r * r != q:
            r += 1
        for a in elements(f):
            # x -> x^sqrt(q)
            acc = 1
            for _ in range(r):
                acc = f.mul[acc][a]
            assert conj(f, a) == acc
            assert conj(f, conj(f, a)) == a


def test_conj_is_field_automorphism():
    for q in SQUARE_ORDERS:
        f = build_field(q)
        for a in elements(f):
            for b in elements(f):
                assert conj(f, f.add[a][b]) == f.add[conj(f, a)][conj(f, b)]
                assert conj(f, f.mul[a][b]) == f.mul[conj(f, a)][conj(f, b)]


def test_conj_fixes_exactly_the_subfield():
    for q in SQUARE_ORDERS:
        f = build_field(q)
        r = 1
        while r * r != q:
            r += 1
        fixed = [a for a in elements(f) if conj(f, a) == a]
        assert len(fixed) == r
