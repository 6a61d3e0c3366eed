"""Finite field arithmetic for GF(q), q = p^e <= 32, via precomputed tables.

Elements are encoded as integers: the element with polynomial coordinates
(a_0, a_1, ..., a_{e-1}) over GF(p) is the integer a_0 + a_1*p + ... +
a_{e-1}*p^(e-1).  0 and 1 always encode the additive and multiplicative
identities.

Extension fields are built modulo a fixed irreducible polynomial, one per
order (coefficients listed from the constant term up):

    GF(4)   x^2 + x + 1            [1, 1, 1]
    GF(8)   x^3 + x + 1            [1, 1, 0, 1]
    GF(16)  x^4 + x + 1            [1, 1, 0, 0, 1]
    GF(32)  x^5 + x^2 + 1          [1, 0, 1, 0, 0, 1]
    GF(9)   x^2 + 2x + 2           [2, 2, 1]
    GF(27)  x^3 + 2x + 1           [1, 2, 0, 1]
    GF(25)  x^2 + 4x + 2           [2, 4, 1]

The conjugation map x -> x^sqrt(q) is available exactly when the order is
a square.
"""

from __future__ import annotations


class NotPrimePower(ValueError):
    """Requested order is not a prime power."""


class OrderTooLarge(ValueError):
    """Requested order exceeds 32."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class NotASquareOrder(ValueError):
    """Conjugation requested in a field whose order is not a square."""


MAX_ORDER = 32

# Fixed irreducible modulus per extension order, constant term first.
MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    16: (1, 1, 0, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    9: (2, 2, 1),
    27: (1, 2, 0, 1),
    25: (2, 4, 1),
}


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if q % p == 0:
            e = 0
            n = q
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                raise NotPrimePower(f"{q} is not a prime power")
            return p, e
    raise NotPrimePower(f"{q} is not a prime power")


class FieldTable:
    """Lookup tables for one field; treat as immutable."""

    __slots__ = ("q", "p", "e", "modulus", "add", "mul", "neg", "inv", "has_conj", "conj")

    def __init__(
        self,
        q: int,
        p: int,
        e: int,
        modulus: tuple[int, ...],
        add: tuple[tuple[int, ...], ...],
        mul: tuple[tuple[int, ...], ...],
        neg: tuple[int, ...],
        inv: tuple[int, ...],
        has_conj: bool,
        conj: tuple[int, ...],
    ):
        self.q = q
        self.p = p
        self.e = e
        self.modulus = modulus
        self.add = add
        self.mul = mul
        self.neg = neg
        self.inv = inv
        self.has_conj = has_conj
        self.conj = conj


def _digits(n: int, p: int, e: int) -> list[int]:
    out = []
    for _ in range(e):
        out.append(n % p)
        n //= p
    return out


def _undigits(ds: list[int], p: int) -> int:
    n = 0
    for d in reversed(ds):
        n = n * p + d
    return n


def _poly_mul_mod(a: int, b: int, p: int, e: int, mod: tuple[int, ...]) -> int:
    da = _digits(a, p, e)
    db = _digits(b, p, e)
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(da):
        if ai == 0:
            continue
        for j, bj in enumerate(db):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce by the monic modulus of degree e
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        if c == 0:
            continue
        prod[k] = 0
        for j in range(e):
            prod[k - e + j] = (prod[k - e + j] - c * mod[j]) % p
    return _undigits(prod[:e], p)


_CACHE: dict[int, FieldTable] = {}


def build_field(q: int) -> FieldTable:
    """Construct (and cache) the arithmetic tables for GF(q)."""
    if q in _CACHE:
        return _CACHE[q]
    if q > MAX_ORDER:
        raise OrderTooLarge(f"order {q} exceeds {MAX_ORDER}")
    p, e = _factor_prime_power(q)

    if e == 1:
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
    else:
        mod = MODULI[q]
        add = tuple(
            tuple(
                _undigits(
                    [(x + y) % p for x, y in zip(_digits(a, p, e), _digits(b, p, e))], p
                )
                for b in range(q)
            )
            for a in range(q)
        )
        mul = tuple(
            tuple(_poly_mul_mod(a, b, p, e, mod) for b in range(q)) for a in range(q)
        )

    neg = [0] * q
    for a in range(q):
        for b in range(q):
            if add[a][b] == 0:
                neg[a] = b
                break

    inv = [0] * q
    for a in range(1, q):
        for b in range(1, q):
            if mul[a][b] == 1:
                inv[a] = b
                break

    root = int(round(q**0.5))
    has_conj = root * root == q
    if has_conj:
        conj = []
        for a in range(q):
            x = 1
            for _ in range(root):
                x = mul[x][a]
            conj.append(x)
        conj = tuple(conj)
    else:
        conj = tuple(range(q))

    table = FieldTable(
        q=q,
        p=p,
        e=e,
        modulus=MODULI.get(q, (0, 1) if e == 1 else ()),
        add=add,
        mul=mul,
        neg=tuple(neg),
        inv=tuple(inv),
        has_conj=has_conj,
        conj=conj,
    )
    _CACHE[q] = table
    return table


def arithmetic(f: FieldTable, op: str, a: int, b: int | None = None) -> int:
    """Apply a named field operation; op in {'add','mul','neg','inv'}."""
    if op == "add":
        return f.add[a][b]
    if op == "mul":
        return f.mul[a][b]
    if op == "neg":
        return f.neg[a]
    if op == "inv":
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return f.inv[a]
    raise ValueError(f"unknown op {op!r}")


def conj(f: FieldTable, a: int) -> int:
    """Conjugate x -> x^sqrt(q); defined only when q is a square."""
    if not f.has_conj:
        raise NotASquareOrder(f"GF({f.q}) has no conjugation")
    return f.conj[a]


def inv(f: FieldTable, a: int) -> int:
    if a == 0:
        raise DivisionByZero("0 has no multiplicative inverse")
    return f.inv[a]


def sub(f: FieldTable, a: int, b: int) -> int:
    return f.add[a][f.neg[b]]


SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)
