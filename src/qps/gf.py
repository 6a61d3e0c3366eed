"""Finite field arithmetic for GF(q), q = p^e <= 32, via precomputed tables.

Elements are encoded as integers: the element with polynomial coordinates
(a_0, a_1, ..., a_{e-1}) over GF(p) is the integer a_0 + a_1*p + ... +
a_{e-1}*p^(e-1).  0 and 1 always encode the additive and multiplicative
identities.

Extension fields are built modulo a fixed primitive polynomial, one per
order (coefficients listed from the constant term up), so the powers of x
run through all of GF(q)*:

    GF(4)   x^2 + x + 1            [1, 1, 1]
    GF(8)   x^3 + x + 1            [1, 1, 0, 1]
    GF(16)  x^4 + x + 1            [1, 1, 0, 0, 1]
    GF(32)  x^5 + x^2 + 1          [1, 0, 1, 0, 0, 1]
    GF(9)   x^2 + 2x + 2           [2, 2, 1]
    GF(27)  x^3 + 2x + 1           [1, 2, 0, 1]
    GF(25)  x^2 + 4x + 2           [2, 4, 1]

Every table is read off the powers w^k of one primitive element w, x for
an extension field and the least primitive root for GF(p): a*b is
w^(log a + log b), 1/a is w^(-log a) and the conjugate x -> x^sqrt(q),
available exactly when the order is a square, is w^(sqrt(q) log a).
Addition works digit by digit, and -a is (-1)*a, -1 being the constant p - 1.
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

    __slots__ = (
        "q", "p", "e", "modulus", "add", "mul", "neg", "inv", "has_conj", "conj", "primitive"
    )

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
        primitive: int,
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
        self.primitive = primitive


_CACHE: dict[int, FieldTable] = {}


def _powers(q: int, p: int, e: int, add: list[list[int]]) -> tuple[list[int], int]:
    """The powers w^0, ..., w^(q-2) of the primitive element w, and w.

    w is x for an extension field: a power times x is a digit shift, and the
    digit carried past x^(e-1) comes back as a multiple of x^e, which is
    minus the modulus' lower terms.  For GF(p), w is the least primitive root.
    """
    if e == 1:
        w = next(w for w in range(1, p) if len({pow(w, k, p) for k in range(1, p)}) == p - 1)
        return [pow(w, k, p) for k in range(p - 1)], w
    top = q // p
    carry = [sum((-t * c) % p * p**i for i, c in enumerate(MODULI[q][:e])) for t in range(p)]
    exp = [1]
    for _ in range(q - 2):
        v = exp[-1]
        exp.append(add[v % top * p][carry[v // top]])
    if set(exp) != set(range(1, q)):
        raise ValueError(f"GF({q}): the modulus {MODULI[q]} is not primitive")
    return exp, p


def build_field(q: int) -> FieldTable:
    """Construct (and cache) the arithmetic tables for GF(q)."""
    if q in _CACHE:
        return _CACHE[q]
    if q > MAX_ORDER:
        raise OrderTooLarge(f"order {q} exceeds {MAX_ORDER}")
    p, e = _factor_prime_power(q)

    # digit-wise addition, one more digit per pass: the top digits add mod p
    add = [[(a + b) % p for b in range(p)] for a in range(p)]
    n = p
    while n < q:
        add = [
            [add[a % n][b % n] + n * ((a // n + b // n) % p) for b in range(n * p)]
            for a in range(n * p)
        ]
        n *= p

    exp, w = _powers(q, p, e, add)
    log = [0] * q
    for k, v in enumerate(exp):
        log[v] = k
    exp2 = exp * 2
    mul = ((0,) * q,) + tuple(
        (0,) + tuple(exp2[log[a] + log[b]] for b in range(1, q)) for a in range(1, q)
    )
    root = round(q**0.5)
    has_conj = root * root == q
    conj = tuple(range(q))
    if has_conj:
        conj = (0,) + tuple(exp[log[a] * root % (q - 1)] for a in range(1, q))
    table = FieldTable(
        q=q,
        p=p,
        e=e,
        modulus=MODULI.get(q, (0, 1)),
        add=tuple(map(tuple, add)),
        mul=mul,
        neg=mul[p - 1],  # -1 is the constant p - 1
        inv=(0,) + tuple(exp[-log[a]] for a in range(1, q)),
        has_conj=has_conj,
        conj=conj,
        primitive=w,
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
