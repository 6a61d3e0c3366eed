"""Reference computations that share no code with the qps package.

Field arithmetic is rebuilt from the polynomial moduli that fix the on-disk
element encoding, spectra come from coordinate dot products rather than
incidence bitmasks, and census totals come from the orders of the classical
groups (Hirschfeld & Thas, *General Galois Geometries*): the number of
classical sets of one type in PG(d-1, q) is |GL(d, q)| divided by the order
of the set's similarity stabiliser.
"""

from __future__ import annotations

import itertools
import math
import random

# The element encoding of point files: digit i (base p) of an element code is
# the coefficient of t^i modulo this monic polynomial, constant term first.
MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    16: (1, 1, 0, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    9: (2, 2, 1),
    27: (1, 2, 0, 1),
    25: (2, 4, 1),
}


def prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e, n = 0, q
            while n % p == 0:
                n //= p
                e += 1
            if n != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


class Field:
    """GF(q) with add/mul tables built by polynomial arithmetic."""

    def __init__(self, q: int):
        p, e = prime_power(q)
        self.q, self.p, self.e = q, p, e
        digits = [[(n // p**i) % p for i in range(e)] for n in range(q)]

        def code(ds):
            return sum(d * p**i for i, d in enumerate(ds))

        def mul(a, b):
            prod = [0] * (2 * e)
            for i, x in enumerate(digits[a]):
                for j, y in enumerate(digits[b]):
                    prod[i + j] = (prod[i + j] + x * y) % p
            mod = MODULI.get(q, (0, 1))
            for k in range(2 * e - 1, e - 1, -1):
                c = prod[k]
                if c:
                    for j in range(e + 1):
                        prod[k - e + j] = (prod[k - e + j] - c * mod[j]) % p
            return code(prod[:e])

        self.add = [
            [code([(x + y) % p for x, y in zip(digits[a], digits[b])]) for b in range(q)]
            for a in range(q)
        ]
        self.mul = [[mul(a, b) for b in range(q)] for a in range(q)]
        self.inv = [0] * q
        for a in range(1, q):
            self.inv[a] = next(b for b in range(1, q) if self.mul[a][b] == 1)

    def dot(self, u, v) -> int:
        s = 0
        for a, b in zip(u, v):
            if a and b:
                s = self.add[s][self.mul[a][b]]
        return s

    def normalize(self, v) -> tuple[int, ...]:
        lead = next(x for x in v if x)
        c = self.inv[lead]
        return tuple(self.mul[c][x] for x in v)


def projective_points(m: int, q: int):
    """Every normalized nonzero vector of GF(q)^(m+1), in no particular order."""
    for lead in range(m + 1):
        for tail in itertools.product(range(q), repeat=m - lead):
            yield (0,) * lead + (1,) + tail


def spectrum_histogram(field: Field, m: int, vectors) -> dict[int, int]:
    """Hyperplane section sizes of a point set, by dot products with every dual vector."""
    vecs = list(vectors)
    hist: dict[int, int] = {}
    for h in projective_points(m, field.q):
        k = sum(1 for v in vecs if field.dot(h, v) == 0)
        hist[k] = hist.get(k, 0) + 1
    return dict(sorted(hist.items()))


def random_collineation(field: Field, d: int, rng: random.Random) -> list[list[int]]:
    """A seeded invertible d x d matrix: a product of elementary row operations."""
    a = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(4 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.randrange(1, field.q)
        a[i] = [field.add[x][field.mul[c][y]] for x, y in zip(a[i], a[j])]
    rng.shuffle(a)
    return a


def apply_matrix(field: Field, a, vectors) -> list[tuple[int, ...]]:
    return [
        field.normalize(tuple(field.dot(row, v) for row in a)) for v in vectors
    ]


# --- closed-form counts of classical sets -----------------------------------


def gl_order(d: int, q: int) -> int:
    return math.prod(q**d - q**i for i in range(d))


def go_order(family: str, d: int, q: int) -> int:
    """Order of the isometry group of a nondegenerate form on GF(q)^d."""
    if family == "hermitian":
        r = math.isqrt(q)
        return r ** (d * (d - 1) // 2) * math.prod(r**i - (-1) ** i for i in range(1, d + 1))
    if d % 2:
        n = d // 2
        sp = q ** (n * n) * math.prod(q ** (2 * i) - 1 for i in range(1, n + 1))
        return sp if q % 2 == 0 else 2 * sp
    n = d // 2
    eps = 1 if family == "hyperbolic" else -1
    return 2 * q ** (n * (n - 1)) * (q**n - eps) * math.prod(
        q ** (2 * i) - 1 for i in range(1, n)
    )


def classical_set_count(family: str, m: int, q: int) -> int:
    """Number of classical point sets of the family in PG(m, q)."""
    d = m + 1
    if family == "hermitian":
        # Hermitian forms are fixed up to the r - 1 subfield scalars
        return gl_order(d, q) // (go_order(family, d, q) * (math.isqrt(q) - 1))
    forms = gl_order(d, q) // go_order(family, d, q)
    if d % 2 and q % 2:
        forms *= 2  # two discriminant classes, swapped by a non-square scalar
    return forms // (q - 1)
