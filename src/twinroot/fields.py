"""Small finite fields F_q, q = p^e with p in {2,3,5} and e in {1,2}.

Elements are encoded as integers 0..q-1 (base-p digits = coefficients in the
fixed irreducible-polynomial basis), with table-driven addition, negation,
multiplication and inversion so serialized values are bit-stable.  The
Frobenius x -> x^p is an automorphism fixing exactly the degree-1 subfield.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import RankMismatch

# fixed irreducible polynomials x^2 + c1 x + c0 per (p, 2)
_IRREDUCIBLE = {
    (2, 2): (1, 1),  # x^2 + x + 1
    (3, 2): (1, 0),  # x^2 + 1
    (5, 2): (2, 0),  # x^2 + 2
}

_ALLOWED = {(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)}


class GaloisField:
    """Arithmetic tables for F_{p^e}; instances are interned per (p, e)."""

    def __init__(self, p: int, e: int):
        if (p, e) not in _ALLOWED:
            raise RankMismatch(f"unsupported field parameters p={p}, e={e}")
        self.p = p
        self.e = e
        self.q = p**e
        digits = [self._digits(a) for a in range(self.q)]
        self._add = [[self._undigits(a0 + b0, a1 + b1) for b0, b1 in digits] for a0, a1 in digits]
        self._neg = [self._undigits(-a0, -a1) for a0, a1 in digits]
        self._mul = [[self._poly_mul(a, b) for b in range(self.q)] for a in range(self.q)]
        self._inv = [0] * self.q
        for a in range(1, self.q):
            self._inv[a] = next(b for b in range(1, self.q) if self._mul[a][b] == 1)
        self._frob = [pow_elem(self, a, p) for a in range(self.q)]

    # digits: value = c0 + c1*p, element = c0 + c1*x
    def _digits(self, a: int) -> tuple[int, int]:
        return a % self.p, a // self.p

    def _undigits(self, c0: int, c1: int) -> int:
        return c0 % self.p + (c1 % self.p) * self.p

    def _poly_mul(self, a: int, b: int) -> int:
        p = self.p
        a0, a1 = self._digits(a)
        b0, b1 = self._digits(b)
        if self.e == 1:
            return (a0 * b0) % p
        c0, c1 = _IRREDUCIBLE[(p, 2)]
        # (a0 + a1 x)(b0 + b1 x) with x^2 = -c1 x - c0
        d0 = a0 * b0
        d1 = a0 * b1 + a1 * b0
        d2 = a1 * b1
        return self._undigits(d0 - d2 * c0, d1 - d2 * c1)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self._inv[a]

    def frobenius(self, a: int) -> int:
        return self._frob[a]

    def trace(self, a: int) -> int:
        return self.add(a, self.frobenius(a)) if self.e == 2 else a

    def norm(self, a: int) -> int:
        return self.mul(a, self.frobenius(a)) if self.e == 2 else a

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def trace_zero(self):
        return [a for a in self.elements() if self.trace(a) == 0]

    def __repr__(self):
        return f"GF({self.q})"


def pow_elem(field: GaloisField, a: int, k: int) -> int:
    if k < 0:
        raise ValueError("negative exponent")
    out, base = 1, a
    while k:
        if k & 1:
            out = field._mul[out][base]
        base = field._mul[base][base]
        k >>= 1
    return out


@lru_cache(maxsize=None)
def GF(p: int, e: int = 1) -> GaloisField:
    return GaloisField(p, e)


def gf_of_order(q: int) -> GaloisField:
    for (p, e) in _ALLOWED:
        if p**e == q:
            return GF(p, e)
    raise RankMismatch(f"unsupported field order {q}")

