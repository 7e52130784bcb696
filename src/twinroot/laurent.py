"""Laurent polynomials and matrices over small finite fields, exactly.

Polynomials are sparse (exponent -> nonzero coefficient value); matrices of
any size are immutable, with determinants and adjugates by cofactor expansion
(`_minor`) and inversion by the adjugate.  Determinant-1 is the group
condition checked by the callers in chevalley.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import NotUnimodular, RankMismatch, UnknownFormat
from .fields import GaloisField
from .gcm import _is_int


def _sum_of_products(field: GaloisField, products, start=()) -> "LaurentPoly":
    """start + the sum of a * b over the (a, b) pairs of term tuples in
    products: one table lookup per coefficient product and sum, one sort."""
    add, mul = field._add, field._mul
    acc = dict(start)
    for left, right in products:
        for e1, v1 in left:
            row = mul[v1]
            for e2, v2 in right:
                e = e1 + e2
                acc[e] = add[acc.get(e, 0)][row[v2]]
    return LaurentPoly(field, tuple(sorted((e, v) for e, v in acc.items() if v)))


def _minor(field: GaloisField, rows, cols) -> "LaurentPoly":
    """Determinant of rows (of polynomials) restricted to the columns cols,
    by Laplace expansion along the first row: one fused sum of products per
    expansion, and no sub-minor for a zero entry.  No rows give 1."""
    if not rows:
        return LaurentPoly.one(field)
    first, rest = rows[0], rows[1:]
    if not rest:
        return first[cols[0]]
    neg = field._neg
    products = []
    for k, c in enumerate(cols):
        entry = first[c].terms
        if entry:
            if k % 2:
                entry = tuple((e, neg[v]) for e, v in entry)
            products.append((entry, _minor(field, rest, cols[:k] + cols[k + 1 :]).terms))
    return _sum_of_products(field, products)


@dataclass(frozen=True)
class LaurentPoly:
    field: GaloisField
    terms: tuple[tuple[int, int], ...]  # sorted (exponent, value), value != 0

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.field is other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field.q, self.terms))

    @staticmethod
    def of(field: GaloisField, mapping) -> "LaurentPoly":
        items = tuple(sorted((int(k), v) for k, v in mapping.items() if v != 0))
        return LaurentPoly(field, items)

    @staticmethod
    def zero(field: GaloisField) -> "LaurentPoly":
        return LaurentPoly(field, ())

    @staticmethod
    def monomial(field: GaloisField, exp: int, value: int) -> "LaurentPoly":
        value %= field.q
        return LaurentPoly(field, ((exp, value),)) if value else LaurentPoly(field, ())

    @staticmethod
    def const(field: GaloisField, value: int) -> "LaurentPoly":
        return LaurentPoly.monomial(field, 0, value)

    @staticmethod
    def one(field: GaloisField) -> "LaurentPoly":
        return LaurentPoly(field, ((0, 1),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == ((0, 1),)

    def coeff(self, exp: int) -> int:
        for e, v in self.terms:
            if e == exp:
                return v
        return 0

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.field is not self.field:
            raise RankMismatch("polynomials over different fields")
        return _sum_of_products(self.field, ((((0, 1),), other.terms),), self.terms)

    def __neg__(self) -> "LaurentPoly":
        f = self.field
        return LaurentPoly(f, tuple((e, f.neg(v)) for e, v in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self.minus_times(1, 0, other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.field is not self.field:
            raise RankMismatch("polynomials over different fields")
        return _sum_of_products(self.field, ((self.terms, other.terms),))

    def minus_times(self, value: int, k: int, other: "LaurentPoly") -> "LaurentPoly":
        """self - value * t^k * other in one pass (value an encoded field value)."""
        f = self.field
        if other.field is not f:
            raise RankMismatch("polynomials over different fields")
        return _sum_of_products(f, ((((k, f.neg(value)),), other.terms),), self.terms)

    def scale(self, value: int) -> "LaurentPoly":
        """Multiply by an encoded field value."""
        f = self.field
        if value == 0:
            return LaurentPoly.zero(f)
        return LaurentPoly(f, tuple((e, f.mul(v, value)) for e, v in self.terms))

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly(self.field, tuple((e + k, v) for e, v in self.terms))

    def is_monomial(self) -> bool:
        """Nonzero monomial; over a field these are the units of F_q[t, t^-1]."""
        return len(self.terms) == 1

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_monomial():
            raise NotUnimodular(f"{self} is not a unit of the Laurent ring")
        (e, v), = self.terms
        return LaurentPoly(self.field, ((-e, self.field.inv(v)),))

    def bar(self) -> "LaurentPoly":
        """Coefficientwise Frobenius (t is fixed)."""
        f = self.field
        return LaurentPoly(f, tuple((e, f.frobenius(v)) for e, v in self.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        return "+".join(
            (f"{v}" if e == 0 else f"{v}*t^{e}" if e != 1 else f"{v}*t") for e, v in self.terms
        )


@dataclass(frozen=True)
class LaurentMatrix:
    field: GaloisField
    n: int
    rows: tuple[tuple[LaurentPoly, ...], ...]

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMatrix)
            and self.field is other.field
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.q, self.n, tuple(p.terms for row in self.rows for p in row)))

    @staticmethod
    def identity(field: GaloisField, n: int) -> "LaurentMatrix":
        one, zero = LaurentPoly.one(field), LaurentPoly.zero(field)
        return LaurentMatrix(
            field, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        )

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.rows[i][j]

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.field is not other.field or self.n != other.n:
            raise RankMismatch("matrix shape or field mismatch")
        f, n = self.field, self.n
        rows = [[p.terms for p in row] for row in self.rows]
        cols = [[row[j].terms for row in other.rows] for j in range(n)]
        return LaurentMatrix(f, n, tuple(tuple(_sum_of_products(f, zip(r, c)) for c in cols) for r in rows))

    def det(self) -> LaurentPoly:
        return _minor(self.field, self.rows, tuple(range(self.n)))

    def adjugate(self) -> "LaurentMatrix":
        """adj[i][j] = (-1)^(i+j) times the minor without row j and column i."""
        n, f, rows = self.n, self.field, self.rows
        cols = tuple(range(n))

        def cofactor(i, j):
            minor = _minor(f, rows[:j] + rows[j + 1 :], cols[:i] + cols[i + 1 :])
            return -minor if (i + j) % 2 else minor

        return LaurentMatrix(f, n, tuple(tuple(cofactor(i, j) for j in range(n)) for i in range(n)))

    def inverse(self) -> "LaurentMatrix":
        """adj / det, with det = row 0 times column 0 of the adjugate, so
        each minor is formed once."""
        adj = self.adjugate()
        d = _sum_of_products(self.field, ((self.rows[0][j].terms, adj.rows[j][0].terms) for j in range(self.n)))
        if not d.is_monomial():
            raise NotUnimodular("matrix determinant is not a unit")
        if d.is_one():
            return adj
        dinv = d.unit_inverse()
        return LaurentMatrix(
            self.field,
            self.n,
            tuple(tuple(adj.rows[i][j] * dinv for j in range(self.n)) for i in range(self.n)),
        )

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(
            self.field,
            self.n,
            tuple(tuple(self.rows[j][i] for j in range(self.n)) for i in range(self.n)),
        )

    def bar(self) -> "LaurentMatrix":
        return LaurentMatrix(
            self.field, self.n, tuple(tuple(p.bar() for p in row) for row in self.rows)
        )

    def max_degree_span(self) -> int:
        exps = [e for row in self.rows for p in row for e, _ in p.terms]
        return max((abs(e) for e in exps), default=0)

    def to_json_obj(self):
        def poly_obj(p: LaurentPoly):
            return [{"k": e, "c": list(self.field._digits(v)[: self.field.e])} for e, v in p.terms]

        return {"n": self.n, "q": self.field.q, "entries": [[poly_obj(p) for p in row] for row in self.rows]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def __repr__(self):
        return "[" + "; ".join(", ".join(str(p) for p in row) for row in self.rows) + "]"


def matrix_from_json(field: GaloisField, data) -> LaurentMatrix:
    """Read {"n": int, "entries": n x n lists of {"k": int, "c": digits}
    terms}; anything else raises UnknownFormat or RankMismatch."""
    if isinstance(data, str):
        data = json.loads(data)
    if not (isinstance(data, dict) and _is_int(data.get("n")) and isinstance(data.get("entries"), list)):
        raise UnknownFormat('a matrix is an object {"n": int, "entries": [rows]}')
    n, entries = data["n"], data["entries"]
    if len(entries) != n or any(not isinstance(row, list) or len(row) != n for row in entries):
        raise RankMismatch(f"expected {n}x{n} entries")
    rows = []
    for row in entries:
        out_row = []
        for poly in row:
            if not isinstance(poly, list) or not all(
                isinstance(term, dict) and _is_int(term.get("k")) for term in poly
            ):
                raise UnknownFormat(f"entry {poly!r} is not a list of {{k: int, c: digits}} terms")
            if len({term["k"] for term in poly}) != len(poly):
                raise UnknownFormat(f"entry {poly!r} repeats an exponent")
            acc = {}
            for term in poly:
                if "c" not in term:
                    raise UnknownFormat(f"term {term!r} has no digits \"c\"")
                coeffs = term["c"]
                if not isinstance(coeffs, list) or not 1 <= len(coeffs) <= field.e or any(
                    not _is_int(c) or not 0 <= c < field.p for c in coeffs
                ):
                    raise UnknownFormat(
                        f"coefficient {coeffs!r} is not 1 to {field.e} base-{field.p} digits"
                    )
                value = coeffs[0] + (coeffs[1] * field.p if len(coeffs) > 1 else 0)
                if value:
                    acc[term["k"]] = value
            out_row.append(LaurentPoly(field, tuple(sorted(acc.items()))))
        rows.append(tuple(out_row))
    return LaurentMatrix(field, n, tuple(rows))


def elementary(field: GaloisField, n: int, i: int, j: int, poly: LaurentPoly) -> LaurentMatrix:
    """I + poly * E_ij."""
    if i == j:
        raise RankMismatch("elementary matrices need i != j")
    base = [list(row) for row in LaurentMatrix.identity(field, n).rows]
    base[i][j] = base[i][j] + poly
    return LaurentMatrix(field, n, tuple(tuple(r) for r in base))


def diagonal(field: GaloisField, entries) -> LaurentMatrix:
    n = len(entries)
    zero = LaurentPoly.zero(field)
    return LaurentMatrix(
        field, n, tuple(tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n))
    )
