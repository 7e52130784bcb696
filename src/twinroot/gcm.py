"""Generalized Cartan matrices and Kac-Moody root data.

A generalized Cartan matrix is an integer matrix with 2s on the diagonal,
nonpositive entries off it, and symmetric vanishing.  A root datum attaches
to it a concrete lattice Z^m together with roots c_i and co-roots h_i whose
pairing reproduces the matrix.  Everything here is plain arbitrary-precision
integer arithmetic; values are immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    DiagonalNotTwo,
    GcmError,
    PairingMismatch,
    PositiveOffDiagonal,
    RankMismatch,
    ZeroAsymmetry,
)

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _freeze(rows, what: str = "GCM") -> IntMatrix:
    """rows as an integer matrix; GcmError on any row that is not a list or
    tuple and on any entry that is not an int (floats and bools included)."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in rows):
        raise GcmError(f"{what} must be a list of rows")
    for row in rows:
        for x in row:
            if not _is_int(x):
                raise GcmError(f"{what} entry {x!r} is not an integer")
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    n: int
    a: IntMatrix

    def submatrix(self, indices: tuple[int, ...]) -> "GeneralizedCartanMatrix":
        """Principal submatrix on a subset of nodes (itself a valid GCM)."""
        rows = tuple(tuple(self.a[i][j] for j in indices) for i in indices)
        return GeneralizedCartanMatrix(len(indices), rows)

    def transpose(self) -> "GeneralizedCartanMatrix":
        return GeneralizedCartanMatrix(
            self.n, tuple(tuple(self.a[j][i] for j in range(self.n)) for i in range(self.n))
        )

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "a": [list(r) for r in self.a]}, sort_keys=True)


def validate_gcm(matrix) -> GeneralizedCartanMatrix:
    """Check the three GCM axioms; reject at the first violated one.

    Raises DiagonalNotTwo, PositiveOffDiagonal or ZeroAsymmetry with the
    offending indices.
    """
    rows = _freeze(matrix)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise RankMismatch("GCM must be a nonempty square integer matrix")
    for i in range(n):
        if rows[i][i] != 2:
            raise DiagonalNotTwo(i, rows[i][i])
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] > 0:
                raise PositiveOffDiagonal(i, j, rows[i][j])
    for i in range(n):
        for j in range(n):
            if i != j and (rows[i][j] == 0) != (rows[j][i] == 0):
                raise ZeroAsymmetry(i, j)
    return GeneralizedCartanMatrix(n, rows)


def gcm_from_json(text: str) -> GeneralizedCartanMatrix:
    """The GCM of a JSON object {"a": rows, ...}; GcmError unless the text is
    such an object, then the checks of validate_gcm."""
    data = json.loads(text)
    if not isinstance(data, dict) or "a" not in data:
        raise GcmError('GCM JSON must be an object with a matrix "a"')
    return validate_gcm(data["a"])


@dataclass(frozen=True)
class KacMoodyRootDatum:
    """A GCM together with roots c_i in Z^m and co-roots h_i in (Z^m)^*.

    Invariant (checked on construction): <h[i], c[j]> = a[i][j].
    """

    gcm: GeneralizedCartanMatrix
    m: int
    c: tuple[IntVector, ...]
    h: tuple[IntVector, ...]

    def __post_init__(self):
        n = self.gcm.n
        if len(self.c) != n or len(self.h) != n:
            raise RankMismatch("need one root and one co-root per node")
        for v in self.c + self.h:
            if len(v) != self.m:
                raise RankMismatch("root/co-root length must equal the lattice rank")
        for i in range(n):
            for j in range(n):
                got = sum(x * y for x, y in zip(self.h[i], self.c[j]))
                if got != self.gcm.a[i][j]:
                    raise PairingMismatch(i, j, got, self.gcm.a[i][j])

    def pairing(self, i: int, j: int) -> int:
        return sum(x * y for x, y in zip(self.h[i], self.c[j]))

    def to_json(self) -> str:
        return json.dumps(
            {
                "gcm": {"n": self.gcm.n, "a": [list(r) for r in self.gcm.a]},
                "m": self.m,
                "c": [list(v) for v in self.c],
                "h": [list(v) for v in self.h],
            },
            sort_keys=True,
        )


def datum_from_json(text: str) -> KacMoodyRootDatum:
    """The root datum of a JSON object {"gcm": {"a": rows}, "m": int, "c":
    rows, "h": rows}; GcmError unless the text has that shape, then the
    checks of validate_gcm and KacMoodyRootDatum."""
    data = json.loads(text)
    if not (isinstance(data, dict) and isinstance(data.get("gcm"), dict) and "a" in data["gcm"]
            and {"m", "c", "h"} <= data.keys()):
        raise GcmError('datum JSON must be an object {"gcm": {"a": rows}, "m": int, "c": rows, "h": rows}')
    if not _is_int(data["m"]):
        raise GcmError(f"lattice rank m = {data['m']!r} is not an integer")
    return KacMoodyRootDatum(
        validate_gcm(data["gcm"]["a"]), data["m"], _freeze(data["c"], "roots c"), _freeze(data["h"], "co-roots h")
    )


def _unit(m: int, i: int) -> IntVector:
    return tuple(1 if k == i else 0 for k in range(m))


def simply_connected_datum(A: GeneralizedCartanMatrix) -> KacMoodyRootDatum:
    """Lattice Z^n, c_i = sum_j a[j][i] e_j, h_i = e_i^*."""
    n = A.n
    c = tuple(tuple(A.a[j][i] for j in range(n)) for i in range(n))
    h = tuple(_unit(n, i) for i in range(n))
    return KacMoodyRootDatum(A, n, c, h)


def minimal_adjoint_datum(A: GeneralizedCartanMatrix) -> KacMoodyRootDatum:
    """Lattice Z^n, c_i = e_i, h_i = sum_j a[i][j] e_j^*."""
    n = A.n
    c = tuple(_unit(n, i) for i in range(n))
    h = tuple(tuple(A.a[i][j] for j in range(n)) for i in range(n))
    return KacMoodyRootDatum(A, n, c, h)


def dual_datum(D: KacMoodyRootDatum) -> KacMoodyRootDatum:
    """Swap roots with co-roots over the transposed matrix; an involution."""
    return KacMoodyRootDatum(D.gcm.transpose(), D.m, D.h, D.c)


# Frequently used test matrices.
A2 = validate_gcm([[2, -1], [-1, 2]])
B2 = validate_gcm([[2, -1], [-2, 2]])
G2 = validate_gcm([[2, -1], [-3, 2]])
AFFINE_A1 = validate_gcm([[2, -2], [-2, 2]])
AFFINE_A2 = validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
