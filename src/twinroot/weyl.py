"""Coxeter/Weyl group engine over the integral root-lattice action.

The Weyl group of a GCM acts on Q = Z^n by s_i(v_j) = v_j - a[i][j] v_i.
This action is faithful, so an element IS its action matrix; the canonical
ShortLex-minimal reduced word is derived data, read off by descent on the
dual vector w.rho_vee.  All arithmetic is exact Python integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import ExplosionGuard, IndexOutOfRange, MixedSign, RankMismatch
from .gcm import GeneralizedCartanMatrix, IntMatrix, IntVector

INF = math.inf

_PRODUCT_TO_ORDER = {0: 2, 1: 3, 2: 4, 3: 6}


@dataclass(frozen=True)
class CoxeterMatrix:
    n: int
    m: tuple[tuple[float, ...], ...]  # entries in {1,2,3,4,6} or math.inf


def coxeter_matrix(A: GeneralizedCartanMatrix) -> CoxeterMatrix:
    """m[i][j] = 2,3,4,6,inf for a_ij*a_ji = 0,1,2,3,>=4; 1 on the diagonal."""
    n = A.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(1)
            else:
                row.append(_PRODUCT_TO_ORDER.get(A.a[i][j] * A.a[j][i], INF))
        rows.append(tuple(row))
    return CoxeterMatrix(n, tuple(rows))


# --- integer matrix helpers -------------------------------------------------

def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: IntMatrix, v: IntVector) -> IntVector:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    result = identity_matrix(len(a))
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def simple_reflection_action(A: GeneralizedCartanMatrix, i: int) -> IntMatrix:
    """Matrix of s_i on Q: column j is v_j - a[i][j] v_i."""
    if not 0 <= i < A.n:
        raise IndexOutOfRange(f"generator index {i} out of range for rank {A.n}")
    return _s_times(A.a, identity_matrix(A.n), i)


def root_sign(v: IntVector) -> int:
    """+1 for a positive real root, -1 for negative; MixedSign otherwise."""
    has_pos = any(x > 0 for x in v)
    has_neg = any(x < 0 for x in v)
    if has_pos and not has_neg:
        return 1
    if has_neg and not has_pos:
        return -1
    raise MixedSign(f"{v} is not sign-coherent")


DESCENT_GUARD = 10**6


def _reflect(a: IntMatrix, x, i: int):
    """Dual simple reflection s_i on V*: x_j <- x_j - a[i][j] x_i, O(n)."""
    xi = x[i]
    if not xi:
        return x
    return tuple(xj - aij * xi for xj, aij in zip(x, a[i]))


def _times_s(a: IntMatrix, mat: IntMatrix, i: int) -> IntMatrix:
    """mat * s_i, O(n^2): each row x becomes x_j - a[i][j] x_i."""
    return tuple(_reflect(a, row, i) for row in mat)


def _s_times(a: IntMatrix, mat: IntMatrix, i: int) -> IntMatrix:
    """s_i * mat, O(n^2): only row i changes, to mat[i] - sum_k a[i][k] mat[k]."""
    row = tuple(x - sum(c * y for c, y in zip(a[i], col)) for x, col in zip(mat[i], zip(*mat)))
    return mat[:i] + (row,) + mat[i + 1 :]


def descend(A: GeneralizedCartanMatrix, x, limit: int):
    """Strip the least i with x_i < 0 and apply s_i to x, until no coordinate
    is negative; the letters, or None if the limit-th test still finds a
    negative coordinate (so at most limit - 1 letters come back).

    For x = w.rho_vee (the coordinates x_j = rho_vee(w^{-1} alpha_j) are
    negative exactly at the left descents of w) the letters are the
    ShortLex-least reduced word of w (Bjorner-Brenti, Combinatorics of
    Coxeter Groups, section 4).  For any other point they move it into the
    closed fundamental chamber when it lies in the Tits cone.
    """
    n = A.n
    x = tuple(x)
    word = []
    for _ in range(limit):
        i = next((k for k in range(n) if x[k] < 0), None)
        if i is None:
            return tuple(word)
        word.append(i)
        x = _reflect(A.a, x, i)
    return None


@dataclass(frozen=True)
class WeylElement:
    """Canonical reduced word plus the exact action matrix on Q.

    Equality and hashing go through the matrix (the representation is
    faithful); the word is the ShortLex-minimal reduced expression.
    """

    gcm: GeneralizedCartanMatrix
    word: tuple[int, ...]
    mat: IntMatrix
    inv: IntMatrix = field(compare=False)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.gcm == other.gcm
            and self.mat == other.mat
        )

    def __hash__(self):
        return hash((self.gcm, self.mat))

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, v: IntVector) -> IntVector:
        if len(v) != self.gcm.n:
            raise RankMismatch("vector length does not match the rank")
        return mat_vec(self.mat, v)

    def apply_inverse(self, v: IntVector) -> IntVector:
        return mat_vec(self.inv, v)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return multiply(self, other)

    def inverse(self) -> "WeylElement":
        return _from_matrices(self.gcm, self.inv, self.mat)

    def __repr__(self):
        return f"W{list(self.word)}"


def _from_matrices(A: GeneralizedCartanMatrix, mat: IntMatrix, inv: IntMatrix) -> WeylElement:
    # w.rho_vee has the column sums of inv as coordinates
    word = descend(A, map(sum, zip(*inv)), DESCENT_GUARD)
    if word is None:
        raise ExplosionGuard("word normalization exceeded the iteration guard")
    return WeylElement(A, word, mat, inv)


def identity_element(A: GeneralizedCartanMatrix) -> WeylElement:
    ident = identity_matrix(A.n)
    return WeylElement(A, (), ident, ident)


def simple_element(A: GeneralizedCartanMatrix, i: int) -> WeylElement:
    s = simple_reflection_action(A, i)
    return WeylElement(A, (i,), s, s)


def _word_matrices(A: GeneralizedCartanMatrix, word) -> tuple[IntMatrix, IntMatrix]:
    mat = inv = identity_matrix(A.n)
    for i in word:
        if not 0 <= i < A.n:
            raise IndexOutOfRange(f"generator index {i} out of range for rank {A.n}")
        mat = _times_s(A.a, mat, i)
        inv = _s_times(A.a, inv, i)
    return mat, inv


def from_word(A: GeneralizedCartanMatrix, word) -> WeylElement:
    """Element represented by an arbitrary (not necessarily reduced) word."""
    return _from_matrices(A, *_word_matrices(A, word))


def element_of_action(A: GeneralizedCartanMatrix, mat: IntMatrix, inv: IntMatrix):
    """The element acting on Q by mat (with inverse inv), or None if no
    element does: the descent word read off inv is multiplied out again and
    must reproduce both matrices."""
    word = descend(A, map(sum, zip(*inv)), DESCENT_GUARD)
    if word is None or _word_matrices(A, word) != (mat, inv):
        return None
    return WeylElement(A, word, mat, inv)


def multiply(w1: WeylElement, w2: WeylElement) -> WeylElement:
    if w1.gcm != w2.gcm:
        raise RankMismatch("elements live over different Cartan matrices")
    return _from_matrices(w1.gcm, mat_mul(w1.mat, w2.mat), mat_mul(w2.inv, w1.inv))


def is_reduced(A: GeneralizedCartanMatrix, word) -> bool:
    """Right-to-left descent test: word reduced iff no prefix-letter kills length.

    Maintains x = u.rho_vee for the growing suffix u; the next letter i
    keeps the word reduced iff i is not a left descent of u, i.e. x_i > 0.
    """
    n = A.n
    x = (1,) * n
    for i in reversed(tuple(word)):
        if not 0 <= i < n:
            raise IndexOutOfRange(f"generator index {i} out of range for rank {A.n}")
        if x[i] < 0:
            return False
        x = _reflect(A.a, x, i)
    return True


DEFAULT_BALL_CAP = 10**6


def enumerate_ball(A: GeneralizedCartanMatrix, L: int) -> list[WeylElement]:
    """All elements of length <= L, each once, in (length, ShortLex) order."""
    if L < 0:
        raise IndexOutOfRange("ball radius must be nonnegative")
    n = A.n
    seen = {identity_matrix(n)}
    result = [identity_element(A)]
    layer = [result[0]]
    for _ in range(L):
        nxt = {}
        for w in layer:
            for i in range(n):
                if sum(row[i] for row in w.mat) < 0:
                    continue  # the root w alpha_i has negative height: length would drop
                mat = _times_s(A.a, w.mat, i)
                if mat in seen or mat in nxt:
                    continue
                nxt[mat] = _s_times(A.a, w.inv, i)
        layer = sorted(
            (_from_matrices(A, mat, inv) for mat, inv in nxt.items()),
            key=lambda w: w.word,
        )
        seen.update(nxt)
        if len(seen) > DEFAULT_BALL_CAP:
            raise ExplosionGuard(f"ball enumeration exceeded cap {DEFAULT_BALL_CAP}")
        if not layer:
            break
        result.extend(layer)
    return result


def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        m[c], m[pivot] = m[pivot], m[c]
        det *= m[c][c] if pivot == c else -m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


@lru_cache(maxsize=256)
def is_finite(A: GeneralizedCartanMatrix) -> bool:
    """W is finite iff every principal minor of A is positive (Kac,
    Infinite-dimensional Lie algebras, Thm 4.3 and Prop 4.9); exact."""
    return all(
        _det(A.submatrix(J).a) > 0
        for k in range(1, A.n + 1)
        for J in itertools.combinations(range(A.n), k)
    )


def group_order(A: GeneralizedCartanMatrix) -> int | float:
    """|W| exactly, math.inf iff is_finite(A) is false."""
    return _finite_order(A) if is_finite(A) else INF


def _finite_order(A: GeneralizedCartanMatrix) -> int:
    """Orbit-stabiliser for finite W: the dual orbit of the coroot
    alpha_0^vee (the row a[0] as a point of V*) times the order of the
    stabiliser of its dominant member x, the parabolic W_J with
    J = {j : x_j = 0}, a proper subset."""
    if A.n == 0:
        return 1
    orbit = {A.a[0]}
    layer = list(orbit)
    while layer:
        nxt = []
        for x in layer:
            for i in range(A.n):
                y = _reflect(A.a, x, i)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        layer = nxt
    dominant = next(x for x in orbit if min(x) >= 0)
    return len(orbit) * _finite_order(A.submatrix(tuple(j for j, v in enumerate(dominant) if v == 0)))


# --- exact order of integer matrices ---------------------------------------

@lru_cache(maxsize=None)
def _torsion_exponent(n: int) -> int:
    """lcm of all d with phi(d) <= n: every finite-order element of GL_n(Z)
    has order dividing this."""
    def phi(d):
        result, x, p = d, d, 2
        while p * p <= x:
            if x % p == 0:
                while x % p == 0:
                    x //= p
                result -= result // p
            p += 1
        if x > 1:
            result -= result // x
        return result

    out = 1
    for d in range(1, 2 * n * n + 2):
        if phi(d) <= n:
            out = math.lcm(out, d)
    return out


def matrix_order(mat: IntMatrix) -> int | float:
    """Exact order of an integer matrix, math.inf if infinite.

    Finiteness is certified: a finite-order element of GL_n(Z) has order
    dividing the torsion exponent for n, so one fast exponentiation decides,
    and the walk over the powers then stops by that exponent.
    """
    n = len(mat)
    ident = identity_matrix(n)
    if mat == ident:
        return 1
    if mat_pow(mat, _torsion_exponent(n)) != ident:
        return INF
    power, order = mat, 1
    while power != ident:
        power, order = mat_mul(power, mat), order + 1
    return order
