"""roots-session: a seeded session of Coxeter and root decisions in one process.

No query repeats within a run, so a result cache cannot pass for a faster
kernel; twinroot's own lazily built tables (cached balls, root-witness
tables) fill inside the timed phase.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from twinroot import cone, gcm, roots, weyl
from twinroot.roots import RootVector

import ref
from harness import Op, Workload, expect

H3 = ((2, -1, 0), (-1, 2, -2), (0, -2, 2))  # hyperbolic: A2 glued to affine A1
K4 = tuple(tuple(2 if i == j else -1 for j in range(4)) for i in range(4))  # triangle group, rank 4

MATRICES = {
    "A2": gcm.A2.a,
    "B2": gcm.B2.a,
    "G2": gcm.G2.a,
    "affine_A1": gcm.AFFINE_A1.a,
    "affine_A2": gcm.AFFINE_A2.a,
    "H3": H3,
    "K4": K4,
}
FINITE_ORDER = {"A2": 6, "B2": 8, "G2": 12}
ROOT_LEVEL = {"A2": 4, "B2": 6, "G2": 8, "affine_A1": 5, "affine_A2": 5}
BRUTE_RADIUS = 12  # > twinroot's default search radius of 8
FINITE_RADIUS = 20  # exhausts A2, B2, G2

# operations per 10 s of --seconds; the balls of BALL_RADII are all enumerated once
PER_10S = {
    "from_word": 92,  # per GCM
    "prenilpotent": {"affine_A2": 200, "affine_A1": 100, "G2": 30, "B2": 12, "A2": 6},
    "interval": {"affine_A2": 260, "affine_A1": 80, "G2": 30, "B2": 12, "A2": 6},
    "nibbling": 30,
}
BALL_RADII = {"A2": 5, "B2": 6, "G2": 8, "affine_A1": 14, "affine_A2": 10, "H3": 9, "K4": 5}
WORD_LENGTHS = tuple(range(8, 31))  # cycled, so every GCM gets the same mix of lengths


def build(seed: int, seconds: int) -> Workload:
    rng = random.Random(f"roots-session/{seed}")
    scale = seconds / 10.0

    def count(n):
        return max(1, round(n * scale))

    A = {name: gcm.validate_gcm(m) for name, m in MATRICES.items()}
    ops = []

    for name in sorted(A):
        n = A[name].n
        words = set()
        for k in range(count(PER_10S["from_word"])):
            word = ()
            while not word or word in words:
                word = tuple(rng.randrange(n) for _ in range(WORD_LENGTHS[k % len(WORD_LENGTHS)]))
            words.add(word)
            ops.append(Op(f"from_word:{name}", _call(weyl.from_word, A[name], word), _check_word(MATRICES[name], word)))

    for name, top in BALL_RADII.items():
        for r in range(1, top + 1):
            ops.append(Op(f"ball:{name}", _call(weyl.enumerate_ball, A[name], r), check_ball(name, MATRICES[name], r)))

    for name, n in PER_10S["prenilpotent"].items():
        pairs = root_pairs(MATRICES[name], ROOT_LEVEL[name])
        for x, y in _stratified(rng, pairs, count(n), f"prenilpotent/{name}"):
            ops.append(
                Op(
                    f"prenilpotent:{name}",
                    _call(roots.is_prenilpotent_pair, A[name], RootVector(x), RootVector(y)),
                    _check_prenilpotent(name, x, y),
                )
            )

    for name, n in PER_10S["interval"].items():
        pairs = root_pairs(MATRICES[name], ROOT_LEVEL[name])
        prenilpotent = functools.partial(ref.is_prenilpotent, _chambers(name))
        for x, y in _stratified(rng, pairs, count(n), f"interval/{name}", keep=lambda p: prenilpotent(*p)):
            ops.append(
                Op(
                    f"interval:{name}",
                    _call(roots.closed_interval, A[name], RootVector(x), RootVector(y)),
                    _check_interval(name, x, y),
                )
            )

    for name, J, psi in _draw(rng, _nibbling_pool(), count(PER_10S["nibbling"]), "nibbling"):
        ops.append(
            Op(
                f"nibbling:{name}",
                _call(roots.nibbling_sequence, A[name], J, [RootVector(p) for p in psi]),
                check_nibbling(MATRICES[name], J, psi),
            )
        )

    flip = cone.diagram_automorphism(A["affine_A2"], (0, 2, 1))
    ops.append(Op("fold", _call(cone.relative_coxeter, A["affine_A2"], [flip]), _check_fold))

    rng.shuffle(ops)
    return Workload(ops)


def _call(fn, *args):
    return lambda: fn(*args)


def _draw(rng, pool, k, what):
    pool = sorted(pool)
    if k > len(pool):
        raise SystemExit(f"roots-session: {what} has {len(pool)} distinct queries, {k} requested; lower --seconds")
    return rng.sample(pool, k)


def _stratified(rng, pairs, k, what, keep=None):
    """k distinct root pairs that pass `keep`, drawn in fixed proportions from
    classes of equal (height of x, height of y), so that every seed asks
    equally hard questions."""
    classes = {}
    for x, y in sorted(pairs):
        classes.setdefault(tuple(sorted((_height(x), _height(y)))), []).append((x, y))
    quota = {c: k * len(members) / len(pairs) for c, members in classes.items()}
    take = {c: int(q) for c, q in quota.items()}
    for c in sorted(quota, key=lambda c: (take[c] - quota[c], c))[: k - sum(take.values())]:
        take[c] += 1
    out = []
    for c in sorted(classes):
        shuffled = rng.sample(classes[c], len(classes[c]))
        chosen = list(itertools.islice((p for p in shuffled if keep is None or keep(p)), take[c]))
        if len(chosen) < take[c]:
            raise SystemExit(f"roots-session: too few distinct {what} queries for {k}; lower --seconds")
        out += chosen
    return out


def _height(v):
    return sum(abs(x) for x in v)


def root_pairs(a, level):
    rr = ref.real_roots(a, level)
    return [
        (x, y)
        for i, x in enumerate(rr)
        for y in rr[i + 1 :]
        if x != tuple(-t for t in y)
    ]


def _nibbling_pool():
    """(GCM, J, psi) with W_J finite and psi the inversion set of some w in W_J
    of length >= 2 (a closed set), embedded back into the full rank."""
    spherical = {
        "A2": [(0, 1)],
        "B2": [(0, 1)],
        "G2": [(0, 1)],
        "affine_A2": [(0, 1), (0, 2), (1, 2)],
        "H3": [(0, 1), (0, 2)],
        "K4": [(i, j) for i in range(4) for j in range(i + 1, 4)],
    }
    pool = []
    for name, subsets in spherical.items():
        a = MATRICES[name]
        n = len(a)
        for J in subsets:
            sub = tuple(tuple(a[i][j] for j in J) for i in J)
            for w in ref.ball(sub, FINITE_RADIUS):
                psi = ref.inversion_set(sub, w)
                if len(psi) < 2:
                    continue
                full = tuple(sorted(_embed(J, n, p) for p in psi))
                pool.append((name, J, full))
    return pool


def _embed(J, n, v):
    out = [0] * n
    for pos, j in enumerate(J):
        out[j] = v[pos]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _chambers(name):
    """Reference chambers: all of W for the finite types, a radius-12 ball otherwise."""
    return ref.ball(MATRICES[name], FINITE_RADIUS if name in FINITE_ORDER else BRUTE_RADIUS)


# --- checks -------------------------------------------------------------------


def _check_word(a, word):
    def check(w):
        target = ref.element(a, word)
        expect(ref.element(a, w.word) == target, f"word {w.word} is not the element of {word}")
        expect(ref.is_reduced(a, w.word), f"word {w.word} is not reduced")
        if len(w.word) <= 8:
            least = min(ref.all_reduced_words(a, target))
            expect(w.word == least, f"word {w.word} is not ShortLex-least ({least})")

    return check


def check_ball(name, a, r):
    def check(ball):
        layers = ref.ball_layers(a, r)
        size = sum(len(layer) for layer in layers)
        expect(len(ball) == size, f"ball({name}, {r}) has {len(ball)} elements, expected {size}")
        if name in FINITE_ORDER and r >= len(layers):
            expect(size == FINITE_ORDER[name], f"|W({name})| = {size}")
        if name == "affine_A2":
            expect(size == 1 + 3 * r * (r + 1) // 2, f"affine A2 ball of radius {r} has {size} elements")
        words = [w.word for w in ball]
        expect(words == sorted(words, key=lambda u: (len(u), u)), "ball is not in (length, ShortLex) order")
        expect(all(len(u) <= r and ref.is_reduced(a, u) for u in words), "ball holds a non-reduced or long word")
        elems = {ref.element(a, u) for u in words}
        expect(elems == {w for layer in layers for w in layer}, "ball elements differ from the reference ball")

    return check


def _check_prenilpotent(name, x, y):
    def check(got):
        want = ref.is_prenilpotent(_chambers(name), x, y)
        expect(got is want, f"prenilpotency of {x}, {y} in {name}: got {got!r}, brute force {want}")

    return check


def _check_interval(name, x, y):
    def check(iv):
        members = sorted(r.coords for r in iv.members)
        chambers = _chambers(name)
        if name in FINITE_ORDER:
            candidates = ref.real_roots(MATRICES[name], ROOT_LEVEL[name])
            want = ref.interval(chambers, candidates, x, y)
            expect(members == want, f"[{x}, {y}] in {name}: got {members}, exhaustive {want}")
        else:
            expect(x in members and y in members, f"[{x}, {y}] lacks an endpoint")
            for g in members:
                expect(ref.contained(chambers, x, y, g), f"{g} in [{x}, {y}] fails containment")

    return check


def check_nibbling(a, J, psi):
    sub = tuple(tuple(a[i][j] for j in J) for i in J)
    n = len(a)

    def restrict(v):
        return tuple(v[j] for j in J)

    def check(seq):
        order = [r.coords for r in seq.roots]
        expect(sorted(order) == sorted(psi), "nibbling sequence is not a permutation of the input set")
        chambers = ref.ball(sub, FINITE_RADIUS)
        candidates = ref.real_roots(sub, FINITE_RADIUS)
        for i in range(len(order)):
            for j in range(i + 1, len(order)):
                x, y = restrict(order[i]), restrict(order[j])
                between = set(order[i + 1 : j])
                for g in ref.interval(chambers, candidates, x, y):
                    if g in (x, y):
                        continue
                    expect(_embed(J, n, g) in between, f"{g} lies in ({x}, {y}) but outside positions {i}..{j}")

    return check


def _check_fold(rc):
    expect(rc.orbits == ((0,), (1, 2)), f"orbits {rc.orbits}")
    expect(rc.m == ((1, math.inf), (math.inf, 1)), f"folded Coxeter matrix {rc.m}")
    # independent: r0 r1 = s0 (s1 s2 s1) is a translation, its powers grow in length
    a = MATRICES["affine_A2"]
    lengths = [ref.length(a, ref.element(a, (0, 1, 2, 1) * k)) for k in range(1, 7)]
    expect(all(u < v for u, v in zip(lengths, lengths[1:])), "r0 r1 has finite order")
