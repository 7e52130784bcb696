"""loop-cells: Iwahori-Bruhat factorizations and Birkhoff cells of seeded
random elements of SL_2 and SL_3 over F_q[t, 1/t].

The elements are products of root-group elements and torus units drawn by the
benchmark's own Laurent arithmetic; twinroot only receives the matrices.
"""

from __future__ import annotations

import random

from twinroot.chevalley import loop_group
from twinroot.laurent import LaurentMatrix, LaurentPoly

import ref
from harness import Op, Workload, expect

WINDOW = 8  # twinroot's default degree window for loop groups
# Degree span of the generated elements.  bruhat_cell's peeling can leave the
# window on wider inputs and raise DegreeWindowExceeded (see the README).
SPAN = 4
# (n, q): (bruhat_cell, birkhoff_cell) operations per 10 s of --seconds
PER_10S = {
    (2, 2): (120, 80),
    (2, 3): (120, 80),
    (2, 4): (120, 80),
    (2, 9): (120, 80),
    (3, 2): (80, 60),
    (3, 4): (80, 60),
}
STEPS = {2: 6, 3: 5}


def build(seed: int, seconds: int) -> Workload:
    rng = random.Random(f"loop-cells/{seed}")
    ops = []
    for (n, q), counts in PER_10S.items():
        G = loop_group(q, n)
        f = ref.field(q)
        bruhat, birkhoff = (max(1, round(c * seconds / 10.0)) for c in counts)
        for kind, k in (("bruhat_cell", bruhat), ("birkhoff_cell", birkhoff)):
            for _ in range(k):
                g = ref.random_group_element(f, n, rng, STEPS[n], SPAN)
                check_seed = rng.randrange(2**32)
                if kind == "bruhat_cell":
                    op = Op(kind, _call(G.bruhat_cell, to_program(G, g)), _check_bruhat(G, f, g, check_seed))
                else:
                    op = Op(kind, _call(G.birkhoff_cell, to_program(G, g)), _check_birkhoff(G, f, g, check_seed))
                ops.append(op)
    rng.shuffle(ops)
    return Workload(ops)


def _call(fn, *args):
    return lambda: fn(*args)


def to_program(G, m) -> LaurentMatrix:
    field = G.field
    return LaurentMatrix(
        field, len(m), tuple(tuple(LaurentPoly(field, tuple(sorted(p.items()))) for p in row) for row in m)
    )


def to_ref(M: LaurentMatrix):
    return [[dict(p.terms) for p in row] for row in M.rows]


def _within_window(m):
    return all(abs(e) <= WINDOW for row in m for p in row for e in p)


def iwahori_pair(f, n, g, rng, signs):
    """(b, b2) in B_signs[0] x B_signs[1] with b g b2 inside the degree window."""
    while True:
        b = ref.random_iwahori(f, n, rng, signs[0])
        b2 = ref.random_iwahori(f, n, rng, signs[1])
        moved = ref.mprod(f, b, g, b2)
        if _within_window(moved):
            return moved


def _check_bruhat(G, f, g, check_seed):
    n = G.n

    def check(result):
        w, b1, b2 = result
        expect(ref.is_reduced(ref.affine_gcm(n), w.word), f"cell word {w.word} is not reduced")
        r1, r2 = to_ref(b1), to_ref(b2)
        expect(ref.in_iwahori(f, r1), "b1 is not in the Iwahori subgroup")
        expect(ref.in_iwahori(f, r2), "b2 is not in the Iwahori subgroup")
        product = ref.mprod(f, r1, ref.canonical_rep(f, n, w.word), r2)
        expect(product == g, f"b1 * w_hat * b2 != g for w = {w.word}")
        moved = iwahori_pair(f, n, g, random.Random(check_seed), (1, 1))
        again = G.bruhat_weyl(to_program(G, moved)).word
        expect(again == w.word, f"cell of b g b' is {again}, of g {w.word}")

    return check


def _check_birkhoff(G, f, g, check_seed):
    n = G.n

    def check(w):
        expect(ref.is_reduced(ref.affine_gcm(n), w.word), f"cell word {w.word} is not reduced")
        moved = iwahori_pair(f, n, g, random.Random(check_seed), (1, -1))
        again = G.birkhoff_cell(to_program(G, moved)).word
        expect(again == w.word, f"Birkhoff cell of b+ g b- is {again}, of g {w.word}")

    return check
