"""Real roots as half-spaces: prenilpotency, intervals, nibbling orders.

Prenilpotency is decided exactly from the two pairings <beta, alpha^vee>
and <alpha, beta^vee>: crossing walls (product at most 3) or walls nested in
the same direction (<beta, alpha^vee> > 0).  No search radius is involved.
Interval membership is certificate-based and raises UndecidedError when a
bounded search certifies neither way.

Run: python3 demos/03_real_roots_intervals_nibbling.py
"""

from twinroot import gcm, roots

A2, AFF = gcm.A2, gcm.AFFINE_A1

print("== real roots ==")
print("A2, all of them:", [r.coords for r in roots.enumerate_real_roots(A2, 3)])
print("affine A1 up to length 2:", [r.coords for r in roots.enumerate_real_roots(AFF, 2)])

print()
print("== prenilpotent pairs ==")
v0, v1 = roots.simple_root(A2, 0), roots.simple_root(A2, 1)
print("A2 {v0, v1}:", roots.is_prenilpotent_pair(A2, v0, v1))
print("any {a, -a}:", roots.is_prenilpotent_pair(A2, v0, -v0))
u0, u1 = roots.simple_root(AFF, 0), roots.simple_root(AFF, 1)
print("affine A1 {v0, v1} (no element has two descents):",
      roots.is_prenilpotent_pair(AFF, u0, u1))
nested = roots.RootVector((2, 1))
print("affine A1 nested pair {v0, (2,1)}:", roots.is_prenilpotent_pair(AFF, u0, nested))

print()
print("== closed root intervals ==")
iv = roots.closed_interval(A2, v0, v1)
print("A2 [v0, v1] =", [r.coords for r in iv.members], " open part:", [r.coords for r in iv.open])
iv2 = roots.closed_interval(A2, -v0, v1)
print("A2 [-v0, v1] =", [r.coords for r in iv2.members], " (open interval empty)")

print()
print("== nibbling sequences for the finite positive systems ==")
for name, A in (("A2", A2), ("B2", gcm.B2), ("G2", gcm.G2)):
    positives = [r for r in roots.enumerate_real_roots(A, 12) if r.sign > 0]
    seq = roots.nibbling_sequence(A, (0, 1), positives)
    print(f"{name}: {[r.coords for r in seq.roots]}")
