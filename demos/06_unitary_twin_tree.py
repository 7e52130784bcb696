"""The quasi-split unitary group SU_3(F_q[t, 1/t]) by Galois descent, its
twin tree with valencies (1+q, 1+q^3), and the maximal split SL_2 inside.

Run: python3 demos/06_unitary_twin_tree.py
"""

from twinroot import trd
from twinroot.descent import anisotropic_kernel, relative_root_group, su3_datum

q = 2
d = su3_datum(q)
print(f"== descent datum over F_{q} inside F_{q*q} ==")
print("sigma fixes the identity:", d.is_fixed(d.ambient.identity()))
v1, z1 = relative_root_group(d, 1)
v0, _ = relative_root_group(d, 0)
print(f"metabelian root group: {len(v1)} elements, center {len(z1)}")
print(f"abelian root group: {len(v0)} elements")
kernel, commutative = anisotropic_kernel(d)
print(f"anisotropic kernel at level 0: {len(kernel)} elements, abelian: {commutative}")

print()
print("== the twin tree ==")
orc = trd.su3_oracle(d)
ball = trd.building_ball(orc, +1, 2)
print(f"positive ball of radius 2: {len(ball.chambers)} chambers")
print("panel sizes:", ball.panel_sizes, f" (expected 1+q = {1+q} and 1+q^3 = {1+q**3})")

print()
print("== the maximal split subgroup: a regular twin tree inside ==")
basis = trd.center_line_basis(d)
print("root subdatum axioms:", "pass" if trd.check_rsd(orc, basis).passed else "fail")
integ = trd.integrate_subdatum(orc, basis)
fball = trd.building_ball(integ.oracle(), +1, 2)
print(f"split subgroup ball: {len(fball.chambers)} chambers, panels {fball.panel_sizes}")

base_plus = fball.chambers[0]
minus = trd.building_ball(integ.oracle(), -1, 1)
for cm in minus.chambers[:4]:
    w = trd.codistance(integ.oracle(), base_plus, cm)
    w_amb = trd.codistance(orc, base_plus, cm)
    print(f"codistance to a negative chamber: {w.word or '1'} (ambient agrees: {w == w_amb})")

print()
print("DOT export of the unitary ball (paste into graphviz):")
print(trd.export_graph(trd.building_ball(orc, +1, 1), "dot"))
