"""A degree-5 equation solved in radicals.

General quintics have no radical solution, but this one's homogenization has
a nontrivial center algebra, which certifies it is a sum of two fifth powers
of linear forms.  Once the two powers are found, every root is a Moebius
image of a fifth root of unity.
"""

import centersolve as cs

eq = cs.from_plain_coeffs([31, 235, 710, 1070, 805, 242])
print("equation:", eq, "= 0")

cls = cs.classify(eq)
print("\nclassification:", cls.tag, f"(Hankel rank {cls.hankel_rank})")

inv = cs.binary_invariants(eq.homogenize())
print("invariants: D1 =", inv.D1, " D2 =", inv.D2, " D3 =", inv.D3)
print("eigenvalues:", inv.lambda1, inv.lambda2)

dec = cs.complete_powers(eq.homogenize())
print("\ncompletion into two fifth powers:")
for coeff, linear in dec.summands:
    print(f"  {coeff} * (x + {linear.coeffs[1]}*y)^5")
assert cs.expand(dec, 2) == eq.homogenize().to_nary()

roots = cs.solve_by_radicals(eq)
print("\nradical roots (delta = (1/32)^(1/5) = 1/2):")
for r in roots.roots:
    tag = f"   exact: {r.exact}" if r.exact is not None else ""
    print(f"  {complex(r.value):.15g}{tag}")

# cross-check against the independent simultaneous-iteration root finder
oracle = cs.numeric_roots(eq)
report = cs.compare_root_sets(roots, oracle, tol=1e-10)
print(f"\noracle agreement: max distance {report.max_distance:.3g} "
      f"({'pass' if report.passed else 'FAIL'})")

# a repeated-eigenvalue example: degree 7 with a multiplicity-6 root
from fractions import Fraction as F

eq7 = cs.from_plain_coeffs(
    [F(1), F(-8, 3), F(11, 4), F(-5, 4), F(5, 48), F(1, 8), F(-3, 64), F(1, 192)]
)
roots7 = cs.solve_by_radicals(eq7)
print("\ndegree-7 with a repeated center eigenvalue:")
for r in roots7.roots:
    print(f"  root {r.exact} with multiplicity {r.multiplicity}")
