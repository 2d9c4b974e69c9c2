"""Quartics with a trivial center: the sum-of-two-squares route.

Most quartics are not sums of two fourth powers.  They still factor after
depression: choose the resolvent-cubic root a with
q^2 - 4(p - 2a)(r - a^2) = 0, then

    y^4 + p y^2 + q y + r = (y^2 + a)^2 - (u y + v)^2

splits into two quadratics.  A rational resolvent root is found exactly;
otherwise the resolvent is irreducible, and its root comes from completing
the cube: the resolvent is a sum of two cubes, solved like any other.
"""

import centersolve as cs

eq = cs.from_plain_coeffs([1, 0, -1, -2, -1])
print("equation:", eq, "= 0")
print("classification:", cs.classify(eq).tag)

sol = cs.solve_quartic_by_two_squares(eq)
dq = sol.depressed
print(f"\ndepressed: y^4 + ({dq.p})y^2 + ({dq.q})y + ({dq.r}),  x = y - {dq.shift}")
print("resolvent root alpha =", sol.resolvent.alpha)
print("quadratic factors:")
for _, b, c in sol.factors:
    print(f"  y^2 + ({b})*y + ({c})")

print("\nroots:")
for r in sol.root_set.roots:
    print(f"  {complex(r.value):.15g}")

oracle = cs.numeric_roots(eq)
report = cs.compare_root_sets(sol.root_set, oracle, tol=1e-9)
print(f"\noracle agreement: max distance {report.max_distance:.3g} "
      f"({'pass' if report.passed else 'FAIL'})")

# a quartic with random-looking coefficients goes through the same mill
eq2 = cs.from_plain_coeffs([1, -3, 7, 2, -5])
sol2 = cs.solve_quartic_by_two_squares(eq2)
print("\nx^4 - 3x^3 + 7x^2 + 2x - 5 = 0:")
for r in sol2.root_set.roots:
    print(f"  {complex(r.value):.12g}")
report2 = cs.compare_root_sets(sol2.root_set, cs.numeric_roots(eq2), tol=1e-9)
print("oracle agreement:", "pass" if report2.passed else "FAIL")
