"""The independent numeric oracle: square-free split, then Aberth-Ehrlich.

Every radical answer in this library is cross-checked by a root finder that
knows nothing about radicals.  Multiplicities are exact: Yun's algorithm on
the integer coefficients writes the polynomial as a product of powers of
square-free factors, so the multiplicity-6 root below is the one root of
the sixth-power factor, and only simple roots are iterated.  Each factor is
iterated in hardware complex, then in stdlib decimal at 48, 144, ... digits,
until an inclusion certificate proves a disk of radius at most tol/4 around
each root, disjoint from the others; that certificate alone decides
convergence.  ``iterations`` counts the decimal rounds, and each root
carries its proved ``radius``.
"""

from fractions import Fraction as F

import centersolve as cs

# a polynomial with a multiplicity-6 root at 1/2 and a simple root at -1/3
eq = cs.from_plain_coeffs(
    [F(1), F(-8, 3), F(11, 4), F(-5, 4), F(5, 48), F(1, 8), F(-3, 64), F(1, 192)]
)
result = cs.numeric_roots(eq)
print("converged:", result.converged, "after", result.iterations, "iterations")
for root in result.roots:
    print(
        f"  {complex(root.value):.15g}   multiplicity {root.multiplicity}"
        f"   radius {root.radius:.3g}"
    )
print(f"max scaled residual: {result.max_residual:.3g}")

# comparison reports locate the worst pair
radical = cs.solve_by_radicals(eq)
report = cs.compare_root_sets(radical, result, tol=1e-9)
print("\nradical vs oracle:", "pass" if report.passed else "FAIL",
      f"(max distance {report.max_distance:.3g})")

# exact rational roots need no numeric phase: they are lifted p-adically
coeffs = [F(1), F(-5), F(6), F(4), F(-8)]  # (x-2)^3 (x+1)
print("\nrational roots of x^4 - 5x^3 + 6x^2 + 4x - 8:")
for root, mult in cs.rational_roots(coeffs):
    print(f"  {root} with multiplicity {mult}")
