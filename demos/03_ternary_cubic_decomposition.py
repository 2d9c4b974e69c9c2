"""Diagonalizing a ternary cubic into a sum of three cubes of linear forms.

The center algebra of the form is computed as an exact nullspace, and the
eigenvectors of a generic center element (one per eigenvalue, each from the
range of that eigenvalue's idempotent) assemble the change of variables P.
"""

from fractions import Fraction as F

import centersolve as cs

text = (
    "x1^3 + 3*x2*x1^2 + 3*x3*x1^2 + 3*x2^2*x1 + 3*x3^2*x1 "
    "+ 6*x2*x3*x1 - x2^3 + 20*x3^3 - 21*x2*x3^2 + 15*x2^2*x3"
)
f = cs.parse_polynomial(text).form
print("form:", text)

basis = cs.compute_center(f)
print("\ncenter dimension:", basis.dim, "| commutative:", basis.is_commutative())
for k, matrix in enumerate(basis.basis, 1):
    print(f"  basis element {k}:")
    for row in matrix:
        print("    [" + "  ".join(str(x) for x in row) + "]")

prof = cs.profile(f)
print("\ngeneric element spectrum:", prof.spectrum_kind)
print("eigenvalues:", [str(v) for v, _ in prof.eigenvalues])

result = cs.diagonalize_form(f)
print("\nchange of variables P (x = P y):")
for row in result.p:
    print("  [" + "  ".join(str(x) for x in row) + "]")
print("diagonal coefficients:", [str(c) for c in result.diagonal])

print("\npower-sum decomposition:")
for coeff, linear in result.as_power_sum.summands:
    terms = " + ".join(
        f"{c}*x{i+1}" for i, c in enumerate(linear.coeffs) if c != 0
    )
    print(f"  {coeff} * ({terms})^3")

assert cs.expand(result.as_power_sum, 3) == f
print("\nexpand-back check: exact")

# P diagonalizes the generic element: P^-1 g P = diag(eigenvalues), exactly
from centersolve.linalg import inverse, mat_mul

g = [list(row) for row in prof.generic_element]
p = [list(row) for row in result.p]
lams = sorted(v for v, _ in prof.eigenvalues)
conjugated = mat_mul(mat_mul(inverse(p), g), p)
assert conjugated == [[lams[i] if i == j else 0 for j in range(3)] for i in range(3)]
print("P^-1 g P = diag(" + ", ".join(str(v) for v in lams) + "): exact")

# a binary example with an irrational spectrum: the same call splits it
# numerically
g = cs.BinaryForm((F(1), F(0), F(1), F(1))).to_nary()
numeric = cs.diagonalize_form(g)
ok = cs.check_decomposition(g, numeric.as_power_sum, tol=1e-9)
print("\nirrational spectrum: exact =", numeric.exact, "| decomposes within 1e-9:", ok)
