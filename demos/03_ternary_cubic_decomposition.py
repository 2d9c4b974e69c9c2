"""Diagonalizing a ternary cubic into a sum of three cubes of linear forms.

The center algebra of the form is computed as an exact nullspace, a generic
center element is split into orthogonal idempotents, and the idempotents'
ranges assemble the change of variables.
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

prof = cs.profile(f, basis)
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

# idempotent sanity: e_i e_j = delta_ij e_i and sum e_i = I
from centersolve.linalg import identity, mat_mul

idem = [[list(row) for row in e] for e in result.idempotents]
assert all(mat_mul(e, e) == e for e in idem)
total = [[sum(e[i][j] for e in idem) for j in range(3)] for i in range(3)]
assert total == identity(3)
print("idempotent relations: exact")

# a binary example with an irrational spectrum: the same call splits it
# numerically
g = cs.BinaryForm((F(1), F(0), F(1), F(1))).to_nary()
numeric = cs.diagonalize_form(g)
ok = cs.check_decomposition(g, numeric.as_power_sum, tol=1e-9)
print("\nirrational spectrum: exact =", numeric.exact, "| decomposes within 1e-9:", ok)
