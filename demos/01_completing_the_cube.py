"""Completing the cube: write a cubic as a sum of two cubes and solve it.

A binary cubic F(x, y) = a0 x^3 + 3 a1 x^2 y + 3 a2 x y^2 + a3 y^3 hides two
cubes whenever the discriminant D2^2 - 4 D1 D3 of its center generator is
nonzero.  The center invariants are just 2x2 minors of the coefficients:

    D1 = a0 a2 - a1^2,  D2 = a0 a3 - a1 a2,  D3 = a1 a3 - a2^2

and the eigenvalues (D2 +- sqrt(D2^2 - 4 D1 D3)) / 2 hand us the completion.
"""

from fractions import Fraction as F

import centersolve as cs

# 2x^3 + 3x^2 + 3x + 1: secretly x^3 + (x+1)^3
eq = cs.from_plain_coeffs([2, 3, 3, 1])
form = eq.homogenize()

inv = cs.binary_invariants(form)
print("invariants:  D1 =", inv.D1, " D2 =", inv.D2, " D3 =", inv.D3)
print("discriminant:", inv.discriminant)
print("eigenvalues: ", inv.lambda1, "and", inv.lambda2)

dec = cs.complete_powers(form)
print("\ncompletion:")
for coeff, linear in dec.summands:
    x_part, y_part = linear.coeffs
    print(f"  {coeff} * ({x_part}*x + {y_part}*y)^3")

# the expansion is an exact identity, not an approximation
assert cs.expand(dec, 2) == form.to_nary()
print("\nexpand-back check: exact")

# setting one cube against the other yields the roots
roots = cs.solve_by_radicals(eq)
print("\nroots of 2x^3 + 3x^2 + 3x + 1 = 0:")
for r in roots.roots:
    print(f"  {complex(r.value):.12g}   exact: {r.exact}")

# the depressed cubic x^3 + px + q reproduces the classical formula:
# lambda_{1,2} = q/2 +- sqrt(q^2/4 + p^3/27) are exactly the two nested
# radicals inside the textbook solution.
p, q = F(-3), F(2)
print(f"\nx^3 + ({p})x + ({q}):")


def show(root_set):
    return ", ".join(
        f"{complex(r.value):.6g} (x{r.multiplicity})" if r.multiplicity > 1
        else f"{complex(r.value):.6g}"
        for r in root_set.roots
    )


print("  classical formula:", show(cs.cardano(p, q)))
eq2 = cs.from_plain_coeffs([1, 0, p, q])
print("  center pipeline:  ", show(cs.solve_by_radicals(eq2)))
