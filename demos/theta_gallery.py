"""Gallery of theta-type sums and their product expansions.

Builds the classical specializations, confirms a few of the product
identities behind them, and shows how to assemble a custom sum from a
weight, an exponent, and a domain, written as identity-language text.
"""

from podium import expand, named_theta, pochhammer

N = 24

print(f"named theta series at order {N}:\n")
for name in (
    "phi",
    "psi",
    "phi_neg",
    "psi_neg",
    "euler_pentagonal",
    "jacobi_cube",
    "ram_6n1",
    "ram_3n1",
    "baruah_pent",
    "e1_series",
):
    coeffs = list(named_theta(name, N))
    print(f"  {name:<17} {coeffs}")

# The pentagonal sum is exactly the expansion of (q;q)_oo, and the cube
# identity gives (q;q)_oo^3 from odd weights on triangular exponents.
assert named_theta("euler_pentagonal", 200) == pochhammer(1, 1, 1, 200)
assert named_theta("jacobi_cube", 200) == pochhammer(1, 1, 1, 200).power(3)
print("\npentagonal and cube expansions match their Pochhammer products.")

# A two-sided sum can be folded onto the non-negative integers: the
# hexagonal-exponent sum re-indexes over triangular numbers with
# ceiling-of-half signs.
two_sided = expand("theta{n in Z}((-1)^(n); 2*n*n + n)", 100)
folded = expand("theta{n in N}((-1)^(ceil2(n)); (n*(n+1)) div 2)", 100)
assert two_sided == folded
print("two-sided hexagonal sum equals its triangular reindexing.")

# Custom sums take any integer-valued quadratic in the summation
# variable; `div` divides exactly, and an exponent that falls without
# bound is an evaluation error.  Weights are integer expressions too.
squares_weighted = expand("theta{n in N}(2*n + 1; n*n)", 30)
print("\ncustom sum  sum (2n+1) q^(n^2)  to order 30:")
print(" ", list(squares_weighted))
