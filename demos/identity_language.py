"""The identity expression language, end to end.

Identities are text: parse them, pretty-print them, evaluate them to
exact coefficients, and compare two sides coefficient by coefficient.
The bundled manifest drives the same machinery in bulk.
"""

from podium import (
    ParseError,
    bundled_manifest,
    check,
    evaluate,
    expand,
    parse,
    pretty,
    run_suite,
)

# A convolution identity as plain text: the distinct-odd-parts series
# times the ceiling-signed triangular sum telescopes to 1.
TEXT = "gf(pod) * theta{j in N}((-1)^(ceil2(j)); (j*(j+1)) div 2)"

ast = parse(TEXT)
print("parsed:        ", TEXT)
print("pretty-printed:", pretty(ast))
assert parse(pretty(ast)) == ast

print("\nfirst coefficients of the product:", list(evaluate(ast, 10)))
mismatch = check(ast, parse("1"), 400)
print("compared against 1 up to order 400:", "agree" if mismatch is None else mismatch)

# A deliberately wrong right-hand side is pinpointed at its first bad
# coefficient rather than just reported as unequal.
mismatch = check(parse("gf(pod)"), parse("gf(p)"), 50)
print("\ngf(pod) versus gf(p):", mismatch)

# Parse errors carry character offsets and what would have been accepted.
try:
    parse("gf(pod")
except ParseError as err:
    print(f"\nparse error demo: {err}")

# Congruences use the optional modulus: these two functions differ as
# integers but agree mod 2.
print("\nmod-2 comparison of pod and cubic:",
      "agree" if check(parse("gf(pod)"), parse("gf(cubic)"), 200, modulus=2) is None
      else "differ")

# The bundled manifest packages a few dozen of these records; the runner
# checks them all and reports per record.
records = bundled_manifest()
report = run_suite(records[:6], order=120)
print(f"\nfirst {report.total} bundled records at order 120:")
for line in report.lines():
    print(" ", line)

print("\nexpand() is the one-step version:")
print("  q_odd series:", list(expand("gf(pod) * subst(poch(q^1,q^1), q^2)", 8)))
