"""The constrained-total normalizer and its closed form, exactly.

The two-group allocation pmf divides by a sum of gamma-ratio terms. That
sum equals a repeated derivative of a single rational expression, which is
why no simpler closed form exists once the shapes grow. Here the identity
is verified in exact rational arithmetic, including on the line p = q where
the rational expression only looks singular.
"""

from fractions import Fraction

from dpcounts.exact_math import (
    check_convolution_identity,
    closed_form_numerator,
    differentiate,
    divide_by_q_minus_p,
    exact_normalizer,
)


def show(form):
    """A binary form as text: c[k] is the coefficient of p^k q^(D-k)."""
    degree = len(form) - 1
    terms = [f"{c}*p^{k}*q^{degree - k}" for k, c in enumerate(form) if c]
    return " + ".join(terms) or "0"


# Every polynomial on the path is homogeneous in (p, q), a binary form, kept
# as a list of integer coefficients. The numerator always divides exactly by
# (q - p), and the quotient is the numerator's prefix sums: geometric case
# first.
numerator = closed_form_numerator(1, 1, 3)
quotient = divide_by_q_minus_p(numerator)
print("unit shapes, total 3:")
print("  numerator:", numerator, "=", show(numerator))
print("  quotient :", quotient, "=", show(quotient))

# With shapes (2, 1) one derivative in p appears.
quotient = divide_by_q_minus_p(closed_form_numerator(2, 1, 2))
print("\nshapes (2, 1), total 2, after division:", show(quotient))
print("d/dp of that:", show(differentiate(quotient, 1, 0)))

# Both sides evaluated exactly at rational points, equal with no tolerance.
for c1, c2, zt, p, q in [
    (1, 1, 3, 2, 3),
    (2, 1, 2, 1, 1),
    (3, 2, 5, Fraction(1, 2), Fraction(1, 3)),
    (4, 4, 10, Fraction(2, 7), Fraction(2, 7)),  # p = q: no pole
]:
    check = check_convolution_identity(c1, c2, zt, p, q)
    print(f"\nc = ({c1},{c2}), total {zt}, p = {p}, q = {q}:")
    print(f"  sum        = {check.lhs}")
    print(f"  derivative = {check.rhs}")
    print(f"  equal      = {check.equal}")

# The same machinery gives exact normalizers for integer prior strengths,
# the anchor for every floating-point audit.
value = exact_normalizer((1, 3), (1, 1), Fraction(1), 4)
print("\nexact normalizer at y=(1,3), a=(1,1), r=1, total 4:", value)
print("neighbor x=(0,4) value:", exact_normalizer((0, 4), (1, 1), Fraction(1), 4))
print("their ratio, exactly:",
      exact_normalizer((0, 4), (1, 1), Fraction(1), 4)
      / exact_normalizer((1, 3), (1, 1), Fraction(1), 4))
