"""Exact rational arithmetic oracle.

The constrained-total normalizer is a convolution sum

    S(c1, c2, T; p, q) = sum_{z=0}^{T} G(z+c1)/z! * G(T-z+c2)/(T-z)! * p^z q^(T-z)

whose closed form is a repeated derivative of the rational expression

    (p^(c1-1) q^(T+c2) - p^(T+c1) q^(c2-1)) / (q - p).

Every polynomial on that path is a binary form, homogeneous in (p, q). A form
of degree D is stored as a list c of D + 1 Python ints, c[k] the coefficient
of p^k q^(D-k). For positive integer c1, c2 every gamma ratio is an integer
rising product, and every coefficient stays an integer: the numerator's are
+-1, and differentiation multiplies by integers. Division by (q - p) is a
prefix sum: N = (q - p) M gives n_k = m_k - m_(k-1), so m_k = n_0 + ... + n_k,
and the last partial sum is the remainder, which must be 0 (the numerator
vanishes identically on the line q = p). Both sides of the identity are
evaluated the same way, by Horner's rule in integers over one common
denominator, with a single Fraction built at the end. This module verifies
the identity and evaluates normalizers in arbitrary-precision rationals, with
no floating point anywhere, so it can anchor every float-path audit in the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import DomainError


def closed_form_numerator(c1: int, c2: int, z_total: int) -> list[int]:
    """The pre-division numerator p^(c1-1) q^(T+c2) - p^(T+c1) q^(c2-1), a
    form of degree T + c1 + c2 - 1."""
    form = [0] * (z_total + c1 + c2)
    form[c1 - 1] = 1
    form[z_total + c1] = -1
    return form


def divide_by_q_minus_p(form: list[int]) -> list[int]:
    """Exact quotient form / (q - p), one degree lower, by prefix sums; a
    nonzero last sum is the remainder, and means the form was not divisible."""
    sums = list(accumulate(form))
    if not sums or sums[-1]:
        raise DomainError("numerator is not divisible by (q - p)")
    return sums[:-1]


def differentiate(form: list[int], p_times: int, q_times: int) -> list[int]:
    """d^a/dp^a d^b/dq^b of a form, for a = p_times and b = q_times, in one
    pass: p^k q^(D-k) becomes
    perm(k, a) perm(D-k, b) p^(k-a) q^(D-k-b), and terms with k < a or
    D - k < b vanish."""
    degree = len(form) - 1
    return [coeff * math.perm(k, p_times) * math.perm(degree - k, q_times)
            for k, coeff in enumerate(form) if p_times <= k <= degree - q_times]


def evaluate(form: list[int], p, q) -> Fraction:
    """Exact value of a form at rationals p, q, as one Fraction: Horner's rule
    in integers at x = p_num q_den, y = q_num p_den, over (p_den q_den)^D."""
    p = p if isinstance(p, (int, Fraction)) else Fraction(p)
    q = q if isinstance(q, (int, Fraction)) else Fraction(q)
    x = p.numerator * q.denominator
    y = q.numerator * p.denominator
    total, y_power = 0, 1
    for coeff in reversed(form):
        total = total * x + coeff * y_power
        y_power *= y
    return Fraction(total, (p.denominator * q.denominator) ** max(len(form) - 1, 0))


def rising_ratio(m: int, c: int) -> int:
    """Gamma(m + c) / m! as an exact integer, for integer m >= 0, c >= 1."""
    if m < 0 or c < 1:
        raise DomainError("rising_ratio needs m >= 0 and c >= 1")
    return math.perm(m + c - 1, c - 1)


def convolution_sum(c1: int, c2: int, z_total: int, p, q) -> Fraction:
    """Exact left-hand side: the form with coefficients
    rising(z, c1) * rising(T-z, c2), evaluated term by term."""
    if c1 < 1 or c2 < 1:
        raise DomainError("c1 and c2 must be positive integers")
    if z_total < 0:
        raise DomainError("z_total must be non-negative")
    form = [rising_ratio(z, c1) * rising_ratio(z_total - z, c2)
            for z in range(z_total + 1)]
    return evaluate(form, p, q)


def convolution_closed_form(c1: int, c2: int, z_total: int, p, q) -> Fraction:
    """Exact right-hand side: divide the numerator by (q - p), differentiate
    c1-1 times in p and c2-1 times in q, then evaluate. The polynomial path
    has no pole, so p = q is a perfectly valid evaluation point."""
    if c1 < 1 or c2 < 1:
        raise DomainError("c1 and c2 must be positive integers")
    if z_total < 1:
        raise DomainError("z_total must be a positive integer")
    form = divide_by_q_minus_p(closed_form_numerator(c1, c2, z_total))
    return evaluate(differentiate(form, c1 - 1, c2 - 1), p, q)


@dataclass(frozen=True)
class IdentityCheck:
    lhs: Fraction
    rhs: Fraction
    equal: bool


def check_convolution_identity(c1: int, c2: int, z_total: int, p, q) -> IdentityCheck:
    """Evaluate both sides of the convolution identity exactly and compare.

    Equality here is exact rational equality, no tolerance.
    """
    lhs = convolution_sum(c1, c2, z_total, p, q)
    rhs = convolution_closed_form(c1, c2, z_total, p, q)
    return IdentityCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs)


def exact_normalizer(y, a, r1, z_total: int) -> Fraction:
    """Exact constrained-total normalizer for integer prior strengths, the
    convolution sum S(y1+a1, y2+a2, T; r1, 1):

        sum_z rising(z, y1+a1) * rising(T-z, y2+a2) * r1^z

    with every term an exact rational.
    """
    y = [int(v) for v in y]
    a = [int(v) for v in a]
    if len(y) != 2 or len(a) != 2:
        raise DomainError("y and a must be length-2 vectors")
    if min(y) < 0 or min(a) < 1:
        raise DomainError("needs y >= 0 and integer a >= 1")
    if z_total < 0:
        raise DomainError("z_total must be non-negative")
    r1 = Fraction(r1)
    if r1 < 0:
        raise DomainError("structure ratio must be non-negative")
    return convolution_sum(y[0] + a[0], y[1] + a[1], z_total, r1, 1)
