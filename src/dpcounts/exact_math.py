"""Exact rational arithmetic oracle.

The constrained-total normalizer is a convolution sum

    S(c1, c2, T; p, q) = sum_{z=0}^{T} G(z+c1)/z! * G(T-z+c2)/(T-z)! * p^z q^(T-z)

whose closed form is a repeated derivative of the rational expression

    (p^(c1-1) q^(T+c2) - p^(T+c1) q^(c2-1)) / (q - p).

For positive integer c1, c2, every gamma ratio is an integer rising product
and the right-hand side is a polynomial after exact division (the numerator
vanishes identically on the line q = p). Every coefficient on that path is
an integer: the numerator's are +-1, dividing by the monic (q - p) keeps
integers, and differentiation multiplies by integers. So `BivariatePoly`
stores integral coefficients as Python ints, keeping a Fraction only for a
non-integral one, and both sides of the identity are evaluated the same way:
summed in integers over one common denominator, with a single Fraction built
at the end. Only polynomials built from outside input are validated, not the
ones this module's own arithmetic makes. This module verifies the identity and
evaluates normalizers in arbitrary-precision rationals, with no floating
point anywhere, so it can anchor every float-path audit in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

Key = tuple[int, int]  # (power of p, power of q)
Coeff = int | Fraction


def _exact(value) -> Coeff:
    """``value`` as an exact rational: an int when it is integral, else a
    Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class BivariatePoly:
    """Polynomial in two variables p, q with exact rational coefficients.

    Coefficients are stored sparsely; zero coefficients are never kept. An
    integral coefficient is stored as an int and only a non-integral one as a
    Fraction, so polynomials with integer coefficients never build a Fraction.
    Instances are immutable in use (operations return new polynomials).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Key, Coeff] | None = None):
        cleaned: dict[Key, Coeff] = {}
        for (dp, dq), coeff in (coeffs or {}).items():
            if dp < 0 or dq < 0:
                raise DomainError("monomial degrees must be non-negative")
            coeff = _exact(coeff)
            if coeff != 0:
                cleaned[(int(dp), int(dq))] = coeff
        self.coeffs = cleaned

    @classmethod
    def _of(cls, coeffs: dict[Key, Coeff]) -> "BivariatePoly":
        """A polynomial from coefficients this module's arithmetic made: zeros
        are dropped and an integral Fraction becomes an int, nothing else."""
        poly = cls.__new__(cls)
        poly.coeffs = {key: coeff if type(coeff) is int else _exact(coeff)
                       for key, coeff in coeffs.items() if coeff}
        return poly

    @classmethod
    def monomial(cls, dp: int, dq: int, coeff=1) -> "BivariatePoly":
        return cls({(dp, dq): coeff})

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls({})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.coeffs)
        for key, coeff in other.coeffs.items():
            out[key] = out.get(key, 0) + coeff
        return BivariatePoly._of(out)

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.coeffs)
        for key, coeff in other.coeffs.items():
            out[key] = out.get(key, 0) - coeff
        return BivariatePoly._of(out)

    def __mul__(self, other) -> "BivariatePoly":
        if isinstance(other, BivariatePoly):
            out: dict[Key, Coeff] = {}
            for (p1, q1), c1 in self.coeffs.items():
                for (p2, q2), c2 in other.coeffs.items():
                    key = (p1 + p2, q1 + q2)
                    out[key] = out.get(key, 0) + c1 * c2
            return BivariatePoly._of(out)
        scalar = _exact(other)
        return BivariatePoly._of({key: coeff * scalar for key, coeff in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def differentiate(self, var: str, times: int = 1) -> "BivariatePoly":
        """Exact ``times``-fold partial derivative with respect to 'p' or 'q',
        in one pass: d^k/dp^k p^d = d!/(d-k)! p^(d-k), zero when d < k."""
        if var not in ("p", "q"):
            raise DomainError("var must be 'p' or 'q'")
        if times < 0:
            raise DomainError("times must be non-negative")
        out: dict[Key, Coeff] = {}
        for (dp, dq), coeff in self.coeffs.items():
            if var == "p" and dp >= times:
                out[(dp - times, dq)] = coeff * math.perm(dp, times)
            elif var == "q" and dq >= times:
                out[(dp, dq - times)] = coeff * math.perm(dq, times)
        return BivariatePoly._of(out)

    def evaluate(self, p, q) -> Fraction:
        """Exact value at rationals p, q, as one Fraction, summed in integers
        over the common denominator L * p_den^max_dp * q_den^max_dq, where L
        is the least common multiple of the coefficient denominators, taken
        only when some coefficient is a Fraction."""
        p = _exact(p)
        q = _exact(q)
        if self.is_zero():
            return Fraction(0)
        max_dp = max(dp for dp, _ in self.coeffs)
        max_dq = max(dq for _, dq in self.coeffs)
        p_num, p_den, q_num, q_den = p.numerator, p.denominator, q.numerator, q.denominator
        # a list, not a generator: on CPython 3.11, math.lcm(*generator)
        # kept about 80 bytes per call alive (traced memory grew per call)
        denominators = [coeff.denominator for coeff in self.coeffs.values()
                        if type(coeff) is not int]
        scale = math.lcm(*denominators) if denominators else 1
        total = 0
        for (dp, dq), coeff in self.coeffs.items():
            total += (coeff.numerator * (scale // coeff.denominator)
                      * p_num**dp * p_den**(max_dp - dp) * q_num**dq * q_den**(max_dq - dq))
        return Fraction(total, scale * p_den**max_dp * q_den**max_dq)

    def __repr__(self) -> str:
        if self.is_zero():
            return "BivariatePoly(0)"
        parts = [f"{coeff}*p^{dp}*q^{dq}"
                 for (dp, dq), coeff in sorted(self.coeffs.items())]
        return "BivariatePoly(" + " + ".join(parts) + ")"


def divide_by_q_minus_p(numerator: BivariatePoly) -> BivariatePoly:
    """Exact quotient numerator / (q - p).

    Synthetic division in q with coefficients that are polynomials in p; the
    remainder is the substitution q <- p, which must vanish identically, so a
    nonzero remainder means the input was not divisible.
    """
    if numerator.is_zero():
        return BivariatePoly.zero()
    # Collect coefficients of q^k as sparse polynomials in p.
    by_q: dict[int, dict[int, Coeff]] = {}
    for (dp, dq), coeff in numerator.coeffs.items():
        by_q.setdefault(dq, {})[dp] = coeff
    degree = max(by_q)
    quotient: dict[Key, Coeff] = {}
    carry: dict[int, Coeff] = {}  # B_k, a polynomial in p
    for k in range(degree, 0, -1):
        b_km1 = carry  # a new dict every step, so it can take A_k in place
        for dp, coeff in by_q.get(k, {}).items():
            b_km1[dp] = b_km1.get(dp, 0) + coeff
        # multiply by p before folding into the next lower power of q
        carry = {}
        for dp, coeff in b_km1.items():
            if coeff != 0:
                quotient[(dp, k - 1)] = coeff
                carry[dp + 1] = coeff
    remainder = dict(carry)
    for dp, coeff in by_q.get(0, {}).items():
        remainder[dp] = remainder.get(dp, 0) + coeff
    if any(coeff != 0 for coeff in remainder.values()):
        raise DomainError("numerator is not divisible by (q - p)")
    return BivariatePoly._of(quotient)


def rising_ratio(m: int, c: int) -> int:
    """Gamma(m + c) / m! as an exact integer, for integer m >= 0, c >= 1."""
    if m < 0 or c < 1:
        raise DomainError("rising_ratio needs m >= 0 and c >= 1")
    return math.perm(m + c - 1, c - 1)


def convolution_sum(c1: int, c2: int, z_total: int, p, q) -> Fraction:
    """Exact left-hand side: direct summation with integer gamma ratios."""
    if c1 < 1 or c2 < 1:
        raise DomainError("c1 and c2 must be positive integers")
    if z_total < 0:
        raise DomainError("z_total must be non-negative")
    p = _exact(p)
    q = _exact(q)
    # summed in integers over the common denominator (p_den q_den)^T:
    # p^z q^(T-z) = (p_num q_den)^z (q_num p_den)^(T-z) / (p_den q_den)^T
    p_side = p.numerator * q.denominator
    q_side = q.numerator * p.denominator
    total = 0
    for z in range(z_total + 1):
        total += (rising_ratio(z, c1) * rising_ratio(z_total - z, c2)
                  * p_side**z * q_side**(z_total - z))
    return Fraction(total, (p.denominator * q.denominator) ** z_total)


def closed_form_numerator(c1: int, c2: int, z_total: int) -> BivariatePoly:
    """The pre-division numerator p^(c1-1) q^(T+c2) - p^(T+c1) q^(c2-1)."""
    return (BivariatePoly.monomial(c1 - 1, z_total + c2)
            - BivariatePoly.monomial(z_total + c1, c2 - 1))


def convolution_closed_form(c1: int, c2: int, z_total: int, p, q) -> Fraction:
    """Exact right-hand side: divide the numerator by (q - p), differentiate
    c1-1 times in p and c2-1 times in q, then evaluate. The polynomial path
    has no pole, so p = q is a perfectly valid evaluation point."""
    if c1 < 1 or c2 < 1:
        raise DomainError("c1 and c2 must be positive integers")
    if z_total < 1:
        raise DomainError("z_total must be a positive integer")
    poly = divide_by_q_minus_p(closed_form_numerator(c1, c2, z_total))
    poly = poly.differentiate("p", c1 - 1).differentiate("q", c2 - 1)
    return poly.evaluate(p, q)


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
