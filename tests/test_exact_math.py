import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcounts.errors import DomainError
from dpcounts.exact_math import (
    BivariatePoly,
    check_convolution_identity,
    closed_form_numerator,
    convolution_closed_form,
    convolution_sum,
    divide_by_q_minus_p,
    exact_normalizer,
    rising_ratio,
)

P = BivariatePoly.monomial(1, 0)
Q = BivariatePoly.monomial(0, 1)


def poly_from(terms):
    return BivariatePoly({key: Fraction(c) for key, c in terms.items()})


class TestPolynomial:
    def test_arithmetic_and_zero_pruning(self):
        poly = P * Q + 2 * P - P * Q
        assert poly == poly_from({(1, 0): 2})
        assert (poly - poly).is_zero()

    def test_differentiate(self):
        p_sq_q = poly_from({(2, 1): 1})
        assert p_sq_q.differentiate("p") == poly_from({(1, 1): 2})
        assert p_sq_q.differentiate("p", times=0) == p_sq_q
        p4 = poly_from({(4, 0): 1})
        assert p4.differentiate("p", times=2) == poly_from({(2, 0): 12})
        assert p4.differentiate("q") == BivariatePoly.zero()

    def test_evaluate_is_exact(self):
        poly = poly_from({(2, 1): Fraction(1, 3), (0, 0): 1})
        assert poly.evaluate(Fraction(1, 2), Fraction(3)) == Fraction(1, 4) + 1

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            BivariatePoly({(-1, 0): Fraction(1)})

    def test_closed_form_path_keeps_integer_coefficients(self):
        for c1 in range(1, 5):
            for c2 in range(1, 5):
                for z_total in range(1, 7):
                    poly = divide_by_q_minus_p(closed_form_numerator(c1, c2, z_total))
                    derived = poly.differentiate("p", c1 - 1).differentiate("q", c2 - 1)
                    for stage in (poly, poly.differentiate("p"), derived):
                        assert all(type(c) is int for c in stage.coeffs.values())

    def test_evaluate_returns_fraction(self):
        integral = poly_from({(2, 1): 3, (0, 0): -1})
        rational = poly_from({(2, 1): Fraction(1, 3), (1, 0): Fraction(5, 2)})
        for poly in (integral, rational, BivariatePoly.zero()):
            assert type(poly.evaluate(2, Fraction(1, 3))) is Fraction
        assert integral.evaluate(2, Fraction(1, 3)) == 3 * 2**2 * Fraction(1, 3) - 1
        assert rational.evaluate(Fraction(3, 2), 4) == (Fraction(1, 3) * Fraction(3, 2)**2 * 4
                                                        + Fraction(5, 2) * Fraction(3, 2))

    def test_int_and_fraction_coefficients_are_one_polynomial(self):
        ints = BivariatePoly({(2, 1): 3, (0, 4): -2})
        fracs = BivariatePoly({(2, 1): Fraction(6, 2), (0, 4): Fraction(-2)})
        assert ints == fracs
        assert hash(ints) == hash(fracs)
        assert repr(ints) == repr(fracs)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6),
                  st.fractions(min_value=-5, max_value=5)),
        min_size=1, max_size=6),
        var=st.sampled_from(["p", "q"]), times=st.integers(0, 7))
    def test_repeated_derivative_is_one_pass(self, coeffs, var, times):
        poly = BivariatePoly({(dp, dq): c for dp, dq, c in coeffs})
        stepwise = poly
        for _ in range(times):
            stepwise = stepwise.differentiate(var)
        assert poly.differentiate(var, times) == stepwise


class TestDivideByQMinusP:
    def test_difference_of_squares(self):
        assert divide_by_q_minus_p(Q * Q - P * P) == P + Q

    def test_difference_of_cubes(self):
        expected = poly_from({(0, 2): 1, (1, 1): 1, (2, 0): 1})
        assert divide_by_q_minus_p(Q * Q * Q - P * P * P) == expected

    def test_geometric_numerator(self):
        # unit shapes with total 3 reduce to the geometric sum
        quotient = divide_by_q_minus_p(closed_form_numerator(1, 1, 3))
        expected = poly_from({(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1})
        assert quotient == expected

    def test_not_divisible_rejected(self):
        with pytest.raises(DomainError):
            divide_by_q_minus_p(P * Q + Q)

    @settings(max_examples=40, deadline=None)
    @given(coeffs=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4),
                  st.fractions(min_value=-5, max_value=5)),
        min_size=1, max_size=6))
    def test_round_trip_with_multiplication(self, coeffs):
        poly = BivariatePoly({(dp, dq): c for dp, dq, c in coeffs})
        product = poly * (Q - P)
        if product.is_zero():
            assert divide_by_q_minus_p(product).is_zero()
        else:
            assert divide_by_q_minus_p(product) == poly


class TestRisingRatio:
    def test_values(self):
        assert rising_ratio(0, 1) == 1
        assert rising_ratio(5, 1) == 1
        assert rising_ratio(4, 2) == 5
        assert rising_ratio(3, 4) == 4 * 5 * 6
        assert rising_ratio(2, 3) == math.factorial(4) // math.factorial(2)

    def test_domain(self):
        with pytest.raises(DomainError):
            rising_ratio(-1, 1)
        with pytest.raises(DomainError):
            rising_ratio(0, 0)


class TestConvolutionIdentity:
    def test_geometric_anchor(self):
        check = check_convolution_identity(1, 1, 3, 2, 3)
        assert check.lhs == check.rhs == 65
        assert check.equal

    def test_linear_weight_anchor(self):
        check = check_convolution_identity(2, 1, 2, 1, 1)
        assert check.lhs == 6
        assert check.equal

    def test_rational_point(self):
        check = check_convolution_identity(3, 2, 5, Fraction(1, 2), Fraction(1, 3))
        assert check.equal

    def test_equal_arguments_have_no_pole(self):
        # the polynomial path is finite on the line q = p
        for c1, c2, zt in [(1, 1, 4), (2, 3, 6), (4, 4, 10)]:
            check = check_convolution_identity(c1, c2, zt, Fraction(2, 7), Fraction(2, 7))
            assert check.equal

    @settings(max_examples=30, deadline=None)
    @given(c1=st.integers(1, 4), c2=st.integers(1, 4), z_total=st.integers(1, 10),
           pn=st.integers(1, 60), pd=st.integers(1, 60),
           qn=st.integers(1, 60), qd=st.integers(1, 60))
    def test_identity_at_random_rationals(self, c1, c2, z_total, pn, pd, qn, qd):
        check = check_convolution_identity(c1, c2, z_total,
                                           Fraction(pn, pd), Fraction(qn, qd))
        assert check.equal

    def test_domain(self):
        with pytest.raises(DomainError):
            convolution_sum(0, 1, 3, 1, 1)
        with pytest.raises(DomainError):
            convolution_closed_form(1, 0, 3, 1, 1)


class TestExactNormalizer:
    def test_unit_terms(self):
        assert exact_normalizer((0, 0), (1, 1), 1, 3) == 4

    def test_anchor_values(self):
        assert exact_normalizer((1, 3), (1, 1), 1, 4) == 756
        assert exact_normalizer((0, 4), (1, 1), 1, 4) == 3024

    def test_zero_ratio_keeps_single_term(self):
        value = exact_normalizer((2, 1), (1, 2), 0, 5)
        assert value == rising_ratio(0, 3) * rising_ratio(5, 3)  # z = 0 only

    def test_matches_direct_convolution_sum(self):
        # same quantity as a term-by-term Fraction sum, and through the
        # generic sum with p = r, q = 1
        for y, a, r, zt in [((1, 2), (2, 1), Fraction(2, 5), 6),
                            ((0, 0), (3, 3), Fraction(7, 3), 5)]:
            c1, c2 = y[0] + a[0], y[1] + a[1]
            direct = sum(rising_ratio(z, c1) * rising_ratio(zt - z, c2) * r**z
                         for z in range(zt + 1))
            assert convolution_sum(c1, c2, zt, r, 1) == direct
            assert exact_normalizer(y, a, r, zt) == direct

    def test_domain(self):
        with pytest.raises(DomainError):
            exact_normalizer((0, 0), (0, 1), 1, 3)
        with pytest.raises(DomainError):
            exact_normalizer((-1, 0), (1, 1), 1, 3)
