import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcounts.errors import DomainError
from dpcounts.exact_math import (
    check_convolution_identity,
    closed_form_numerator,
    convolution_closed_form,
    convolution_sum,
    differentiate,
    divide_by_q_minus_p,
    evaluate,
    exact_normalizer,
    rising_ratio,
)

# A binary form of degree D is a list c of D + 1 ints, c[k] the coefficient
# of p^k q^(D-k).
int_forms = st.lists(st.integers(-50, 50), min_size=1, max_size=8)


def times_q_minus_p(form):
    """form * (q - p), one degree higher: n_k = m_k - m_(k-1)."""
    return [m - prev for m, prev in zip(form + [0], [0] + form)]


class TestPolynomial:
    def test_differentiate(self):
        p_sq_q = [0, 0, 1, 0]
        assert differentiate(p_sq_q, 1, 0) == [0, 2, 0]  # 2 p q
        assert differentiate(p_sq_q, 0, 1) == [0, 0, 1]  # p^2
        assert differentiate(p_sq_q, 0, 0) == p_sq_q
        p4 = [0, 0, 0, 0, 1]
        assert differentiate(p4, 2, 0) == [0, 0, 12]
        assert differentiate(p4, 0, 1) == [0, 0, 0, 0]
        assert differentiate(p4, 5, 0) == []

    def test_evaluate_is_exact(self):
        form = [-1, 0, 3, 0]  # 3 p^2 q - q^3
        assert evaluate(form, Fraction(1, 2), 3) == Fraction(9, 4) - 27

    def test_closed_form_path_keeps_integer_coefficients(self):
        for c1 in range(1, 5):
            for c2 in range(1, 5):
                for z_total in range(1, 7):
                    form = divide_by_q_minus_p(closed_form_numerator(c1, c2, z_total))
                    derived = differentiate(form, c1 - 1, c2 - 1)
                    assert len(derived) == z_total + 1
                    for stage in (form, differentiate(form, 1, 0), derived):
                        assert all(type(c) is int for c in stage)

    def test_evaluate_returns_fraction(self):
        form = [-1, 0, 3, 0]
        for f in (form, [7], []):
            assert type(evaluate(f, 2, Fraction(1, 3))) is Fraction
        assert evaluate(form, 2, Fraction(1, 3)) == 3 * 2**2 * Fraction(1, 3) - Fraction(1, 27)
        assert evaluate(form, Fraction(3, 2), "1/4") == (3 * Fraction(3, 2)**2 * Fraction(1, 4)
                                                        - Fraction(1, 64))
        assert evaluate([7], 2, 3) == 7
        assert evaluate([], 2, 3) == 0

    @settings(max_examples=40, deadline=None)
    @given(form=int_forms, p_times=st.integers(0, 9), q_times=st.integers(0, 9))
    def test_repeated_derivative_is_one_pass(self, form, p_times, q_times):
        stepwise = form
        for _ in range(p_times):
            stepwise = differentiate(stepwise, 1, 0)
        for _ in range(q_times):
            stepwise = differentiate(stepwise, 0, 1)
        assert differentiate(form, p_times, q_times) == stepwise
        # the two partial derivatives commute
        assert differentiate(differentiate(form, 0, q_times), p_times, 0) == stepwise


class TestDivideByQMinusP:
    def test_difference_of_squares(self):
        assert divide_by_q_minus_p([1, 0, -1]) == [1, 1]  # p + q

    def test_difference_of_cubes(self):
        assert divide_by_q_minus_p([1, 0, 0, -1]) == [1, 1, 1]  # q^2 + pq + p^2

    def test_geometric_numerator(self):
        # unit shapes with total 3 reduce to the geometric sum
        numerator = closed_form_numerator(1, 1, 3)
        assert numerator == [1, 0, 0, 0, -1]  # q^4 - p^4
        assert divide_by_q_minus_p(numerator) == [1, 1, 1, 1]

    def test_not_divisible_rejected(self):
        for form in ([1, 1, 0], [5], []):  # p q + q^2, a nonzero constant, no form
            with pytest.raises(DomainError):
                divide_by_q_minus_p(form)

    @settings(max_examples=40, deadline=None)
    @given(form=int_forms)
    def test_round_trip_with_multiplication(self, form):
        assert divide_by_q_minus_p(times_q_minus_p(form)) == form


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

    @settings(max_examples=60, deadline=None)
    @given(c1=st.integers(1, 8), c2=st.integers(1, 8), z_total=st.integers(0, 20),
           p=st.fractions(min_value=0, max_value=10, max_denominator=60),
           q=st.fractions(min_value=0, max_value=10, max_denominator=60),
           where=st.sampled_from(["anywhere", "p = q", "p = 0"]))
    @example(c1=8, c2=8, z_total=20, p=Fraction(3, 7), q=Fraction(3, 7), where="p = q")
    @example(c1=8, c2=1, z_total=20, p=Fraction(0), q=Fraction(5, 2), where="p = 0")
    def test_sum_matches_term_by_term_fractions(self, c1, c2, z_total, p, q, where):
        p = {"anywhere": p, "p = q": q, "p = 0": Fraction(0)}[where]
        direct = sum(Fraction(math.factorial(z + c1 - 1), math.factorial(z))
                     * Fraction(math.factorial(z_total - z + c2 - 1),
                                math.factorial(z_total - z))
                     * p**z * q**(z_total - z)
                     for z in range(z_total + 1))
        assert convolution_sum(c1, c2, z_total, p, q) == direct
        if z_total >= 1:
            assert convolution_closed_form(c1, c2, z_total, p, q) == direct

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
