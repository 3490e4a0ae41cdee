from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjms.core import AlgebraError, OrderShortfall, SigmaPoly, VariableMismatch, rat, rat_str
from gjms.series import (
    RHO,
    R,
    LogSeries,
    ObstructedWeight,
    TruncatedSeries,
    apply_second_order,
    solve_order_by_order,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=8)
sigma_polys = st.lists(rationals, max_size=4).map(SigmaPoly)


def series8(coeff_lists):
    return TruncatedSeries(RHO, coeff_lists[:9], 8)


series_st = st.lists(sigma_polys, min_size=0, max_size=9).map(series8)


class TestRationals:
    def test_add(self):
        assert F(1, 2) + F(1, 3) == F(5, 6)

    def test_route_ratio_constant_k3(self):
        # (-4)^(k-1) ((k-1)!)^2 at k = 3
        k = 3
        assert F(-4) ** (k - 1) * F(factorial(k - 1)) ** 2 == 64

    def test_log_normalization_d2(self):
        k = 2
        assert F(1, 2 ** (2 * k - 1) * factorial(k) * factorial(k - 1)) == F(1, 16)

    def test_parse_and_format(self):
        assert rat("105/4") == F(105, 4)
        assert rat_str(F(105, 4)) == "105/4"
        assert rat_str(F(-3, 1)) == "-3"

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            F(1, 2) / F(0)

    @given(rationals, rationals)
    def test_exactness(self, a, b):
        assert (a + b) - b == a


class TestSigmaPoly:
    def test_pinned_product_instance(self):
        # direct substitution oracle: (sigma - 7/2)(sigma - 15/2)
        p = (SigmaPoly.sigma() - F(7, 2)) * (SigmaPoly.sigma() - F(15, 2))
        assert p == SigmaPoly([F(105, 4), -11, 1])

    def test_zero_absorbs(self):
        p = SigmaPoly([1, 2, 3])
        assert p * SigmaPoly.zero() == SigmaPoly.zero()

    def test_evaluate_constant_term(self):
        p = SigmaPoly([F(105, 4), -11, 1])
        assert p(0) == F(105, 4)

    def test_degree_sentinel(self):
        assert SigmaPoly.zero().degree is None
        assert SigmaPoly([0, 0, 1]).degree == 2

    def test_canonical_trailing_zeros(self):
        assert SigmaPoly([1, 0, 0]).coeffs == (F(1),)

    def test_serialization_round_trip(self):
        p = SigmaPoly([F(105, 4), -11, 1])
        assert p.to_strings() == ["105/4", "-11", "1"]
        assert SigmaPoly.from_strings(p.to_strings()) == p

    def test_str(self):
        assert str(SigmaPoly([F(3, 4), 1])) == "sigma + 3/4"
        assert str(SigmaPoly([F(105, 4), -11, 1])) == "sigma^2 - 11*sigma + 105/4"

    @given(sigma_polys, sigma_polys, rationals)
    def test_product_evaluation_homomorphism(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)

    @given(sigma_polys, sigma_polys)
    def test_add_sub_inverse(self, p, q):
        assert (p + q) - q == p


class TestTruncatedSeries:
    def test_binomial_power_negative_two(self):
        s = TruncatedSeries.binomial_power(RHO, 1, -2, 3)
        assert [c.coeff(0) for c in s.coeffs] == [1, -2, 3, -4]

    def test_reciprocal_is_inverse(self):
        s = TruncatedSeries(RHO, [1, 1], 5)
        prod = s.reciprocal() * s
        assert prod == TruncatedSeries.constant(RHO, 1, 5)

    def test_binomial_power_matches_squaring(self):
        # independent oracle: square 1 - rho/2 by series multiplication
        base = TruncatedSeries(RHO, [1, F(-1, 2)], 2)
        assert TruncatedSeries.binomial_power(RHO, F(-1, 2), 2, 2) == base * base
        assert [c.coeff(0) for c in (base * base).coeffs] == [1, -1, F(1, 4)]

    def test_order_guard(self):
        s = TruncatedSeries(RHO, [1, 2, 3], 2)
        with pytest.raises(OrderShortfall):
            s.coeff(3)

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            TruncatedSeries.constant(RHO, 1, 2) + TruncatedSeries.constant(R, 1, 2)

    def test_multiplication_loses_no_more_than_min_order(self):
        a = TruncatedSeries(RHO, [1, 2], 5)
        b = TruncatedSeries(RHO, [1], 3)
        assert (a * b).order == 3

    def test_mul_var_gains_an_order(self):
        a = TruncatedSeries(RHO, [1, 2], 2)
        assert a.mul_var().order == 3

    def test_reciprocal_rejects_zero_constant(self):
        with pytest.raises(AlgebraError):
            TruncatedSeries(RHO, [0, 1], 3).reciprocal()

    def test_substitute_rho(self):
        s = TruncatedSeries(RHO, [1, 1], 1)  # 1 + rho
        sub = s.substitute_rho()  # 1 - r^2/2
        assert sub.var == R and sub.order == 3
        assert [c.coeff(0) for c in sub.coeffs] == [1, 0, F(-1, 2), 0]

    @settings(max_examples=40)
    @given(series_st, series_st, series_st)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40)
    @given(
        st.fractions(min_value=-5, max_value=5, max_denominator=3),
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
    )
    def test_binomial_power_exponent_additivity(self, a, e1, e2):
        n = 6
        lhs = TruncatedSeries.binomial_power(RHO, a, e1, n) * TruncatedSeries.binomial_power(RHO, a, e2, n)
        assert lhs == TruncatedSeries.binomial_power(RHO, a, e1 + e2, n)


class TestSecondOrderOperator:
    def test_on_a_monomial(self):
        # P = v^3: a v P'' + (b0 + v b1) P' + c P = (6a + 3b0) v^2 + (3b1 + c) v^3
        p = TruncatedSeries(RHO, [0, 0, 0, 1], 5)
        b1 = TruncatedSeries.constant(RHO, 5, 5)
        c = TruncatedSeries.constant(RHO, SigmaPoly.sigma(), 5)
        out = apply_second_order(2, 3, b1, c, p)
        assert out.order == 4
        assert out.coeffs == (0, 0, 21, SigmaPoly([15, 1]), 0)

    def test_order_one_input_drops_the_second_derivative(self):
        p = TruncatedSeries(RHO, [1, 1], 1)
        zero = TruncatedSeries.zero(RHO, 1)
        out = apply_second_order(7, 2, zero, zero, p)
        assert out.order == 0 and out.coeff(0) == 2

    def test_order_zero_input_is_rejected(self):
        zero = TruncatedSeries.zero(RHO, 0)
        with pytest.raises(OrderShortfall):
            apply_second_order(1, 1, zero, zero, TruncatedSeries.constant(RHO, 1, 0))

    def test_solver_reproduces_the_exponential(self):
        # P' - P = 0 with a_0 = 1 forces a_j = a_(j-1) / j
        minus_one = TruncatedSeries.constant(R, -1, 8)
        zero = TruncatedSeries.zero(R, 8)
        sol = solve_order_by_order(
            lambda p: apply_second_order(0, 1, zero, minus_one, p), lambda j: j, 6, R
        )
        assert sol.order == 7
        assert [c.coeff(0) for c in sol.coeffs] == [F(1, factorial(j)) for j in range(7)] + [0]

    def test_solver_raises_at_a_zero_divisor(self):
        zero = TruncatedSeries.zero(RHO, 8)
        with pytest.raises(ObstructedWeight) as exc:
            solve_order_by_order(lambda p: apply_second_order(0, 1, zero, zero, p), lambda j: j - 3, 6, RHO)
        assert exc.value.level == 3


class TestLogSeries:
    def test_zero_logpart_by_default(self):
        u = LogSeries(TruncatedSeries(R, [1, 2], 4))
        assert u.logpart.is_zero()

    def test_common_order(self):
        u = LogSeries(TruncatedSeries(R, [1], 4), TruncatedSeries(R, [0, 1], 6))
        assert u.order == 4
