from fractions import Fraction as F
from math import factorial, gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gjms import ambient, scattering, series
from gjms.backgrounds import Background
from gjms.core import AlgebraError, OrderShortfall, SigmaPoly, VariableMismatch, _as_poly, rat, rat_str
from gjms.series import RHO, R, ObstructedWeight, PolynomialOperator, TruncatedSeries, solve_order_by_order
from gjms_reference import (
    FractionPoly,
    LogSeries,
    SecondOrderOperator,
    ambient_operator,
    miller_rpow,
    radial_operator,
    sigma_poly_str,
)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=8)
sigma_polys = st.lists(rationals, max_size=4).map(SigmaPoly)


def series8(coeff_lists):
    return TruncatedSeries(RHO, coeff_lists[:9], 8)


series_st = st.lists(sigma_polys, min_size=0, max_size=9).map(series8)
unit_series_st = st.builds(
    lambda order, tail: TruncatedSeries(RHO, [1] + tail[:order], order),
    st.integers(0, 8),
    st.lists(sigma_polys, max_size=8),
)
exponents = st.fractions(min_value=-4, max_value=4, max_denominator=4)


# Reference kernels: the textbook definitions the fast ones must reproduce.


def binomial(e, n):
    """Generalized binomial coefficient C(e, n) for rational e."""
    num = F(1)
    for i in range(n):
        num *= e - i
        num /= i + 1
    return num


def binomial_power(var, shift, exponent, order):
    """Order-N expansion of (1 + shift*var)**exponent, term by term."""
    a, e = rat(shift), rat(exponent)
    return TruncatedSeries(var, [binomial(e, n) * a**n for n in range(order + 1)], order)


def naive_mul(a, b):
    """Cauchy product, one SigmaPoly product and sum per pair of orders."""
    n = min(a.order, b.order)
    out = [SigmaPoly.zero()] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] = out[i + j] + a.coeffs[i] * b.coeffs[j]
    return TruncatedSeries(a.var, out, n)


def binomial_sum_rpow(s, e):
    """(1 + u)**e as sum_n C(e, n) u**n, with u = s - 1."""
    u = s - 1
    acc = TruncatedSeries.constant(s.var, 1, s.order)
    upow = TruncatedSeries.constant(s.var, 1, s.order)
    for n in range(1, s.order + 1):
        upow = naive_mul(upow, u)
        acc = acc + binomial(e, n) * upow
    return acc


def rows_mul(a, b):
    """Cauchy product of two series given as rows list[list[Fraction]] (one
    ascending sigma-coefficient list per series order), truncated at the
    lower order, with trailing zeros trimmed; plain Fraction arithmetic only."""
    n = min(len(a), len(b)) - 1
    out = [[] for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1 - i):
            row = out[i + j]
            for p, x in enumerate(a[i]):
                for q, y in enumerate(b[j]):
                    while len(row) <= p + q:
                        row.append(F(0))
                    row[p + q] += x * y
    for row in out:
        while row and row[-1] == 0:
            row.pop()
    return out


def composed_second_order(a, b0, b1, c, p):
    """a*v*P'' + (b0 + v*b1)*P' + c*P composed from series operations, one
    order below P."""
    n = p.order
    dp = p.derivative()
    out = b0 * dp + (b1 * dp).mul_var().truncate(n - 1) + (c * p).truncate(n - 1)
    if a and n >= 2:
        out = out + a * dp.derivative().mul_var()
    return out


def row_residual(apply):
    """A solver residual from a series map: row t of apply(P)."""
    return lambda p, t: apply(p).coeff(t)


def full_order_solve(apply, divisor, levels, var):
    """The order-by-order solve with apply always given order levels+1."""
    coeffs = [SigmaPoly.one()]
    for j in range(1, levels + 1):
        partial = TruncatedSeries(var, coeffs, j - 1).as_exact(levels + 1)
        if divisor(j) == 0:
            raise ObstructedWeight(j)
        coeffs.append(-apply(partial).coeff(j - 1) / divisor(j))
    return TruncatedSeries(var, coeffs, levels).as_exact(levels + 1)


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

    @pytest.mark.parametrize("text", ["1/0", " -3/0 ", "0/0"])
    def test_a_zero_denominator_names_the_text(self, text):
        with pytest.raises(AlgebraError) as exc:
            rat(text)
        assert repr(text) in str(exc.value)

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
        assert SigmaPoly(p.to_strings()) == p

    def test_comparison_with_a_string(self):
        # a string that is not a rational compares unequal instead of raising
        assert (SigmaPoly.sigma() == "sigma") is False and SigmaPoly.sigma() != "sigma"
        assert SigmaPoly.one() not in [2, "a"]
        assert SigmaPoly.const(F(1, 2)) == "1/2" and SigmaPoly.one() == " 1 " and SigmaPoly.zero() == "0/3"
        assert SigmaPoly.one() != "1/0"

    @pytest.mark.parametrize("c", [0, 1, -3, F(1, 2), F(-7, 4)])
    def test_a_constant_hashes_as_the_number_it_equals(self, c):
        p = SigmaPoly.const(c)
        assert p == c and hash(p) == hash(c) == hash(F(c))
        assert p in {c} and c in {p} and p in {F(c)} and F(c) in {p}
        assert {c: "number"}[p] == "number" and {p: "constant"}[c] == "constant"
        assert SigmaPoly([c, 1]) not in {c}

    def test_str(self):
        assert str(SigmaPoly([F(3, 4), 1])) == "sigma + 3/4"
        assert str(SigmaPoly([F(105, 4), -11, 1])) == "sigma^2 - 11*sigma + 105/4"

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.sampled_from([0, 1, -1]), rationals), max_size=6).map(SigmaPoly))
    def test_str_matches_the_reference_printer(self, p):
        assert str(p) == sigma_poly_str(p)

    @given(sigma_polys, sigma_polys, rationals)
    def test_product_evaluation_homomorphism(self, p, q, x):
        assert (p * q)(x) == p(x) * q(x)

    @given(sigma_polys, sigma_polys)
    def test_add_sub_inverse(self, p, q):
        assert (p + q) - q == p


class TestTruncatedSeries:
    def test_binomial_power_negative_two(self):
        s = binomial_power(RHO, 1, -2, 3)
        assert [c.coeff(0) for c in s.coeffs] == [1, -2, 3, -4]
        assert TruncatedSeries(RHO, [1, 1], 3).rpow(-2) == s

    def test_reciprocal_is_inverse(self):
        s = TruncatedSeries(RHO, [1, 1], 5)
        prod = s.reciprocal() * s
        assert prod == TruncatedSeries.constant(RHO, 1, 5)

    def test_binomial_power_matches_squaring(self):
        # independent oracle: square 1 - rho/2 by series multiplication
        base = TruncatedSeries(RHO, [1, F(-1, 2)], 2)
        assert binomial_power(RHO, F(-1, 2), 2, 2) == base * base
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

    def test_scalar_add_and_mul(self):
        a = TruncatedSeries(RHO, [1, SigmaPoly([0, 2])], 2)
        assert a + 3 == 3 + a == TruncatedSeries(RHO, [4, SigmaPoly([0, 2])], 2)
        assert a * 3 == 3 * a == TruncatedSeries(RHO, [3, SigmaPoly([0, 6])], 2)
        assert a * SigmaPoly.sigma() == TruncatedSeries(RHO, [SigmaPoly([0, 1]), SigmaPoly([0, 0, 2])], 2)
        assert (a * 0).is_zero() and (a * 0).order == 2

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
        lhs = binomial_power(RHO, a, e1, n) * binomial_power(RHO, a, e2, n)
        assert lhs == binomial_power(RHO, a, e1 + e2, n)


def _is_prime(p):
    return p > 1 and all(p % q for q in range(2, isqrt(p) + 1))


# Small primes and primes just below 10^6: distinct ones are pairwise coprime,
# so a common denominator of a few of them is large.
PRIMES = [p for p in range(2, 40) if _is_prime(p)] + [p for p in range(999_000, 1_000_000) if _is_prime(p)]
big = st.integers(2**64, 2**96)
hard_rationals = st.builds(
    F, st.one_of(st.integers(-3, 3), big, big.map(lambda x: -x)), st.sampled_from(PRIMES)
)


@st.composite
def hard_rows(draw):
    """Rows of an order-0..8 series with sigma-degrees 0..4 of their own, and
    zero rows forced at the start, the middle or the end."""
    order = draw(st.integers(0, 8))
    rows = [draw(st.lists(hard_rationals, max_size=5)) for _ in range(order + 1)]
    for at in draw(st.sets(st.sampled_from([0, order // 2, order]))):
        rows[at] = draw(st.sampled_from([[], [F(0)], [F(0), F(0)]]))
    return rows


def as_series(rows):
    return TruncatedSeries(RHO, [SigmaPoly(r) for r in rows], len(rows) - 1)


class TestKernelsMatchReferences:
    @settings(max_examples=150, deadline=None)
    @given(hard_rows(), hard_rows())
    def test_integer_row_product_matches_fraction_rows(self, a, b):
        prod = as_series(a) * as_series(b)
        assert prod.order == min(len(a), len(b)) - 1
        assert [list(c.coeffs) for c in prod.coeffs] == rows_mul(a, b)
        for c in prod.coeffs:
            assert all(type(x) is F and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1 for x in c.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(series_st, series_st)
    def test_product_matches_the_double_loop(self, a, b):
        assert a * b == naive_mul(a, b)

    def test_product_of_sparse_series_of_different_orders(self):
        a = TruncatedSeries(R, [0, 0, SigmaPoly([1, 2])], 6)
        b = TruncatedSeries(R, [3, 0, 0, SigmaPoly([0, 0, F(1, 2)])], 4)
        assert a * b == naive_mul(a, b)
        assert (a * b).order == 4

    @settings(max_examples=40, deadline=None)
    @given(unit_series_st, exponents)
    def test_rpow_matches_the_binomial_sum(self, s, e):
        assert s.rpow(e) == binomial_sum_rpow(s, e)

    @pytest.mark.parametrize("e", [F(-2), F(1, 2), F(5), F(-7, 3)])
    def test_rpow_of_a_one_term_factor(self, e):
        # the model factors 1 + a*rho and 1 - r^2/2 have one nonzero term
        for s in (TruncatedSeries(RHO, [1, F(2, 3)], 1).as_exact(12),
                  TruncatedSeries(R, [1, 0, F(-1, 2)], 2).as_exact(12)):
            assert s.rpow(e) == binomial_sum_rpow(s, e)

    @settings(max_examples=80, deadline=None)
    @given(
        unit_series_st,
        st.one_of(st.sampled_from([-1, -2]), st.fractions(min_value=0, max_value=5, max_denominator=4), st.integers(2, 6)),
    )
    def test_integer_rpow_matches_the_fraction_recurrence(self, s, e):
        # the exponents the backgrounds use: -1 (reciprocal), -2 (LF), m and d
        assert s.rpow(e) == miller_rpow(s, e)

    @settings(max_examples=40, deadline=None)
    @given(unit_series_st, exponents, exponents)
    def test_rpow_adds_exponents(self, s, e1, e2):
        assert s.rpow(e1) * s.rpow(e2) == s.rpow(e1 + e2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.just(F(0)), rationals), max_size=5), st.integers(0, 7), exponents)
    def test_rpow_commutes_with_the_substitution(self, tail, order, e):
        # in the r picture every odd coefficient is zero, so half of the
        # recurrence's steps there have no live term
        c = TruncatedSeries(RHO, [1] + tail, len(tail)).as_exact(order)
        assert c.substitute_rho().rpow(e) == c.rpow(e).substitute_rho()

    @settings(max_examples=40, deadline=None)
    @given(
        rationals,
        rationals,
        series_st,
        series_st,
        st.fractions(min_value=0, max_value=6, max_denominator=3),
        st.integers(0, 7),
    )
    def test_solver_matches_the_full_order_solve(self, a, b0, b1, c, shift, levels):
        # the solver asks for row j-1 of the partial series' image; the
        # reference applies the kernel to the partial series at order
        # levels+1 and reads that row.  With the principal part's divisor the
        # lower rows vanish; with any other the residual omits that part.
        op = SecondOrderOperator(b1, c, c)

        def outcome(solve, *args):
            try:
                return solve(*args)
            except ObstructedWeight as exc:
                return exc.level

        principal = (a, b0, shift), lambda j: (a * (j - 1) + b0) * j
        free = (0, 0, shift), lambda j: j * (j + shift)
        for weights, divisor in (principal, free):
            def apply(p, weights=weights):
                return op.apply(*weights, p)

            solved = outcome(solve_order_by_order, RHO, row_residual(apply), divisor, levels)
            expected = outcome(full_order_solve, apply, divisor, levels, RHO)
            assert solved == expected


small_polys = st.lists(rationals, max_size=3).map(SigmaPoly)
scalars = st.one_of(st.just(F(0)), rationals)


@st.composite
def operator_inputs(draw):
    """(a, b0, x, b1, c0, c1, P): P of order 1..10 in either variable, zero
    included; b1, c0 and c1 of sigma-degree <= 2, zero included, valid to
    orders N-2, N-1 and N-1 or above."""
    var = draw(st.sampled_from([RHO, R]))
    n = draw(st.integers(1, 10))

    def series(polys, order):
        return TruncatedSeries(var, draw(st.lists(polys, max_size=order + 1)), order)

    a, b0, x = draw(scalars), draw(rationals), draw(scalars)
    b1 = series(small_polys, draw(st.integers(max(n - 2, 0), n + 2)))
    c0 = series(small_polys, draw(st.integers(n - 1, n + 2)))
    c1 = series(small_polys, draw(st.integers(n - 1, n + 2)))
    return a, b0, x, b1, c0, c1, series(sigma_polys, n)


@st.composite
def polynomial_operator_inputs(draw):
    """(a, b0, x, (u, b1, c0, c1), P): a unit u = 1 + ... of degree <= 3 and
    b1, c0, c1 equal to polynomials of degree <= 3 over u, all given to order
    8; P of order 1..12 in the same variable, zero included."""
    var = draw(st.sampled_from([RHO, R]))
    u = TruncatedSeries(var, [1] + draw(st.lists(rationals, max_size=3)), 8)
    inverse = u.reciprocal()
    coefficients = [TruncatedSeries(var, draw(st.lists(small_polys, max_size=4)), 8) * inverse for _ in range(3)]
    n = draw(st.integers(1, 12))
    p = TruncatedSeries(var, draw(st.lists(sigma_polys, max_size=n + 1)), n)
    return draw(scalars), draw(rationals), draw(scalars), (u, *coefficients), p


@st.composite
def sparse_operator_inputs(draw):
    """As polynomial_operator_inputs, with structural zeros: a unit with
    interior zero coefficients (1 - v^2 among them), coefficient polynomials
    with zero terms and P with zero rows."""
    var = draw(st.sampled_from([RHO, R]))
    units = st.lists(st.one_of(st.just(F(0)), rationals), max_size=4).map(lambda tail: [1] + tail)
    u = TruncatedSeries(var, draw(st.one_of(st.just([1, 0, -1]), units)), 8)
    inverse = u.reciprocal()
    zero_or = st.one_of(st.just(SigmaPoly.zero()), small_polys)
    coefficients = [TruncatedSeries(var, draw(st.lists(zero_or, max_size=4)), 8) * inverse for _ in range(3)]
    n = draw(st.integers(1, 12))
    p = TruncatedSeries(var, draw(st.lists(st.one_of(st.just(SigmaPoly.zero()), sigma_polys), max_size=n + 1)), n)
    return draw(scalars), draw(rationals), draw(scalars), (u, *coefficients), p


def dense_reference(u, b1, c0, c1, order):
    """The dense kernel for the same operator, its coefficients grown to the
    given order from the polynomials u*b1, u*c0 and u*c1."""
    inverse = u.as_exact(order).reciprocal()
    return SecondOrderOperator(*((u * s).as_exact(order) * inverse for s in (b1, c0, c1)))


def dense_route_operator(bg, which, n):
    """The dense kernel for a route's ambient or radial operator, its
    coefficients read off the accessors at order n."""
    if which == "ambient":
        gtr, mf = bg.metric_trace(RHO, n), bg.measure_trace(RHO, n)
        lf = bg.laplacian_factor(RHO, n)
        return SecondOrderOperator(-(gtr + 2 * mf), SigmaPoly.sigma() * lf, F(1, 2) * gtr + mf)
    trace, lf = bg.trace_term(R, n), bg.laplacian_factor(R, n)
    return SecondOrderOperator(-trace, -(SigmaPoly.sigma() * lf).mul_var(), trace)


# picture and coefficient formula of each route operator Background.prepared builds
PREPARED = {"ambient": (RHO, ambient._ambient_coefficients), "radial": (R, scattering._radial_coefficients)}


@st.composite
def backgrounds(draw):
    """A fresh random QE or GL background, d + m != 2."""
    d = draw(st.integers(2, 6))
    m = draw(st.fractions(min_value=0, max_value=5, max_denominator=4).filter(lambda m: d + m != 2))
    if draw(st.booleans()):
        return Background.gover_leitner(d, m)
    return Background.quasi_einstein(d, m, draw(st.fractions(min_value=-3, max_value=3, max_denominator=5)))


class TestSecondOrderOperator:
    @settings(max_examples=100, deadline=None)
    @given(operator_inputs())
    def test_kernel_matches_the_composed_operator(self, args):
        a, b0, x, b1, c0, c1, p = args
        out = SecondOrderOperator(b1, c0, c1).apply(a, b0, x, p)
        ref = composed_second_order(a, b0, b1, c0 + x * c1, p)
        assert out.order == ref.order == p.order - 1
        assert out.coeffs == ref.coeffs

    @settings(max_examples=50, deadline=None)
    @given(operator_inputs())
    def test_a_longer_preparation_serves_every_shorter_series(self, args):
        a, b0, x, b1, c0, c1, p = args
        op = SecondOrderOperator(b1, c0, c1)
        for n in range(1, p.order + 1):
            # prepared from the shortest coefficients an order-n P needs
            fresh = SecondOrderOperator(b1.truncate(max(n - 2, 0)), c0.truncate(n - 1), c1.truncate(n - 1))
            assert fresh.order == n
            q = p.truncate(n)
            assert op.apply(a, b0, x, q) == fresh.apply(a, b0, x, q)

    @settings(max_examples=150, deadline=None)
    @given(polynomial_operator_inputs(), st.tuples(scalars, rationals, scalars), st.data())
    def test_a_repeated_application_equals_a_fresh_one(self, args, other, data):
        # the operator keeps nothing between calls: one PolynomialOperator
        # applied in turn to series that share a prefix with the last one (or
        # not), under a repeated or a changed (a, b0, x), and each of its
        # rows, equal a fresh operator's full image
        a, b0, x, coefficients, p = args
        op = PolynomialOperator(*coefficients)
        coeffs = list(p.coeffs)
        for _ in range(data.draw(st.integers(1, 8))):
            step = data.draw(st.sampled_from(["again", "edit", "grow", "shrink", "copy"]))
            if step == "edit":
                coeffs[data.draw(st.integers(0, len(coeffs) - 1))] = data.draw(sigma_polys)
            elif step == "grow":
                coeffs.append(data.draw(sigma_polys))
            elif step == "shrink" and len(coeffs) > 2:
                del coeffs[data.draw(st.integers(2, len(coeffs) - 1)) :]
            elif step == "copy":  # equal coefficients, none identical
                coeffs = [SigmaPoly(c.coeffs) for c in coeffs]
            q = TruncatedSeries(p.var, coeffs, len(coeffs) - 1)
            weight = data.draw(st.sampled_from([(a, b0, x), other]))
            image = PolynomialOperator(*coefficients).apply(*weight, q)
            assert op.apply(*weight, q) == image
            u_image = coefficients[0].as_exact(q.order) * image
            rows: list = []
            for t in range(q.order):
                assert op.row(*weight, q, t) == u_image.coeff(t)
                assert op.row(*weight, q, t, rows) == image.coeff(t)
            assert rows == list(image.coeffs)

    @pytest.mark.parametrize("b1_order, c_order", [(2, 4), (3, 3)])
    def test_short_coefficients_are_rejected(self, b1_order, c_order):
        # P of order 5 needs b1 to order 3 and c0, c1 to order 4
        p = TruncatedSeries(RHO, [1, 2, 3], 5)
        b1, c = TruncatedSeries.zero(RHO, b1_order), TruncatedSeries.constant(RHO, 1, c_order)
        zero = TruncatedSeries.zero(RHO, 4)
        for c0, c1 in ((c, zero), (zero, c)):
            with pytest.raises(OrderShortfall):
                SecondOrderOperator(b1, c0, c1).apply(1, 1, 1, p)
        with pytest.raises(OrderShortfall):
            composed_second_order(1, 1, b1, c, p)

    def test_mixed_variables_are_rejected(self):
        p = TruncatedSeries(RHO, [1, 2, 3], 4)
        rho, r = TruncatedSeries.zero(RHO, 4), TruncatedSeries.zero(R, 4)
        for b1, c0, c1 in ((r, rho, rho), (rho, r, rho), (rho, rho, r)):
            with pytest.raises(VariableMismatch):
                SecondOrderOperator(b1, c0, c1)
        for b1, c in ((r, rho), (rho, r)):
            with pytest.raises(VariableMismatch):
                composed_second_order(1, 1, b1, c, p)
        with pytest.raises(VariableMismatch):
            SecondOrderOperator(r, r, r).apply(1, 1, 1, p)

    def test_on_a_monomial(self):
        # P = v^3: a v P'' + (b0 + v b1) P' + c P = (6a + 3b0) v^2 + (3b1 + c) v^3,
        # with c = (sigma - 4) + (1/2) * 8 = sigma
        p = TruncatedSeries(RHO, [0, 0, 0, 1], 5)
        b1 = TruncatedSeries.constant(RHO, 5, 5)
        c0 = TruncatedSeries.constant(RHO, SigmaPoly([-4, 1]), 5)
        c1 = TruncatedSeries.constant(RHO, 8, 5)
        out = SecondOrderOperator(b1, c0, c1).apply(2, 3, F(1, 2), p)
        assert out.order == 4
        assert out.coeffs == (0, 0, 21, SigmaPoly([15, 1]), 0)

    def test_order_one_input_drops_the_second_derivative(self):
        p = TruncatedSeries(RHO, [1, 1], 1)
        zero = TruncatedSeries.zero(RHO, 1)
        out = SecondOrderOperator(zero, zero, zero).apply(7, 2, 5, p)
        assert out.order == 0 and out.coeff(0) == 2

    def test_order_zero_input_is_rejected(self):
        zero = TruncatedSeries.zero(RHO, 0)
        one = TruncatedSeries.constant(RHO, 1, 0)
        with pytest.raises(OrderShortfall):
            SecondOrderOperator(zero, zero, zero).apply(1, 1, 1, one)
        with pytest.raises(OrderShortfall):
            composed_second_order(1, 1, zero, zero, one)

    def test_solver_reproduces_the_exponential(self):
        # P' - P = 0 with a_0 = 1 forces a_j = a_(j-1) / j
        op = SecondOrderOperator(TruncatedSeries.zero(R, 8), TruncatedSeries.zero(R, 8), TruncatedSeries.constant(R, 1, 8))
        seen = []

        def residual(p, t):
            seen.append(p)
            return op.apply(0, 1, -1, p).coeff(t)

        sol = solve_order_by_order(R, residual, lambda j: j, 6)
        assert sol.var == R and sol.order == 7
        assert [a.coeff(0) for a in sol.coeffs] == [F(1, factorial(j)) for j in range(7)] + [0]
        # level j hands the residual the order-j series of a_0..a_(j-1) and a zero a_j
        assert [p.order for p in seen] == list(range(1, 7))
        for p in seen:
            assert p.var == R and p.coeffs[-1].is_zero() and p.coeffs[:-1] == sol.coeffs[: p.order]

    def test_solver_raises_at_a_zero_divisor(self):
        zero = TruncatedSeries.zero(RHO, 8)
        op = SecondOrderOperator(zero, zero, zero)
        with pytest.raises(ObstructedWeight) as exc:
            solve_order_by_order(RHO, row_residual(lambda p: op.apply(0, 1, 0, p)), lambda j: j - 3, 6)
        assert exc.value.level == 3


class TestPolynomialOperator:
    @settings(max_examples=60, deadline=None)
    @given(backgrounds(), st.sampled_from(["ambient", "radial"]), scalars, rationals, scalars, st.data())
    def test_matches_the_dense_kernel_on_random_backgrounds(self, bg, which, a, b0, x, data):
        # the dense kernel gets the route's coefficients as series read one
        # order below P, as the routes prepared them before
        var = RHO if which == "ambient" else R
        n = data.draw(st.integers(1, 12))
        p = TruncatedSeries(var, data.draw(st.lists(sigma_polys, max_size=n + 1)), n)
        op = bg.prepared(*PREPARED[which])
        assert op.apply(a, b0, x, p) == dense_route_operator(bg, which, n - 1).apply(a, b0, x, p)

    @settings(max_examples=60, deadline=None)
    @given(backgrounds())
    def test_prepared_operators_equal_each_modules_own_builder(self, bg):
        # Background.prepared reads T and LF where the ambient module read the
        # two traces: the same rationals, so the same integer polynomials
        for which, reference in (("ambient", ambient_operator), ("radial", radial_operator)):
            op, ref = bg.prepared(*PREPARED[which]), reference(bg)
            for name in ("var", "_den", "_u", "_bc"):
                assert getattr(op, name) == getattr(ref, name), (which, name)

    @settings(max_examples=30, deadline=None)
    @given(backgrounds(), st.sampled_from(["recursion", "obstruction", "scattering"]), st.integers(1, 8))
    def test_each_solve_level_reads_the_dense_kernels_row(self, bg, route, k):
        # at every level of the three order-by-order solves, the one-row
        # residual equals coefficient j-1 of the dense kernel's image of the
        # partial series
        w, s = k - bg.dm / 2, k + bg.dm / 2
        which, weights = {
            "recursion": ("ambient", (0, 0, w)),
            "obstruction": ("ambient", (-2, 2 * w + bg.dm - 2, w)),
            "scattering": ("radial", (-1, 2 * s - bg.dm - 1, s - bg.dm)),
        }[route]
        solve, levels = series.solve_order_by_order, []

        def checked(var, residual, divisor, top):
            assert var == PREPARED[which][0]
            dense = dense_route_operator(bg, which, top)

            def read(p, t):
                row = residual(p, t)
                assert row == dense.apply(*weights, p).coeff(t)
                levels.append(t + 1)
                return row

            return solve(var, read, divisor, top)

        with pytest.MonkeyPatch.context() as mp:
            for owner in (ambient, scattering):
                mp.setattr(owner, "solve_order_by_order", checked)
            {"recursion": ambient.gjms_recursion, "obstruction": ambient.obstruction,
             "scattering": scattering.scattering_solve}[route](bg, k)
        assert levels == list(range(1, (2 * k if route == "scattering" else k)))

    @settings(max_examples=100, deadline=None)
    @given(polynomial_operator_inputs())
    def test_matches_the_dense_kernel(self, args):
        a, b0, x, coefficients, p = args
        out = PolynomialOperator(*coefficients).apply(a, b0, x, p)
        assert out == dense_reference(*coefficients, p.order).apply(a, b0, x, p)

    @settings(max_examples=100, deadline=None)
    @given(sparse_operator_inputs())
    def test_rows_with_the_lower_rows_build_the_image(self, args):
        # row by row with the rows below, the kernel skips the zero u_i, the
        # zero terms of u*b1, u*c0 and u*c1 and the zero rows of P and L*P
        a, b0, x, coefficients, p = args
        op, lower = PolynomialOperator(*coefficients), []
        rows = [op.row(a, b0, x, p, t, lower) for t in range(p.order)]
        assert rows == lower
        image = op.apply(a, b0, x, p)
        assert image.coeffs == tuple(rows)
        assert image == dense_reference(*coefficients, p.order).apply(a, b0, x, p)

    def test_non_polynomial_coefficients_are_rejected(self):
        u = TruncatedSeries(RHO, [1, 1], 8)
        fine = TruncatedSeries.constant(RHO, 1, 8)
        # u^-2 times u is u^-1, a series with no vanishing tail
        with pytest.raises(AlgebraError):
            PolynomialOperator(u, u.reciprocal() * u.reciprocal(), fine, fine)
        PolynomialOperator(u, u.reciprocal(), fine, fine)
        # (1 + rho) rho^5 has degree 6, so it needs a window of at least 12
        high = TruncatedSeries(RHO, [0] * 5 + [1], 8)
        for window in (8, 11):
            with pytest.raises(AlgebraError):
                PolynomialOperator(*(s.as_exact(window) for s in (u, fine, high, fine)))
        PolynomialOperator(*(s.as_exact(12) for s in (u, fine, high, fine)))
        # a nonzero top coefficient alone fails the check
        with pytest.raises(AlgebraError):
            PolynomialOperator(u, fine, fine, TruncatedSeries(RHO, [0] * 8 + [1], 8))

    @pytest.mark.parametrize("unit", [[2, 1], [SigmaPoly([1, 1])], [1, SigmaPoly([0, 1])]])
    def test_the_unit_is_one_plus_a_sigma_free_polynomial(self, unit):
        zero = TruncatedSeries.zero(RHO, 8)
        with pytest.raises(AlgebraError):
            PolynomialOperator(TruncatedSeries(RHO, unit, 8), zero, zero, zero)

    def test_order_zero_input_and_mixed_variables_are_rejected(self):
        u, zero = TruncatedSeries(RHO, [1, 1], 8), TruncatedSeries.zero(RHO, 8)
        op = PolynomialOperator(u, zero, zero, zero)
        with pytest.raises(OrderShortfall):
            op.apply(1, 1, 1, TruncatedSeries.constant(RHO, 1, 0))
        with pytest.raises(VariableMismatch):
            op.apply(1, 1, 1, TruncatedSeries.constant(R, 1, 3))
        with pytest.raises(VariableMismatch):
            op.row(1, 1, 1, TruncatedSeries.constant(R, 1, 3), 0)
        with pytest.raises(VariableMismatch):
            PolynomialOperator(u, zero, TruncatedSeries.zero(R, 8), zero)

    def test_any_order_from_one_preparation(self):
        # P' - P = 0, prepared over the unit 1 - v: the operator has no order,
        # so one preparation serves a solve to any depth, one row a level
        u, zero = TruncatedSeries(R, [1, -1], 8), TruncatedSeries.zero(R, 8)
        op = PolynomialOperator(u, zero, zero, TruncatedSeries.constant(R, 1, 8))
        sol = solve_order_by_order(R, lambda p, t: op.row(0, 1, -1, p, t), lambda j: j, 40)
        assert [a.coeff(0) for a in sol.coeffs] == [F(1, factorial(j)) for j in range(41)] + [0]

    def test_a_row_of_u_times_the_image_needs_the_lower_rows_to_vanish(self):
        # P' - P over the unit 1 - v on P = 1: L*P = -1, so u*L*P = -1 + v.
        # Row 1 of u*L*P is 1 while row 1 of L*P is 0: the one-row residual
        # equals the image's row only once the solve has zeroed the rows below.
        u, zero = TruncatedSeries(R, [1, -1], 8), TruncatedSeries.zero(R, 8)
        op = PolynomialOperator(u, zero, zero, TruncatedSeries.constant(R, 1, 8))
        p = TruncatedSeries.constant(R, 1, 3)
        assert op.apply(0, 1, -1, p).coeffs == (-1, 0, 0)
        assert [op.row(0, 1, -1, p, t) for t in range(3)] == [-1, 1, 0]
        rows: list = []
        assert [op.row(0, 1, -1, p, t, rows) for t in range(3)] == [-1, 0, 0]
        with pytest.raises(AlgebraError):
            op.row(0, 1, -1, p, 2, [])
        with pytest.raises(OrderShortfall):
            op.row(0, 1, -1, p, 3)

    @settings(max_examples=30, deadline=None)
    @given(backgrounds(), st.integers(2, 8))
    def test_a_row_differs_when_the_lower_rows_do_not_vanish(self, bg, n):
        # on a route's operator (its unit is not 1 unless flat) and a series
        # that solves nothing, some row of u*L*P differs from that of L*P
        assume(bg.lam != 0)
        op = bg.prepared(RHO, ambient._ambient_coefficients)
        p = TruncatedSeries(RHO, [1] * (n + 1), n)
        image = op.apply(-2, 1, 0, p)
        assert any(op.row(-2, 1, 0, p, t) != image.coeff(t) for t in range(n))


mixed_scalars = st.one_of(
    st.integers(-5, 5),
    rationals,
    rationals.map(str),
    st.sampled_from([0, "0", " 0/7 ", F(0)]),
)


def assert_canonical(p, expected):
    """p is the polynomial with ascending coefficients `expected` (rationals,
    trailing zeros allowed), in canonical form."""
    want = [F(x) for x in expected]
    while want and want[-1] == 0:
        want.pop()
    assert not p.coeffs or p.coeffs[-1] != 0
    assert all(type(x) is F for x in p.coeffs)
    assert list(p.coeffs) == want
    slow = SigmaPoly(want)
    assert p == slow and hash(p) == hash(slow)


class TestSigmaPolyCanonicalForm:
    @settings(max_examples=60)
    @given(st.lists(mixed_scalars, max_size=6))
    def test_init_on_mixed_input(self, items):
        assert_canonical(SigmaPoly(items), [F(x.strip()) if isinstance(x, str) else x for x in items])

    @settings(max_examples=60)
    @given(sigma_polys, mixed_scalars)
    def test_scalar_product_both_orders(self, p, c):
        value = F(c.strip()) if isinstance(c, str) else F(c)
        expected = [value * x for x in p.coeffs]
        assert_canonical(p * c, expected)
        assert_canonical(c * p, expected)
        if value == 0:
            assert (p * c).is_zero()

    @settings(max_examples=60)
    @given(sigma_polys, rationals)
    def test_constant_polynomial_product_both_orders(self, p, c):
        expected = [c * x for x in p.coeffs]
        assert_canonical(SigmaPoly([c]) * p, expected)
        assert_canonical(p * SigmaPoly([c]), expected)
        if c == 0:
            assert (SigmaPoly([c]) * p).is_zero() and (p * SigmaPoly([c])).is_zero()

    @settings(max_examples=60)
    @given(sigma_polys, sigma_polys, st.integers(0, 3))
    def test_add_unequal_lengths_and_cancelling_leading_terms(self, p, q, pad):
        expected = [p.coeff(i) + q.coeff(i) for i in range(max(len(p.coeffs), len(q.coeffs)))]
        assert_canonical(p + q, expected)
        # the top terms of r cancel in (p + r) + (-r), leaving p
        r = SigmaPoly(list(q.coeffs) + [1] * pad)
        assert_canonical((p + r) + (-r), p.coeffs)

    def test_pinned_fast_paths(self):
        p = SigmaPoly([1, F(1, 2), -3])
        assert_canonical(p * 0, [])
        assert_canonical(SigmaPoly([0]) * p, [])
        assert_canonical(p * SigmaPoly.zero(), [])
        assert_canonical(p * "-2/3", [F(-2, 3), F(-1, 3), 2])
        assert_canonical(SigmaPoly([2]) * SigmaPoly([3]), [6])
        assert_canonical(p + SigmaPoly([0, 0, 3, 5]), [1, F(1, 2), 0, 5])
        assert_canonical(p + SigmaPoly([-1, F(-1, 2), 3]), [])
        assert_canonical(SigmaPoly([0, 1, 2]) + SigmaPoly([5, 0, -2]), [5, 1])
        assert_canonical(SigmaPoly([F(2, 4), "3/6", " 0 ", 0, "0/9"]), [F(1, 2), F(1, 2)])


def assert_reduced_row(p):
    """p's integer row is canonical: a tuple of ints with no trailing zero
    over a positive int den sharing no factor with every entry."""
    assert type(p.ints) is tuple and all(type(x) is int for x in p.ints) and type(p.den) is int
    assert p.den > 0 and gcd(p.den, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0


row_rationals = st.one_of(st.sampled_from([0, 1, -1]), rationals, st.fractions(max_denominator=10**6))
coefficient_lists = st.lists(row_rationals, max_size=5)


class TestToStrings:
    # printed from the integer row with one gcd per coefficient, against
    # rat_str of each Fraction coefficient
    @settings(max_examples=200)
    @given(st.lists(st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12)), max_size=6))
    def test_equals_rat_str_of_each_coefficient(self, cs):
        p = SigmaPoly(cs)
        assert p.to_strings() == [rat_str(c) for c in p.coeffs]

    def test_zero_negative_and_integral_coefficients(self):
        p = SigmaPoly([F(-3, 6), 0, 4, F(-8, 2), F(7, 9)])
        assert p.to_strings() == ["-1/2", "0", "4", "-4", "7/9"]
        assert SigmaPoly([0, 0]).to_strings() == [] and SigmaPoly([-6, 2]).to_strings() == ["-6", "2"]


class TestSigmaPolyMatchesTheFractionReference:
    # the integer row against the tuple of Fractions it replaced, operation
    # by operation
    @settings(max_examples=300)
    @given(coefficient_lists, coefficient_lists, row_rationals, row_rationals)
    def test_every_operation(self, a, b, c, x):
        p, q, rp, rq = SigmaPoly(a), SigmaPoly(b), FractionPoly(a), FractionPoly(b)
        results = [(p, rp), (q, rq), (p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq), (-p, -rp)]
        results += [(p + c, rp + c), (c - p, c - rp), (p * c, rp * c), (c * p, c * rp), (p**2, rp**2)]
        if c:
            results.append((p / c, rp / c))
        else:
            for poly in (p, rp):
                with pytest.raises(ZeroDivisionError):
                    poly / c
        for got, ref in results:
            assert_reduced_row(got)
            assert got.coeffs == ref.coeffs and all(type(v) is F for v in got.coeffs)
            assert got.degree == ref.degree and got.is_monic() == ref.is_monic() and got.is_zero() == ref.is_zero()
            assert got.to_strings() == ref.to_strings() and str(got) == str(ref)
            assert [got.coeff(i) for i in range(-1, 7)] == [ref.coeff(i) for i in range(-1, 7)]
            assert got(x) == ref(x) and type(got(x)) is F
            assert (got == c) == (ref == c) and (got == rat_str(c)) == (ref == rat_str(c))
        assert (p == q) == (rp == rq)
        if p == q:
            assert hash(p) == hash(q)

    @pytest.mark.parametrize("divisor", [-3, F(-2, 5), "-7/4", 6])
    def test_division_by_a_negative_or_positive_scalar(self, divisor):
        p, ref = SigmaPoly([F(3, 4), -2, F(1, 6)]), FractionPoly([F(3, 4), -2, F(1, 6)])
        assert_reduced_row(p / divisor)
        assert (p / divisor).coeffs == (ref / divisor).coeffs

    def test_the_constructors_make_reduced_rows(self):
        for p in (SigmaPoly.zero(), SigmaPoly.one(), SigmaPoly.sigma(), SigmaPoly.const("-6/4"), SigmaPoly([F(2, 4), "3/6", 0])):
            assert_reduced_row(p)
        assert (SigmaPoly.zero().ints, SigmaPoly.zero().den) == ((), 1)
        assert (SigmaPoly([F(1, 2), F(1, 3), 0]).ints, SigmaPoly([F(1, 2), F(1, 3)]).den) == ((3, 2), 6)
        assert SigmaPoly.from_row([4, -6, 0, 0], -8) == SigmaPoly([F(-1, 2), F(3, 4)])


class TestScalarPathMatchesFromRow:
    # p * c and p / c divide out gcd(c's numerator, den) and gcd(c's
    # denominator, *ints) instead of re-reducing the whole row
    @settings(max_examples=300)
    @given(st.lists(st.one_of(row_rationals, hard_rationals), max_size=5), st.one_of(row_rationals, hard_rationals))
    def test_product_and_quotient(self, a, c):
        p, c = SigmaPoly(a), F(c)
        product = SigmaPoly.from_row([c.numerator * x for x in p.ints], c.denominator * p.den)
        for got in (p * c, c * p, p.scaled(c.numerator, c.denominator), p.scaled(-c.numerator, -c.denominator)):
            assert_reduced_row(got)
            assert (got.ints, got.den) == (product.ints, product.den)
        if c:
            quotient = SigmaPoly.from_row([c.denominator * x for x in p.ints], c.numerator * p.den)
            assert_reduced_row(p / c)
            assert ((p / c).ints, (p / c).den) == (quotient.ints, quotient.den)

    def test_zero_rows_and_scalars_give_the_shared_zero(self):
        p = SigmaPoly([F(3, 4), -2])
        assert p * 0 is SigmaPoly.zero() and SigmaPoly([0, 0]) * F(-5, 3) is SigmaPoly.zero()
        assert SigmaPoly.from_row([0, 0], 7) is SigmaPoly.zero()


def assert_built_as_checked(result):
    """result, made without the checking constructor, equals the series that
    constructor makes of its coefficients, and every row is canonical."""
    assert result == TruncatedSeries(result.var, list(result.coeffs), result.order)
    assert type(result.coeffs) is tuple and len(result.coeffs) == result.order + 1
    for c in result.coeffs:
        assert type(c) is SigmaPoly
        assert_reduced_row(c)


any_series = st.builds(
    lambda var, rows, extra: TruncatedSeries(var, rows, len(rows) - 1 + extra),
    st.sampled_from([RHO, R]),
    st.lists(st.one_of(st.just(SigmaPoly([0])), sigma_polys), min_size=1, max_size=7),
    st.integers(0, 2),
)
series_scalars = st.one_of(mixed_scalars, sigma_polys)


class TestUncoercedSeriesOperations:
    @settings(max_examples=150, deadline=None)
    @given(any_series, st.data())
    def test_every_operation_builds_a_checked_series(self, s, data):
        n = data.draw(st.integers(0, 8))
        t = TruncatedSeries(s.var, data.draw(st.lists(sigma_polys, max_size=n + 1)), n)
        c = data.draw(series_scalars)
        value = _as_poly(c.strip() if isinstance(c, str) else c)
        results = [s.truncate(data.draw(st.integers(0, s.order))), s.as_exact(s.order + 2), -s, s + t, s - t, s * t]
        results += [s + c, c + s, s - c, c - s, s.mul_var()]
        for product in (s * c, c * s):
            assert [x * value for x in s.coeffs] == list(product.coeffs)
            results.append(product)
        if s.order:
            derivative = s.derivative()
            assert list(derivative.coeffs) == [j * x for j, x in enumerate(s.coeffs) if j]
            results.append(derivative)
        if s.var == RHO:
            results.append(s.substitute_rho())
        one = TruncatedSeries(s.var, [1] + list(s.coeffs[1:]), s.order)
        results += [one.rpow(data.draw(exponents)), one.reciprocal()]
        for result in results:
            assert_built_as_checked(result)

    @settings(max_examples=60, deadline=None)
    @given(polynomial_operator_inputs())
    def test_an_operator_image_builds_a_checked_series(self, args):
        a, b0, x, prepared, p = args
        assert_built_as_checked(PolynomialOperator(*prepared).apply(a, b0, x, p))

    @pytest.mark.parametrize("order", [-1, 4])
    def test_a_truncation_outside_the_valid_orders_is_refused(self, order):
        with pytest.raises(OrderShortfall, match=f"^cannot truncate an order-3 series to order {order}$"):
            TruncatedSeries(R, [1, 2], 3).truncate(order)


class TestLogSeries:
    def test_zero_logpart_by_default(self):
        u = LogSeries(TruncatedSeries(R, [1, 2], 4))
        assert u.logpart.is_zero()

    def test_common_order(self):
        u = LogSeries(TruncatedSeries(R, [1], 4), TruncatedSeries(R, [0, 1], 6))
        assert u.order == 4
