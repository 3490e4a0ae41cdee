from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gjms.ambient import gjms_iterated
from gjms.backgrounds import Background
from gjms.core import AlgebraError, OrderShortfall, SigmaPoly
from gjms.scattering import (
    SCATTERING_SIGN,
    ScatteringSolution,
    _ds_plain,
    _radial_scalars,
    gjms_route_scattering,
    greens_log_coefficient,
    log_normalization,
    scattering_solve,
)
from gjms.series import R, TruncatedSeries
from gjms_reference import LogSeries, apply_Ds, greens_log_coefficient_series, residual_with_log

QE = Background.quasi_einstein(3, 2, 1)
GL = Background.gover_leitner(3, 2)
FLAT = Background.quasi_einstein(3, 2, 0)
SIGMA = SigmaPoly.sigma()


def replaced(sol, v_coeffs, log_coeff=None):
    """A new ScatteringSolution: sol with other radial coefficients and,
    when given, another log coefficient."""
    return ScatteringSolution(sol.k, sol.s, sol.background, v_coeffs, sol.log_coeff if log_coeff is None else log_coeff)


class TestRadialOperator:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 8),
        st.fractions(min_value=0, max_value=7, max_denominator=9),
        st.integers(-20, 20),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
    )
    def test_scalars_from_numerators(self, d, m, n, s):
        # (a, b0, x) = (-1, x + s - 1, s - (d+m)), the same for an int and a Fraction s
        dm = d + m
        expected = (-1, 2 * F(n) - dm - 1, F(n) - dm)
        assert _radial_scalars(dm, n) == _radial_scalars(dm, F(n)) == expected
        assert _radial_scalars(dm, s) == (-1, 2 * s - dm - 1, s - dm)

    def test_on_constant(self):
        # D_s(1) = -(d+m-s) T - r sigma LF; on QE(3,2,1) with s = (d+m)/2 + 1
        # the r^1 coefficient is -(sigma - 15/2).
        s = QE.dm / 2 + 1
        u = LogSeries(TruncatedSeries.constant(R, 1, 4))
        out = apply_Ds(QE, s, u)
        assert out.logpart.is_zero()
        assert out.regular.coeff(0).is_zero()
        assert out.regular.coeff(1) == -(SIGMA - F(15, 2))

    def test_indicial_coefficients(self):
        # flat model: D_s(r^j) = j(2k-j) r^(j-1) + lower-order sector terms
        s = FLAT.dm / 2 + 2  # k = 2
        for j in (1, 2, 3):
            coeffs = [SigmaPoly.zero()] * j + [SigmaPoly.one()]
            u = LogSeries(TruncatedSeries(R, coeffs, 6))
            out = apply_Ds(FLAT, s, u)
            assert out.regular.coeff(j - 1) == SigmaPoly.const(j * (4 - j))

    def test_log_cross_terms(self):
        # D_s(r^2 log r) regular part picks up -2*(r^2)' + (2s-d-m)*r = (2s-d-m-4) r
        s = F(9, 2)
        logpart = TruncatedSeries(R, [0, 0, 1], 5)
        out = apply_Ds(FLAT, s, LogSeries(TruncatedSeries.zero(R, 5), logpart))
        assert out.regular.coeff(1) == SigmaPoly.const(2 * s - 5 - 4)

    def test_needs_r_series(self):
        with pytest.raises(AlgebraError):
            apply_Ds(QE, 3, LogSeries(TruncatedSeries.constant("rho", 1, 4)))

    def test_order_zero_series_is_a_shortfall(self):
        # on a fresh background and on one whose operator is prepared
        used = Background.quasi_einstein(3, 2, 1)
        _ds_plain(used, used.dm / 2 + 1, TruncatedSeries.constant(R, 1, 2))
        for bg in (Background.quasi_einstein(3, 2, 1), used):
            with pytest.raises(OrderShortfall):
                _ds_plain(bg, bg.dm / 2 + 1, TruncatedSeries.constant(R, 1, 0))

    def test_order_one_series_truncates_the_order_two_result(self):
        series = TruncatedSeries(R, [1, F(2, 3), -5], 2)
        for bg in (QE, GL):
            s = bg.dm / 2 + 1
            low = _ds_plain(bg, s, series.truncate(1))
            assert low.order == 0
            assert low == _ds_plain(bg, s, series).truncate(0)


class TestScatteringSolve:
    def test_odd_coefficients_vanish(self):
        for bg in (QE, GL, FLAT):
            for k in (1, 2, 3):
                sol = scattering_solve(bg, k)
                assert all(v.is_zero() for v in sol.v_coeffs[1::2])

    def test_flat_k2_log_coefficient(self):
        # flat model: L = sigma^2 and the log coefficient is -d_2 sigma^2
        sol = scattering_solve(FLAT, 2)
        assert sol.log_coeff == F(-1, 16) * SIGMA**2

    def test_qe_k1_log_coefficient(self):
        # L_2 = sigma - 15/2 and d_1 = 1/2
        sol = scattering_solve(QE, 1)
        assert sol.log_coeff == F(-1, 2) * (SIGMA - F(15, 2))

    def test_s_value(self):
        sol = scattering_solve(GL, 2)
        assert sol.s == GL.dm / 2 + 2

    def test_json(self):
        data = scattering_solve(QE, 1).to_json()
        assert data["s"] == "7/2"
        assert data["log_coeff"] == ["15/4", "-1/2"]

    def test_residual_with_log_vanishes(self):
        for bg in (QE, GL):
            for k in (1, 2):
                sol = scattering_solve(bg, k)
                res = residual_with_log(bg, sol)
                for j in range(2 * k):
                    assert res.regular.coeff(j).is_zero()
                    assert res.logpart.coeff(j).is_zero()


class TestSignPinning:
    def test_sign_derived_at_low_orders(self):
        # The global sign relating the log coefficient to the ambient operator
        # is measured here at k = 1 and k = 2, not assumed: for every tested
        # background the ratio log_coeff / (d_k * L) is exactly -1 at both
        # orders, which pins SCATTERING_SIGN before it is used at k = 3.
        for bg in (QE, GL, FLAT, Background.quasi_einstein(2, 2, F(1, 6))):
            for k in (1, 2):
                target = gjms_iterated(bg, k).poly
                sol = scattering_solve(bg, k)
                measured = sol.log_coeff / log_normalization(k)
                assert measured == -target
                assert SCATTERING_SIGN * measured == target

    def test_alternating_sign_refuted_by_flat_model(self):
        # a (-1)^k convention would need +d_2 sigma^2 at k = 2; the flat
        # model gives the opposite sign
        sol = scattering_solve(FLAT, 2)
        assert sol.log_coeff != F(1) ** 2 * log_normalization(2) * SIGMA**2
        assert sol.log_coeff == -log_normalization(2) * SIGMA**2

    def test_normalization_values(self):
        assert log_normalization(1) == F(1, 2)
        assert log_normalization(2) == F(1, 16)
        assert log_normalization(3) == F(1, 384)


class TestScatteringRoute:
    def test_matches_iterated_through_k3(self):
        for bg in (QE, GL, FLAT, Background.quasi_einstein(4, F(1, 2), -1)):
            for k in (1, 2, 3):
                assert gjms_route_scattering(bg, k).poly == gjms_iterated(bg, k).poly

    def test_monic(self):
        poly = gjms_route_scattering(GL, 3).poly
        assert poly.degree == 3 and poly.is_monic()


class TestGreensPairing:
    def test_pinned_qe_k1(self):
        rep = greens_log_coefficient(scattering_solve(QE, 1))
        assert rep.lp.to_strings() == ["-75/4", "5/2"]
        assert rep.rhs == -QE.dm * scattering_solve(QE, 1).log_coeff
        assert rep.match

    def test_matrix(self):
        for bg in (QE, Background.quasi_einstein(2, 2, F(1, 6)), GL):
            for k in (1, 2):
                rep = greens_log_coefficient(scattering_solve(bg, k))
                assert rep.match, (bg.label(), k, str(rep.lp), str(rep.rhs))

    def test_json(self):
        data = greens_log_coefficient(scattering_solve(QE, 1)).to_json()
        assert data["match"] is True
        assert data["lp"] == ["-75/4", "5/2"]

    def test_reads_only_the_normalization_and_p_2k(self):
        # the pairing's order-2k coefficient sees v_0, the density's order-0
        # coefficient and p_2k only: the rest of the solve can be anything,
        # while a wrong v_0 fails
        for bg in (QE, GL):
            for k in (1, 2, 3):
                sol = scattering_solve(bg, k)
                v = sol.v_coeffs
                moved = replaced(
                    sol,
                    v_coeffs=(v[0],) + tuple(c + SIGMA**j - j for j, c in enumerate(v[1:], 1)),
                    log_coeff=sol.log_coeff + 3 * SIGMA - 1,
                )
                assert greens_log_coefficient(moved).match
                assert not greens_log_coefficient(replaced(sol, v_coeffs=(v[0] + SIGMA,) + v[1:])).match
                assert not greens_log_coefficient(replaced(sol, v_coeffs=(2 * v[0],) + v[1:])).match

    @settings(max_examples=30, deadline=None)
    @given(
        st.booleans(),
        st.integers(2, 6),
        st.fractions(min_value=0, max_value=4, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.integers(1, 8),
        st.lists(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), max_size=3).map(SigmaPoly),
                 min_size=17, max_size=17),
        st.sampled_from(("none", "tail", "v_0")),
    )
    def test_equals_the_series_reference(self, qe, d, m, lam, k, noise, perturb):
        assume(d + m != 2)
        bg = Background.quasi_einstein(d, m, lam) if qe else Background.gover_leitner(d, m)
        sol = scattering_solve(bg, k)
        v = sol.v_coeffs
        if perturb == "tail":  # every v_j with j >= 1, and p_2k
            sol = replaced(sol, v_coeffs=(v[0],) + tuple(c + e for c, e in zip(v[1:], noise)),
                           log_coeff=sol.log_coeff + noise[-1])
        elif perturb == "v_0":
            sol = replaced(sol, v_coeffs=(v[0] + noise[0],) + v[1:])
        fast, reference = greens_log_coefficient(sol), greens_log_coefficient_series(sol)
        assert (fast.lp, fast.rhs, fast.match) == (reference.lp, reference.rhs, reference.match)
