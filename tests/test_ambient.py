import random
from fractions import Fraction as F

import pytest

from gjms.ambient import (
    HomogeneousFunction,
    ObstructedWeight,
    RestrictionError,
    ambient_laplacian,
    check_k_restriction_dm,
    critical_weight,
    gjms_iterated,
    gjms_recursion,
    harmonic_extension,
    iterate_at_weight,
    iterated_vs_obstruction_constant,
    jet_normalization,
    obstruction,
    random_admissible_perturbation,
)
from gjms.backgrounds import Background
from gjms.core import AlgebraError, SigmaPoly
from gjms.factorization import cross_route_report
from gjms.series import RHO, TruncatedSeries

QE = Background.quasi_einstein(3, 2, 1)
GL = Background.gover_leitner(3, 2)
SIGMA = SigmaPoly.sigma()


class TestAmbientLaplacian:
    def test_constant_profile(self):
        # Delta(t^w * 1) has rho^0 coefficient sigma + lam*w*(d+m) on the
        # quasi-Einstein model: the P', P'' terms drop and
        # (w/2)*Gtr(0) + MF(0)*w = w*lam*(d + m).
        w = F(3)
        func = HomogeneousFunction(w, TruncatedSeries.constant(RHO, 1, 2))
        image = ambient_laplacian(QE, func)
        assert image.weight == 1
        assert image.profile.order == 1
        assert image.profile.coeff(0) == SIGMA + 15

    def test_constant_profile_gl(self):
        # GL: (w/2)*(-d) + w*(m/2) = w*(m-d)/2
        func = HomogeneousFunction(F(2), TruncatedSeries.constant(RHO, 1, 2))
        assert ambient_laplacian(GL, func).profile.coeff(0) == SIGMA - 1

    def test_flat_pure_power(self):
        # flat model, profile rho: -2*rho*0 + (2w+d+m-2)*1 + sigma*rho at order 0
        flat = Background.quasi_einstein(3, 2, 0)
        func = HomogeneousFunction(F(1), TruncatedSeries.variable(RHO, 2))
        image = ambient_laplacian(flat, func)
        assert image.profile.coeff(0) == SigmaPoly.const(2 * 1 + 5 - 2)
        assert image.profile.coeff(1) == SIGMA

    def test_order_bookkeeping(self):
        func = HomogeneousFunction(F(0), TruncatedSeries.constant(RHO, 1, 3))
        assert ambient_laplacian(QE, func).profile.order == 2

    def test_homogeneity_identity(self):
        # Delta(Q*H) = Q*Delta(H) + 4*(w_H + (d+m+2)/2)*H with Q = 2*rho*t^2,
        # checked at the rho^0 coefficient where the Q*Delta(H) term drops.
        rng = random.Random(7)
        for bg in (QE, GL):
            for w_h in (F(1), F(-5, 2), F(7, 3)):
                prof = random_admissible_perturbation(rng, 4) + 1
                h_func = HomogeneousFunction(w_h, prof)
                qh = HomogeneousFunction(w_h + 2, 2 * prof.mul_var())
                lhs = ambient_laplacian(bg, qh).profile.coeff(0)
                h_eig = w_h + (bg.dm + 2) / 2
                assert lhs == 4 * h_eig * prof.coeff(0)


class TestRestriction:
    def test_even_dm_cutoff(self):
        check_k_restriction_dm(F(6), 3)
        with pytest.raises(RestrictionError):
            check_k_restriction_dm(F(6), 4)
        check_k_restriction_dm(F(6), 4, override=True)

    def test_non_even_dm_unrestricted(self):
        check_k_restriction_dm(F(5), 40)
        check_k_restriction_dm(F(13, 2), 40)

    def test_invalid_k(self):
        with pytest.raises(AlgebraError):
            check_k_restriction_dm(F(5), 0)

    def test_routes_respect_restriction(self):
        bg = Background.quasi_einstein(3, 1, 1)  # d + m = 4
        for route in (gjms_iterated, gjms_recursion, obstruction):
            with pytest.raises(RestrictionError):
                route(bg, 3)
        # override computes, and the routes still agree with each other
        a = gjms_iterated(bg, 3, override=True)
        b = gjms_recursion(bg, 3, override=True)
        assert a.poly == b.poly


class TestIteratedRoute:
    def test_pinned_qe_k2(self):
        assert gjms_iterated(QE, 2).poly == SigmaPoly([F(105, 4), -11, 1])

    def test_pinned_gl_k1_k2(self):
        assert gjms_iterated(GL, 1).poly == SIGMA + F(3, 4)
        assert gjms_iterated(GL, 2).poly == (SIGMA + F(3, 4)) * (SIGMA - F(5, 4))

    def test_monic_of_degree_k(self):
        for bg in (QE, GL):
            for k in (1, 2, 3):
                poly = gjms_iterated(bg, k).poly
                assert poly.degree == k and poly.is_monic()

    def test_flat_model_is_sigma_power(self):
        flat = Background.quasi_einstein(3, 2, 0)
        for k in (1, 2, 3):
            assert gjms_iterated(flat, k).poly == SIGMA**k


class TestExtensionIndependence:
    def test_perturbations_do_not_change_critical_output(self):
        rng = random.Random(20240229)
        for bg in (QE, GL):
            for k in (1, 2, 3):
                base = gjms_iterated(bg, k).poly
                for _ in range(6):
                    pert = random_admissible_perturbation(rng, k)
                    assert gjms_iterated(bg, k, perturbation=pert).poly == base

    def test_off_critical_weights_do_depend(self):
        rng = random.Random(11)
        for bg in (QE, GL):
            k = 2
            for w in (F(0), F(1, 3), critical_weight(bg, k) + 1):
                base = iterate_at_weight(bg, w, k)
                assert any(
                    iterate_at_weight(bg, w, k, random_admissible_perturbation(rng, k)) != base
                    for _ in range(6)
                )

    def test_perturbation_admissibility_enforced(self):
        with pytest.raises(AlgebraError):
            gjms_iterated(QE, 2, perturbation=TruncatedSeries.constant(RHO, 1, 2))
        with pytest.raises(AlgebraError):
            gjms_iterated(QE, 3, perturbation=TruncatedSeries(RHO, [0, 1], 2))


class TestRecursionRoute:
    def test_pinned_qe_k2(self):
        assert gjms_recursion(QE, 2).poly == SigmaPoly([F(105, 4), -11, 1])

    def test_matches_iterated(self):
        for bg in (QE, GL, Background.quasi_einstein(4, F(1, 2), -1)):
            for k in (1, 2, 3, 4):
                assert gjms_recursion(bg, k).poly == gjms_iterated(bg, k).poly

    def test_normalization_values(self):
        assert jet_normalization(1) == 1
        assert jet_normalization(2) == F(-1, 2)
        assert jet_normalization(3) == F(1, 8)


class TestHarmonicExtension:
    def test_pinned_first_jet(self):
        # w = -13/6 on QE(3,2,1): divisor 2*(1/3 - 1) = -4/3,
        # residual sigma + 5w, so a_1 = (3/4)*sigma - 65/8
        ext = harmonic_extension(QE, F(-13, 6), 2)
        assert ext.profile.coeff(1) == F(3, 4) * SIGMA - F(65, 8)

    def test_laplacian_vanishes_through_order(self):
        for bg in (QE, GL):
            for w in (F(-13, 6), F(5, 3), F(-7, 4)):
                ext = harmonic_extension(bg, w, 8)
                image = ambient_laplacian(bg, ext)
                for j in range(8):
                    assert image.profile.coeff(j).is_zero()

    def test_integer_k_obstructed_at_level_k(self):
        for bg in (QE, GL):
            for k in (1, 2, 3):
                with pytest.raises(ObstructedWeight) as exc:
                    harmonic_extension(bg, critical_weight(bg, k), 8)
                assert exc.value.level == k


class TestObstructionRoute:
    def test_constant_values(self):
        assert iterated_vs_obstruction_constant(1) == 1
        assert iterated_vs_obstruction_constant(2) == -4
        assert iterated_vs_obstruction_constant(3) == 64
        assert iterated_vs_obstruction_constant(4) == -2304

    def test_multiplicative_constant(self):
        for bg in (QE, GL, Background.quasi_einstein(2, 2, F(1, 6))):
            kmax = 2 if bg.dm == 4 else 3
            for k in range(1, kmax + 1):
                rep = cross_route_report(bg, k)
                assert rep.constant_check is True, (bg.label(), k, rep.to_json())

    def test_k1_obstruction_equals_iterated(self):
        assert obstruction(QE, 1).poly == gjms_iterated(QE, 1).poly
