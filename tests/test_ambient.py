import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjms import ambient
from gjms.ambient import (
    ROUTES,
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
)
from gjms.backgrounds import Background
from gjms.core import AlgebraError, OrderShortfall, SigmaPoly
from gjms.factorization import cross_route_report, gl_product, qe_product, route_polynomial
from gjms.scattering import gjms_route_scattering, greens_log_coefficient, scattering_solve
from gjms.sl2 import extract_Zk, verify_commutator_identity
from gjms.series import RHO, TruncatedSeries

from gjms_reference import random_admissible_perturbation

QE = Background.quasi_einstein(3, 2, 1)
GL = Background.gover_leitner(3, 2)
SIGMA = SigmaPoly.sigma()


class TestAmbientLaplacian:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 8),
        st.fractions(min_value=0, max_value=7, max_denominator=9),
        st.integers(-20, 20),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
    )
    def test_scalars_from_numerators(self, d, m, n, w):
        # (a, b0, x) = (-2, 2w + d+m - 2, w), the same for an int and a Fraction weight
        dm = d + m
        assert ambient._ambient_scalars(dm, n) == ambient._ambient_scalars(dm, F(n)) == (-2, 2 * F(n) + dm - 2, n)
        assert ambient._ambient_scalars(dm, w) == (-2, 2 * w + dm - 2, w)

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

    def test_int_and_fraction_weights_give_equal_images(self):
        bg = Background.quasi_einstein(3, 1, 1)
        for w in (1, 0, -3):
            prof = TruncatedSeries.constant(RHO, 1, 3)
            as_int = ambient_laplacian(bg, HomogeneousFunction(w, prof))
            as_fraction = ambient_laplacian(bg, HomogeneousFunction(F(w), prof))
            assert as_int == as_fraction
            assert type(as_int.weight) is F and type(HomogeneousFunction(w, prof).weight) is F

    def test_order_bookkeeping(self):
        func = HomogeneousFunction(F(0), TruncatedSeries.constant(RHO, 1, 3))
        assert ambient_laplacian(QE, func).profile.order == 2

    def test_order_zero_profile_is_a_shortfall(self):
        # an order-0 profile has no valid P', on a fresh background and on
        # one whose operator is prepared
        used = Background.quasi_einstein(3, 2, 1)
        ambient_laplacian(used, HomogeneousFunction(F(1), TruncatedSeries.constant(RHO, 1, 2)))
        func = HomogeneousFunction(F(1), TruncatedSeries.constant(RHO, 1, 0))
        for bg in (Background.quasi_einstein(3, 2, 1), used):
            with pytest.raises(OrderShortfall):
                ambient_laplacian(bg, func)

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

    # an integral Fraction or a float is not an int either; unchecked, it
    # would reach range() or rat() and raise a TypeError.  A bool is an int
    # to isinstance, and True would compute the k = 1 operator
    @pytest.mark.parametrize(
        "k", [0, -1, F(3, 2), F(2), 2.0, True, False], ids=["0", "-1", "3/2", "Fraction(2)", "2.0", "True", "False"]
    )
    @pytest.mark.parametrize(
        "construct",
        [
            lambda k: gjms_iterated(QE, k),
            lambda k: gjms_recursion(QE, k),
            lambda k: obstruction(QE, k),
            lambda k: scattering_solve(QE, k),
            lambda k: gjms_route_scattering(QE, k),
            lambda k: greens_log_coefficient(scattering_solve(QE, k)),
            lambda k: qe_product(3, 2, 1, k),
            lambda k: gl_product(3, 2, k),
            lambda k: route_polynomial(QE, k, "iterated"),
            lambda k: verify_commutator_identity("yk_x", k),
            lambda k: extract_Zk(k),
        ],
        ids=[
            "gjms_iterated", "gjms_recursion", "obstruction", "scattering_solve",
            "gjms_route_scattering", "greens_log_coefficient", "qe_product", "gl_product",
            "route_polynomial", "verify_commutator_identity", "extract_Zk",
        ],
    )
    def test_nonpositive_k_is_rejected(self, construct, k):
        with pytest.raises(AlgebraError, match="^k must be a positive integer$"):
            construct(k)

    @pytest.mark.parametrize("k", [F(3, 2), F(2), 2.0, True, False], ids=["3/2", "Fraction(2)", "2.0", "True", "False"])
    def test_a_non_integer_k_is_every_routes_stated_error(self, k):
        assert cross_route_report(QE, k).errors == dict.fromkeys(ROUTES, "k must be a positive integer")

    def test_routes_respect_restriction(self):
        bg = Background.quasi_einstein(3, 1, 1)  # d + m = 4
        # route_polynomial applies the range to every route alike
        for route in ROUTES:
            with pytest.raises(RestrictionError):
                route_polynomial(bg, 3, route)
        # the constructions themselves compute beyond the range, and agree
        a = gjms_iterated(bg, 3)
        assert gjms_recursion(bg, 3).poly == a.poly
        assert route_polynomial(bg, 3, "iterated", override=True).poly == a.poly
        assert iterated_vs_obstruction_constant(3) * obstruction(bg, 3).poly == a.poly


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

    @pytest.mark.parametrize("bg", [QE, GL, Background.quasi_einstein(4, F(1, 2), -1)], ids=lambda bg: bg.label())
    def test_the_power_basis_moves_off_the_critical_weight_only(self, bg):
        # the check verify runs: rho^1..rho^k span every Q*H perturbation, so
        # none may move the critical output, and off it every one does
        for k in (1, 2, 3, 5):
            w = critical_weight(bg, k)
            basis = [TruncatedSeries(RHO, [0] * j + [1], k) for j in range(1, k + 1)]
            base, off = iterate_at_weight(bg, w, k), iterate_at_weight(bg, w + F(1, 3), k)
            assert all(iterate_at_weight(bg, w, k, p) == base for p in basis)
            assert all(iterate_at_weight(bg, w + F(1, 3), k, p) != off for p in basis)

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

    @pytest.mark.parametrize("order", [-1, -2])
    def test_a_negative_order_is_named_before_any_solve(self, order):
        # the message is about the argument, not about an internal series
        with pytest.raises(AlgebraError, match=f"^harmonic extension order must be >= 0, not {order}$"):
            harmonic_extension(QE, F(-13, 6), order)

    def test_order_zero_is_the_bare_power(self):
        ext = harmonic_extension(QE, F(-13, 6), 0)
        assert ext.weight == F(-13, 6)
        assert ext.profile == TruncatedSeries.constant(RHO, 1, 0)


class TestCounts:
    """harmonic_extension's order and iterate_at_weight's k are counts: an
    int >= 0, not a bool, checked and named before any operator runs."""

    PERTURBATION = TruncatedSeries(RHO, [0, SIGMA, 1], 2)

    @pytest.mark.parametrize(
        "count, message",
        [
            (-1, "must be >= 0, not -1"),
            (F(3, 2), "must be an integer >= 0, not Fraction(3, 2)"),
            (2.0, "must be an integer >= 0, not 2.0"),
            (True, "must be an integer >= 0, not True"),
        ],
        ids=["-1", "3/2", "2.0", "True"],
    )
    @pytest.mark.parametrize(
        "construct, name",
        [
            (lambda n: harmonic_extension(QE, F(1, 3), n), "harmonic extension order"),
            (lambda n: iterate_at_weight(QE, F(1, 3), n), "iteration count k"),
            (lambda n: iterate_at_weight(QE, F(1, 3), n, TestCounts.PERTURBATION), "iteration count k"),
        ],
        ids=["harmonic_extension", "iterate_at_weight", "iterate_at_weight_perturbed"],
    )
    def test_a_bad_count_is_named_before_any_solve(self, construct, name, count, message, monkeypatch):
        def no_solve(*args):
            raise AssertionError("the ambient Laplacian ran")

        monkeypatch.setattr(ambient, "ambient_laplacian", no_solve)
        with pytest.raises(AlgebraError) as exc:
            construct(count)
        assert str(exc.value) == f"{name} {message}"

    @pytest.mark.parametrize("perturbation", [None, PERTURBATION], ids=["bare", "perturbed"])
    def test_zero_applications_read_the_constant_term(self, perturbation):
        assert iterate_at_weight(QE, F(1, 3), 0, perturbation) == SigmaPoly.one()


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

    def test_the_route_reads_the_harmonic_extension(self, monkeypatch):
        # a wrong jet a_1 in the extension must reach the obstruction route,
        # and must not reach the iterated route, which solves no jet
        real = ambient.harmonic_extension

        def scaled_a1(bg, w, order):
            ext = real(bg, w, order)
            jets = list(ext.profile.coeffs)
            jets[1] = jets[1] * F(1001, 1000)
            return HomogeneousFunction(ext.weight, TruncatedSeries(RHO, jets, ext.profile.order))

        cells = [(bg, k) for bg in (QE, GL) for k in (2, 3)]
        before = [(obstruction(bg, k).poly, gjms_iterated(bg, k).poly) for bg, k in cells]
        monkeypatch.setattr(ambient, "harmonic_extension", scaled_a1)
        after = [(obstruction(bg, k).poly, gjms_iterated(bg, k).poly) for bg, k in cells]
        for (obs, it), (obs_after, it_after) in zip(before, after):
            assert obs_after != obs
            assert it_after == it
