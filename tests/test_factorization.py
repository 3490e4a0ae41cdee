from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gjms.ambient import ROUTES, RestrictionError, check_k_restriction, gjms_iterated
from gjms.backgrounds import Background
from gjms.core import SigmaPoly
from gjms.factorization import (
    cross_route_report,
    factorization_product,
    gl_product,
    qe_product,
)

QE = Background.quasi_einstein(3, 2, 1)
GL = Background.gover_leitner(3, 2)
SIGMA = SigmaPoly.sigma()


class TestQeProduct:
    def test_pinned_k2(self):
        assert qe_product(3, 2, 1, 2).poly == SigmaPoly([F(105, 4), -11, 1])

    def test_k1_root(self):
        # single factor sigma + 2*lam*(k - (d+m)/2)*((d+m)/2 + k - 1)
        assert qe_product(3, 2, 1, 1).poly == SIGMA + 2 * F(-3, 2) * F(5, 2)

    def test_flat_collapses_to_sigma_power(self):
        for k in (1, 2, 3):
            assert qe_product(3, 2, 0, k).poly == SIGMA**k

    def test_roots_pairwise_distinct_generic_lambda(self):
        poly = qe_product(3, 2, 1, 3).poly
        roots = [F(-9, 2), F(15, 2), F(7, 2)]
        assert len(set(roots)) == 3
        for root in roots:
            assert poly(root) == 0

    def test_restriction(self):
        with pytest.raises(RestrictionError):
            qe_product(3, 1, 1, 3)


class TestGlProduct:
    def test_pinned_k1_k2(self):
        assert gl_product(3, 2, 1).poly == SIGMA + F(3, 4)
        assert gl_product(3, 2, 2).poly == (SIGMA + F(3, 4)) * (SIGMA - F(5, 4))

    def test_k3_roots(self):
        poly = gl_product(3, 2, 3).poly
        assert poly == (SIGMA - F(5, 4)) * (SIGMA + F(3, 4)) * (SIGMA - F(21, 4))

    def test_equal_dimensions_degenerate_factor(self):
        # d = m makes the k = 1 factor collapse to sigma
        assert gl_product(3, 3, 1).poly == SIGMA

    def test_matches_iterated(self):
        for d, m in [(2, F(1, 2)), (3, 2), (4, F(3, 2)), (5, 1)]:
            bg = Background.gover_leitner(d, m)
            for k in (1, 2, 3):
                if bg.dm.denominator == 1 and bg.dm % 2 == 0 and k > bg.dm / 2:
                    continue
                assert gl_product(d, m, k).poly == gjms_iterated(bg, k).poly


class TestDispatch:
    def test_factorization_product(self):
        assert factorization_product(QE, 2).poly == qe_product(3, 2, 1, 2).poly
        assert factorization_product(GL, 1).poly == gl_product(3, 2, 1).poly


class TestCrossRouteReport:
    def test_all_routes_agree(self):
        for bg in (QE, GL, Background.quasi_einstein(2, 2, F(1, 6))):
            kmax = 2 if bg.dm == 4 else 3
            for k in range(1, kmax + 1):
                rep = cross_route_report(bg, k)
                assert not rep.errors, rep.errors
                assert set(rep.routes) == {
                    "factorization",
                    "iterated",
                    "recursion",
                    "scattering",
                    "obstruction",
                }
                assert rep.all_agree(), rep.to_json()
                assert rep.constant_check is True

    def test_restricted_cell_reports_errors(self):
        rep = cross_route_report(Background.quasi_einstein(3, 1, 1), 3)
        assert not rep.routes
        assert set(rep.errors) == {
            "factorization",
            "iterated",
            "recursion",
            "scattering",
            "obstruction",
        }
        assert not rep.all_agree()
        assert rep.constant_check is None

    @settings(max_examples=15, deadline=None)
    @given(
        st.booleans(),
        st.integers(2, 6),
        st.fractions(min_value=0, max_value=4, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.integers(1, 4),
    )
    def test_every_route_matches_the_closed_form_on_random_backgrounds(self, qe, d, m, lam, k):
        assume(d + m != 2)
        bg = Background.quasi_einstein(d, m, lam) if qe else Background.gover_leitner(d, m)
        try:
            check_k_restriction(bg, k)
        except RestrictionError:
            assume(False)
        closed = qe_product(d, m, lam, k) if qe else gl_product(d, m, k)
        rep = cross_route_report(bg, k)
        assert set(rep.routes) == set(ROUTES), rep.errors
        for name, route in rep.routes.items():
            assert route.poly == closed.poly, (bg.label(), k, name)
        assert rep.constant_check is True

    def test_json_shape(self):
        data = cross_route_report(GL, 2).to_json()
        assert data["all_agree"] is True
        assert data["routes"]["factorization"] == ["-15/16", "-1/2", "1"]
        assert data["agreement"]["iterated~scattering"] is True
