from fractions import Fraction as F

import hashlib
import json
from math import factorial, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from collections import Counter

from gjms import ambient, factorization, scattering, series
from gjms.ambient import ROUTES, RestrictionError, beyond_paper_range, gjms_iterated, jet_normalization
from gjms.backgrounds import Background
from gjms.cli import VERIFY_MATRIX
from gjms.core import AlgebraError, SigmaPoly
from gjms.series import R
from gjms.factorization import (
    RouteReport,
    cross_route_report,
    factorization_product,
    gl_product,
    qe_product,
    route_polynomial,
)

from gjms_reference import gl_product_reference, qe_product_reference

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
        # the range is route_polynomial's to apply; the product computes any k
        bg = Background.quasi_einstein(3, 1, 1)
        with pytest.raises(RestrictionError):
            route_polynomial(bg, 3, "factorization")
        assert qe_product(3, 1, 1, 3).poly == gjms_iterated(bg, 3).poly


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


class TestIntegerProducts:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 8),
        st.fractions(min_value=0, max_value=6, max_denominator=5),
        st.fractions(min_value=-4, max_value=4, max_denominator=7),
        st.integers(1, 24),
    )
    def test_equal_to_one_sigma_product_per_root(self, d, m, lam, k):
        # one integer polynomial over the roots' common denominator, against
        # one SigmaPoly product per root
        assume(d + m != 2)
        assert qe_product(d, m, lam, k).poly == qe_product_reference(d, m, lam, k)
        assert gl_product(d, m, k).poly == gl_product_reference(d, m, k)


    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 8),
        st.fractions(min_value=0, max_value=7, max_denominator=9),
        st.fractions(min_value=-5, max_value=5, max_denominator=9),
        st.integers(1, 10),
    )
    def test_int_roots_over_one_denominator(self, d, m, lam, k):
        # roots as int numerators over 2e^2q (QE) and 4e^2 (GL), d+m = n/e and
        # lam = p/q, against one SigmaPoly product per Fraction root
        assume(d + m != 2)
        assert qe_product(d, m, lam, k).poly == qe_product_reference(d, m, lam, k)
        assert qe_product(d, m, -lam, k).poly == qe_product_reference(d, m, -lam, k)
        assert gl_product(d, m, k).poly == gl_product_reference(d, m, k)


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

    def test_constant_check_is_the_iterated_obstruction_entry(self, monkeypatch):
        assert "constant_check" not in RouteReport._fields
        rep = cross_route_report(QE, 2)
        assert rep.constant_check is rep.agreement[("iterated", "obstruction")] is True
        # a wrong route-ratio constant fails the check and the verdict
        monkeypatch.setattr(factorization, "iterated_vs_obstruction_constant", lambda k: F(2))
        rep = cross_route_report(QE, 2)
        assert rep.constant_check is False and not rep.all_agree()
        assert rep.to_json()["constant_check"] is False

        def raises(bg, k):
            raise AlgebraError("obstruction fault")

        monkeypatch.setattr(factorization, "obstruction", raises)
        rep = cross_route_report(QE, 2)
        assert "iterated" in rep.routes and rep.constant_check is None

    @settings(max_examples=15, deadline=None)
    @given(
        st.booleans(),
        st.integers(2, 6),
        st.fractions(min_value=0, max_value=4, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.integers(1, 16),
    )
    def test_every_route_matches_the_closed_form_on_random_backgrounds(self, qe, d, m, lam, k):
        assume(d + m != 2)
        bg = Background.quasi_einstein(d, m, lam) if qe else Background.gover_leitner(d, m)
        assume(not beyond_paper_range(bg.dm, k))
        closed = qe_product(d, m, lam, k) if qe else gl_product(d, m, k)
        rep = cross_route_report(bg, k)
        assert set(rep.routes) == set(ROUTES), rep.errors
        for name, route in rep.routes.items():
            assert route.poly == closed.poly, (bg.label(), k, name)
        assert rep.constant_check is True

    @pytest.mark.parametrize(
        "bg",
        [Background.quasi_einstein(3, F(1, 2), F(2, 3)), Background.gover_leitner(4, F(3, 2))],
        ids=("qe", "gl"),
    )
    def test_every_route_matches_the_closed_form_at_k16(self, bg):
        closed = factorization_product(bg, 16).poly
        rep = cross_route_report(bg, 16)
        assert set(rep.routes) == set(ROUTES), rep.errors
        for name, route in rep.routes.items():
            assert route.poly == closed, name
        assert rep.constant_check is True
        assert rep.all_agree()

    @settings(max_examples=15, deadline=None)
    @given(
        st.booleans(),
        st.integers(2, 6),
        st.integers(0, 4),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.integers(1, 3),
    )
    def test_every_route_matches_the_closed_form_beyond_the_range(self, qe, d, m, lam, excess):
        # the model backgrounds are explicit to all orders, so with override
        # every route still equals the product formula past k = (d+m)/2
        assume((d + m) % 2 == 0 and d + m != 2)
        k = (d + m) // 2 + excess
        bg = Background.quasi_einstein(d, m, lam) if qe else Background.gover_leitner(d, m)
        closed = factorization_product(bg, k).poly
        rep = cross_route_report(bg, k, override=True)
        assert set(rep.routes) == set(ROUTES), rep.errors
        for name, route in rep.routes.items():
            assert route.poly == closed, (bg.label(), k, name)
        assert rep.constant_check is True

    @pytest.mark.parametrize(
        "bg, digest",
        [
            (
                Background.quasi_einstein(3, F(1, 2), 1),
                "0bcddd0ef6b8a12ae3c85f25df56f1282ac4911efc75eba00232a81fda50ad8b",
            ),
            (
                Background.gover_leitner(4, F(3, 2)),
                "64c43b19fa08dbe5b09e123a519f79c8156f7dc09b66fff51c2b39517f0fb036",
            ),
        ],
        ids=("qe", "gl"),
    )
    def test_pinned_report_at_k32(self, bg, digest):
        # sha256 of the whole report, every route's polynomial included
        text = json.dumps(cross_route_report(bg, 32).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "bg, digest",
        [
            (
                Background.quasi_einstein(3, F(1, 2), 1),
                "d095fb62c8b6e779bc30fc9aef78b2d22abdb6b41dbaf4b44c57cb9b6b493e15",
            ),
            (
                Background.gover_leitner(4, F(3, 2)),
                "8b7f96fb6b00f435b2152b5120aa04fffcfca99846359436b48b2742a8730e37",
            ),
        ],
        ids=("qe", "gl"),
    )
    def test_pinned_report_at_k64(self, bg, digest):
        # computed with the dense series operators, before the polynomial ones
        text = json.dumps(cross_route_report(bg, 64).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_json_shape(self):
        data = cross_route_report(GL, 2).to_json()
        assert data["all_agree"] is True
        assert data["routes"]["factorization"] == ["-15/16", "-1/2", "1"]
        assert data["agreement"]["iterated~scattering"] is True


class TestPreparedOperators:
    @pytest.mark.parametrize("k", [4, 12])
    def test_each_operator_is_prepared_once(self, monkeypatch, k):
        # the operators have no order: each Background prepares each one once,
        # and every weight, s, order and level shares it
        builds = Counter()

        def counted(real, name):
            def formula(t, lf):
                builds[name] += 1
                return real(t, lf)

            return formula

        for owner, name in ((ambient, "_ambient_coefficients"), (scattering, "_radial_coefficients")):
            monkeypatch.setattr(owner, name, counted(getattr(owner, name), name))
        bg = Background.quasi_einstein(3, F(1, 2), 1)  # fresh: nothing stored yet
        for j in range(1, k + 1):
            assert cross_route_report(bg, j).all_agree()
        assert builds == {"_ambient_coefficients": 1, "_radial_coefficients": 1}

    @pytest.mark.parametrize("route", ["recursion", "obstruction", "scattering"])
    def test_doubling_k_at_most_doubles_the_rows_a_solve_builds(self, monkeypatch, route):
        # each level of an order-by-order solve computes one row of the
        # operator's image, so a solve to k builds O(k) rows, not O(k^2)
        rows = []
        row = series.PolynomialOperator._row
        monkeypatch.setattr(series.PolynomialOperator, "_row", lambda *args: rows.append(1) or row(*args))
        built = []
        for k in (12, 24):
            rows.clear()
            route_polynomial(Background.quasi_einstein(3, F(1, 2), 1), k, route)
            built.append(len(rows))
        assert 0 < built[1] <= 2.25 * built[0], built

    def test_every_row_the_recursion_route_stores_is_reduced(self, monkeypatch):
        # the one-row division keeps L*P's rows for the levels above; each
        # is reduced, so its denominator does not grow by the unit's a level
        stored = []
        row = series.PolynomialOperator.row

        def kept(self, *args):
            out = row(self, *args)
            stored.append(args[-1])
            return out

        monkeypatch.setattr(series.PolynomialOperator, "row", kept)
        route_polynomial(Background.quasi_einstein(5, F(7, 3), F(-5, 7)), 48, "recursion")
        (lower,) = {id(rows): rows for rows in stored}.values()
        assert len(lower) == 48
        assert all(p.den > 0 and gcd(p.den, *p.ints) == 1 and (not p.ints or p.ints[-1]) for p in lower)

    @pytest.mark.parametrize("k", [12, 24])
    def test_a_scattering_level_reads_one_row_of_p_per_nonzero_unit_offset(self, monkeypatch, k):
        # each of the 2k-1 levels and the read-off computes row t of u*L*P
        # from P's rows t-o, o = -1..deg u, each read once and only where
        # u_(o+1) or (u*b1, u*c0, u*c1)_o is nonzero: in r the unit is even
        # and the products odd, so half the offsets are skipped, whatever k
        bg = Background.gover_leitner(4, F(3, 2))
        bg.prepared(R, scattering._radial_coefficients)  # preparation's own products are not counted
        deg_u = max(j for j, c in enumerate(bg.unit(R, 16).coeffs) if not c.is_zero())
        reads = []

        class Counted(tuple):
            def __getitem__(self, j):
                reads[-1].append(j)
                return tuple.__getitem__(self, j)

        row = series.PolynomialOperator._row

        def counted(self, weights, ps, t, lower=None):
            reads.append([])
            return row(self, weights, Counted(ps), t, lower)

        monkeypatch.setattr(series.PolynomialOperator, "_row", counted)
        scattering.scattering_solve(bg, k)
        assert deg_u == 6 and len(reads) == 2 * k
        assert all(len(set(r)) == len(r) <= deg_u // 2 + 1 for r in reads), reads
        assert max(map(len, reads)) == deg_u // 2 + 1


EPS = 1 + F(1, 1000)


def scaled(fn):
    return lambda self, picture, order: EPS * fn(self, picture, order)


def mutate_preparation(change):
    def mutate(monkeypatch):
        init = series.PolynomialOperator.__init__
        monkeypatch.setattr(series.PolynomialOperator, "__init__", lambda self, *args: init(self, *change(*args)))

    return mutate


def mutate_solver(change):
    def mutate(monkeypatch):
        solve = series.solve_order_by_order
        for owner in (ambient, scattering):
            monkeypatch.setattr(
                owner, "solve_order_by_order", lambda var, residual, div, levels: solve(var, residual, change(div), levels)
            )

    return mutate


def mutate_kernel(name, change):
    def mutate(monkeypatch):
        real = getattr(series.PolynomialOperator, name)
        monkeypatch.setattr(series.PolynomialOperator, name, lambda self, *args: real(self, *change(*args)))

    return mutate


# One fault in each ingredient the jet routes share: the accessors, the
# operator's preparation, its row kernel, the one-row division by the unit
# and the order-by-order solver.
FAULTS = {
    **{
        f"{name} * (1+eps)": lambda mp, name=name: mp.setattr(Background, name, scaled(getattr(Background, name)))
        for name in ("metric_trace", "measure_trace", "trace_term", "laplacian_factor", "unit")
    },
    "preparation: b1 * (1+eps)": mutate_preparation(lambda u, b1, c0, c1: (u, EPS * b1, c0, c1)),
    "preparation: c0 one order up": mutate_preparation(lambda u, b1, c0, c1: (u, b1, c0.mul_var(), c1)),
    "row kernel: P read one coefficient late": mutate_kernel(
        "_row", lambda w, ps, t, lower=None: (w, ps[1:] + (SigmaPoly.zero(),), t, lower)
    ),
    "one-row division: lower rows one step stale": mutate_kernel(
        "_row", lambda w, ps, t, lower=None: (w, ps, t, lower if lower is None else [SigmaPoly.zero()] + lower[:-1])
    ),
    "solver: divisor * (1+eps)": mutate_solver(lambda div: lambda j: EPS * div(j)),
    "solver: divisor one level up": mutate_solver(lambda div: lambda j: div(j + 1)),
}


class TestRouteIndependence:
    @pytest.mark.parametrize(
        "bg", [Background.quasi_einstein(3, F(1, 2), 1), GL, Background.quasi_einstein(5, F(7, 3), F(-5, 7))]
    )
    def test_recursion_is_the_raw_obstruction_renormalized(self, bg):
        # both routes solve the same jets with the same operator; recursion
        # shares the obstruction route's construction, not only its answer
        for k in (1, 2, 3, 5, 12):
            raw = route_polynomial(bg, k, "obstruction").poly
            expected = raw * (factorial(k - 1) * 2 ** (k - 1) / jet_normalization(k))
            assert route_polynomial(bg, k, "recursion").poly == expected

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_a_fault_in_a_shared_ingredient_breaks_agreement(self, monkeypatch, fault):
        # the closed form reads no background data, so a fault the jet routes
        # share still shows as a disagreement on some cell at k <= 4.  A
        # TypeError means the fault never ran (a mutant whose call no longer
        # fits the code), so it does not count as caught.
        cells = [(bg, k) for bg in VERIFY_MATRIX for k in range(1, 5) if not beyond_paper_range(bg.dm, k)]

        def fresh(bg):
            return Background(bg.kind, bg.d, bg.m, bg.lam)

        assert all(cross_route_report(fresh(bg), k).all_agree() for bg, k in cells)
        FAULTS[fault](monkeypatch)
        reports = [cross_route_report(fresh(bg), k) for bg, k in cells]
        assert not all(report.all_agree() for report in reports)
        assert not [e for report in reports for e in report.errors.values() if e.startswith("TypeError")]
