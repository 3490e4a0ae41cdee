import copy
import pickle
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjms import ambient, scattering
from gjms.backgrounds import QUASI_EINSTEIN, Background, verify_spaceform_conditions
from gjms.cli import VERIFY_MATRIX
from gjms.core import AlgebraError
from gjms.factorization import cross_route_report
from gjms.scattering import greens_log_coefficient, scattering_solve
from gjms.series import R, RHO, TruncatedSeries
from gjms_reference import ambient_operator, radial_operator

QE = Background.quasi_einstein(3, 2, 1)
GL = Background.gover_leitner(3, 2)


def leading(series, n):
    return [c.coeff(0) for c in series.coeffs[: n + 1]]


class TestConstruction:
    def test_validation(self):
        with pytest.raises(AlgebraError):
            Background.quasi_einstein(1, 2, 1)  # d < 2
        with pytest.raises(AlgebraError):
            Background.quasi_einstein(3, -1, 1)  # m < 0
        with pytest.raises(AlgebraError):
            Background.quasi_einstein(2, 0, 1)  # d + m = 2
        with pytest.raises(AlgebraError):
            Background("quasi_einstein", 3, F(2))  # missing lambda
        with pytest.raises(AlgebraError):
            Background("gover_leitner", 3, F(2), lam=F(1))
        with pytest.raises(AlgebraError):
            Background("bogus", 3, F(2))

    def test_labels(self):
        assert QE.label() == "QE(d=3, m=2, lambda=1)"
        assert GL.label() == "GL(d=3, m=2)"

    def test_json_round_trip(self):
        for bg in (QE, GL, Background.quasi_einstein(4, F(1, 2), F(-1, 3))) + VERIFY_MATRIX:
            assert Background.from_json(bg.to_json()) == bg

    @pytest.mark.parametrize(
        "data, message",
        [
            # a missing "lambda" is the constructor's error, not a KeyError
            ({"kind": "quasi_einstein", "d": 3, "m": "2"}, "quasi-Einstein background needs lambda"),
            # a stray "lambda" is rejected, not dropped
            ({"kind": "gover_leitner", "d": 3, "m": "2", "lambda": "1"}, "Gover-Leitner background has no lambda"),
            ({"kind": "bogus", "d": 3, "m": "2"}, "unknown background kind 'bogus'"),
        ],
    )
    def test_from_json_raises_the_constructors_errors(self, data, message):
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            Background.from_json(data)

    @pytest.mark.parametrize("d", [3.7, "3", F(7, 2), True])
    @pytest.mark.parametrize("kind", ["quasi_einstein", "gover_leitner"])
    def test_from_json_takes_d_as_given(self, kind, d):
        # d is not coerced: 3.7 is not read as 3, nor "3" as 3, but each is
        # the constructors' stated error
        data = {"kind": kind, "d": d, "m": "2", "lambda": "1"}
        with pytest.raises(AlgebraError, match=r"^d must be an integer >= 2$"):
            Background.from_json(data)

    def test_fractional_m(self):
        bg = Background.quasi_einstein(4, F(7, 3), F(1, 2))
        assert bg.dm == F(19, 3)

    @pytest.mark.parametrize(
        "direct, made",
        [
            (Background("quasi_einstein", 3, "1/2", 1), Background.quasi_einstein(3, F(1, 2), 1)),
            (Background("quasi_einstein", 3, 2, " -1/3 "), Background.quasi_einstein(3, 2, F(-1, 3))),
            (Background("gover_leitner", 3, "3/2"), Background.gover_leitner(3, F(3, 2))),
        ],
    )
    def test_direct_construction_coerces_m_and_lambda(self, direct, made):
        assert direct == made and hash(direct) == hash(made) and repr(direct) == repr(made)
        assert type(direct.m) is F and (direct.lam is None or type(direct.lam) is F)
        assert cross_route_report(direct, 2).all_agree()

    @pytest.mark.parametrize("m, lam", [(0.5, None), (F(1, 2), 1.0), (2, 0.5)])
    def test_float_parameters_are_rejected(self, m, lam):
        kind = "gover_leitner" if lam is None else "quasi_einstein"
        with pytest.raises(TypeError):
            Background(kind, 3, m, lam)


class TestFactorData:
    def test_each_kind_states_its_factor_coefficients(self):
        assert QE.c == QE.q == (1, 1)
        assert GL.c == (1, F(-1, 2)) and GL.q == (1, F(1, 2))
        flat = Background.quasi_einstein(3, 2, 0)
        assert flat.c == flat.q == (1, 0)
        bg = Background.quasi_einstein(4, F(1, 2), "-1/3")
        assert bg.c == bg.q == (1, F(-1, 3)) and type(bg.c[1]) is F

    def test_factor_series_are_the_coefficients(self):
        for bg in (QE, GL) + VERIFY_MATRIX:
            for which in ("c", "q"):
                got = bg._factor(which, RHO, 3)
                assert got == TruncatedSeries(RHO, getattr(bg, which), 3)
                # rho = -r^2/2
                assert leading(bg._factor(which, R, 2), 2) == [1, 0, -getattr(bg, which)[1] / 2]

    def test_factors_stay_outside_equality_hash_and_repr(self):
        bg = Background.quasi_einstein(3, F(1, 2), 1)
        twin = Background("quasi_einstein", 3, "1/2", F(1))
        assert bg == twin and hash(bg) == hash(twin)
        assert repr(bg) == "Background(kind='quasi_einstein', d=3, m=Fraction(1, 2), lam=Fraction(1, 1))"
        assert repr(GL) == "Background(kind='gover_leitner', d=3, m=Fraction(2, 1), lam=None)"

    def test_copies_and_pickles_rebuild_the_factors(self):
        for bg in (QE, GL) + VERIFY_MATRIX:
            for clone in (copy.copy(bg), copy.deepcopy(bg), pickle.loads(pickle.dumps(bg))):
                assert clone == bg and (clone.c, clone.q) == (bg.c, bg.q)

    def test_assigning_or_deleting_a_factor_raises(self):
        for which in ("c", "q"):
            with pytest.raises(AttributeError):
                setattr(QE, which, (1, 2))
            with pytest.raises(AttributeError):
                delattr(QE, which)
        assert QE.c == QE.q == (1, 1)

    @pytest.mark.parametrize("bg", VERIFY_MATRIX, ids=lambda bg: bg.label())
    def test_windows_follow_from_the_factor_degrees(self, monkeypatch, bg):
        # deg u = deg c + deg lcm(c, q): c = q for QE, so 2 in rho and 4 in r;
        # c and q are coprime for GL, so 3 in rho and 6 in r.  T, LF and the
        # unit are read at order 2 deg u + 2
        orders = Counter()
        unit = Background.unit

        def counted(self, picture, order):
            orders[picture, order] += 1
            return unit(self, picture, order)

        monkeypatch.setattr(Background, "unit", counted)
        fresh = copy.copy(bg)
        ops = fresh.prepared(RHO, ambient._ambient_coefficients), fresh.prepared(R, scattering._radial_coefficients)
        assert orders == ({(RHO, 6): 1, (R, 10): 1} if bg.kind == QUASI_EINSTEIN else {(RHO, 8): 1, (R, 14): 1})
        # the same integer polynomials as the reference's, read at r order 16
        for op, ref in zip(ops, (ambient_operator(bg), radial_operator(bg))):
            for name in ("var", "_den", "_u", "_bc"):
                assert getattr(op, name) == getattr(ref, name), name

    @pytest.mark.parametrize("bg", [QE, GL], ids=lambda bg: bg.label())
    @pytest.mark.parametrize("picture, coefficients", [(RHO, ambient._ambient_coefficients), (R, scattering._radial_coefficients)])
    def test_a_unit_one_factor_too_small_is_rejected(self, monkeypatch, bg, picture, coefficients):
        # c for QE and c^2 for GL leave a denominator in some coefficient,
        # which the operator's tail check reports
        factors = Background._unit_factors
        monkeypatch.setattr(Background, "_unit_factors", lambda self: factors(self)[:-1])
        with pytest.raises(AlgebraError, match="not polynomials"):
            copy.copy(bg).prepared(picture, coefficients)

    @pytest.mark.parametrize("lam", ["x", "1/0"])
    def test_an_unknown_kind_is_reported_before_its_lambda_is_read(self, lam):
        with pytest.raises(AlgebraError, match="^unknown background kind 'bogus'$"):
            Background("bogus", 3, 2, lam)
        with pytest.raises(AlgebraError, match="^unknown background kind 'bogus'$"):
            Background.from_json({"kind": "bogus", "d": 3, "m": "2", "lambda": lam})


class TestExpansionData:
    def test_qe_traces_rho(self):
        # gtr = 2 d lam / (1 + lam rho) = 6 - 6 rho + 6 rho^2 - ... at lam = 1
        assert leading(QE.metric_trace(RHO, 2), 2) == [6, -6, 6]
        # mtr = m lam / (1 + lam rho)
        assert leading(QE.measure_trace(RHO, 2), 2) == [2, -2, 2]
        # trace_term = (d + m) lam / (1 + lam rho) at rho = 0
        assert QE.trace_term(RHO, 0).coeff(0).coeff(0) == 5

    def test_gl_traces_rho(self):
        # gtr = -d / (1 - rho/2),  mtr = (m/2) / (1 + rho/2)
        assert leading(GL.metric_trace(RHO, 2), 2) == [-3, F(-3, 2), F(-3, 4)]
        assert leading(GL.measure_trace(RHO, 2), 2) == [1, F(-1, 2), F(1, 4)]
        # drift trace at rho = 0 is (m - d)/2
        assert GL.trace_term(RHO, 0).coeff(0).coeff(0) == F(GL.m - GL.d, 2)

    def test_qe_trace_r_picture(self):
        # T(r) = -lam (d+m) r + O(r^3)
        t = QE.trace_term(R, 3)
        assert leading(t, 3) == [0, -5, 0, F(-5, 2)]

    def test_laplacian_factor(self):
        # c^-2 = (1 + rho)^-2 at lam = 1
        assert leading(QE.laplacian_factor(RHO, 3), 3) == [1, -2, 3, -4]
        # GL r picture: (1 + r^2/4)^-2
        assert leading(GL.laplacian_factor(R, 4), 4) == [1, 0, F(-1, 2), 0, F(3, 16)]

    def test_density_factor(self):
        # q^m c^d = (1 - r^2/4)^2 (1 + r^2/4)^3 = 1 + r^2/4 - r^4/8 + ...
        assert leading(GL.density_factor(4), 4) == [1, 0, F(1, 4), 0, F(-1, 8)]
        # QE: (1 - r^2/2)^(d+m) at lam = 1
        assert leading(QE.density_factor(2), 2) == [1, 0, F(-5, 2)]

    def test_flat_limit(self):
        flat = Background.quasi_einstein(3, 2, 0)
        assert flat.trace_term(RHO, 4).is_zero()
        assert flat.laplacian_factor(R, 4) == TruncatedSeries.constant(R, 1, 4)
        assert flat.density_factor(4) == TruncatedSeries.constant(R, 1, 4)

    def test_r_picture_parity(self):
        for bg in (QE, GL):
            assert all(c.is_zero() for c in bg.laplacian_factor(R, 7).coeffs[1::2])
            assert all(c.is_zero() for c in bg.density_factor(7).coeffs[1::2])
            assert all(c.is_zero() for c in bg.trace_term(R, 7).coeffs[0::2])

    def test_picture_consistency_chain_rule(self):
        # with rho = -r^2/2:  T_r(r) = -r * T_rho(-r^2/2),  LF_r(r) = LF_rho(-r^2/2)
        for bg in (QE, GL):
            t_rho = bg.trace_term(RHO, 10)
            expected_t = -(t_rho.substitute_rho().mul_var())
            assert bg.trace_term(R, 10) == expected_t.truncate(10)
            lf_rho = bg.laplacian_factor(RHO, 10)
            assert bg.laplacian_factor(R, 10) == lf_rho.substitute_rho().truncate(10)

    @settings(max_examples=25)
    @given(
        st.integers(2, 6),
        st.fractions(min_value=0, max_value=4, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=4),
    )
    def test_picture_consistency_random_backgrounds(self, d, m, lam):
        if d + m == 2:
            return
        bg = Background.quasi_einstein(d, m, lam)
        t_rho = bg.trace_term(RHO, 6)
        assert bg.trace_term(R, 6) == (-(t_rho.substitute_rho().mul_var())).truncate(6)


OPERATOR_ACCESSORS = ("metric_trace", "measure_trace", "trace_term", "laplacian_factor")


def fresh_backgrounds():
    return Background.quasi_einstein(4, F(3, 2), F(-2, 3)), Background.gover_leitner(3, F(1, 2))


class TestStoredAccessors:
    """What a Background prepares or reads must not be visible from outside."""

    @settings(max_examples=15, deadline=None)
    @given(st.permutations(range(13)))
    def test_any_order_sequence_matches_a_fresh_background(self, orders):
        warm = fresh_backgrounds()
        for order in orders:
            for i, bg in enumerate(warm):
                for name in OPERATOR_ACCESSORS:
                    for picture in (RHO, R):
                        expected = getattr(fresh_backgrounds()[i], name)(picture, order)
                        got = getattr(bg, name)(picture, order)
                        assert got == expected and got.order == order, (bg.label(), name, picture, order)

    def test_identity_is_unchanged_by_warm_up(self):
        for bg, twin in zip(fresh_backgrounds(), fresh_backgrounds()):
            before = (repr(bg), hash(bg), bg.to_json())
            assert cross_route_report(bg, 3).all_agree()  # prepares both operators
            for name in OPERATOR_ACCESSORS:
                for picture in (RHO, R):
                    getattr(bg, name)(picture, 12)
            assert bg == twin and hash(bg) == hash(twin) and repr(bg) == repr(twin)
            assert (repr(bg), hash(bg), bg.to_json()) == before
            assert Background.from_json(bg.to_json()) == bg

    def test_an_equal_background_prepares_its_own_operators(self, monkeypatch):
        builds = Counter()

        def counted(real):
            def formula(t, lf):
                builds[real.__name__] += 1
                return real(t, lf)

            return formula

        for owner, name in ((ambient, "_ambient_coefficients"), (scattering, "_radial_coefficients")):
            monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
        warm, _ = fresh_backgrounds()
        expected = Counter({"_ambient_coefficients": 1, "_radial_coefficients": 1})
        for _ in range(2):
            assert cross_route_report(warm, 2).all_agree()
            assert builds == expected
        fresh, _ = fresh_backgrounds()
        assert fresh == warm
        assert cross_route_report(fresh, 2).all_agree()
        assert builds == expected + expected

    @pytest.mark.parametrize("which", (0, 1), ids=("qe", "gl"))
    def test_each_accessor_is_read_once_per_operator(self, monkeypatch, which):
        # Background.prepared reads trace_term (so both traces), LF and the
        # unit once per picture, at its window, and a Green pairing reads
        # density_factor once
        bg = fresh_backgrounds()[which]
        calls = Counter()

        def counted(real):
            def accessor(self, *args):
                calls[real.__name__] += 1
                return real(self, *args)

            return accessor

        for name in OPERATOR_ACCESSORS + ("unit", "density_factor"):
            monkeypatch.setattr(Background, name, counted(getattr(Background, name)))
        for k in range(1, 13):
            assert cross_route_report(bg, k).all_agree()
        assert greens_log_coefficient(scattering_solve(bg, 2)).match
        assert calls == {
            "metric_trace": 2,
            "measure_trace": 2,
            "laplacian_factor": 2,
            "unit": 2,
            "trace_term": 2,
            "density_factor": 1,
        }


class TestSpaceforms:
    def test_round_case_d2_m2(self):
        rep = verify_spaceform_conditions(2, 2, 1, 1, 1)
        assert rep.R_phi == 4
        assert rep.J_phi == F(2, 3)
        assert rep.P_coeff == F(1, 6)
        assert rep.is_quasi_einstein
        assert not rep.is_gover_leitner

    def test_hyperbolic_case_d3_m2(self):
        rep = verify_spaceform_conditions(3, 2, 1, -1, 1)
        assert rep.R_phi == -4
        assert rep.J_phi == F(-1, 2)
        assert rep.P_coeff == F(-1, 2)
        assert rep.is_gover_leitner
        assert not rep.is_quasi_einstein

    def test_m_zero_einstein_is_always_quasi_einstein(self):
        # with m = 0 the weighted Schouten is kappa/2 * g and J = d * kappa/2 / ... holds
        for d, kappa in [(3, 1), (4, F(-1, 2)), (5, F(2, 3))]:
            rep = verify_spaceform_conditions(d, 0, 0, kappa, 1)
            assert rep.P_coeff == F(kappa, 2)
            assert rep.is_quasi_einstein

    def test_f0_scaling(self):
        # mu and f0 enter only through mu / f0^2
        assert verify_spaceform_conditions(3, 2, 4, 1, 2) == verify_spaceform_conditions(3, 2, 1, 1, 1)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(AlgebraError):
            verify_spaceform_conditions(2, 0, 1, 1, 1)
        # the Background dimension rule: an integer d >= 2 and m >= 0
        for d, m in [(1, 3), (1, 0), (5, -2), (F(5, 2), 1), (True, 3), (False, 3)]:
            with pytest.raises(AlgebraError):
                verify_spaceform_conditions(d, m, 1, 1, 1)
            with pytest.raises(AlgebraError):
                Background.gover_leitner(d, m)
        with pytest.raises(AlgebraError):
            verify_spaceform_conditions(3, 2, 1, 1, 0)

    def test_json(self):
        rep = verify_spaceform_conditions(2, 2, 1, 1, 1)
        assert rep.to_json()["P_coeff"] == "1/6"
        assert rep.to_json()["is_quasi_einstein"] is True
