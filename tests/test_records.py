"""The value records: construction, equality, hashing, immutability and repr.

Each of the seven record types (Background twice, with and without lambda) is
built positionally and by keyword, plus one record that differs from those in
one field.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from gjms.ambient import GjmsPolynomial, HomogeneousFunction
from gjms.backgrounds import Background, SpaceformReport
from gjms.core import SigmaPoly
from gjms.factorization import RouteReport
from gjms.scattering import GreensLogReport, ScatteringSolution
from gjms.series import RHO, TruncatedSeries

QE = Background.quasi_einstein(3, F(1, 2), 1)
GL = Background.gover_leitner(3, 2)
ONE = TruncatedSeries.constant(RHO, 1, 2)
POLY = SigmaPoly([F(-21, 8), 1])
V = (SigmaPoly.one(), SigmaPoly.zero())

# name -> (positional, keyword, differing in one field)
CASES = {
    "Background": (
        Background("quasi_einstein", 3, F(1, 2), 1),
        Background(kind="quasi_einstein", d=3, m="1/2", lam=F(1)),
        Background("quasi_einstein", 3, F(1, 2), 2),
    ),
    "Background without lambda": (
        Background("gover_leitner", 3, 2),
        Background(kind="gover_leitner", d=3, m=F(2)),
        Background("gover_leitner", 4, 2),
    ),
    "HomogeneousFunction": (
        HomogeneousFunction(F(1, 3), ONE),
        HomogeneousFunction(weight="1/3", profile=ONE),
        HomogeneousFunction(F(2, 3), ONE),
    ),
    "GjmsPolynomial": (
        GjmsPolynomial(1, QE, "factorization", POLY),
        GjmsPolynomial(k=1, background=QE, route="factorization", poly=POLY),
        GjmsPolynomial(1, QE, "iterated", POLY),
    ),
    "SpaceformReport": (
        SpaceformReport(F(8), F(1), F(1, 3), False, False),
        SpaceformReport(R_phi=F(8), J_phi=F(1), P_coeff=F(1, 3), is_quasi_einstein=False, is_gover_leitner=False),
        SpaceformReport(F(8), F(1), F(1, 3), True, False),
    ),
    "RouteReport": (
        RouteReport(GL, 1, {}, {"iterated": "defect"}, {}),
        RouteReport(background=GL, k=1, routes={}, errors={"iterated": "defect"}, agreement={}),
        RouteReport(GL, 2, {}, {"iterated": "defect"}, {}),
    ),
    "ScatteringSolution": (
        ScatteringSolution(1, F(7, 2), GL, V, POLY),
        ScatteringSolution(k=1, s=F(7, 2), background=GL, v_coeffs=V, log_coeff=POLY),
        ScatteringSolution(1, F(7, 2), GL, V, POLY + 1),
    ),
    "GreensLogReport": (
        GreensLogReport(POLY, POLY, True),
        GreensLogReport(lp=POLY, rhs=POLY, match=True),
        GreensLogReport(POLY, POLY, False),
    ),
}

# Each type's fields, in the order ==, hash and repr read them.
FIELDS = {
    Background: ("kind", "d", "m", "lam"),
    HomogeneousFunction: ("weight", "profile"),
    GjmsPolynomial: ("k", "background", "route", "poly"),
    SpaceformReport: ("R_phi", "J_phi", "P_coeff", "is_quasi_einstein", "is_gover_leitner"),
    RouteReport: ("background", "k", "routes", "errors", "agreement"),
    ScatteringSolution: ("k", "s", "background", "v_coeffs", "log_coeff"),
    GreensLogReport: ("lp", "rhs", "match"),
}

REPRS = {
    "Background": "Background(kind='quasi_einstein', d=3, m=Fraction(1, 2), lam=Fraction(1, 1))",
    "Background without lambda": "Background(kind='gover_leitner', d=3, m=Fraction(2, 1), lam=None)",
    "HomogeneousFunction": "HomogeneousFunction(weight=Fraction(1, 3), profile=<(1)*rho^0 + O(rho^3)>)",
    "GjmsPolynomial": "GjmsPolynomial(k=1, background=Background(kind='quasi_einstein', d=3, m=Fraction(1, 2), "
    "lam=Fraction(1, 1)), route='factorization', poly=SigmaPoly(['-21/8', '1']))",
    "SpaceformReport": "SpaceformReport(R_phi=Fraction(8, 1), J_phi=Fraction(1, 1), P_coeff=Fraction(1, 3), "
    "is_quasi_einstein=False, is_gover_leitner=False)",
    "RouteReport": "RouteReport(background=Background(kind='gover_leitner', d=3, m=Fraction(2, 1), lam=None), "
    "k=1, routes={}, errors={'iterated': 'defect'}, agreement={})",
    "ScatteringSolution": "ScatteringSolution(k=1, s=Fraction(7, 2), background=Background(kind='gover_leitner', "
    "d=3, m=Fraction(2, 1), lam=None), v_coeffs=(SigmaPoly(['1']), SigmaPoly([])), "
    "log_coeff=SigmaPoly(['-21/8', '1']))",
    "GreensLogReport": "GreensLogReport(lp=SigmaPoly(['-21/8', '1']), rhs=SigmaPoly(['-21/8', '1']), match=True)",
}

names = pytest.mark.parametrize("name", sorted(CASES))


def values(record) -> tuple:
    return tuple(getattr(record, field) for field in FIELDS[type(record)])


def test_every_record_type_is_covered():
    assert {type(positional) for positional, _, _ in CASES.values()} == set(FIELDS)


@names
def test_positional_and_keyword_construction_agree(name):
    positional, keyword, other = CASES[name]
    assert positional == keyword and not positional != keyword
    assert values(positional) == values(keyword)
    assert positional != other


@names
def test_hash_reads_the_fields(name):
    positional, keyword, _ = CASES[name]
    if type(positional) is RouteReport:  # its dicts are unhashable
        with pytest.raises(TypeError):
            hash(positional)
        return
    assert hash(positional) == hash(keyword) == hash(values(positional))


@names
def test_no_equality_across_types(name):
    positional, _, _ = CASES[name]
    assert positional != values(positional)
    for other, _, _ in CASES.values():
        if type(other) is not type(positional):
            assert positional != other


@names
def test_assignment_and_deletion_raise(name):
    record = CASES[name][0]
    for field in FIELDS[type(record)] + ("unknown",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert values(record) == values(CASES[name][1])


@names
def test_repr_is_pinned(name):
    assert repr(CASES[name][0]) == REPRS[name]


@names
def test_copies_and_pickles_are_equal_records(name):
    record = CASES[name][0]
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and values(clone) == values(record)


def test_background_dm_is_d_plus_m():
    for bg in (QE, GL, Background.quasi_einstein(4, "7/3", -1)):
        assert bg.dm == bg.d + bg.m and type(bg.dm) is F
        with pytest.raises(AttributeError):
            bg.dm = 0
    assert "dm" not in repr(QE)
