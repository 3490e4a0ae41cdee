import importlib.util
import random
from fractions import Fraction as F
from math import factorial, gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjms.core import AlgebraError, rat, rat_str
from gjms.sl2 import (
    NcPoly,
    _pbw_length,
    commutator,
    extract_Zk,
    falling_h_product,
    jacobi_defect,
    verify_commutator_identity,
    zk_closed_form,
)
from gjms_reference import FractionNcPoly, nc_poly_str

X, H, Y = NcPoly.x(), NcPoly.h(), NcPoly.y()


def is_normal(p):
    """Every word of p is in PBW order x^a h^b y^c."""
    return all(_pbw_length(w) == len(w) for w in p.terms)

# The sl(2) relations oriented toward the PBW order x < h < y, as a rewriting
# system: word pair -> list of (replacement word, coefficient factor).
RULES: dict[tuple[str, ...], list[tuple[tuple[str, ...], F]]] = {
    ("y", "x"): [(("x", "y"), F(1)), (("h",), F(-1))],
    ("h", "x"): [(("x", "h"), F(1)), (("x",), F(2))],
    ("y", "h"): [(("h", "y"), F(1)), (("y",), F(2))],
}


def random_order_normal_form(p: NcPoly, rng: random.Random) -> NcPoly:
    """Reference reducer, independent of the closed-form kernel: applies the
    rewriting rules one adjacent pair at a time, picking the term and the
    violation position at random.  Agreement with normal_form over random
    inputs checks both the kernel and the confluence of the rules."""
    done: list[tuple[tuple[str, ...], F]] = []
    work = list(p.terms.items())
    while work:
        word, coeff = work.pop(rng.randrange(len(work)))
        violations = [
            i for i in range(len(word) - 1) if word[i : i + 2] in RULES
        ]
        if not violations:
            done.append((word, coeff))
            continue
        i = rng.choice(violations)
        for repl, factor in RULES[word[i : i + 2]]:
            work.append((word[:i] + repl + word[i + 2 :], coeff * factor))
    return NcPoly(done)


def random_ncpoly(rng: random.Random, max_len: int = 6, n_terms: int = 4) -> NcPoly:
    items = []
    for _ in range(rng.randint(1, n_terms)):
        word = tuple(rng.choice("xhy") for _ in range(rng.randint(0, max_len)))
        items.append((word, F(rng.randint(-5, 5), rng.randint(1, 6))))
    return NcPoly(items)


def bench_workloads():
    """benchmarks/workloads.py, loaded by path (benchmarks/ is not a package)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


nc_words = st.lists(st.sampled_from("xhy"), max_size=5).map(tuple)
nc_coeffs = st.one_of(st.sampled_from([1, -1]), st.fractions(min_value=-9, max_value=9, max_denominator=12))
# every kind of scalar the arithmetic takes: ints far from +-1, bools, and
# strings naming an integer as well as Fractions
nc_scalars = st.one_of(
    nc_coeffs, st.integers(-(10**6), 10**6), st.booleans(), st.integers(-(10**6), 10**6).map(str)
)


@st.composite
def nc_term_lists(draw, words=nc_words):
    """(word, rational) pairs with mixed denominators, a few of them
    cancelling an earlier pair."""
    items = draw(st.lists(st.tuples(words, nc_coeffs), max_size=6))
    if items:
        items += [(w, -c) for w, c in draw(st.lists(st.sampled_from(items), max_size=3))]
    return items


def assert_canonical(p):
    """p's terms are nonzero Fractions, and its data is the canonical
    integer form: nonzero ints over a positive scale sharing no factor with
    every entry."""
    assert all(type(c) is F and c for c in p.terms.values())
    assert all(type(v) is int and v for v in p._nums.values())
    assert type(p._scale) is int and p._scale > 0 and gcd(p._scale, *p._nums.values()) == 1


class TestRelations:
    def test_defining_commutators(self):
        assert commutator(X, Y).normal_form() == H
        assert commutator(H, X).normal_form() == 2 * X
        assert commutator(H, Y).normal_form() == -2 * Y

    def test_jacobi(self):
        assert jacobi_defect().is_zero()

    def test_rewrite_example(self):
        # y*y*x reduces to x*y*y - 2*h*y - 2*y
        got = (Y * Y * X).normal_form()
        want = X * Y * Y - 2 * H * Y - 2 * Y
        assert got == want.normal_form() == want

    def test_normal_form_idempotent(self):
        p = (Y * H * X * Y).normal_form()
        assert is_normal(p)
        assert p.normal_form() == p

    def test_str(self):
        assert str((Y * X).normal_form()) == "-h + x*y"
        assert str(NcPoly.zero()) == "0"

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("xhy"), max_size=4).map(tuple),
                st.one_of(st.sampled_from([1, -1]), st.fractions(min_value=-9, max_value=9, max_denominator=6)),
            ),
            max_size=6,
        ).map(NcPoly)
    )
    def test_str_matches_the_reference_printer(self, p):
        assert str(p) == nc_poly_str(p)

    def test_unknown_generator_rejected(self):
        with pytest.raises(AlgebraError):
            NcPoly({("z",): 1})

    def test_confluence_random_order(self):
        rng = random.Random(1105)
        for _ in range(60):
            p = random_ncpoly(rng)
            assert random_order_normal_form(p, rng) == p.normal_form()

    @settings(max_examples=60)
    @given(nc_term_lists(st.lists(st.sampled_from("xhy"), max_size=8).map(tuple)), st.integers(0, 10**6))
    def test_normal_form_matches_rule_rewriting(self, items, seed):
        p = NcPoly(items)
        assert p.normal_form() == random_order_normal_form(p, random.Random(seed))

    def test_comparison_with_a_string(self):
        # a string that is not a rational compares unequal instead of raising
        assert (X == "x") is False and X != "x"
        assert X not in [1, "a"]
        assert NcPoly({(): F(1, 2)}) == "1/2" and NcPoly.one() == " 1 " and NcPoly.zero() == "0/3"
        assert NcPoly.one() != "1/0"

    @pytest.mark.parametrize("c", [0, 1, -3, F(1, 2), F(-7, 4)])
    def test_a_constant_hashes_as_the_number_it_equals(self, c):
        p = NcPoly({(): c})
        assert p == c and hash(p) == hash(c) == hash(F(c))
        assert p in {c} and c in {p} and p in {F(c)} and F(c) in {p}
        assert {c: "number"}[p] == "number" and {p: "constant"}[c] == "constant"
        assert NcPoly.one() in {1} and NcPoly.zero() in {0}
        assert NcPoly({(): c, ("h",): 1}) not in {c}

    @pytest.mark.parametrize("n", range(7))
    def test_append_formulas(self, n):
        # y^n h = (h + 2n) y^n,  y^n x = x y^n - n (h + n - 1) y^(n-1),  h^n x = x (h+2)^n
        assert (Y**n * H).normal_form() == H * Y**n + 2 * n * Y**n
        if n:
            want = X * Y**n - n * H * Y ** (n - 1) - n * (n - 1) * Y ** (n - 1)
            assert (Y**n * X).normal_form() == want
        assert (H**n * X).normal_form() == (X * (H + 2) ** n).normal_form()

    def test_is_normal_is_the_pbw_rank_order(self):
        assert is_normal(NcPoly({("x", "x", "h", "y", "y"): 1, (): 3}))
        for word in (("h", "x"), ("y", "x"), ("y", "h"), ("x", "y", "h")):
            assert not is_normal(NcPoly({word: 1}))
        with pytest.raises(AlgebraError):
            NcPoly({("y", "h"): 1}).substitute_h(2)
        assert NcPoly({("x", "h", "h", "y"): 3}).substitute_h(2) == NcPoly({("x", "y"): 12})

    @settings(max_examples=30)
    @given(st.integers(0, 10**6))
    def test_normal_form_is_linear(self, seed):
        rng = random.Random(seed)
        a, b = random_ncpoly(rng, max_len=4), random_ncpoly(rng, max_len=4)
        assert (a + b).normal_form() == (a.normal_form() + b.normal_form()).normal_form()


class TestCommutatorIdentities:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_yk_x(self, k):
        ok, witness = verify_commutator_identity("yk_x", k)
        assert ok, str(witness)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_xk_y(self, k):
        ok, witness = verify_commutator_identity("xk_y", k)
        assert ok, str(witness)

    def test_yk_x_k2_explicit(self):
        # y^2 x = x y^2 - 2 h y - 2 y
        assert (Y * Y * X).normal_form() == (X * Y * Y - 2 * H * Y - 2 * Y)

    def test_unknown_kind(self):
        with pytest.raises(AlgebraError):
            verify_commutator_identity("nope", 2)


class TestZkExtraction:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_closure(self, k):
        # extract_Zk internally reverifies
        #   y^(k-1) x^(k-1) = (-1)^(k-1)(k-1)! h(h+1)...(h+k-2) + x Z_k
        extract_Zk(k)

    def test_digests_match_the_benchmark_pins(self):
        workloads = bench_workloads()
        pins = workloads.Sl2Kernel.zk_sha256
        assert sorted(pins) == list(range(1, 7))
        for k, digest in pins.items():
            assert workloads.nc_digest(extract_Zk(k)) == digest, k

    # nc_digest of Z_7 .. Z_12 as the Fraction implementation computed them,
    # before NcPoly moved to integer coefficients over one scale
    ZK_SHA256 = {
        7: "d1d972ea34cff7708703aa7c22471d4c174bdeb0a46c7b2cb10a3b85c380cd68",
        8: "c6b391400d39128e2ed0dae5d284c91045e49120fbf92d48d94a39543da09b25",
        9: "567b0905558a040138fde369563e017f769439e29e5294bbec6fdfa76934e48e",
        10: "5607a1568b5a3350d9190a609b12fc2e6f7a88ebad5339c9944f8d8bc54d5c61",
        11: "035275d2cb30af051141108c58beb42e3e4edc7acbfbc50c1320cbb70aefe229",
        12: "61ea18efff1f75c5eadb8acc5b44414391ba2b5e051fcebc45c652c74c4890eb",
    }

    @pytest.mark.parametrize("k", sorted(ZK_SHA256))
    def test_digests_beyond_the_benchmark_pins(self, k):
        assert bench_workloads().nc_digest(extract_Zk(k)) == self.ZK_SHA256[k]

    def test_a_remainder_not_divisible_by_x_raises(self, monkeypatch):
        # with no rewriting the remainder keeps the word y...yx...x
        monkeypatch.setattr(NcPoly, "normal_form", lambda self: self)
        with pytest.raises(AlgebraError, match="not divisible by x"):
            extract_Zk(3)

    def test_the_closure_check_runs_its_own_normal_form(self, monkeypatch):
        calls = []
        real = NcPoly.normal_form

        def second_call_off_by_x(self):
            calls.append(self)
            out = real(self)
            return out + X if len(calls) == 2 else out

        monkeypatch.setattr(NcPoly, "normal_form", second_call_off_by_x)
        with pytest.raises(AlgebraError, match="does not close the identity"):
            extract_Zk(3)
        assert len(calls) == 2

    def test_z1_z2(self):
        assert extract_Zk(1).is_zero()
        assert extract_Zk(2) == Y

    @pytest.mark.parametrize("k", range(1, 13))
    def test_the_closed_form_is_the_rewrite(self, k):
        assert zk_closed_form(k) == extract_Zk(k)

    def test_closed_form_z3_pinned(self):
        # n = 2: j = 0 gives x y^2, j = 1 gives -4 (h + 2) y
        assert zk_closed_form(3) == X * Y * Y - 4 * H * Y - 8 * Y
        assert zk_closed_form(1).is_zero()

    def test_z3_pinned(self):
        # hand reduction of y^2 x^2 gives x^2 y^2 - 4 x h y - 8 x y + 2h^2 + 2h
        assert extract_Zk(3) == X * Y * Y - 4 * H * Y - 8 * Y

    @pytest.mark.parametrize("k", [0, -2, F(3, 2), True, 2.0])
    def test_falling_h_product_takes_only_a_positive_integer_k(self, k):
        with pytest.raises(AlgebraError, match="k must be a positive integer"):
            falling_h_product(k)

    def test_leading_term_at_special_h(self):
        # h(h+1)...(h+k-2) at h = -(k-1) is (-1)^(k-1) (k-1)!
        for k in range(1, 7):
            val = falling_h_product(k).substitute_h(-(k - 1))
            assert val == NcPoly({(): F(-1) ** (k - 1) * factorial(k - 1)})


class TestWeights:
    def test_constant_consistency(self):
        # 4^(k-1) (k-1)! times the special value of the h-product equals
        # the iterated-vs-obstruction constant (-4)^(k-1)((k-1)!)^2
        from gjms.ambient import iterated_vs_obstruction_constant

        for k in range(1, 7):
            special = F(-1) ** (k - 1) * factorial(k - 1)
            assert 4 ** (k - 1) * factorial(k - 1) * special == iterated_vs_obstruction_constant(k)


class TestNcPolyMatchesTheFractionReference:
    # integer coefficients over one scale against the dict of Fractions they
    # replaced, operation by operation
    @settings(max_examples=200)
    @given(nc_term_lists(), nc_term_lists(), st.one_of(st.just(0), nc_coeffs), st.integers(0, 3), nc_coeffs)
    def test_every_operation(self, a, b, c, n, v):
        p, q, rp, rq = NcPoly(a), NcPoly(b), FractionNcPoly(a), FractionNcPoly(b)
        results = [(p, rp), (q, rq), (p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq), (-p, -rp)]
        results += [(p + c, rp + c), (c - p, c - rp), (p * c, rp * c), (c * p, c * rp), (p * rat_str(c), rp * c)]
        results += [(p**n, rp**n), (p.normal_form(), rp.normal_form()), (q.normal_form(), rq.normal_form())]
        results.append((p.normal_form().substitute_h(v), rp.normal_form().substitute_h(v)))
        for got, ref in results:
            assert_canonical(got)
            assert got.terms == ref.terms
            assert str(got) == str(ref) == nc_poly_str(got)
            assert got.is_zero() == (not ref.terms)
            assert (got == c) == (ref == c) and (got == rat_str(c)) == (ref == c)
        assert (p == q) == (rp == rq)
        if p == q:
            assert hash(p) == hash(q)
        same = NcPoly(reversed(a))
        assert same == p and hash(same) == hash(p)

    @settings(max_examples=100)
    @given(nc_term_lists(), nc_coeffs)
    def test_substitute_h(self, a, v):
        def outcome(poly):
            try:
                return poly.substitute_h(v).terms
            except AlgebraError:
                return "raises"

        assert outcome(NcPoly(a)) == outcome(FractionNcPoly(a))

    @settings(max_examples=200)
    @given(nc_term_lists(), nc_scalars)
    def test_every_kind_of_scalar(self, a, s):
        p, rp, c = NcPoly(a), FractionNcPoly(a), rat(s)
        results = [(p + s, rp + c), (s + p, c + rp), (p - s, rp - c), (s - p, c - rp)]
        results += [(p * s, rp * c), (s * p, c * rp), (NcPoly({(): s}), FractionNcPoly({(): c}))]
        for got, ref in results:
            assert_canonical(got)
            assert got.terms == ref.terms
            assert str(got) == str(ref)
            assert (got == s) == (ref == c)
        assert (p == s) == (rp == c)

    @settings(max_examples=60)
    @given(nc_term_lists())
    def test_a_power_is_the_product_of_its_copies(self, a):
        p, product = NcPoly(a), NcPoly({(): 1})
        for n in range(5):
            assert_canonical(p**n)
            assert p**n == product
            assert (p**n).terms == (FractionNcPoly(a) ** n).terms
            product = product * p
        with pytest.raises(AlgebraError, match="negative power"):
            p**-1

    def test_generators_and_constants_are_built_once_and_canonical(self):
        # the identities and Z_k read the shared instances and must leave them as built
        for k in range(1, 6):
            extract_Zk(k), verify_commutator_identity("yk_x", k), verify_commutator_identity("xk_y", k)
        for make, terms in [
            (NcPoly.x, {("x",): 1}),
            (NcPoly.h, {("h",): 1}),
            (NcPoly.y, {("y",): 1}),
            (NcPoly.one, {(): 1}),
            (NcPoly.zero, {}),
        ]:
            p, public = make(), NcPoly(terms)
            assert p is make()
            assert_canonical(p)
            assert p == public and hash(p) == hash(public) and repr(p) == repr(public)
            assert (p._nums, p._scale) == (public._nums, public._scale) == (terms, 1)

    @settings(max_examples=60)
    @given(nc_term_lists(), nc_term_lists(), nc_scalars, st.integers(0, 3))
    def test_no_operation_changes_its_operands(self, a, b, s, n):
        # x(), h(), y(), one() and zero() are shared by every caller
        shared = [NcPoly.x(), NcPoly.h(), NcPoly.y(), NcPoly.one(), NcPoly.zero()]
        operands = [NcPoly(a), NcPoly(b), *shared]
        before = [(dict(o._nums), o._scale) for o in operands]
        results = []
        for u in operands:
            for v in operands:
                results += [u + v, u - v, u * v]
            results += [u + s, s + u, u - s, s - u, u * s, s * u, u**n, -u]
            results.append(u.normal_form().substitute_h(s))
        assert all(isinstance(r, NcPoly) for r in results)
        assert [(o._nums, o._scale) for o in operands] == before

    @pytest.mark.parametrize("k", range(1, 9))
    def test_commutator_words(self, k):
        x, y, h = FractionNcPoly({("x",): 1}), FractionNcPoly({("y",): 1}), FractionNcPoly({("h",): 1})
        ref = (y ** (k - 1) * x ** (k - 1) - F(1, k) * h**k).normal_form()
        got = (Y ** (k - 1) * X ** (k - 1) - F(1, k) * H**k).normal_form()
        assert_canonical(got)
        assert got.terms == ref.terms


class TestIntegerPath:
    def test_the_identities_make_no_fraction_and_no_public_construction(self, monkeypatch):
        counts = {"Fraction": 0, "NcPoly": 0}
        real_new, real_init = F.__new__, NcPoly.__init__

        def counting_new(cls, *args, **kwargs):
            counts["Fraction"] += 1
            return real_new(cls, *args, **kwargs)

        def counting_init(self, *args, **kwargs):
            counts["NcPoly"] += 1
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(NcPoly, "__init__", counting_init)
        for k in range(1, 9):
            for kind in ("yk_x", "xk_y"):
                assert verify_commutator_identity(kind, k)[0]
            extract_Zk(k)
        for k in range(1, 13):  # the route-ratio sweep of `verify sl2 --kmax 12`
            assert falling_h_product(k).substitute_h(-(k - 1)) == (-1) ** (k - 1) * factorial(k - 1)
        seen = dict(counts)
        NcPoly({("x",): F(1, 2)})  # the counters do count
        monkeypatch.undo()
        assert seen == {"Fraction": 0, "NcPoly": 0}
        assert counts["Fraction"] >= 1 and counts["NcPoly"] == 1
