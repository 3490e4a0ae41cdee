import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjms.core import AlgebraError
from gjms.sl2 import (
    NcPoly,
    _RULES,
    _first_violation,
    commutator,
    extract_Zk,
    falling_h_product,
    jacobi_defect,
    verify_commutator_identity,
)

X, H, Y = NcPoly.x(), NcPoly.h(), NcPoly.y()


def random_order_normal_form(p: NcPoly, rng: random.Random) -> NcPoly:
    """Independent reducer: applies the same rewriting rules, but picks the
    term and the violation position at random instead of using a fixed stack
    discipline.  Agreement with normal_form over random inputs is the
    confluence check."""
    done: list[tuple[tuple[str, ...], F]] = []
    work = list(p.terms.items())
    while work:
        word, coeff = work.pop(rng.randrange(len(work)))
        violations = [
            i for i in range(len(word) - 1) if word[i : i + 2] in _RULES
        ]
        if not violations:
            done.append((word, coeff))
            continue
        i = rng.choice(violations)
        for repl, factor in _RULES[word[i : i + 2]]:
            work.append((word[:i] + repl + word[i + 2 :], coeff * factor))
    return NcPoly(done)


def random_ncpoly(rng: random.Random, max_len: int = 6, n_terms: int = 4) -> NcPoly:
    items = []
    for _ in range(rng.randint(1, n_terms)):
        word = tuple(rng.choice("xhy") for _ in range(rng.randint(0, max_len)))
        items.append((word, F(rng.randint(-5, 5))))
    return NcPoly(items)


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
        assert p.is_normal()
        assert p.normal_form() == p

    def test_str(self):
        assert str((Y * X).normal_form()) == "-h + x*y"
        assert str(NcPoly.zero()) == "0"

    def test_unknown_generator_rejected(self):
        with pytest.raises(AlgebraError):
            NcPoly({("z",): 1})

    def test_confluence_random_order(self):
        rng = random.Random(1105)
        for _ in range(60):
            p = random_ncpoly(rng)
            assert random_order_normal_form(p, rng) == p.normal_form()

    @settings(max_examples=30)
    @given(st.integers(0, 10**6))
    def test_normal_form_is_linear(self, seed):
        rng = random.Random(seed)
        a, b = random_ncpoly(rng, max_len=4), random_ncpoly(rng, max_len=4)
        assert (a + b).normal_form() == (a.normal_form() + b.normal_form()).normal_form()


class TestCommutatorIdentities:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_yk_x(self, k):
        ok, witness = verify_commutator_identity("yk_x", k)
        assert ok, str(witness)

    @pytest.mark.parametrize("k", range(1, 7))
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
    @pytest.mark.parametrize("k", range(1, 7))
    def test_closure(self, k):
        # extract_Zk internally reverifies
        #   y^(k-1) x^(k-1) = (-1)^(k-1)(k-1)! h(h+1)...(h+k-2) + x Z_k
        extract_Zk(k)

    def test_z1_z2(self):
        assert extract_Zk(1).is_zero()
        assert extract_Zk(2) == Y

    def test_z3_pinned(self):
        # hand reduction of y^2 x^2 gives x^2 y^2 - 4 x h y - 8 x y + 2h^2 + 2h
        assert extract_Zk(3) == X * Y * Y - 4 * H * Y - 8 * Y

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
