"""Noncommutative polynomials in x, h, y with sl(2) relations.

The relations are [x, y] = h, [h, x] = 2x, [h, y] = -2y.  The normal form is
the PBW basis x^a h^b y^c.  A word is reduced letter by letter: the normal
form of the prefix is a combination of monomials x^a h^b y^c, and appending
one letter to a monomial has a closed form (y^c h = (h + 2c) y^c,
y^c x = x y^c - c (h + c - 1) y^(c-1) and h^b x = x (h+2)^b):

    x^a h^b y^c * y = x^a h^b y^(c+1)
    x^a h^b y^c * h = x^a h^b (h + 2c) y^c
    x^a h^b y^c * x = x^(a+1) (h+2)^b y^c - c x^a h^b (h + c - 1) y^(c-1)

Like monomials are merged after every letter, so the cost is polynomial in
the word length (see Kassel, Quantum Groups, GTM 155, for the PBW reordering
in U(sl2)).

Reading "mod Q" (= mod -4x) off a normal form means dropping every word that
starts with x, which is why x comes first in the PBW order.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Mapping

from .core import AlgebraError, RatLike, positive_k, rat, signed_sum

Word = tuple[str, ...]
Pbw = tuple[int, int, int]  # exponents (a, b, c) of x^a h^b y^c

_GENERATORS = ("x", "h", "y")

# PBW rank: a word is in normal form iff its letters are non-decreasing here.
_RANK = {"x": 0, "h": 1, "y": 2}


class NcPoly:
    """Noncommutative polynomial: a map from words over {x, h, y} to rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, RatLike] | Iterable[tuple[Word, RatLike]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, Fraction] = {}
        for word, c in items:
            word = tuple(word)
            for letter in word:
                if letter not in _GENERATORS:
                    raise AlgebraError(f"unknown generator {letter!r}")
            c = rat(c)
            if c == 0:
                continue
            new = acc.get(word, Fraction(0)) + c
            if new == 0:
                acc.pop(word, None)
            else:
                acc[word] = new
        self.terms: dict[Word, Fraction] = acc

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "NcPoly":
        return cls()

    @classmethod
    def one(cls) -> "NcPoly":
        return cls({(): 1})

    @classmethod
    def gen(cls, letter: str) -> "NcPoly":
        return cls({(letter,): 1})

    @classmethod
    def x(cls) -> "NcPoly":
        return cls.gen("x")

    @classmethod
    def h(cls) -> "NcPoly":
        return cls.gen("h")

    @classmethod
    def y(cls) -> "NcPoly":
        return cls.gen("y")

    # -- ring structure ------------------------------------------------------

    def __add__(self, other: "NcPoly | RatLike") -> "NcPoly":
        other = _as_nc(other)
        out = dict(self.terms)
        items = list(out.items()) + list(other.terms.items())
        return NcPoly(items)

    __radd__ = __add__

    def __neg__(self) -> "NcPoly":
        return NcPoly({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NcPoly | RatLike") -> "NcPoly":
        return self + (-_as_nc(other))

    def __rsub__(self, other: RatLike) -> "NcPoly":
        return _as_nc(other) + (-self)

    def __mul__(self, other: "NcPoly | RatLike") -> "NcPoly":
        if not isinstance(other, NcPoly):
            c = rat(other)
            return NcPoly({w: c * a for w, a in self.terms.items()})
        items = []
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                items.append((w1 + w2, c1 * c2))
        return NcPoly(items)

    def __rmul__(self, other: RatLike) -> "NcPoly":
        return self * other

    def __pow__(self, n: int) -> "NcPoly":
        if n < 0:
            raise AlgebraError("negative power of a noncommutative polynomial")
        out = NcPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, str)):
            other = _as_nc(other)
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- normal form -----------------------------------------------------

    def normal_form(self) -> "NcPoly":
        """Rewrite every word into PBW order x^a h^b y^c.

        Each word is appended letter by letter to a map of exponent triples
        (a, b, c), using the three closed forms in the module docstring:
        ``*y`` raises c, ``*h`` gives x^a h^b (h + 2c) y^c, and ``*x`` gives
        x^(a+1) (h+2)^b y^c - c x^a h^b (h + c - 1) y^(c-1).
        """
        acc: dict[Pbw, Fraction] = {}
        for word, coeff in self.terms.items():
            prefix = {(0, 0, 0): coeff}
            for letter in word:
                prefix = _append(prefix, letter)
            for key, c in prefix.items():
                acc[key] = acc.get(key, 0) + c
        return NcPoly((("x",) * a + ("h",) * b + ("y",) * c, v) for (a, b, c), v in acc.items())

    def substitute_h(self, value: RatLike) -> "NcPoly":
        """Replace the generator h by a scalar (valid on normal forms)."""
        val = rat(value)
        items = []
        for word, c in self.terms.items():
            n_h = sum(1 for letter in word if letter == "h")
            rest = tuple(letter for letter in word if letter != "h")
            if n_h and not _is_pbw(word):
                raise AlgebraError("h-substitution requires a PBW normal form")
            items.append((rest, c * val**n_h))
        return NcPoly(items)

    def __str__(self) -> str:
        return signed_sum((self.terms[w], "*".join(w)) for w in sorted(self.terms, key=lambda w: (len(w), w)))

    def __repr__(self) -> str:
        return f"NcPoly({self})"


def _as_nc(value: "NcPoly | RatLike") -> NcPoly:
    if isinstance(value, NcPoly):
        return value
    return NcPoly({(): rat(value)})


def _is_pbw(word: Word) -> bool:
    """True iff the letters are non-decreasing in the PBW order x < h < y."""
    return all(_RANK[a] <= _RANK[b] for a, b in zip(word, word[1:]))


def _append(terms: dict[Pbw, Fraction], letter: str) -> dict[Pbw, Fraction]:
    """(sum of coeff * x^a h^b y^c) * letter, again as PBW exponent triples."""
    out: dict[Pbw, Fraction] = {}

    def add(key: Pbw, c: Fraction) -> None:
        out[key] = out.get(key, 0) + c

    for (a, b, c), coeff in terms.items():
        if letter == "y":
            add((a, b, c + 1), coeff)
        elif letter == "h":
            add((a, b + 1, c), coeff)
            if c:
                add((a, b, c), 2 * c * coeff)
        else:
            for j in range(b + 1):  # h^b x = x (h+2)^b
                add((a + 1, j, c), comb(b, j) * 2 ** (b - j) * coeff)
            if c:  # - c x^a h^b (h + c - 1) y^(c-1)
                add((a, b + 1, c - 1), -c * coeff)
                if c > 1:
                    add((a, b, c - 1), -c * (c - 1) * coeff)
    return out


def commutator(a: NcPoly, b: NcPoly) -> NcPoly:
    return a * b - b * a


def falling_h_product(k: int) -> NcPoly:
    """h(h+1)...(h+k-2); the empty product (k = 1) is 1."""
    out = NcPoly.one()
    for i in range(k - 1):
        out = out * (NcPoly.h() + i)
    return out


def verify_commutator_identity(kind: str, k: int) -> tuple[bool, NcPoly]:
    """Check [y^k, x] = -k y^(k-1) (h-k+1) or [x^k, y] = k x^(k-1) (h+k-1).

    Returns (holds, witness) where the witness is the PBW normal form of
    LHS - RHS (zero iff the identity holds).
    """
    positive_k(k)
    x, y, h = NcPoly.x(), NcPoly.y(), NcPoly.h()
    if kind == "yk_x":
        lhs = commutator(y**k, x)
        rhs = -k * y ** (k - 1) * (h - (k - 1))
    elif kind == "xk_y":
        lhs = commutator(x**k, y)
        rhs = k * x ** (k - 1) * (h + (k - 1))
    else:
        raise AlgebraError(f"unknown identity kind {kind!r}")
    witness = (lhs - rhs).normal_form()
    return witness.is_zero(), witness


def extract_Zk(k: int) -> NcPoly:
    """Z_k with y^(k-1) x^(k-1) = (-1)^(k-1) (k-1)! h(h+1)...(h+k-2) + x Z_k.

    For k = 1 both sides are 1 and Z_1 = 0.  Fails with a diagnostic if the
    remainder is not x-divisible, which would mean the rewriting kernel is
    broken.
    """
    positive_k(k)
    x, y = NcPoly.x(), NcPoly.y()
    lead = Fraction(-1) ** (k - 1) * factorial(k - 1) * falling_h_product(k)
    remainder = (y ** (k - 1) * x ** (k - 1) - lead).normal_form()
    items = []
    for word, c in remainder.terms.items():
        if not word or word[0] != "x":
            raise AlgebraError(
                f"remainder term {word} is not divisible by x; rewriting kernel broken"
            )
        items.append((word[1:], c))
    zk = NcPoly(items)
    check = (y ** (k - 1) * x ** (k - 1) - lead - x * zk).normal_form()
    if not check.is_zero():
        raise AlgebraError("extracted Z_k does not close the identity")
    return zk


def jacobi_defect() -> NcPoly:
    """Normal form of [[x,y],h] + [[y,h],x] + [[h,x],y] (zero in any Lie algebra)."""
    x, y, h = NcPoly.x(), NcPoly.y(), NcPoly.h()
    expr = (
        commutator(commutator(x, y), h)
        + commutator(commutator(y, h), x)
        + commutator(commutator(h, x), y)
    )
    return expr.normal_form()
