"""Noncommutative polynomials in x, h, y with sl(2) relations.

The relations are [x, y] = h, [h, x] = 2x, [h, y] = -2y.  Oriented toward the
PBW order x^a h^b y^c they give the rewriting system

    y*x -> x*y - h,    h*x -> x*h + 2x,    y*h -> h*y + 2y.

Reading "mod Q" (= mod -4x) off a normal form means dropping every word that
starts with x, which is why x comes first in the PBW order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping

from .core import AlgebraError, RatLike, rat, rat_str

Word = tuple[str, ...]

_GENERATORS = ("x", "h", "y")

# PBW rank: a word is in normal form iff its letters are non-decreasing here.
_RANK = {"x": 0, "h": 1, "y": 2}

# word pair -> list of (replacement word, coefficient factor)
_RULES: dict[Word, list[tuple[Word, Fraction]]] = {
    ("y", "x"): [(("x", "y"), Fraction(1)), (("h",), Fraction(-1))],
    ("h", "x"): [(("x", "h"), Fraction(1)), (("x",), Fraction(2))],
    ("y", "h"): [(("h", "y"), Fraction(1)), (("y",), Fraction(2))],
}


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
        """Rewrite every word into PBW order x^a h^b y^c."""
        acc: list[tuple[Word, Fraction]] = []
        stack = list(self.terms.items())
        while stack:
            word, coeff = stack.pop()
            i = _first_violation(word)
            if i is None:
                acc.append((word, coeff))
                continue
            head, tail = word[:i], word[i + 2 :]
            for repl, factor in _RULES[word[i : i + 2]]:
                stack.append((head + repl + tail, coeff * factor))
        return NcPoly(acc)

    def is_normal(self) -> bool:
        return all(_first_violation(w) is None for w in self.terms)

    def substitute_h(self, value: RatLike) -> "NcPoly":
        """Replace the generator h by a scalar (valid on normal forms)."""
        val = rat(value)
        items = []
        for word, c in self.terms.items():
            n_h = sum(1 for letter in word if letter == "h")
            rest = tuple(letter for letter in word if letter != "h")
            if n_h and _first_violation(word) is not None:
                raise AlgebraError("h-substitution requires a PBW normal form")
            items.append((rest, c * val**n_h))
        return NcPoly(items)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms, key=lambda w: (len(w), w)):
            c = self.terms[word]
            mono = "*".join(word) if word else "1"
            mag = rat_str(abs(c))
            body = mono if (abs(c) == 1 and word) else (f"{mag}*{mono}" if word else mag)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"NcPoly({self})"


def _as_nc(value: "NcPoly | RatLike") -> NcPoly:
    if isinstance(value, NcPoly):
        return value
    return NcPoly({(): rat(value)})


def _first_violation(word: Word) -> int | None:
    for i in range(len(word) - 1):
        if _RANK[word[i]] > _RANK[word[i + 1]]:
            return i
    return None


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
    if k < 1:
        raise AlgebraError("k must be a positive integer")
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
    if k < 1:
        raise AlgebraError("k must be a positive integer")
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
