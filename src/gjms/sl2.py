"""Noncommutative polynomials in x, h, y with sl(2) relations.

The relations are [x, y] = h, [h, x] = 2x, [h, y] = -2y.  The normal form is
the PBW basis x^a h^b y^c.  A word is reduced letter by letter: the normal
form of the prefix is a combination of monomials x^a h^b y^c, and appending
one letter to a monomial has a closed form (y^c h = (h + 2c) y^c,
y^c x = x y^c - c (h + c - 1) y^(c-1) and h^b x = x (h+2)^b):

    x^a h^b y^c * y = x^a h^b y^(c+1)
    x^a h^b y^c * h = x^a h^b (h + 2c) y^c
    x^a h^b y^c * x = x^(a+1) (h+2)^b y^c - c x^a h^b (h + c - 1) y^(c-1)

Rewriting starts after a word's longest PBW-ordered prefix, which is already
a monomial.  Like monomials are merged after every letter, so the cost is
polynomial in the word length (see Kassel, Quantum Groups, GTM 155, for the
PBW reordering in U(sl2)).

A polynomial is stored as SigmaPoly is: integer coefficients over one
positive scale, canonical so that equal polynomials have equal data.  The
closed forms above have integer coefficients, so the rewrite runs on ints and
carries the scale through unchanged; a ``Fraction`` is made only when a
caller reads ``terms``.  The generators and the constants 0 and 1 are built
once, at import, on the same trusted integer path as every result, and an int
scalar enters through its own numerator and denominator, so the identities
below and ``substitute_h`` make no ``Fraction``; the public constructor is
for callers' input only.

Reading "mod Q" (= mod -4x) off a normal form means dropping every word that
starts with x, which is why x comes first in the PBW order.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .core import AlgebraError, RatLike, positive_k, rat, signed_sum

Word = tuple[str, ...]
Pbw = tuple[int, int, int]  # exponents (a, b, c) of x^a h^b y^c

_GENERATORS = ("x", "h", "y")

# PBW rank: a word is in normal form iff its letters are non-decreasing here.
_RANK = {"x": 0, "h": 1, "y": 2}


class NcPoly:
    """Noncommutative polynomial: a map from words over {x, h, y} to rationals,
    stored as integer coefficients over one scale: word w has coefficient
    ``_nums[w] / _scale``.

    Canonical form: no zero entry, and ``_scale > 0`` sharing no factor with
    every entry, so equal polynomials have equal data; zero is ({}, 1).  The
    public constructor is for callers' input: it checks every letter and
    coefficient.  Everything else is built through ``_reduced``, which trusts
    its words: ``x()``, ``h()``, ``y()``, ``zero()`` and ``one()`` return
    instances built once at import, and each operation reduces its result
    once.  An int scalar (a bool too) enters as its own numerator and
    denominator, with no ``Fraction``; ``terms`` makes one per word.  A
    constant (the empty word alone, or zero) equals, and hashes as, the
    Fraction it is; it also equals a string naming that rational, but cannot
    share str's hash.
    """

    __slots__ = ("_nums", "_scale")

    def __init__(self, terms: Mapping[Word, RatLike] | Iterable[tuple[Word, RatLike]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, Fraction] = {}
        for word, c in items:
            word = tuple(word)
            for letter in word:
                if letter not in _GENERATORS:
                    raise AlgebraError(f"unknown generator {letter!r}")
            acc[word] = acc.get(word, 0) + rat(c)
        scale = lcm(*(c.denominator for c in acc.values()))
        p = NcPoly._reduced(((w, c.numerator * (scale // c.denominator)) for w, c in acc.items()), scale)
        self._nums, self._scale = p._nums, p._scale

    @staticmethod
    def _reduced(items: Iterable[tuple[Word, int]], scale: int) -> "NcPoly":
        """The sum of the int terms over scale > 0, for words already checked:
        like words merged, zeros dropped and one content gcd divided out."""
        acc: dict[Word, int] = {}
        for word, v in items:
            acc[word] = acc.get(word, 0) + v
        nums = {w: v for w, v in acc.items() if v}
        g = gcd(scale, *nums.values())
        if g != 1:
            nums, scale = {w: v // g for w, v in nums.items()}, scale // g
        p = object.__new__(NcPoly)
        p._nums, p._scale = nums, scale
        return p

    @property
    def terms(self) -> dict[Word, Fraction]:
        """The nonzero coefficients, one Fraction per word (a fresh dict)."""
        return {w: Fraction(v, self._scale) for w, v in self._nums.items()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "NcPoly":
        return _ZERO

    @staticmethod
    def one() -> "NcPoly":
        return _ONE

    @staticmethod
    def x() -> "NcPoly":
        return _X

    @staticmethod
    def h() -> "NcPoly":
        return _H

    @staticmethod
    def y() -> "NcPoly":
        return _Y

    # -- ring structure ------------------------------------------------------

    def _combined(self, other: "NcPoly", sign: int) -> "NcPoly":
        """self + sign * other, reduced once."""
        scale = lcm(self._scale, other._scale)
        fa, fb = scale // self._scale, sign * (scale // other._scale)
        items = [(w, fa * v) for w, v in self._nums.items()] + [(w, fb * v) for w, v in other._nums.items()]
        return NcPoly._reduced(items, scale)

    def __add__(self, other: "NcPoly | RatLike") -> "NcPoly":
        return self._combined(_as_nc(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "NcPoly":
        return NcPoly._reduced(((w, -v) for w, v in self._nums.items()), self._scale)

    def __sub__(self, other: "NcPoly | RatLike") -> "NcPoly":
        return self._combined(_as_nc(other), -1)

    def __rsub__(self, other: RatLike) -> "NcPoly":
        return _as_nc(other)._combined(self, -1)

    def __mul__(self, other: "NcPoly | RatLike") -> "NcPoly":
        if not isinstance(other, NcPoly):
            num, den = _num_den(other)
            return NcPoly._reduced(((w, num * v) for w, v in self._nums.items()), den * self._scale)
        items = [(w1 + w2, v1 * v2) for w1, v1 in self._nums.items() for w2, v2 in other._nums.items()]
        return NcPoly._reduced(items, self._scale * other._scale)

    def __rmul__(self, other: RatLike) -> "NcPoly":
        return self * other

    def __pow__(self, n: int) -> "NcPoly":
        if n < 0:
            raise AlgebraError("negative power of a noncommutative polynomial")
        out = self if n else _ONE
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, str)):
            try:
                other = _as_nc(other)
            except ValueError:  # a string that is not a rational
                return NotImplemented
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self._scale == other._scale and self._nums == other._nums

    def __hash__(self) -> int:
        if self._nums.keys() <= {()}:
            return hash(Fraction(self._nums.get((), 0), self._scale))
        return hash((frozenset(self._nums.items()), self._scale))

    def is_zero(self) -> bool:
        return not self._nums

    # -- normal form -----------------------------------------------------

    def normal_form(self) -> "NcPoly":
        """Rewrite every word into PBW order x^a h^b y^c.

        Each word's longest PBW prefix is read as one exponent triple
        (a, b, c), and its remaining letters are appended one at a time to a
        map of triples with int coefficients, using the three closed forms in
        the module docstring: ``*y`` raises c, ``*h`` gives x^a h^b (h + 2c)
        y^c, and ``*x`` gives x^(a+1) (h+2)^b y^c - c x^a h^b (h + c - 1)
        y^(c-1).  The rewrite has integer coefficients, so the scale carries
        through.
        """
        acc: dict[Pbw, int] = {}
        for word, coeff in self._nums.items():
            n = _pbw_length(word)
            prefix = {(word[:n].count("x"), word[:n].count("h"), word[:n].count("y")): coeff}
            for letter in word[n:]:
                prefix = _append(prefix, letter)
            for key, c in prefix.items():
                acc[key] = acc.get(key, 0) + c
        return NcPoly._reduced(((("x",) * a + ("h",) * b + ("y",) * c, v) for (a, b, c), v in acc.items()), self._scale)

    def substitute_h(self, value: RatLike) -> "NcPoly":
        """Replace the generator h by a scalar (valid on normal forms), on the
        integer path: with the scalar num/den, a word with n_h letters h gets
        v*num^n_h*den^(top-n_h) over scale*den^top, top the largest n_h."""
        num, den = _num_den(value)
        top = max((word.count("h") for word in self._nums), default=0)
        items = []
        for word, v in self._nums.items():
            n_h = word.count("h")
            if n_h and _pbw_length(word) < len(word):
                raise AlgebraError("h-substitution requires a PBW normal form")
            items.append((tuple(g for g in word if g != "h"), v * num**n_h * den ** (top - n_h)))
        return NcPoly._reduced(items, self._scale * den**top)

    def __str__(self) -> str:
        terms = self.terms
        return signed_sum((terms[w], "*".join(w)) for w in sorted(terms, key=lambda w: (len(w), w)))

    def __repr__(self) -> str:
        return f"NcPoly({self})"


_ZERO, _ONE = NcPoly._reduced((), 1), NcPoly._reduced([((), 1)], 1)
_X, _H, _Y = (NcPoly._reduced([((g,), 1)], 1) for g in _GENERATORS)


def _num_den(value: RatLike) -> tuple[int, int]:
    """A scalar's numerator and denominator: an int (or bool) gives its own,
    with no Fraction made; a Fraction or a rational string goes through rat."""
    c = value if isinstance(value, int) else rat(value)
    return c.numerator, c.denominator


def _as_nc(value: "NcPoly | RatLike") -> NcPoly:
    if isinstance(value, NcPoly):
        return value
    num, den = _num_den(value)
    return NcPoly._reduced([((), num)], den)


def _pbw_length(word: Word) -> int:
    """Length of word's longest prefix whose letters are non-decreasing in
    the PBW order x < h < y."""
    for n in range(1, len(word)):
        if _RANK[word[n - 1]] > _RANK[word[n]]:
            return n
    return len(word)


def _append(terms: dict[Pbw, int], letter: str) -> dict[Pbw, int]:
    """(sum of coeff * x^a h^b y^c) * letter, again as PBW exponent triples
    with int coefficients."""
    if letter == "y":  # (a, b, c) -> (a, b, c + 1) merges nothing
        return {(a, b, c + 1): v for (a, b, c), v in terms.items()}
    out: dict[Pbw, int] = {}
    get = out.get
    if letter == "h":
        for (a, b, c), v in terms.items():
            key = (a, b + 1, c)
            out[key] = get(key, 0) + v
            if c:
                key = (a, b, c)
                out[key] = get(key, 0) + 2 * c * v
        return out
    for (a, b, c), v in terms.items():
        for j in range(b + 1):  # h^b x = x (h+2)^b
            key = (a + 1, j, c)
            out[key] = get(key, 0) + comb(b, j) * 2 ** (b - j) * v
        if c:  # - c x^a h^b (h + c - 1) y^(c-1)
            key = (a, b + 1, c - 1)
            out[key] = get(key, 0) - c * v
            if c > 1:
                key = (a, b, c - 1)
                out[key] = get(key, 0) - c * (c - 1) * v
    return out


def commutator(a: NcPoly, b: NcPoly) -> NcPoly:
    return a * b - b * a


def falling_h_product(k: int) -> NcPoly:
    """h(h+1)...(h+k-2); the empty product (k = 1) is 1."""
    positive_k(k)
    out = _ONE
    for i in range(k - 1):
        out = out * (_H + i)
    return out


def verify_commutator_identity(kind: str, k: int) -> tuple[bool, NcPoly]:
    """Check [y^k, x] = -k y^(k-1) (h-k+1) or [x^k, y] = k x^(k-1) (h+k-1).

    Returns (holds, witness) where the witness is the PBW normal form of
    LHS - RHS (zero iff the identity holds).
    """
    positive_k(k)
    x, y, h = _X, _Y, _H
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
    x, y = _X, _Y
    lead = (-1) ** (k - 1) * factorial(k - 1) * falling_h_product(k)
    expr = y ** (k - 1) * x ** (k - 1) - lead
    remainder = expr.normal_form()
    for word in remainder._nums:
        if not word or word[0] != "x":
            raise AlgebraError(
                f"remainder term {word} is not divisible by x; rewriting kernel broken"
            )
    zk = NcPoly._reduced(((w[1:], v) for w, v in remainder._nums.items()), remainder._scale)
    check = (expr - x * zk).normal_form()
    if not check.is_zero():
        raise AlgebraError("extracted Z_k does not close the identity")
    return zk


def zk_closed_form(k: int) -> NcPoly:
    """Z_k = sum_(j<n) (-1)^j j! C(n,j)^2 x^(n-j-1) prod_(i<j)(h + 2(n-j) + i) y^(n-j),
    n = k - 1: the reordering of y^n x^n in U(sl2) without its h-product lead
    (j = n) and with one x taken off each other term, built as PBW words on
    ints with no rewriting, so it states Z_k independently of ``extract_Zk``."""
    n = positive_k(k) - 1
    items = []
    for j in range(n):
        hs = [1]  # ascending h-coefficients of prod_(i<j)(h + 2(n-j) + i)
        for i in range(j):
            hs = [(2 * (n - j) + i) * a + b for a, b in zip(hs + [0], [0] + hs)]
        scale = (-1) ** j * factorial(j) * comb(n, j) ** 2
        xs, ys = ("x",) * (n - j - 1), ("y",) * (n - j)
        items += [(xs + ("h",) * b + ys, scale * v) for b, v in enumerate(hs)]
    return NcPoly._reduced(items, 1)


def jacobi_defect() -> NcPoly:
    """Normal form of [[x,y],h] + [[y,h],x] + [[h,x],y] (zero in any Lie algebra)."""
    x, y, h = _X, _Y, _H
    expr = (
        commutator(commutator(x, y), h)
        + commutator(commutator(y, h), x)
        + commutator(commutator(h, x), y)
    )
    return expr.normal_form()
