"""Exact rational arithmetic and univariate polynomials in the eigenvalue symbol sigma.

Every quantity in this package is an arbitrary-precision rational
(``fractions.Fraction``) or a polynomial over them.  Nothing here is ever a
float: all downstream checks are decidable polynomial identities.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RatLike = Union[Fraction, int, str]


class AlgebraError(ValueError):
    """An exact-arithmetic operation was ill-posed."""


class OrderShortfall(AlgebraError):
    """A truncated series was read (or operated on) beyond its valid order."""


class VariableMismatch(AlgebraError):
    """Two series in different formal variables were combined."""


def rat(value: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise AlgebraError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_str(value: RatLike) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def signed_sum(pairs: Iterable[tuple[Fraction, str]]) -> str:
    """Print the terms c*monomial in the order given, "" the constant
    monomial and zero coefficients skipped: "-3/2*sigma^2 + sigma - 1", or
    "0" when no term remains."""
    parts: list[str] = []
    for c, mono in pairs:
        if c:
            mag = rat_str(abs(c))
            body = mag if not mono else mono if abs(c) == 1 else f"{mag}*{mono}"
            sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
            parts.append(sign + body)
    return " ".join(parts) or "0"


def positive_k(k: int) -> int:
    """Return k, or raise unless it is a positive int, not a bool (the one k >= 1 check)."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise AlgebraError("k must be a positive integer")
    return k


class Record:
    """A frozen value record.

    A subclass names its fields in ``_fields`` and lists them, then any
    attribute kept outside ==, hash and repr, in ``__slots__``; its
    ``__init__`` validates and coerces its arguments, then passes one value
    per slot, in order, to ``Record.__init__``.  ``==`` holds between records
    of one class with equal fields, and ``hash`` and ``repr`` read the fields
    in the same order; assignment and deletion raise AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # the default copy and unpickling set slots with setattr, which a record
        # refuses; rebuild through __init__ instead
        return type(self), self._values()


class SigmaPoly:
    """Polynomial in sigma with exact rational coefficients, ascending order,
    stored as one integer row: coefficient i is ints[i] / den.

    Canonical form: ``ints`` a tuple with no trailing zero over ``den > 0``
    sharing no factor with every entry, so equal polynomials have equal rows;
    the zero polynomial is ((), 1), of degree ``None``.  ``coeffs`` makes one
    ``Fraction`` per coefficient.  Arithmetic runs on the rows and reduces
    each result once (``from_row``); the series kernels read the rows too.
    A constant equals, and hashes as, the Fraction it is; it also equals a
    string naming that rational, but cannot share str's hash.
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [c if isinstance(c, (int, Fraction)) else rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        row = SigmaPoly.from_row([c.numerator * (den // c.denominator) for c in cs], den)
        self.ints, self.den = row.ints, row.den

    @staticmethod
    def from_row(ints: list[int], den: int) -> "SigmaPoly":
        """ints/den for a fresh list ints and den != 0: trailing zeros popped,
        one content gcd divided out and the denominator made positive; a row
        whose gcd is 1 is kept as it is, and an all-zero row is the shared
        zero."""
        while ints and not ints[-1]:
            ints.pop()
        if not ints:
            return _ZERO
        g = gcd(den, *ints)
        if den < 0:
            g = -g
        if g != 1:
            ints, den = [v // g for v in ints], den // g
        return SigmaPoly._made(tuple(ints), den)

    @staticmethod
    def _made(ints: tuple[int, ...], den: int) -> "SigmaPoly":
        """The polynomial of a canonical row, neither checked nor reduced."""
        p = object.__new__(SigmaPoly)
        p.ints, p.den = ints, den
        return p

    @staticmethod
    def zero() -> "SigmaPoly":
        return _ZERO

    @staticmethod
    def one() -> "SigmaPoly":
        return _ONE

    @classmethod
    def const(cls, c: RatLike) -> "SigmaPoly":
        return cls((c,))

    @classmethod
    def sigma(cls) -> "SigmaPoly":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in ascending order, one Fraction each."""
        return tuple(Fraction(x, self.den) for x in self.ints)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.ints) - 1 if self.ints else None

    def is_zero(self) -> bool:
        return not self.ints

    def is_monic(self) -> bool:
        return bool(self.ints) and self.ints[-1] == self.den

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.ints[i], self.den) if 0 <= i < len(self.ints) else Fraction(0)

    def __add__(self, other: "SigmaPoly | RatLike") -> "SigmaPoly":
        if not isinstance(other, (SigmaPoly, Fraction, int, str)):
            return NotImplemented
        other = _as_poly(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return SigmaPoly.from_row([fa * x + fb * y for x, y in zip_longest(self.ints, other.ints, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self) -> "SigmaPoly":
        return self.scaled(-1, 1)

    def __sub__(self, other: "SigmaPoly | RatLike") -> "SigmaPoly":
        if not isinstance(other, (SigmaPoly, Fraction, int, str)):
            return NotImplemented
        return self + (-_as_poly(other))

    def __rsub__(self, other: "SigmaPoly | RatLike") -> "SigmaPoly":
        return _as_poly(other) + (-self)

    def __mul__(self, other: "SigmaPoly | RatLike") -> "SigmaPoly":
        if not isinstance(other, SigmaPoly):
            if not isinstance(other, (Fraction, int, str)):
                return NotImplemented
            c = rat(other) if isinstance(other, str) else other
            return self.scaled(c.numerator, c.denominator)
        row = [0] * (len(self.ints) + len(other.ints) - 1)
        _add_product(row, self.ints, other.ints)
        return SigmaPoly.from_row(row, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RatLike) -> "SigmaPoly":
        c = rat(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self.scaled(c.denominator, c.numerator)

    def scaled(self, p: int, q: int) -> "SigmaPoly":
        """self * p/q for coprime ints p and q != 0, canonical without a
        re-reduction: with self = ints/den canonical, the result's content
        gcd is gcd(p, den) * gcd(q, *ints), and p != 0 adds no trailing zero."""
        if not p or not self.ints:
            return _ZERO
        if q < 0:
            p, q = -p, -q
        g1, g2 = gcd(p, self.den), gcd(q, *self.ints)
        f = p // g1
        return SigmaPoly._made(tuple([f * (x // g2) for x in self.ints]), (q // g2) * (self.den // g1))

    def __pow__(self, n: int) -> "SigmaPoly":
        if n < 0:
            raise AlgebraError("negative polynomial power")
        out = SigmaPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, value: RatLike) -> Fraction:
        x = rat(value)
        acc = Fraction(0)
        for c in reversed(self.ints):
            acc = acc * x + c
        return acc / self.den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, str)):
            try:
                other = _as_poly(other)
            except ValueError:  # a string that is not a rational
                return NotImplemented
        if not isinstance(other, SigmaPoly):
            return NotImplemented
        return self.ints == other.ints and self.den == other.den

    def __hash__(self) -> int:
        return hash(self.coeff(0) if len(self.ints) < 2 else (self.ints, self.den))

    def to_strings(self) -> list[str]:
        """Ascending coefficient array of "p/q" strings, each read off the
        row with one gcd: no Fraction is made."""
        den, out = self.den, []
        for x in self.ints:
            g = gcd(x, den)
            out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
        return out

    def __str__(self) -> str:
        terms = [(c, "sigma" if i == 1 else f"sigma^{i}" if i else "") for i, c in enumerate(self.coeffs)]
        return signed_sum(reversed(terms))

    def __repr__(self) -> str:
        return f"SigmaPoly({self.to_strings()})"


_ZERO, _ONE = SigmaPoly._made((), 1), SigmaPoly._made((1,), 1)


def _add_product(row: list[int], xs: Sequence[int], ys: Sequence[int]) -> None:
    """row += xs * ys, all three ascending int sigma-coefficient lists."""
    for p, x in enumerate(xs):
        for q, y in enumerate(ys):
            row[p + q] += x * y


def _as_poly(value: "SigmaPoly | RatLike") -> SigmaPoly:
    return value if isinstance(value, SigmaPoly) else SigmaPoly.const(value)
