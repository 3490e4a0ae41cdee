"""Exact rational arithmetic and univariate polynomials in the eigenvalue symbol sigma.

Every quantity in this package is an arbitrary-precision rational
(``fractions.Fraction``) or a polynomial over them.  Nothing here is ever a
float: all downstream checks are decidable polynomial identities.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

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


class SigmaPoly:
    """Polynomial in sigma with exact rational coefficients, ascending order.

    Canonical form: no trailing zero coefficients, each a ``Fraction``.  The
    zero polynomial has an empty coefficient tuple and degree ``None``.  The
    constructor coerces only entries that are not already ``Fraction``s (the
    integer-row series product hands it finished ones), and a product with a
    scalar or a constant polynomial scales without a convolution.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [c if isinstance(c, Fraction) else rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "SigmaPoly":
        return cls()

    @classmethod
    def one(cls) -> "SigmaPoly":
        return cls((1,))

    @classmethod
    def const(cls, c: RatLike) -> "SigmaPoly":
        return cls((rat(c),))

    @classmethod
    def sigma(cls) -> "SigmaPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "SigmaPoly | RatLike") -> "SigmaPoly":
        if not isinstance(other, (SigmaPoly, Fraction, int, str)):
            return NotImplemented
        a, b = self.coeffs, _as_poly(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        return SigmaPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self) -> "SigmaPoly":
        return SigmaPoly(-c for c in self.coeffs)

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
            return self._scaled(rat(other))
        if len(other.coeffs) == 1:
            return self._scaled(other.coeffs[0])
        if len(self.coeffs) == 1:
            return other._scaled(self.coeffs[0])
        if self.is_zero() or other.is_zero():
            return SigmaPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return SigmaPoly(out)

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "SigmaPoly":
        return SigmaPoly([c * a for a in self.coeffs] if c else ())

    def __truediv__(self, scalar: RatLike) -> "SigmaPoly":
        c = rat(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return SigmaPoly(a / c for a in self.coeffs)

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
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, str)):
            other = _as_poly(other)
        if not isinstance(other, SigmaPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def to_strings(self) -> list[str]:
        """Ascending coefficient array of "p/q" strings."""
        return [rat_str(c) for c in self.coeffs]

    def __str__(self) -> str:
        terms = [(c, "sigma" if i == 1 else f"sigma^{i}" if i else "") for i, c in enumerate(self.coeffs)]
        return signed_sum(reversed(terms))

    def __repr__(self) -> str:
        return f"SigmaPoly({[rat_str(c) for c in self.coeffs]})"


def _as_poly(value: "SigmaPoly | RatLike") -> SigmaPoly:
    if isinstance(value, SigmaPoly):
        return value
    return SigmaPoly.const(rat(value))
