"""Truncated power series (and series with a log part) over SigmaPoly.

Order bookkeeping is pessimistic: every operation records the minimum valid
order of its result, and any read beyond that order raises OrderShortfall.
Multiplication by the series variable genuinely gains one order; nothing else
does.  ``as_exact`` is the one explicit escape hatch, for series that are
known to be polynomials (all higher coefficients identically zero).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Union

from .core import (
    AlgebraError,
    OrderShortfall,
    RatLike,
    SigmaPoly,
    VariableMismatch,
    binomial,
    rat,
)

RHO = "rho"
R = "r"

CoeffLike = Union[SigmaPoly, RatLike]


class ObstructedWeight(AlgebraError):
    """An order-by-order solve divides by zero at an integer level."""

    def __init__(self, level: int):
        super().__init__(f"harmonic extension obstructed at level {level}")
        self.level = level


def _as_sp(value: CoeffLike) -> SigmaPoly:
    return value if isinstance(value, SigmaPoly) else SigmaPoly.const(rat(value))


class TruncatedSeries:
    """Order-N series in a single formal variable with SigmaPoly coefficients."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[CoeffLike], order: int):
        if var not in (RHO, R):
            raise AlgebraError(f"unknown series variable {var!r}")
        if order < 0:
            raise OrderShortfall("series truncation order must be >= 0")
        cs = [_as_sp(c) for c in coeffs]
        if len(cs) > order + 1:
            raise AlgebraError("more coefficients than the truncation order allows")
        cs.extend(SigmaPoly.zero() for _ in range(order + 1 - len(cs)))
        self.var = var
        self.order = order
        self.coeffs: tuple[SigmaPoly, ...] = tuple(cs)

    @classmethod
    def constant(cls, var: str, value: CoeffLike, order: int) -> "TruncatedSeries":
        return cls(var, [_as_sp(value)], order)

    @classmethod
    def zero(cls, var: str, order: int) -> "TruncatedSeries":
        return cls(var, [], order)

    @classmethod
    def variable(cls, var: str, order: int) -> "TruncatedSeries":
        return cls(var, [SigmaPoly.zero(), SigmaPoly.one()], order)

    @classmethod
    def binomial_power(cls, var: str, shift: RatLike, exponent: RatLike, order: int) -> "TruncatedSeries":
        """Order-N expansion of (1 + shift*var)**exponent with exact coefficients."""
        a = rat(shift)
        e = rat(exponent)
        return cls(var, [binomial(e, n) * a**n for n in range(order + 1)], order)

    # -- access -----------------------------------------------------------

    def coeff(self, j: int) -> SigmaPoly:
        if j < 0:
            raise AlgebraError("negative series order")
        if j > self.order:
            raise OrderShortfall(
                f"coefficient at order {j} requested from a series valid to order {self.order}"
            )
        return self.coeffs[j]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderShortfall(
                f"cannot truncate an order-{self.order} series up to order {order}"
            )
        return TruncatedSeries(self.var, self.coeffs[: order + 1], order)

    def as_exact(self, order: int) -> "TruncatedSeries":
        """Re-declare a polynomial series at a higher order.

        Only valid when the caller knows all coefficients beyond the current
        order vanish identically (closed-form model data, finite jets).
        """
        if order <= self.order:
            return self.truncate(order)
        return TruncatedSeries(self.var, self.coeffs, order)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    # -- ring operations ---------------------------------------------------

    def _common(self, other: "TruncatedSeries") -> int:
        if self.var != other.var:
            raise VariableMismatch(
                f"cannot combine series in {self.var!r} and {other.var!r}"
            )
        return min(self.order, other.order)

    def __add__(self, other: "TruncatedSeries | CoeffLike") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.var, other, self.order)
        n = self._common(other)
        return TruncatedSeries(
            self.var, [self.coeffs[j] + other.coeffs[j] for j in range(n + 1)], n
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.var, [-c for c in self.coeffs], self.order)

    def __sub__(self, other: "TruncatedSeries | CoeffLike") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.var, other, self.order)
        return self + (-other)

    def __rsub__(self, other: CoeffLike) -> "TruncatedSeries":
        return TruncatedSeries.constant(self.var, other, self.order) + (-self)

    def __mul__(self, other: "TruncatedSeries | CoeffLike") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            c = _as_sp(other)
            return TruncatedSeries(self.var, [c * a for a in self.coeffs], self.order)
        n = self._common(other)
        out = [SigmaPoly.zero() for _ in range(n + 1)]
        for i in range(n + 1):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(self.var, out, n)

    __rmul__ = __mul__

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/d(var); the result is valid one order lower."""
        if self.order == 0:
            raise OrderShortfall("cannot differentiate an order-0 series")
        return TruncatedSeries(
            self.var,
            [(j + 1) * self.coeffs[j + 1] for j in range(self.order)],
            self.order - 1,
        )

    def mul_var(self) -> "TruncatedSeries":
        """Multiply by the series variable; gains one valid order."""
        return TruncatedSeries(
            self.var, (SigmaPoly.zero(),) + self.coeffs, self.order + 1
        )

    def div_var(self) -> "TruncatedSeries":
        """Divide by the series variable; requires a vanishing constant term."""
        if not self.coeffs[0].is_zero():
            raise AlgebraError("series is not divisible by its variable")
        if self.order == 0:
            raise OrderShortfall("cannot shift down an order-0 series")
        return TruncatedSeries(self.var, self.coeffs[1:], self.order - 1)

    def _unit_constant(self) -> Fraction:
        c0 = self.coeffs[0]
        if c0.degree not in (None, 0) or c0.is_zero():
            raise AlgebraError(
                "series inversion needs a nonzero rational constant term"
            )
        return c0.coeff(0)

    def rpow(self, exponent: RatLike) -> "TruncatedSeries":
        """(1 + u)**e for rational e; the constant term must equal 1."""
        if self.coeffs[0] != SigmaPoly.one():
            raise AlgebraError("rational power needs constant term 1")
        e = rat(exponent)
        u = self - 1
        acc = TruncatedSeries.constant(self.var, 1, self.order)
        upow = TruncatedSeries.constant(self.var, 1, self.order)
        for n in range(1, self.order + 1):
            upow = upow * u
            acc = acc + binomial(e, n) * upow
        return acc

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be a nonzero rational."""
        c0 = self._unit_constant()
        return (self * (1 / c0)).rpow(-1) * (1 / c0)

    def substitute_rho(self) -> "TruncatedSeries":
        """Map a rho-series to the r picture via rho = -r**2/2.

        Knowing rho-coefficients through order N determines the r-series
        through order 2N+1 (odd coefficients vanish identically).
        """
        if self.var != RHO:
            raise VariableMismatch("substitution applies to rho-series only")
        out = [SigmaPoly.zero() for _ in range(2 * self.order + 2)]
        for j, c in enumerate(self.coeffs):
            out[2 * j] = c * (Fraction(-1, 2) ** j)
        return TruncatedSeries(R, out, 2 * self.order + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.var, self.order, self.coeffs))

    def __repr__(self) -> str:
        body = " + ".join(
            f"({c})*{self.var}^{j}" for j, c in enumerate(self.coeffs) if not c.is_zero()
        )
        return f"<{body or '0'} + O({self.var}^{self.order + 1})>"


def apply_second_order(
    a: RatLike,
    b0: RatLike,
    b1: TruncatedSeries,
    c: TruncatedSeries,
    p: TruncatedSeries,
) -> TruncatedSeries:
    """a*v*P'' + (b0 + v*b1)*P' + c*P for the series variable v, with rational
    a, b0 and series coefficients b1, c; valid one order below P."""
    n = p.order
    dp = p.derivative()
    out = b0 * dp + (b1 * dp).mul_var().truncate(n - 1) + (c * p).truncate(n - 1)
    if a and n >= 2:
        out = out + a * dp.derivative().mul_var()
    return out


def solve_order_by_order(
    apply: Callable[[TruncatedSeries], TruncatedSeries],
    divisor: Callable[[int], RatLike],
    levels: int,
    var: str,
) -> TruncatedSeries:
    """The jets a_0 = 1, a_1, ..., a_levels of a series solved level by level.

    Level j sets a_j = -residual_j / divisor(j), where residual_j is the
    order-(j-1) coefficient of apply on the partial series a_0..a_(j-1) and
    divisor(j) is the factor the operator's principal part puts on a_j (apply
    may include or omit that part; it never sees a_j).  A zero divisor raises
    ObstructedWeight(j).  The result is declared exact at order levels+1, so
    one more application reads the next residual.
    """
    coeffs: list[SigmaPoly] = [SigmaPoly.one()]
    for j in range(1, levels + 1):
        partial = TruncatedSeries(var, coeffs, j - 1).as_exact(levels + 1)
        residual = apply(partial).coeff(j - 1)
        div = divisor(j)
        if div == 0:
            raise ObstructedWeight(j)
        coeffs.append(-residual / div)
    return TruncatedSeries(var, coeffs, levels).as_exact(levels + 1)


class LogSeries:
    """regular(var) + logpart(var)*log(var), both truncated at the same order."""

    __slots__ = ("regular", "logpart")

    def __init__(self, regular: TruncatedSeries, logpart: TruncatedSeries | None = None):
        if logpart is None:
            logpart = TruncatedSeries.zero(regular.var, regular.order)
        if regular.var != logpart.var:
            raise VariableMismatch("log series parts use different variables")
        n = min(regular.order, logpart.order)
        self.regular = regular.truncate(n)
        self.logpart = logpart.truncate(n)

    @property
    def var(self) -> str:
        return self.regular.var

    @property
    def order(self) -> int:
        return self.regular.order

    def __add__(self, other: "LogSeries") -> "LogSeries":
        return LogSeries(self.regular + other.regular, self.logpart + other.logpart)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogSeries):
            return NotImplemented
        return self.regular == other.regular and self.logpart == other.logpart

    def __hash__(self) -> int:
        return hash((self.regular, self.logpart))

    def __repr__(self) -> str:
        return f"LogSeries({self.regular!r}, log*{self.logpart!r})"
