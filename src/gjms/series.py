"""Truncated power series (and series with a log part) over SigmaPoly.

Order bookkeeping is pessimistic: every operation records the minimum valid
order of its result, and any read beyond that order raises OrderShortfall.
Multiplication by the series variable genuinely gains one order; nothing else
does.  ``as_exact`` is the one explicit escape hatch, for series that are
known to be polynomials (all higher coefficients identically zero).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Callable, Iterable, Union

from .core import (
    AlgebraError,
    OrderShortfall,
    RatLike,
    SigmaPoly,
    VariableMismatch,
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


def _integer_rows(coeffs: Iterable[SigmaPoly]) -> tuple[int, list[list[int]]]:
    """The lcm D of every coefficient's denominator, and one row
    [D * sigma-coefficient as int, ...] per coefficient (empty for zero)."""
    rows = [c.coeffs for c in coeffs]
    d = lcm(*(x.denominator for cs in rows for x in cs))
    return d, [[x.numerator * (d // x.denominator) for x in cs] for cs in rows]


def _add_product(row: list[int], xs: list[int], ys: list[int]) -> None:
    """row += xs * ys, all three ascending int sigma-coefficient lists."""
    for p, x in enumerate(xs):
        for q, y in enumerate(ys):
            row[p + q] += x * y


def _fraction_rows(rows: list[list[int]], den: int) -> list[SigmaPoly]:
    """Int rows over den as SigmaPolys: trailing zeros dropped as ints, then
    each coefficient one Fraction(num, den), normalized once."""
    out = []
    for row in rows:
        while row and not row[-1]:
            row.pop()
        out.append(SigmaPoly([Fraction(x, den) for x in row]))
    return out


class TruncatedSeries:
    """Order-N series in a single formal variable with SigmaPoly coefficients."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, coeffs: Iterable[CoeffLike], order: int):
        if var not in (RHO, R):
            raise AlgebraError(f"unknown series variable {var!r}")
        if order < 0:
            raise OrderShortfall("series truncation order must be >= 0")
        cs = [c if isinstance(c, SigmaPoly) else SigmaPoly.const(c) for c in coeffs]
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
        """Product truncated at the lower of the two orders.

        Integer rows: each operand's prefix is scaled once to ints over the
        lcm D of its sigma-coefficient denominators, one convolution over
        (series order, sigma degree) runs on the ints, trailing zeros are
        dropped as ints, and each output coefficient is one
        Fraction(num, Da*Db), normalized once.
        """
        if not isinstance(other, TruncatedSeries):
            c = _as_sp(other)
            return TruncatedSeries(self.var, [c * a for a in self.coeffs], self.order)
        n = self._common(other)
        da, lhs = _integer_rows(self.coeffs[: n + 1])
        db, rhs = _integer_rows(other.coeffs[: n + 1])
        lhs = [(i, r) for i, r in enumerate(lhs) if r]
        rhs = [(j, r) for j, r in enumerate(rhs) if r]
        if not lhs or not rhs:
            return TruncatedSeries.zero(self.var, n)
        width = max(len(c) for _, c in lhs) + max(len(c) for _, c in rhs) - 1
        rows = [[0] * width for _ in range(n + 1)]
        for i, ac in lhs:
            for j, bc in rhs:
                if i + j > n:
                    break
                _add_product(rows[i + j], ac, bc)
        return TruncatedSeries(self.var, _fraction_rows(rows, da * db), n)

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

    def rpow(self, exponent: RatLike) -> "TruncatedSeries":
        """(1 + u)**e for rational e; the constant term must equal 1.

        J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with a the
        coefficients of self and p those of the power, p_0 = 1 and
        n p_n = sum_{i=1..n} ((e+1) i - n) a_i p_(n-i).  The sum runs over the
        nonzero a_i only, so a factor 1 + a*v costs O(N) coefficient products.
        The rational ((e+1) i - n) / n is folded into a_i first, so each
        p_(n-i) is scaled once and p_n needs no division.
        """
        if self.coeffs[0] != SigmaPoly.one():
            raise AlgebraError("rational power needs constant term 1")
        e = rat(exponent)
        terms = [(i, a) for i, a in enumerate(self.coeffs) if i and not a.is_zero()]
        p = [SigmaPoly.one()]
        for n in range(1, self.order + 1):
            acc = SigmaPoly.zero()
            for i, a in terms:
                if i > n:
                    break
                acc = acc + (((e + 1) * i - n) / n * a) * p[n - i]
            p.append(acc)
        return TruncatedSeries(self.var, p, self.order)

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse; like ``rpow``, the constant term must equal 1."""
        return self.rpow(-1)

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


class SecondOrderOperator:
    """a*v*P'' + (b0 + v*b1)*P' + (c0 + x*c1)*P for the series variable v,
    with series coefficients b1, c0, c1 prepared once and rational a, b0, x
    given per application; valid one order below P.

    Preparing scales b1, c0 and c1 to integer rows over one denominator D.
    For P of order N (at most ``order``: b1 read to order N-2, c0 and c1 to
    N-1), the order-t coefficient (t < N) of an application is

      out_t = (a*t + b0)*(t+1)*p_(t+1) + sum_(i+j=t) (j*b1_i + c_i)*p_j,

    with c = c0 + x*c1.  The first application with given (a, b0, x) scales
    them to ints over D*E, E the lcm of their denominators, and forms c's rows
    with int operations; every application runs one convolution against P
    scaled to ints over its own Dp and makes each output coefficient one
    Fraction(num, D*E*Dp), normalized once.

    Row t depends on p_0..p_(t+1) only.  The operator remembers its last
    application: the next one with the same (a, b0, x) keeps the output rows
    0..L-2, L the length of the prefix its P shares with the last P, and
    convolves from row L-1 on.  An order-by-order solve adds one coefficient
    a level, so each level computes two rows.
    """

    __slots__ = ("var", "order", "_den", "_b1", "_c0", "_c1", "_last")

    def __init__(self, b1: TruncatedSeries, c0: TruncatedSeries, c1: TruncatedSeries):
        b1._common(c0)
        b1._common(c1)
        self.var = b1.var
        n = self.order = min(b1.order + 2, c0.order + 1, c1.order + 1)
        self._den, rows = _integer_rows(b1.coeffs[: n - 1] + c0.coeffs[:n] + c1.coeffs[:n])
        self._b1, self._c0, self._c1 = rows[: n - 1], rows[n - 1 : 2 * n - 1], rows[2 * n - 1 :]
        # the last application: (a, b0, x), P's coefficients, the output
        # coefficients, and (D*E, a, b0, e*b1, c, widest row) as ints
        self._last = None

    def apply(self, a: RatLike, b0: RatLike, x: RatLike, p: TruncatedSeries) -> TruncatedSeries:
        n = p.order
        if n == 0:
            raise OrderShortfall("cannot differentiate an order-0 series")
        if p.var != self.var:
            raise VariableMismatch(f"cannot apply an operator in {self.var!r} to a series in {p.var!r}")
        if n > self.order:
            raise OrderShortfall(f"operator prepared to order {self.order}; need order >= {n}")
        key = rat(a), rat(b0), rat(x)
        if self._last is None or self._last[0] != key:
            a, b0, x = key
            e = lcm(a.denominator, b0.denominator, x.denominator)
            d = self._den * e
            xi = x.numerator * (e // x.denominator)
            bs = (self._b1 if e == 1 else [[e * u for u in b] for b in self._b1]) + [[]]
            cs = [
                [e * u + xi * v for u, v in zip_longest(c0, c1, fillvalue=0)]
                for c0, c1 in zip(self._c0, self._c1)
            ]
            ai, b0i = a.numerator * (d // a.denominator), b0.numerator * (d // b0.denominator)
            self._last = key, (), (), (d, ai, b0i, bs, cs, max(map(len, bs + cs)))
        _, held, kept, weight = self._last
        d, ai, b0i, bs, cs, span = weight
        same = 0
        for u, v in zip(held, p.coeffs):
            if u is not v and u != v:
                break
            same += 1
        kept = kept[: max(same - 1, 0)]
        dp, ps = _integer_rows(p.coeffs)
        width = span + max(map(len, ps))
        out = []
        for t in range(len(kept), n):
            row = [0] * width
            _add_product(row, [(ai * t + b0i) * (t + 1)], ps[t + 1])
            for j in range(t + 1):
                if ps[j]:
                    w = [j * u + v for u, v in zip_longest(bs[t - j], cs[t - j], fillvalue=0)]
                    _add_product(row, w, ps[j])
            out.append(row)
        out = kept + tuple(_fraction_rows(out, d * dp))
        self._last = key, p.coeffs, out, weight
        return TruncatedSeries(p.var, out, n - 1)


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
    ObstructedWeight(j).

    apply may lose at most one order, and the order-(j-1) coefficient of its
    result may depend on input coefficients through order j only, as for
    every application of a SecondOrderOperator.  At level j apply is
    therefore handed the partial series declared exact only through order j,
    not levels+1; it shares a_0..a_(j-2) with the last level's, so an
    operator that remembers its last application recomputes two rows and
    level j costs O(j) coefficient products.
    The result is declared exact at order levels+1, so one more application
    reads the next residual.
    """
    coeffs: list[SigmaPoly] = [SigmaPoly.one()]
    for j in range(1, levels + 1):
        partial = TruncatedSeries(var, coeffs, j - 1).as_exact(j)
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
