"""Truncated power series over SigmaPoly, the polynomial second-order
operator every route applies, and the order-by-order solver.

Order bookkeeping is pessimistic: every operation records the minimum valid
order of its result, and any read beyond that order raises OrderShortfall.
Multiplication by the series variable genuinely gains one order; nothing else
does.  ``as_exact`` is the one explicit escape hatch, for series that are
known to be polynomials (all higher coefficients identically zero).

A ``PolynomialOperator`` has no order.  Its coefficients are rational
functions whose denominators divide a polynomial unit u, so it keeps u times
each of them as a polynomial, applies u*L at O(deg) products a coefficient and
divides by u with a recurrence of at most deg(u) terms.
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


class PolynomialOperator:
    """a*v*P'' + (b0 + v*b1)*P' + (c0 + x*c1)*P for the series variable v,
    with rational a, b0 and x given per application and series b1, c0, c1
    whose denominators divide a polynomial unit u (u_0 = 1, free of sigma).
    The operator has no order: an application returns P's full image, valid
    one order below P.

    Preparing multiplies u into b1, c0 and c1, raises AlgebraError unless the
    upper half of each product (and of u) vanishes at the order the series
    are given, and keeps u, u*b1, u*c0 and u*c1 as integer rows over one
    denominator D.  An application computes M = u*L*P row by row,

      M_t = sum_i u_i*(a*s + b0)*(s+1)*p_(s+1) + (s*(u*b1)_i + (u*c)_i)*p_s,

    s = t - i and c = c0 + x*c1, at O(deg) int row products a row, then
    divides by u.  With ~u = Du*u integral and Z_t = Du^t*D*E*Dp*out_t (E the
    lcm of a's, b0's and x's denominators, Dp that of P's coefficients),

      Z_t = Du^t*(D*E*Dp*M_t) - sum_(i>=1) ~u_i*Du^(i-1)*Z_(t-i)

    stays in ints, and each output coefficient is one Fraction(Z_t, Du^t*D*E*Dp).

    Row t depends on p_0..p_(t+1) only.  The operator remembers its last
    application: the next one with the same (a, b0, x) keeps the output rows
    0..L-2, L the length of the prefix its P shares with the last P, rebuilds
    the Z rows the division reads from them, scales to ints only the
    coefficients of P that the remaining rows read, and computes from row
    L-1 on.  An order-by-order solve adds one coefficient a level, so each
    level computes two rows.
    """

    __slots__ = ("var", "_den", "_du", "_u", "_b1", "_c0", "_c1", "_div", "_last")

    def __init__(self, u: TruncatedSeries, b1: TruncatedSeries, c0: TruncatedSeries, c1: TruncatedSeries):
        polys = [u] + [u * s for s in (b1, c0, c1)]
        if u.coeffs[0] != SigmaPoly.one() or any(c.degree for c in u.coeffs):
            raise AlgebraError("the unit needs constant term 1 and no sigma")
        h = min(p.order for p in polys) // 2 + 1
        if any(not c.is_zero() for p in polys for c in p.coeffs[h:]):
            raise AlgebraError(f"operator coefficients times the unit are not polynomials of degree < {h}")
        self.var = u.var
        self._den, rows = _integer_rows(c for p in polys for c in p.coeffs[:h])
        while not any(rows[h - 1 :: h]):  # drop the rows every polynomial leaves zero
            del rows[h - 1 :: h]
            h -= 1
        self._u = [r[0] if r else 0 for r in rows[:h]]
        self._b1, self._c0, self._c1 = rows[h : 2 * h], rows[2 * h : 3 * h], rows[3 * h :]
        self._du, us = _integer_rows(u.coeffs[:h])
        self._div = [(i, -r[0] * self._du ** (i - 1)) for i, r in enumerate(us) if i and r]
        # the last application: (a, b0, x), P's coefficients, the output
        # coefficients, Dp, and (a*E, b0*E, D*E*u*b1, D*E*u*c, D*E) as ints
        self._last = None

    def apply(self, a: RatLike, b0: RatLike, x: RatLike, p: TruncatedSeries) -> TruncatedSeries:
        n = p.order
        if n == 0:
            raise OrderShortfall("cannot differentiate an order-0 series")
        if p.var != self.var:
            raise VariableMismatch(f"cannot apply an operator in {self.var!r} to a series in {p.var!r}")
        key = rat(a), rat(b0), rat(x)
        if self._last is None or self._last[0] != key:
            a, b0, x = key
            e = lcm(a.denominator, b0.denominator, x.denominator)
            xi = x.numerator * (e // x.denominator)
            bs = [[e * v for v in b] for b in self._b1]
            cs = [[e * v + xi * w for v, w in zip_longest(c0, c1, fillvalue=0)] for c0, c1 in zip(self._c0, self._c1)]
            ints = a.numerator * (e // a.denominator), b0.numerator * (e // b0.denominator), bs, cs, self._den * e
            self._last = key, (), (), 1, ints
        _, held, kept, dp, (ai, b0i, bs, cs, de) = self._last
        same = 0
        for v, w in zip(held, p.coeffs):
            if v is not w and v != w:
                break
            same += 1
        start = min(max(same - 1, 0), len(kept))
        kept, reach, du = kept[:start], len(self._u) - 1, self._du
        lo = max(start - reach, 0)
        dp = lcm(dp if start else 1, *(v.denominator for c in p.coeffs[lo:] for v in c.coeffs))
        ps = [[v.numerator * (dp // v.denominator) for v in c.coeffs] for c in p.coeffs[lo:]]
        zs = {}
        for t in range(max(start - reach, 0), start):
            s = du**t * de * dp
            zs[t] = [v.numerator * (s // v.denominator) for v in kept[t].coeffs]
        width = max(map(len, bs + cs), default=0) + max(map(len, ps))
        out = []
        for t in range(start, n):
            row = [0] * width
            for i in range(min(t, reach) + 1):
                s = t - i
                if self._u[i]:
                    _add_product(row, [self._u[i] * (ai * s + b0i) * (s + 1)], ps[s + 1 - lo])
                if ps[s - lo]:
                    _add_product(row, [s * v + w for v, w in zip_longest(bs[i], cs[i], fillvalue=0)], ps[s - lo])
            dut = du**t
            z = [dut * v for v in row]
            for i, f in self._div:
                if i > t:
                    break
                zp = zs[t - i]
                z.extend([0] * (len(zp) - len(z)))
                for q, v in enumerate(zp):
                    z[q] += f * v
            zs[t] = z
            out.append(_fraction_rows([z], dut * de * dp)[0])
        out = kept + tuple(out)
        self._last = key, p.coeffs, out, dp, (ai, b0i, bs, cs, de)
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
    every application of a PolynomialOperator.  At level j apply is
    therefore handed the partial series declared exact only through order j,
    not levels+1; it shares a_0..a_(j-2) with the last level's, so an
    operator that remembers its last application recomputes two rows, each
    O(deg) row products.
    The result is declared exact at order levels+1, so one more application
    reads the next residual.
    """
    coeffs: list[SigmaPoly] = [SigmaPoly.one()]
    for j in range(1, levels + 1):
        residual = apply(TruncatedSeries(var, coeffs, j)).coeff(j - 1)
        div = divisor(j)
        if div == 0:
            raise ObstructedWeight(j)
        coeffs.append(-residual / div)
    return TruncatedSeries(var, coeffs, levels + 1)
