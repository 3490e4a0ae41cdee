"""Truncated power series over SigmaPoly, the polynomial second-order
operator every route applies, and the order-by-order solver.

Order bookkeeping is pessimistic: every operation records the minimum valid
order of its result, and any read beyond that order raises OrderShortfall.
Multiplication by the series variable genuinely gains one order; nothing else
does.  ``as_exact`` is the one explicit escape hatch, for series that are
known to be polynomials (all higher coefficients identically zero).

A ``PolynomialOperator`` has no order and no memory.  Its coefficients are
rational functions whose denominators divide a polynomial unit u, so it keeps
u times each of them as a polynomial and computes u*L*P one row at a time, at
O(deg) products a row.  The full image divides each row by u with a recurrence
of at most deg(u) terms; an order-by-order solve reads one row a level.

The routes keep their series as int rows from preparation to read-off, one
reduced (ints, den) per coefficient: its sigma-coefficients times den.
``row_poly`` makes one Fraction per coefficient, where a route returns.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Callable, Iterable, Union

from .core import AlgebraError, OrderShortfall, RatLike, SigmaPoly, VariableMismatch, _as_poly, rat

RHO = "rho"
R = "r"

CoeffLike = Union[SigmaPoly, RatLike]


class ObstructedWeight(AlgebraError):
    """An order-by-order solve divides by zero at an integer level."""

    def __init__(self, level: int):
        super().__init__(f"harmonic extension obstructed at level {level}")
        self.level = level


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


def _reduced(ints: list[int], den: int) -> tuple[list[int], int]:
    """ints/den as an int row: trailing zeros dropped, one content gcd
    divided out, the denominator positive (1 for the zero row)."""
    while ints and not ints[-1]:
        ints.pop()
    g = gcd(den, *ints) if den > 0 else -gcd(den, *ints)
    return [v // g for v in ints], den // g


def as_rows(coeffs: Iterable[SigmaPoly]) -> list[tuple[list[int], int]]:
    """One int row (ints, den) per SigmaPoly, den its own lcm."""
    return [(rows[0], den) for den, rows in (_integer_rows([c]) for c in coeffs)]


def row_poly(ints: list[int], den: int) -> SigmaPoly:
    """ints/den as a SigmaPoly: trailing zeros popped from ints, then one
    Fraction(num, den) per coefficient."""
    while ints and not ints[-1]:
        ints.pop()
    return SigmaPoly([Fraction(x, den) for x in ints])


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
        return cls(var, [_as_poly(value)], order)

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
            c = _as_poly(other)
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
        return TruncatedSeries(self.var, [row_poly(r, da * db) for r in rows], n)

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
        It runs on int rows: with e + 1 = f/q, each p_n is the int sum of
        (f i - n q) a_i p_(n-i) over the lcm L of its terms' denominators,
        one row over n q L, reduced by one content gcd.
        """
        if self.coeffs[0] != SigmaPoly.one():
            raise AlgebraError("rational power needs constant term 1")
        e = rat(exponent) + 1
        terms = [(i, *as_rows([a])[0]) for i, a in enumerate(self.coeffs) if i and a.coeffs]
        p = [([1], 1)]
        for n in range(1, self.order + 1):
            live = [(i, a, da, *p[n - i]) for i, a, da in terms if i <= n]
            big = lcm(*(da * dp for _, _, da, _, dp in live))
            acc = [0] * max((len(a) + len(ps) - 1 for _, a, _, ps, _ in live), default=0)
            for i, a, da, ps, dp in live:
                f = (e.numerator * i - n * e.denominator) * (big // (da * dp))
                _add_product(acc, [f * x for x in a], ps)
            p.append(_reduced(acc, n * e.denominator * big))
        return TruncatedSeries(self.var, [row_poly(*r) for r in p], self.order)

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
    with rational a, b0 and x given per call and series b1, c0, c1 whose
    denominators divide a polynomial unit u (u_0 = 1, free of sigma).  The
    operator has no order and keeps nothing between calls.

    Preparing multiplies u into b1, c0 and c1, raises AlgebraError unless the
    upper half of each product (and of u) vanishes at the order the series
    are given, and keeps u, u*b1, u*c0 and u*c1 as integer rows over one
    denominator D.  Row t of M = u*L*P,

      M_t = sum_i u_i*(a*s + b0)*(s+1)*p_(s+1) + (s*(u*b1)_i + (u*c)_i)*p_s,

    s = t - i and c = c0 + x*c1, is O(deg) int row products over D, the lcm
    E of a's, b0's and x's denominators and that of p_(t-deg)..p_(t+1), the
    only coefficients it reads.  Row t of L*P is M_t - sum_(i>=1)
    u_i*(L*P)_(t-i), in ints over the lcm of the rows' denominators and
    reduced; ``apply`` divides every row so, for P's full image one order
    below P.  P is given as int rows, or as a TruncatedSeries to ``apply``,
    whose order and variable are checked there.
    """

    __slots__ = ("var", "_den", "_du", "_u", "_bc", "_div")

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
        # per u_i: ((u*b1)_i, (u*c0)_i, (u*c1)_i) as zipped triples of ints
        self._bc = [list(zip_longest(*r, fillvalue=0)) for r in zip(rows[h : 2 * h], rows[2 * h : 3 * h], rows[3 * h :])]
        self._du, us = _integer_rows(u.coeffs[:h])
        self._div = [(i, r[0]) for i, r in enumerate(us) if i and r]

    def _weights(self, a: Fraction | int, b0: Fraction | int, x: Fraction | int) -> tuple[int, ...]:
        """a*E, b0*E, E, x*E and D*E, E the lcm of a's, b0's and x's denominators."""
        e = lcm(a.denominator, b0.denominator, x.denominator)
        ai, b0i, xi = (v.numerator * (e // v.denominator) for v in (a, b0, x))
        return ai, b0i, e, xi, self._den * e

    def _row(self, weights: tuple, ps: list[tuple[list[int], int]], t: int) -> tuple[list[int], int]:
        """M_t as (ints, D*E*L), from P's int rows p_(t-deg)..p_(t+1)
        brought over their lcm L."""
        ai, b0i, e, xi, de = weights
        reach = min(t, len(self._u) - 1)
        window = ps[t - reach : t + 2]
        big = lcm(*(q for _, q in window))
        row = [0] * (max(map(len, self._bc)) + max(len(zs) for zs, _ in window))
        for i in range(reach + 1):
            s = t - i
            (zs, q), (ys, r) = ps[s + 1], ps[s]
            f = self._u[i] * (ai * s + b0i) * (s + 1)
            if f and zs:
                _add_product(row, [f * (big // q)], zs)
            if self._bc[i] and ys:
                m = big // r
                _add_product(row, [m * (e * (s * b + c0) + xi * c1) for b, c0, c1 in self._bc[i]], ys)
        return row, de * big

    def _divided(self, row: list[int], den: int, lower: list[tuple[list[int], int]]) -> tuple[list[int], int]:
        """Row t of L*P as a reduced int row, from M_t = row/den and L*P's
        rows 0..t-1 in lower, each an int row."""
        terms = [(f, lower[-i]) for i, f in self._div if i <= len(lower)]
        out = lcm(den, *(self._du * q for _, (_, q) in terms))
        z = [v * (out // den) for v in row]
        for f, (zs, q) in terms:
            g = f * (out // (self._du * q))
            z.extend([0] * (len(zs) - len(z)))
            for n, v in enumerate(zs):
                z[n] -= g * v
        return _reduced(z, out)

    def apply(
        self, a: Fraction | int, b0: Fraction | int, x: Fraction | int, p: TruncatedSeries | list
    ) -> TruncatedSeries | list:
        """L*P, one row fewer than P: int rows for int rows, and for a
        TruncatedSeries one of order one lower, each row one SigmaPoly."""
        if isinstance(p, TruncatedSeries):  # of order 0, its order -1 image raises OrderShortfall
            if p.var != self.var:
                raise VariableMismatch(f"cannot apply an operator in {self.var!r} to a series in {p.var!r}")
            return TruncatedSeries(p.var, [row_poly(*z) for z in self.apply(a, b0, x, as_rows(p.coeffs))], p.order - 1)
        weights, out = self._weights(a, b0, x), []
        for t in range(len(p) - 1):
            out.append(self._divided(*self._row(weights, p, t), out))
        return out

    def row(
        self, a: Fraction | int, b0: Fraction | int, x: Fraction | int, p: list, t: int, lower: list | None = None
    ) -> tuple[list[int], int]:
        """Row t of M = u*L*P as an int row, from P's int rows 0..t+1 at
        least: that of L*P when the image's rows below t vanish, as at each
        level of an order-by-order solve.  With lower, the caller's list of
        L*P's rows 0..t-1, row t of L*P itself, appended to lower."""
        if t >= len(p) - 1:
            raise OrderShortfall(f"row {t} of the image of a series with {len(p)} coefficients")
        row = self._row(self._weights(a, b0, x), p, t)
        if lower is not None:
            if len(lower) != t:
                raise AlgebraError(f"row {t} of L*P needs its {t} rows below, not {len(lower)}")
            row = self._divided(*row, lower)
            lower.append(row)
        return row


def solve_order_by_order(
    residual: Callable[[list, int], tuple[list[int], int]], divisor: Callable[[int], Fraction | int], levels: int
) -> list[tuple[list[int], int]]:
    """The jets a_0 = 1, a_1, ..., a_levels of a series solved level by
    level, as reduced int rows, then a zero row for a_(levels+1).

    Level j sets a_j = -residual(P, j-1) / divisor(j), with one content gcd,
    where P is the rows a_0..a_(j-1) and a zero row for a_j, residual(P, t) is
    row t of the operator's image of P as an int row, and divisor(j) is the
    factor the operator's principal part puts on a_j (the residual may include
    or omit that part; it sees a_j = 0).  A zero divisor raises
    ObstructedWeight(j).

    The solve has zeroed the image's rows 0..j-2 and u_0 = 1, so row j-1 of
    u*L*P is the residual: one ``PolynomialOperator.row`` a level, O(deg) int
    row products.  The zero row at the end lets one more call read the next.
    """
    jets: list[tuple[list[int], int]] = [([1], 1), ([], 1)]
    for j in range(1, levels + 1):
        ints, den = residual(jets, j - 1)
        div = divisor(j)
        if not div:
            raise ObstructedWeight(j)
        jets[j] = _reduced([-div.denominator * v for v in ints], div.numerator * den)
        jets.append(([], 1))
    return jets
