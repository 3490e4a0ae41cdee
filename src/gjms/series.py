"""Truncated power series over SigmaPoly, the polynomial second-order
operator every route applies, and the order-by-order solver.

Order bookkeeping is pessimistic: every operation records the minimum valid
order of its result, and any read beyond that order raises OrderShortfall.
Multiplication by the series variable genuinely gains one order; nothing else
does.  ``as_exact`` is the one explicit escape hatch, for series that are
known to be polynomials (all higher coefficients identically zero).

A ``PolynomialOperator`` has no order and no memory.  Its coefficients are
rational functions whose denominators divide a polynomial unit u, so it keeps
u times each of them as a polynomial and computes u*L*P one row at a time from
O(deg) terms.  A row of L*P itself adds the division by u to the same terms:
at most deg(u) multiples of the image's rows below, in the same accumulation.
The full image is built so row by row; an order-by-order solve reads one row
a level.

Every coefficient is a SigmaPoly, whose integer row (``ints`` over ``den``)
the kernels here read directly: a product, a power, an operator row and a
jet are each computed in ints over one common denominator and reduced once,
with no Fraction made until a caller reads ``coeffs``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm
from typing import Callable, Iterable, Sequence, Union

from .core import _ZERO, AlgebraError, OrderShortfall, RatLike, SigmaPoly, VariableMismatch, _add_product, _as_poly, rat

RHO = "rho"
R = "r"

CoeffLike = Union[SigmaPoly, RatLike]


class ObstructedWeight(AlgebraError):
    """An order-by-order solve divides by zero at an integer level."""

    def __init__(self, level: int):
        super().__init__(f"harmonic extension obstructed at level {level}")
        self.level = level


def _integer_rows(coeffs: Iterable[SigmaPoly]) -> tuple[int, list[list[int]]]:
    """The lcm D of the coefficients' denominators, and each coefficient's
    row brought over D (empty for zero)."""
    cs = list(coeffs)
    d = lcm(*(c.den for c in cs))
    return d, [[x * (d // c.den) for x in c.ints] for c in cs]


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

    @staticmethod
    def _of(var: str, coeffs: tuple[SigmaPoly, ...], order: int) -> "TruncatedSeries":
        """The series of a tuple of order + 1 canonical SigmaPolys, neither
        checked nor coerced: how every operation below builds its result."""
        p = object.__new__(TruncatedSeries)
        p.var, p.order, p.coeffs = var, order, coeffs
        return p

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
        if not 0 <= order <= self.order:
            raise OrderShortfall(f"cannot truncate an order-{self.order} series to order {order}")
        return TruncatedSeries._of(self.var, self.coeffs[: order + 1], order)

    def as_exact(self, order: int) -> "TruncatedSeries":
        """Re-declare a polynomial series at a higher order.

        Only valid when the caller knows all coefficients beyond the current
        order vanish identically (closed-form model data, finite jets).
        """
        if order <= self.order:
            return self.truncate(order)
        return TruncatedSeries._of(self.var, self.coeffs + (_ZERO,) * (order - self.order), order)

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
            return TruncatedSeries._of(self.var, (self.coeffs[0] + _as_poly(other),) + self.coeffs[1:], self.order)
        n = self._common(other)
        return TruncatedSeries._of(self.var, tuple(map(SigmaPoly.__add__, self.coeffs[: n + 1], other.coeffs)), n)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._of(self.var, tuple(map(SigmaPoly.__neg__, self.coeffs)), self.order)

    def __sub__(self, other: "TruncatedSeries | CoeffLike") -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -_as_poly(other))

    def __rsub__(self, other: CoeffLike) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other: "TruncatedSeries | CoeffLike") -> "TruncatedSeries":
        """Product truncated at the lower of the two orders.

        Each operand's prefix is brought over the lcm D of its coefficients'
        denominators, one convolution over (series order, sigma degree) runs
        on the ints, and each output row over Da*Db is reduced once.
        """
        if not isinstance(other, TruncatedSeries):
            c = rat(other) if isinstance(other, str) else other
            return TruncatedSeries._of(self.var, tuple(a * c for a in self.coeffs), self.order)
        n = self._common(other)
        da, lhs = _integer_rows(self.coeffs[: n + 1])
        db, rhs = _integer_rows(other.coeffs[: n + 1])
        lhs = [(i, r) for i, r in enumerate(lhs) if r]
        rhs = [(j, r) for j, r in enumerate(rhs) if r]
        if not lhs or not rhs:
            return TruncatedSeries._of(self.var, (_ZERO,) * (n + 1), n)
        width = max(len(c) for _, c in lhs) + max(len(c) for _, c in rhs) - 1
        rows = [[0] * width for _ in range(n + 1)]
        for i, ac in lhs:
            for j, bc in rhs:
                if i + j > n:
                    break
                _add_product(rows[i + j], ac, bc)
        return TruncatedSeries._of(self.var, tuple(SigmaPoly.from_row(r, da * db) for r in rows), n)

    __rmul__ = __mul__

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/d(var); the result is valid one order lower."""
        if self.order == 0:
            raise OrderShortfall("cannot differentiate an order-0 series")
        return TruncatedSeries._of(
            self.var, tuple(c.scaled(j, 1) for j, c in enumerate(self.coeffs[1:], 1)), self.order - 1
        )

    def mul_var(self) -> "TruncatedSeries":
        """Multiply by the series variable; gains one valid order."""
        return TruncatedSeries._of(self.var, (_ZERO,) + self.coeffs, self.order + 1)

    def rpow(self, exponent: RatLike) -> "TruncatedSeries":
        """(1 + u)**e for rational e; the constant term must equal 1.

        J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with a the
        coefficients of self and p those of the power, p_0 = 1 and
        n p_n = sum_{i=1..n} ((e+1) i - n) a_i p_(n-i).  The sum runs over the
        nonzero a_i and p_(n-i) only, so a factor 1 + a*v costs O(N)
        coefficient products, and a step with no such term is the shared zero.
        It runs on the rows: with e + 1 = f/q, each p_n is the int sum of
        (f i - n q) a_i p_(n-i) over the lcm L of its terms' denominators,
        one row over n q L, reduced once.
        """
        if self.coeffs[0] != SigmaPoly.one():
            raise AlgebraError("rational power needs constant term 1")
        e = rat(exponent) + 1
        terms = [(i, a) for i, a in enumerate(self.coeffs) if i and a.ints]
        p = [SigmaPoly.one()]
        for n in range(1, self.order + 1):
            live = [(i, a, b) for i, a in terms if i <= n and (b := p[n - i]).ints]
            if not live:
                p.append(_ZERO)
                continue
            big = lcm(*(a.den * b.den for _, a, b in live))
            acc = [0] * max(len(a.ints) + len(b.ints) - 1 for _, a, b in live)
            for i, a, b in live:
                f = (e.numerator * i - n * e.denominator) * (big // (a.den * b.den))
                _add_product(acc, [f * x for x in a.ints], b.ints)
            p.append(SigmaPoly.from_row(acc, n * e.denominator * big))
        return TruncatedSeries._of(self.var, tuple(p), self.order)

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
        out = [_ZERO] * (2 * self.order + 2)
        for j, c in enumerate(self.coeffs):
            out[2 * j] = c.scaled((-1) ** j, 2**j)
        return TruncatedSeries._of(R, tuple(out), 2 * self.order + 1)

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
    denominator D.  Row t of M = u*L*P, grouped by the row p_j it reads,

      M_t = sum_o (u_(o+1)*(a*(j-1) + b0)*j + j*(u*b1)_o + (u*c)_o)*p_j,

    j = t - o over the offsets o = -1..deg(u), c = c0 + x*c1 and (u*b1)_-1
    = (u*c)_-1 = 0, reads only p_(t-deg)..p_(t+1).  Row t of L*P is M_t -
    sum_(i>=1) u_i*(L*P)_(t-i).  Either is one accumulation: each nonzero
    term is an int factor over D*E (E the lcm of a's, b0's and x's
    denominators), a sigma shift and a nonzero row, p_j or (L*P)_(t-i); the
    rows are brought over the lcm L of their denominators, summed into one
    int row over D*E*L and reduced once.  Preparation keeps only the offsets
    with a nonzero u_(o+1) or sigma-entry and the nonzero u_i past u_0, so a
    structural zero (the odd u_i of the r picture, say) costs nothing, and a
    zero row of P or of L*P adds no term.  ``apply`` builds every row so, for
    P's full image one order below P.  P is a TruncatedSeries, whose order
    and variable both methods check.
    """

    __slots__ = ("var", "_den", "_u", "_bc")

    def __init__(self, u: TruncatedSeries, b1: TruncatedSeries, c0: TruncatedSeries, c1: TruncatedSeries):
        polys = [u] + [u * s for s in (b1, c0, c1)]
        if u.coeffs[0] != SigmaPoly.one() or any(c.degree for c in u.coeffs):
            raise AlgebraError("the unit needs constant term 1 and no sigma")
        h = min(p.order for p in polys) // 2 + 1
        if any(not c.is_zero() for p in polys for c in p.coeffs[h:]):
            raise AlgebraError(f"operator coefficients times the unit are not polynomials of degree < {h}")
        self.var = u.var
        self._den, rows = _integer_rows(c for p in polys for c in p.coeffs[:h])
        units = [r[0] if r else 0 for r in rows[:h]]
        self._u = [(i, f) for i, f in enumerate(units) if i and f]
        # per offset o = -1..h-1: ((u*b1)_o, (u*c0)_o, (u*c1)_o) as zipped triples of ints
        bcs = [[]] + [list(zip_longest(*r, fillvalue=0)) for r in zip(rows[h : 2 * h], rows[2 * h : 3 * h], rows[3 * h :])]
        # (o, u_(o+1), bc_o) where either is nonzero; bc_o gets a sigma^0 entry for the principal part to join
        self._bc = [(o, f, b or [(0, 0, 0)]) for o, (f, b) in enumerate(zip_longest(units, bcs, fillvalue=0), -1) if f or b]

    def _weights(self, a: Fraction | int, b0: Fraction | int, x: Fraction | int) -> tuple[int, ...]:
        """a*E, b0*E, E, x*E and D*E, E the lcm of a's, b0's and x's denominators."""
        ad, bd, xd = a.denominator, b0.denominator, x.denominator
        e = lcm(ad, bd, xd)
        return a.numerator * (e // ad), b0.numerator * (e // bd), e, x.numerator * (e // xd), self._den * e

    def _row(self, weights: tuple, ps: Sequence[SigmaPoly], t: int, lower: Sequence[SigmaPoly] | None = None) -> SigmaPoly:
        """Row t of M = u*L*P, or with lower, L*P's rows 0..t-1, row t of L*P:
        one int row over D*E*L, reduced once."""
        ai, b0i, e, xi, de = weights
        terms, dens, lens = [], [], [0]  # (factor over D*E, sigma shift, row); each row's denominator and reach
        for o, f, bc in self._bc:
            if o > t:
                break
            j = t - o
            p = ps[j]
            if p.ints:
                g = f * (ai * (j - 1) + b0i) * j  # the principal part, on the sigma^0 entry
                for k, (b, c0, c1) in enumerate(bc):
                    w = e * (j * b + c0) + xi * c1 + g
                    if w:
                        terms.append((w, k, p))
                    g = 0
                dens.append(p.den)
                lens.append(len(bc) + len(p.ints) - 1)
        if lower is not None:
            for i, f in self._u:
                if i > t:
                    break
                q = lower[t - i]
                if q.ints:
                    terms.append((-e * f, 0, q))
                    dens.append(q.den)
                    lens.append(len(q.ints))
        big = lcm(*dens)
        row = [0] * max(lens)
        for f, k, q in terms:
            m = f * (big // q.den)
            for n, v in enumerate(q.ints, k):
                row[n] += m * v
        return SigmaPoly.from_row(row, de * big)

    def _checked(self, p: TruncatedSeries) -> tuple[SigmaPoly, ...]:
        """P's coefficients, once P is known to be in the operator's variable."""
        if p.var != self.var:
            raise VariableMismatch(f"cannot apply an operator in {self.var!r} to a series in {p.var!r}")
        return p.coeffs

    def apply(self, a: Fraction | int, b0: Fraction | int, x: Fraction | int, p: TruncatedSeries) -> TruncatedSeries:
        """L*P, a series one order below P (an order-0 P raises OrderShortfall)."""
        ps, weights, out = self._checked(p), self._weights(a, b0, x), []
        if not p.order:
            raise OrderShortfall("cannot apply a second-order operator to an order-0 series")
        for t in range(p.order):
            out.append(self._row(weights, ps, t, out))
        return TruncatedSeries._of(p.var, tuple(out), p.order - 1)

    def row(
        self, a: Fraction | int, b0: Fraction | int, x: Fraction | int, p: TruncatedSeries, t: int, lower: list | None = None
    ) -> SigmaPoly:
        """Row t of M = u*L*P, t below P's order: that of L*P when the
        image's rows below t vanish, as at each level of an order-by-order
        solve.  With lower, the caller's list of L*P's rows 0..t-1, row t of
        L*P itself, appended to lower."""
        ps = self._checked(p)
        if t >= p.order:
            raise OrderShortfall(f"row {t} of the image of an order-{p.order} series")
        weights = self._weights(a, b0, x)
        if lower is None:
            return self._row(weights, ps, t)
        if len(lower) != t:
            raise AlgebraError(f"row {t} of L*P needs its {t} rows below, not {len(lower)}")
        lower.append(self._row(weights, ps, t, lower))
        return lower[-1]


def solve_order_by_order(
    var: str, residual: Callable[[TruncatedSeries, int], SigmaPoly], divisor: Callable[[int], Fraction | int], levels: int
) -> TruncatedSeries:
    """The series in var of a_0 = 1, a_1, ..., a_levels solved level by
    level, at order levels+1 with a zero top coefficient.

    Level j sets a_j = -residual(P, j-1) / divisor(j) by ``SigmaPoly.scaled``
    (the row is reduced once, by the residual), where P is the order-j series of a_0..a_(j-1) and a zero a_j, whose
    image's row t is residual(P, t), and divisor(j) is the factor the
    operator's principal part puts on a_j (the residual may include or omit
    that part; it sees a_j = 0).  A zero divisor raises ObstructedWeight(j).

    The solve has zeroed the image's rows 0..j-2 and u_0 = 1, so row j-1 of
    u*L*P is the residual: one ``PolynomialOperator.row`` a level, O(deg) int
    row products.  The zero top coefficient lets one more call read the next.
    """
    jets = [SigmaPoly.one(), _ZERO]
    for j in range(1, levels + 1):
        r, div = residual(TruncatedSeries._of(var, tuple(jets), j), j - 1), divisor(j)
        if not div:
            raise ObstructedWeight(j)
        jets[j] = r.scaled(-div.denominator, div.numerator)
        jets.append(_ZERO)
    return TruncatedSeries._of(var, tuple(jets), levels + 1)
