"""Reference code the tests compare the package against: the dense
second-order operator kernel, the route operators each built from the
accessors by its own module, the radial operator on series with a log
part (the log-ansatz check of the scattering expansion), the Green
pairing computed as the full order-2k series product, the closed-form
products as one SigmaPoly product per root, the two printers of exact
sums written out separately, Miller's power recurrence on Fractions,
SigmaPoly as a tuple of Fractions, NcPoly as a dict of Fractions with its
PBW rewrite on Fractions, and random Q*H perturbations of an extension."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest
from math import comb, lcm
from typing import Iterable, Mapping

from gjms.backgrounds import Background
from gjms.core import AlgebraError, OrderShortfall, RatLike, SigmaPoly, VariableMismatch, rat, rat_str, signed_sum
from gjms.scattering import GreensLogReport, ScatteringSolution, _ds_plain
from gjms.series import RHO, R, PolynomialOperator, TruncatedSeries, _add_product, _integer_rows
from gjms.sl2 import NcPoly, Word


class SecondOrderOperator:
    """a*v*P'' + (b0 + v*b1)*P' + (c0 + x*c1)*P for the series variable v,
    with series coefficients b1, c0, c1 prepared once and rational a, b0, x
    given per application; valid one order below P.

    Preparing scales b1, c0 and c1 to integer rows over one denominator D.
    For P of order N (at most ``order``: b1 read to order N-2, c0 and c1 to
    N-1), the order-t coefficient (t < N) of an application is the dense
    convolution

      out_t = (a*t + b0)*(t+1)*p_(t+1) + sum_(i+j=t) (j*b1_i + c_i)*p_j,

    with c = c0 + x*c1, over ints scaled by D, the lcm E of a's, b0's and x's
    denominators, and P's own Dp; each output coefficient is one
    Fraction(num, D*E*Dp).
    """

    __slots__ = ("var", "order", "_den", "_b1", "_c0", "_c1")

    def __init__(self, b1: TruncatedSeries, c0: TruncatedSeries, c1: TruncatedSeries):
        b1._common(c0)
        b1._common(c1)
        self.var = b1.var
        n = self.order = min(b1.order + 2, c0.order + 1, c1.order + 1)
        self._den, rows = _integer_rows(b1.coeffs[: n - 1] + c0.coeffs[:n] + c1.coeffs[:n])
        self._b1, self._c0, self._c1 = rows[: n - 1], rows[n - 1 : 2 * n - 1], rows[2 * n - 1 :]

    def apply(self, a: RatLike, b0: RatLike, x: RatLike, p: TruncatedSeries) -> TruncatedSeries:
        n = p.order
        if n == 0:
            raise OrderShortfall("cannot differentiate an order-0 series")
        if p.var != self.var:
            raise VariableMismatch(f"cannot apply an operator in {self.var!r} to a series in {p.var!r}")
        if n > self.order:
            raise OrderShortfall(f"operator prepared to order {self.order}; need order >= {n}")
        a, b0, x = rat(a), rat(b0), rat(x)
        e = lcm(a.denominator, b0.denominator, x.denominator)
        d = self._den * e
        ai, b0i = a.numerator * (d // a.denominator), b0.numerator * (d // b0.denominator)
        xi = x.numerator * (e // x.denominator)
        bs = [[e * u for u in b] for b in self._b1[: n - 1]] + [[]]
        cs = [
            [e * u + xi * v for u, v in zip_longest(c0, c1, fillvalue=0)]
            for c0, c1 in zip(self._c0[:n], self._c1[:n])
        ]
        dp, ps = _integer_rows(p.coeffs)
        width = max(map(len, bs + cs)) + max(map(len, ps))
        out = []
        for t in range(n):
            row = [0] * width
            _add_product(row, [(ai * t + b0i) * (t + 1)], ps[t + 1])
            for j in range(t + 1):
                if ps[j]:
                    w = [j * u + v for u, v in zip_longest(bs[t - j], cs[t - j], fillvalue=0)]
                    _add_product(row, w, ps[j])
            out.append(row)
        return TruncatedSeries(p.var, [SigmaPoly([Fraction(x, d * dp) for x in row]) for row in out], n - 1)


def miller_rpow(s: TruncatedSeries, exponent: RatLike) -> TruncatedSeries:
    """(1 + u)**e by J. C. P. Miller's recurrence in Fraction arithmetic:
    p_0 = 1 and n p_n = sum_{i=1..n} ((e+1) i - n) a_i p_(n-i), the rational
    ((e+1) i - n) / n folded into a_i, each p_n one SigmaPoly."""
    if s.coeffs[0] != SigmaPoly.one():
        raise AlgebraError("rational power needs constant term 1")
    e = rat(exponent)
    terms = [(i, a.coeffs) for i, a in enumerate(s.coeffs) if i and a.coeffs]
    p = [SigmaPoly.one()]
    for n in range(1, s.order + 1):
        acc: list[RatLike] = [0] * max((len(a) + len(p[n - i].coeffs) for i, a in terms if i <= n), default=0)
        for i, a in terms:
            if i > n:
                break
            f = ((e + 1) * i - n) / n
            for q, x in enumerate(a):
                fx = f * x
                for r, y in enumerate(p[n - i].coeffs):
                    acc[q + r] += fx * y
        p.append(SigmaPoly(acc))
    return TruncatedSeries(s.var, p, s.order)


def ambient_operator(bg: Background) -> PolynomialOperator:
    """The rho-picture operator as the ambient module built it: the two
    traces and LF read at order 8, b1 = -(Gtr + 2 MF), c1 = Gtr/2 + MF."""
    n = 8
    gtr, mf = bg.metric_trace(RHO, n), bg.measure_trace(RHO, n)
    lf = bg.laplacian_factor(RHO, n)
    return PolynomialOperator(bg.unit(RHO, n), -(gtr + 2 * mf), SigmaPoly.sigma() * lf, Fraction(1, 2) * gtr + mf)


def radial_operator(bg: Background) -> PolynomialOperator:
    """The r-picture operator as the scattering module built it, with T and
    LF read at order 16."""
    n = 16
    trace, lf = bg.trace_term(R, n), bg.laplacian_factor(R, n)
    return PolynomialOperator(bg.unit(R, n), -trace, -(SigmaPoly.sigma() * lf).mul_var(), trace)


def sigma_poly_str(p: SigmaPoly) -> str:
    """SigmaPoly's printer, highest degree first, with its own sign logic."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = rat_str(abs(c))
        else:
            mon = "sigma" if i == 1 else f"sigma^{i}"
            term = mon if abs(c) == 1 else f"{rat_str(abs(c))}*{mon}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def nc_poly_str(p: NcPoly) -> str:
    """NcPoly's printer, shortest word first, with its own sign logic."""
    if not p.terms:
        return "0"
    parts = []
    for word in sorted(p.terms, key=lambda w: (len(w), w)):
        c = p.terms[word]
        mono = "*".join(word) if word else "1"
        mag = rat_str(abs(c))
        body = mono if (abs(c) == 1 and word) else (f"{mag}*{mono}" if word else mag)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


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


def div_var(p: TruncatedSeries) -> TruncatedSeries:
    """Divide by the series variable; requires a vanishing constant term."""
    if not p.coeffs[0].is_zero():
        raise AlgebraError("series is not divisible by its variable")
    if p.order == 0:
        raise OrderShortfall("cannot shift down an order-0 series")
    return TruncatedSeries(p.var, p.coeffs[1:], p.order - 1)


def apply_Ds(bg: Background, s: RatLike, u: LogSeries) -> LogSeries:
    """Apply the radial operator to regular + logpart*log(r).

    Derivatives hitting the log produce the cross terms
    -2 P' + (2s-d-m) P/r - T P in the regular part; the log part is mapped by
    the plain operator.  P must be divisible by r.
    """
    s = rat(s)
    if u.var != R:
        raise AlgebraError("the radial operator acts on r-series")
    d, m = bg.d, bg.m
    n = u.order
    reg = _ds_plain(bg, s, u.regular)
    if u.logpart.is_zero():
        return LogSeries(reg)
    logpart = _ds_plain(bg, s, u.logpart)
    trace = bg.trace_term(R, n)
    p = u.logpart
    cross = -2 * p.derivative()
    cross = cross + (2 * s - d - m) * div_var(p)
    cross = cross - (trace * p).truncate(n - 1)
    return LogSeries(reg + cross.truncate(n - 1), logpart)


def residual_with_log(bg: Background, sol: ScatteringSolution) -> LogSeries:
    """Apply the radial operator to V_{2k-1} + p_{2k} r^{2k} log r.

    Both parts of the result vanish through order 2k-1: the log term's
    first-derivative contribution cancels the regular obstruction.
    """
    order = 2 * sol.k + 2
    regular = TruncatedSeries(R, sol.v_coeffs, len(sol.v_coeffs) - 1).as_exact(order)
    log_coeffs = [SigmaPoly.zero()] * (2 * sol.k) + [sol.log_coeff]
    logpart = TruncatedSeries(R, log_coeffs, 2 * sol.k).as_exact(order)
    return apply_Ds(bg, sol.s, LogSeries(regular, logpart))


def greens_log_coefficient_series(sol: ScatteringSolution) -> GreensLogReport:
    """The boundary pairing's log coefficient as the order-2k coefficient of
    ((a+2k) p W + p (a W + r W')) * density, with p = p_2k r^2k, W the radial
    series padded with zeros beyond order 2k-1 and a = (d+m)/2 - k."""
    bg, k = sol.background, sol.k
    a = bg.dm / 2 - k
    order = 2 * k
    w_series = TruncatedSeries(R, sol.v_coeffs, 2 * k - 1)
    density = bg.density_factor(order)
    p_shift = TruncatedSeries(R, [SigmaPoly.zero()] * (2 * k) + [sol.log_coeff], order)
    dw = w_series.derivative().mul_var().as_exact(order)  # r W'
    w_ext = w_series.as_exact(order)
    log_series = (a + 2 * k) * (p_shift * w_ext) + p_shift * (a * w_ext + dw)
    log_series = (log_series * density).truncate(order)
    lp = -log_series.coeff(2 * k)
    rhs = -(bg.dm) * sol.log_coeff
    return GreensLogReport(lp, rhs, lp == rhs)


def qe_product_reference(d: int, m: RatLike, lam: RatLike, k: int) -> SigmaPoly:
    """prod_(l=0..k-1) (sigma + 2*lam*(-(d+m)/2 + k - 2l)*((d+m)/2 + k - 1 - 2l))."""
    bg = Background.quasi_einstein(d, m, lam)
    dm = bg.dm
    poly = SigmaPoly.one()
    for l in range(k):
        root = 2 * bg.lam * (-dm / 2 + k - 2 * l) * (dm / 2 + k - 1 - 2 * l)
        poly = poly * (SigmaPoly.sigma() + SigmaPoly.const(root))
    return poly


def gl_product_reference(d: int, m: RatLike, k: int) -> SigmaPoly:
    """prod_(j=0..k-1) (sigma + (2k - 4j - d - m)*(2 - d + m - 2k + 4j)/4)."""
    bg = Background.gover_leitner(d, m)
    dm = bg.dm
    poly = SigmaPoly.one()
    for j in range(k):
        root = rat(2 * k - 4 * j - dm) * rat(2 - d + bg.m - 2 * k + 4 * j) / 4
        poly = poly * (SigmaPoly.sigma() + SigmaPoly.const(root))
    return poly


class FractionPoly:
    """SigmaPoly as a tuple of Fractions, the reference for its integer row:
    canonical with no trailing zero coefficient, each a ``Fraction``; the zero
    polynomial has an empty tuple and degree ``None``.  A product with a
    scalar or a constant polynomial scales without a convolution."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [c if isinstance(c, Fraction) else rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "FractionPoly":
        return cls()

    @classmethod
    def one(cls) -> "FractionPoly":
        return cls((1,))

    @classmethod
    def const(cls, c: RatLike) -> "FractionPoly":
        return cls((rat(c),))

    @classmethod
    def sigma(cls) -> "FractionPoly":
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

    def __add__(self, other: "FractionPoly | RatLike") -> "FractionPoly":
        if not isinstance(other, (FractionPoly, Fraction, int, str)):
            return NotImplemented
        a, b = self.coeffs, _as_fraction_poly(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        return FractionPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    __radd__ = __add__

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(-c for c in self.coeffs)

    def __sub__(self, other: "FractionPoly | RatLike") -> "FractionPoly":
        if not isinstance(other, (FractionPoly, Fraction, int, str)):
            return NotImplemented
        return self + (-_as_fraction_poly(other))

    def __rsub__(self, other: "FractionPoly | RatLike") -> "FractionPoly":
        return _as_fraction_poly(other) + (-self)

    def __mul__(self, other: "FractionPoly | RatLike") -> "FractionPoly":
        if not isinstance(other, FractionPoly):
            if not isinstance(other, (Fraction, int, str)):
                return NotImplemented
            return self._scaled(rat(other))
        if len(other.coeffs) == 1:
            return self._scaled(other.coeffs[0])
        if len(self.coeffs) == 1:
            return other._scaled(self.coeffs[0])
        if self.is_zero() or other.is_zero():
            return FractionPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "FractionPoly":
        return FractionPoly([c * a for a in self.coeffs] if c else ())

    def __truediv__(self, scalar: RatLike) -> "FractionPoly":
        c = rat(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return FractionPoly(a / c for a in self.coeffs)

    def __pow__(self, n: int) -> "FractionPoly":
        if n < 0:
            raise AlgebraError("negative polynomial power")
        out = FractionPoly.one()
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
            other = _as_fraction_poly(other)
        if not isinstance(other, FractionPoly):
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
        return f"FractionPoly({[rat_str(c) for c in self.coeffs]})"


def _as_fraction_poly(value: "FractionPoly | RatLike") -> FractionPoly:
    if isinstance(value, FractionPoly):
        return value
    return FractionPoly.const(rat(value))


_NC_RANK = {"x": 0, "h": 1, "y": 2}


class FractionNcPoly:
    """NcPoly as a dict from words to nonzero Fractions, the reference for its
    integer coefficients over one scale: every operation merges Fractions,
    and the PBW rewrite appends every letter of a word, from the empty
    prefix, with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, RatLike] | Iterable[tuple[Word, RatLike]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, Fraction] = {}
        for word, c in items:
            word = tuple(word)
            for letter in word:
                if letter not in _NC_RANK:
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

    @classmethod
    def one(cls) -> "FractionNcPoly":
        return cls({(): 1})

    def __add__(self, other: "FractionNcPoly | RatLike") -> "FractionNcPoly":
        other = _as_fraction_nc(other)
        return FractionNcPoly(list(self.terms.items()) + list(other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "FractionNcPoly":
        return FractionNcPoly({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "FractionNcPoly | RatLike") -> "FractionNcPoly":
        return self + (-_as_fraction_nc(other))

    def __rsub__(self, other: RatLike) -> "FractionNcPoly":
        return _as_fraction_nc(other) + (-self)

    def __mul__(self, other: "FractionNcPoly | RatLike") -> "FractionNcPoly":
        if not isinstance(other, FractionNcPoly):
            c = rat(other)
            return FractionNcPoly({w: c * a for w, a in self.terms.items()})
        return FractionNcPoly(
            (w1 + w2, c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in other.terms.items()
        )

    def __rmul__(self, other: RatLike) -> "FractionNcPoly":
        return self * other

    def __pow__(self, n: int) -> "FractionNcPoly":
        if n < 0:
            raise AlgebraError("negative power of a noncommutative polynomial")
        out = FractionNcPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_fraction_nc(other)
        if not isinstance(other, FractionNcPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def normal_form(self) -> "FractionNcPoly":
        acc: dict[tuple[int, int, int], Fraction] = {}
        for word, coeff in self.terms.items():
            prefix = {(0, 0, 0): coeff}
            for letter in word:
                prefix = _fraction_append(prefix, letter)
            for key, c in prefix.items():
                acc[key] = acc.get(key, 0) + c
        return FractionNcPoly((("x",) * a + ("h",) * b + ("y",) * c, v) for (a, b, c), v in acc.items())

    def substitute_h(self, value: RatLike) -> "FractionNcPoly":
        val = rat(value)
        items = []
        for word, c in self.terms.items():
            n_h = word.count("h")
            if n_h and any(_NC_RANK[a] > _NC_RANK[b] for a, b in zip(word, word[1:])):
                raise AlgebraError("h-substitution requires a PBW normal form")
            items.append((tuple(letter for letter in word if letter != "h"), c * val**n_h))
        return FractionNcPoly(items)

    def __str__(self) -> str:
        return signed_sum((self.terms[w], "*".join(w)) for w in sorted(self.terms, key=lambda w: (len(w), w)))


def _as_fraction_nc(value: "FractionNcPoly | RatLike") -> FractionNcPoly:
    return value if isinstance(value, FractionNcPoly) else FractionNcPoly({(): rat(value)})


def _fraction_append(
    terms: dict[tuple[int, int, int], Fraction], letter: str
) -> dict[tuple[int, int, int], Fraction]:
    """(sum of coeff * x^a h^b y^c) * letter: y^c h = (h + 2c) y^c,
    y^c x = x y^c - c (h + c - 1) y^(c-1) and h^b x = x (h+2)^b."""
    out: dict[tuple[int, int, int], Fraction] = {}

    def add(key: tuple[int, int, int], c: Fraction) -> None:
        out[key] = out.get(key, 0) + c

    for (a, b, c), coeff in terms.items():
        if letter == "y":
            add((a, b, c + 1), coeff)
        elif letter == "h":
            add((a, b + 1, c), coeff)
            if c:
                add((a, b, c), 2 * c * coeff)
        else:
            for j in range(b + 1):
                add((a + 1, j, c), comb(b, j) * 2 ** (b - j) * coeff)
            if c:
                add((a, b + 1, c - 1), -c * coeff)
                if c > 1:
                    add((a, b, c - 1), -c * (c - 1) * coeff)
    return out


def random_admissible_perturbation(rng: random.Random, order: int) -> TruncatedSeries:
    """Random Q*H perturbation profile: zero constant term, coefficients of
    sigma-degree at most 2 with rationals p/q, |p| <= 6, 1 <= q <= 4."""
    coeffs = [SigmaPoly.zero()]
    for _ in range(order):
        poly = SigmaPoly(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
        coeffs.append(poly)
    return TruncatedSeries(RHO, coeffs, order)
