"""The Poincare-picture route: radial operator, log obstruction, Green pairing.

With g_+ = r^-2 (dr^2 + g_r) and f_+ = r^-1 f_r, conjugating the radial
eigenvalue operator by r^((d+m)/2 - k) and negating yields, on the
eigenfunction sector, the second-order operator a*r*P'' + (b0 + r*b1)*P' + c*P
with

    a = -1,  b0 = 2s - d - m - 1,  b1 = -T,  c = (s - d - m) T - r*sigma*LF,

where s = (d+m)/2 + k, T is the r-picture drift trace, and LF the sector
scaling of the base Laplacian.  The expansion is solved order by order with
divisor j(2k-j); the order-2k log coefficient reproduces the ambient operator
up to the normalization d_k and a global sign.

Sign pinning: the whole package uses the trace-convention weighted Laplacian
(the one the ambient formula forces), under which the log coefficient comes
out as -d_k times the ambient operator for every k.  SCATTERING_SIGN records
that -1; the tests derive it independently at k = 1 and 2 before it is used
at k = 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Any

from .ambient import GjmsPolynomial, check_k_restriction
from .backgrounds import Background
from .core import AlgebraError, OrderShortfall, RatLike, SigmaPoly, rat, rat_str
from .series import R, LogSeries, TruncatedSeries, apply_second_order, solve_order_by_order

SCATTERING_SIGN = Fraction(-1)


def log_normalization(k: int) -> Fraction:
    """d_k = 1 / (2^(2k-1) k! (k-1)!)."""
    return Fraction(1, 2 ** (2 * k - 1) * factorial(k) * factorial(k - 1))


@dataclass(frozen=True)
class ScatteringSolution:
    k: int
    s: Fraction
    background: Background
    v_coeffs: tuple[SigmaPoly, ...]  # v_0 = 1 through v_{2k-1}
    log_coeff: SigmaPoly  # coefficient of r^{2k} log r

    def to_json(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "s": rat_str(self.s),
            "background": self.background.to_json(),
            "v_coeffs": [v.to_strings() for v in self.v_coeffs],
            "log_coeff": self.log_coeff.to_strings(),
        }


def _ds_plain(
    bg: Background, s: Fraction, series: TruncatedSeries
) -> TruncatedSeries:
    """D_s applied to a log-free radial series; the result is valid one order
    lower than the input."""
    n = series.order
    if n < 2:
        raise OrderShortfall("applying the radial operator needs order >= 2")
    trace = bg.trace_term(R, n)
    lf = bg.laplacian_factor(R, n)
    c = (s - bg.dm) * trace - (SigmaPoly.sigma() * lf).mul_var()
    return apply_second_order(-1, 2 * s - bg.dm - 1, -trace, c, series)


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
    cross = cross + (2 * s - d - m) * p.div_var()
    cross = cross - (trace * p).truncate(n - 1)
    return LogSeries(reg + cross.truncate(n - 1), logpart)


def scattering_solve(bg: Background, k: int, override: bool = False) -> ScatteringSolution:
    """Solve the radial expansion through order 2k-1 and extract the log
    coefficient at order 2k."""
    check_k_restriction(bg, k, override)
    s = bg.dm / 2 + k
    v = solve_order_by_order(
        lambda series: _ds_plain(bg, s, series), lambda j: j * (2 * k - j), 2 * k - 1, R
    )
    log_coeff = _ds_plain(bg, s, v).coeff(2 * k - 1) / (2 * k)
    return ScatteringSolution(k, s, bg, v.coeffs[: 2 * k], log_coeff)


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


def gjms_route_scattering(bg: Background, k: int, override: bool = False) -> GjmsPolynomial:
    """Scattering route: the order-2k log coefficient, normalized by d_k and
    the pinned global sign."""
    sol = scattering_solve(bg, k, override)
    poly = SCATTERING_SIGN * sol.log_coeff / log_normalization(k)
    return GjmsPolynomial(k, bg, "scattering", poly)


@dataclass(frozen=True)
class GreensLogReport:
    """Both sides of the log-coefficient identity, as multiples of the formal
    pairing A = integral of v^2 against the weighted volume."""

    lp: SigmaPoly
    rhs: SigmaPoly
    match: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "lp": self.lp.to_strings(),
            "rhs": self.rhs.to_strings(),
            "match": self.match,
        }


def greens_log_coefficient(
    bg: Background, k: int, override: bool = False
) -> GreensLogReport:
    """log-epsilon coefficient of the boundary pairing
    -eps^(1-d-m) * U(eps) U'(eps) * density(eps), diagonal eigenfunction case.

    The epsilon^0 coefficient of the full expression sits at order 2k of the
    series left after stripping the r^(2a-1) prefactor (a = (d+m)/2 - k).
    The identity lp = -(d+m) p_{2k} A holds independently of the global sign
    convention.
    """
    sol = scattering_solve(bg, k, override)
    a = bg.dm / 2 - k
    order = 2 * k
    # v_{2k} is undetermined; padding W with zeros beyond order 2k-1 is safe
    # because the log part pairs the order-2k obstruction only with the
    # order-0 coefficients of W and the density.
    w_series = TruncatedSeries(R, sol.v_coeffs, 2 * k - 1)
    density = bg.density_factor(order)
    p_shift = TruncatedSeries(
        R, [SigmaPoly.zero()] * (2 * k) + [sol.log_coeff], order
    )
    dw = w_series.derivative().mul_var().as_exact(order)  # r W'
    w_ext = w_series.as_exact(order)
    log_series = (a + 2 * k) * (p_shift * w_ext) + p_shift * (a * w_ext + dw)
    log_series = (log_series * density).truncate(order)
    lp = -log_series.coeff(2 * k)
    rhs = -(bg.dm) * sol.log_coeff
    return GreensLogReport(lp, rhs, lp == rhs)
