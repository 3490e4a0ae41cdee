"""The Poincare-picture route: radial operator, log obstruction, Green pairing.

With g_+ = r^-2 (dr^2 + g_r) and f_+ = r^-1 f_r, conjugating the radial
eigenvalue operator by r^((d+m)/2 - k) and negating yields, on the
eigenfunction sector, the second-order operator a*r*P'' + (b0 + r*b1)*P' + c*P
with c = c0 + (s - d - m)*c1 and

    a = -1,  b0 = 2s - d - m - 1,  b1 = -T,  c0 = -r*sigma*LF,  c1 = T,

where s = (d+m)/2 + k, T is the r-picture drift trace and LF the sector
scaling of the base Laplacian; ``Background.prepared`` builds it.  The
expansion is solved order by order with divisor j(2k-j); the order-2k log
coefficient reproduces the ambient operator up to the normalization d_k and
a global sign.  ``ScatteringSolution`` keeps the solved series through order
2k-1, and the log coefficient is row 2k-1 of that series' image over 2k.

Sign pinning: the whole package uses the trace-convention weighted Laplacian
(the one the ambient formula forces), under which the log coefficient comes
out as -d_k times the ambient operator for every k.  SCATTERING_SIGN records
that -1; the tests derive it independently at k = 1 and 2 before it is used
at k = 3.

The Green pairing's log coefficient reads only v_0, the density's order-0
coefficient and p_2k, so its identity lp = -(d+m) p_2k checks the
normalization v_0 = 1, not the solve.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Any

from .ambient import GjmsPolynomial
from .backgrounds import Background
from .core import Record, SigmaPoly, positive_k, rat_str
from .series import R, TruncatedSeries, solve_order_by_order

SCATTERING_SIGN = Fraction(-1)


def log_normalization(k: int) -> Fraction:
    """d_k = 1 / (2^(2k-1) k! (k-1)!)."""
    return Fraction(1, 2 ** (2 * k - 1) * factorial(k) * factorial(k - 1))


class ScatteringSolution(Record):
    __slots__ = _fields = ("k", "s", "background", "v_coeffs", "log_coeff")

    def __init__(
        self,
        k: int,
        s: Fraction,
        background: Background,
        v_coeffs: tuple[SigmaPoly, ...],  # v_0 = 1 through v_{2k-1}
        log_coeff: SigmaPoly,  # coefficient of r^{2k} log r
    ):
        Record.__init__(self, k, s, background, v_coeffs, log_coeff)

    def to_json(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "s": rat_str(self.s),
            "background": self.background.to_json(),
            "v_coeffs": [v.to_strings() for v in self.v_coeffs],
            "log_coeff": self.log_coeff.to_strings(),
        }


def _radial_coefficients(t: TruncatedSeries, lf: TruncatedSeries) -> tuple[TruncatedSeries, ...]:
    """(b1, c0, c1) of the radial operator from T and LF."""
    return -t, -(SigmaPoly.sigma() * lf).mul_var(), t


def _radial_scalars(dm: Fraction, s: Fraction | int) -> tuple[int, Fraction, Fraction]:
    """(a, b0, x) = (-1, x + s - 1, s - (d+m)), b0 and x each made as one
    Fraction from the numerators and denominators of d+m and s."""
    n, e, den = dm.numerator, dm.denominator, s.denominator * dm.denominator
    x = s.numerator * e - n * s.denominator
    return -1, Fraction(x + s.numerator * e - den, den), Fraction(x, den)


def _ds_plain(bg: Background, s: Fraction, series: TruncatedSeries, row: int | None = None) -> TruncatedSeries | SigmaPoly:
    """D_s applied to a log-free radial series, valid one order lower.  With
    a row, only the r^row coefficient of u times the image: the image's own
    when its lower rows vanish."""
    op = bg.prepared(R, _radial_coefficients)
    args = (*_radial_scalars(bg.dm, s), series)
    return op.apply(*args) if row is None else op.row(*args, row)


def scattering_solve(bg: Background, k: int) -> ScatteringSolution:
    """Solve the radial expansion through order 2k-1 and extract the log
    coefficient at order 2k."""
    positive_k(k)
    s = bg.dm / 2 + k
    v = solve_order_by_order(R, lambda p, t: _ds_plain(bg, s, p, t), lambda j: j * (2 * k - j), 2 * k - 1)
    log = _ds_plain(bg, s, v, 2 * k - 1)
    return ScatteringSolution(k, s, bg, v.coeffs[: 2 * k], log / (2 * k))


def gjms_route_scattering(bg: Background, k: int) -> GjmsPolynomial:
    """Scattering route: the order-2k log coefficient, normalized by d_k and
    the pinned global sign."""
    sol = scattering_solve(bg, k)
    poly = SCATTERING_SIGN * sol.log_coeff / log_normalization(k)
    return GjmsPolynomial(k, bg, "scattering", poly)


class GreensLogReport(Record):
    """Both sides of the log-coefficient identity, as multiples of the formal
    pairing A = integral of v^2 against the weighted volume."""

    __slots__ = _fields = ("lp", "rhs", "match")

    def __init__(self, lp: SigmaPoly, rhs: SigmaPoly, match: bool):
        Record.__init__(self, lp, rhs, match)

    def to_json(self) -> dict[str, Any]:
        return {
            "lp": self.lp.to_strings(),
            "rhs": self.rhs.to_strings(),
            "match": self.match,
        }


def greens_log_coefficient(sol: ScatteringSolution) -> GreensLogReport:
    """log-epsilon coefficient of the boundary pairing
    -eps^(1-d-m) * U(eps) U'(eps) * density(eps), diagonal eigenfunction case,
    for the radial solution ``sol`` of ``scattering_solve``.

    The epsilon^0 coefficient of the full expression sits at order 2k of the
    series left after stripping the r^(2a-1) prefactor (a = (d+m)/2 - k).
    The identity lp = -(d+m) p_{2k} A holds independently of the global sign
    convention.
    """
    bg, k = sol.background, sol.k
    a = bg.dm / 2 - k
    # The log part (a + 2k) p r^2k W + p r^2k (a W + r W') starts at order 2k,
    # so its order-2k coefficient pairs p_2k only with the order-0
    # coefficients of W, r W' (zero) and the density.
    lp = -((a + 2 * k) + a) * sol.v_coeffs[0] * bg.density_factor(0).coeff(0) * sol.log_coeff
    rhs = -(bg.dm) * sol.log_coeff
    return GreensLogReport(lp, rhs, lp == rhs)
