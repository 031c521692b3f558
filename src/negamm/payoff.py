"""LP payoff of a curve held passively, as a function of marginal price.

The pool value in numeraire units is V(p) = p * x(p) + y(p), the reserves
marked at the current price.  Because the reserves solve the curve's
first-order condition, V inherits the envelope property dV/dp = x(p): the
LP's delta is just the risky-token reserve.  Differentiating once more
gives gamma = dx/dp, which is negative everywhere on the trading branch
(the position is short convexity), and the familiar decay rate

    theta = -(sigma_iv^2 / 2) * gamma

for an implied volatility quoted in absolute price units per sqrt(time).
Volatility is arithmetic (normal / Bachelier style) on purpose: prices
here cross zero, so lognormal vol is meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import curves
from .curves import CurveSpec, Family
from .errors import DomainError, ParameterError


@dataclass(frozen=True)
class GreeksPoint:
    """Payoff and sensitivities of one curve at one price."""

    p: float
    value: float
    delta: float
    gamma: float
    theta: float


def _check_price_domain(spec: CurveSpec, p: float) -> None:
    if not math.isfinite(p):
        raise DomainError(f"price must be finite, got p={p}")
    fam = spec.family
    if fam in (Family.CPMM, Family.PARABOLA) and p <= 0.0:
        raise DomainError(
            f"{fam.value} payoff is defined for p > 0, got p={p}"
        )


def lp_value(spec: CurveSpec, p: float) -> float:
    """Pool value V(p) = p*x(p) + y(p) in token-Y units."""
    _check_price_domain(spec, p)
    state = curves.state_from_price(spec, p)
    return p * state.x + state.y


def delta(spec: CurveSpec, p: float) -> float:
    """dV/dp; equals the token-X reserve by the envelope property."""
    _check_price_domain(spec, p)
    return curves.state_from_price(spec, p).x


def gamma(spec: CurveSpec, p: float) -> float:
    """d2V/dp2 = dx/dp, in closed form per family.

    ccmm: with theta(p) = 3*pi/2 - atan(p), dx/dp = k*sin(theta)/(1+p^2)
    which collapses to -k / (1+p^2)^(3/2); at p=0 this is -k, the deepest
    point of the curve.  csemm: reciprocal of dp/dx with the implicit
    partial derivatives of the invariant.  cpmm: -L / (2 p^(3/2)).
    parabola (m=2): -2 / (1+p)^3.
    """
    _check_price_domain(spec, p)
    fam = spec.family
    if fam is Family.CCMM:
        return -spec.k / (1.0 + p * p) ** 1.5
    if fam is Family.CPMM:
        return -spec.L / (2.0 * p * math.sqrt(p))
    if fam is Family.PARABOLA:
        if spec.m != 2:
            raise ParameterError(f"greeks are defined for the m=2 parabola, got m={spec.m}")
        return -2.0 / (1.0 + p) ** 3
    return _csemm_gamma(spec, curves.csemm_x_from_price(p, spec.alpha, spec.beta))


def _csemm_gamma(spec: CurveSpec, x: float) -> float:
    """dx/dp at reserve x on the super-ellipse, by implicit differentiation.

    With F(x, y) = |x/a-1|^ua + |y/b-1|^ub - 1 and the price written as
    p = Fx/Fy, one more derivative along the branch gives

        dp/dx = Fx'/Fy + Fx^2 * Fy' / Fy^3,

    and gamma is its reciprocal.  At the exact fold x=a the local exponent
    decides: u(a) < 2 pins gamma to 0 (the price leaves the fold with
    unbounded slope), u(a) > 2 sends it to -inf (flat spot), and u(a)=2
    keeps it finite.  The u(a)=2 test carries a 1e-9 band: the circle
    parameter alpha = 2+sqrt(2) only lands near 2 in floats, and within
    any representable neighbourhood of the fold the near-2 exponent is
    indistinguishable from 2 exactly.
    """
    a, b = spec.alpha, spec.beta
    u_a = curves.csemm_exponent(a)
    u_b = curves.csemm_exponent(b)
    inner = curves._csemm_inner(x, a, u_a)
    if x == a:
        if u_a < 2.0 - 1e-9:
            return 0.0
        if u_a > 2.0 + 1e-9:
            return -math.inf
        fy = -(u_b / b)  # |y/b-1| = 1 at the fold
        fxp = u_a * (u_a - 1.0) / (a * a)
        return fy / fxp
    lgx = curves._log_abs_dev(x, a)
    sgn_x = -1.0 if x < a else 1.0
    lgy = math.log(inner) / u_b  # ln|y/b-1| on the lower branch
    fx = (u_a / a) * math.exp((u_a - 1.0) * lgx) * sgn_x
    fy = -(u_b / b) * math.exp((u_b - 1.0) * lgy)
    fxp = (u_a * (u_a - 1.0) / (a * a)) * math.exp((u_a - 2.0) * lgx)
    fyp = (u_b * (u_b - 1.0) / (b * b)) * math.exp((u_b - 2.0) * lgy)
    dpdx = fxp / fy + fx * fx * fyp / (fy * fy * fy)
    return 1.0 / dpdx


def theta(spec: CurveSpec, p: float, sigma_iv: float) -> float:
    """Time decay -(sigma_iv^2 / 2) * gamma(p), arithmetic-vol units."""
    if not math.isfinite(sigma_iv) or sigma_iv < 0.0:
        raise ParameterError(f"sigma_iv must be >= 0, got {sigma_iv}")
    return -0.5 * sigma_iv * sigma_iv * gamma(spec, p)


def greeks(spec: CurveSpec, p: float, sigma_iv: float = 0.0) -> GreeksPoint:
    """Value, delta, gamma and theta bundled for one price point."""
    if not math.isfinite(sigma_iv) or sigma_iv < 0.0:
        raise ParameterError(f"sigma_iv must be >= 0, got {sigma_iv}")
    _check_price_domain(spec, p)
    state = curves.state_from_price(spec, p)
    if spec.family is Family.CSEMM:
        g = _csemm_gamma(spec, state.x)  # one inversion serves every greek
    else:
        g = gamma(spec, p)
    return GreeksPoint(
        p=p,
        value=p * state.x + state.y,
        delta=state.x,
        gamma=g,
        theta=-0.5 * sigma_iv * sigma_iv * g,
    )
