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

from . import curves
from ._value import Value
from .curves import CurveSpec
from .errors import ParameterError


class GreeksPoint(Value):
    """Payoff and sensitivities of one curve at one price."""

    p: float
    value: float
    delta: float
    gamma: float
    theta: float

    def __init__(self, p: float, value: float, delta: float, gamma: float, theta: float):
        d = self.__dict__  # filled in place, as PoolState's
        d["p"] = p
        d["value"] = value
        d["delta"] = delta
        d["gamma"] = gamma
        d["theta"] = theta


def lp_value(spec: CurveSpec, p: float) -> float:
    """Pool value V(p) = p*x(p) + y(p) in token-Y units."""
    return greeks(spec, p).value


def delta(spec: CurveSpec, p: float) -> float:
    """dV/dp; equals the token-X reserve by the envelope property."""
    return greeks(spec, p).delta


def gamma(spec: CurveSpec, p: float) -> float:
    """d2V/dp2 = dx/dp, in closed form per family.

    ccmm: with theta(p) = 3*pi/2 - atan(p), dx/dp = k*sin(theta)/(1+p^2)
    which collapses to -k / (1+p^2)^(3/2); at p=0 this is -k, the deepest
    point of the curve.  csemm: reciprocal of dp/dx with the implicit
    partial derivatives of the invariant.  cpmm: -L / (2 p^(3/2)).
    parabola (m=2): -2 / (1+p)^3.
    """
    return greeks(spec, p).gamma


def theta(spec: CurveSpec, p: float, sigma_iv: float) -> float:
    """Time decay -(sigma_iv^2 / 2) * gamma(p), arithmetic-vol units; 0.0 at sigma_iv 0."""
    return greeks(spec, p, sigma_iv).theta


def greeks(spec: CurveSpec, p: float, sigma_iv: float = 0.0) -> GreeksPoint:
    """Value, delta, gamma and theta bundled for one price point."""
    if not math.isfinite(sigma_iv) or sigma_iv < 0.0:
        raise ParameterError(f"sigma_iv must be >= 0, got {sigma_iv}")
    state = curves.state_from_price(spec, p)
    try:
        g = curves._FAMILIES[spec.family].gamma(spec, p, state.x)
    except OverflowError:  # (1+p^2)^1.5 or (1+p)^3 past the float range: flat,
        g = -0.0  # as where p * p is already inf
    decay = -0.5 * sigma_iv * sigma_iv
    # No volatility, no decay: 0.0 even where gamma is -inf.
    return GreeksPoint(p, p * state.x + state.y, state.x, g, decay * g if decay else 0.0)
