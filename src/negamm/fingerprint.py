"""Liquidity fingerprints: how a curve spreads depth across price space.

The fingerprint of a curve is the derivative of its numeraire reserve
with respect to the square-root price coordinate,

    L(s) = d y / d s,   s = sqrt(p),

the same quantity concentrated-liquidity pools are parameterised by.  In
tick space the fingerprint is read at t = ln(p), i.e. L(e^{t/2}).

Negative price region: prices are mirrored onto the coordinate magnitude
s = sqrt(|p|) (tick t = ln|p|), and the density carries a minus sign; it
is the derivative taken along the signed axis -s, which is what makes the
region read as negative liquidity.  Samples are tagged with their domain
so plots can keep the two regions apart.

Closed forms exist for the circular, parabolic (m=2) and constant-product
curves; ``numeric_fingerprint`` differentiates any family's reserve function
directly and acts as the reference oracle.  Both paths read a coordinate
through one reader, ``_sqrt_price``, and the closed forms are one density
per family in sqrt-price coordinates, kept in ``_CLOSED_FORMS``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from . import curves
from ._value import Value
from .curves import CurveSpec, Family
from .errors import DomainError, InsufficientDataError, ParameterError

POSITIVE = "positive_price"
NEGATIVE = "negative_price"

SQRTPRICE = "sqrtprice"
TICK = "tick"


class FingerprintSample(Value):
    """One point of a liquidity fingerprint.

    ``coord`` is sqrt(|p|) in sqrtprice space or ln|p| in tick space;
    ``domain_sign`` records which half of the price line it came from.
    """

    coord: float
    density: float
    domain_sign: str = POSITIVE


def _domain_sign(domain: str) -> float:
    if domain == POSITIVE:
        return 1.0
    if domain == NEGATIVE:
        return -1.0
    raise ParameterError(f"domain must be {POSITIVE!r} or {NEGATIVE!r}, got {domain!r}")


def _sqrt_price(coord: float, space: str) -> float:
    """The sqrt-price magnitude s read off a sqrtprice or tick coordinate.

    A sqrt-price coordinate must be finite and > 0.  A tick t must be finite
    and reads as s = e^(t/2), which is 0.0 or inf past the float range.
    """
    if space != TICK:
        if not math.isfinite(coord) or coord <= 0.0:
            raise DomainError(f"sqrt-price coordinate must be > 0, got s={coord}")
        return coord
    if not math.isfinite(coord):
        raise DomainError(f"tick must be finite, got t={coord}")
    try:
        return math.exp(0.5 * coord)
    except OverflowError:
        return math.inf


def _ccmm_density(spec: CurveSpec, s: float, sgn: float) -> float:
    s2 = s * s
    s4 = s2 * s2
    if not math.isfinite(s4):
        return sgn * 0.0
    return sgn * 2.0 * spec.k * s2 * s / ((1.0 + s4) * math.sqrt(1.0 + s4))


def _parabola_density(spec: CurveSpec, s: float, sgn: float) -> float:
    if spec.m != 2:
        raise ParameterError("fingerprints are defined for the m=2 parabola only")
    s2 = s * s
    if sgn < 0.0:
        if s >= 1.0:
            raise DomainError(
                f"parabola negative-domain coordinate must satisfy 0 < s < 1 (tick t < 0), "
                f"got s={s}"
            )
        return -4.0 * s2 * s / (1.0 - s2) ** 3
    if not math.isfinite(s2 * s2):
        return 0.0
    try:
        return 4.0 * s2 * s / (1.0 + s2) ** 3
    except OverflowError:  # (1+s^2)^3 past s ~ 7.5e51, where the density is < 1e-154
        return 0.0


# Closed-form density by family, (spec, s, sgn) -> float, at sqrt-price
# magnitude s (0.0 or inf where a tick leaves the float range) and domain sign
# sgn; csemm has none.
_CLOSED_FORMS = {
    Family.CCMM: _ccmm_density,
    Family.PARABOLA: _parabola_density,
    # The '-' rows are the mirrored negative-liquidity branch of x*y = L^2;
    # no pool state reaches them, they exist for plots.
    Family.CPMM: lambda spec, s, sgn: sgn * spec.L,
}
_PARABOLA = CurveSpec.parabola()  # m = 2, the one parabola with a fingerprint


def _density(spec: CurveSpec, coord: float, space: str, sgn: float) -> float:
    """Closed-form density of ``spec`` at a sqrtprice or tick coordinate."""
    return _CLOSED_FORMS[spec.family](spec, _sqrt_price(coord, space), sgn)


def ccmm_liquidity_sqrtprice(s: float, k: float, sign: str = "+") -> float:
    """Circular-curve fingerprint L(s) = +/- 2k s^3 / (1+s^4)^(3/2).

    The '+' branch is the positive-price domain, '-' the mirrored negative
    domain.  Peaks at s=1 (price 1) with value k/sqrt(2); both tails decay
    like a Pareto density with tail index 3.
    """
    return _density(CurveSpec.ccmm(k), s, SQRTPRICE, curves._sign_factor(sign))


def ccmm_liquidity_tick(t: float, k: float, sign: str = "+") -> float:
    """Circular fingerprint in tick space: L(t) = +/- 2k e^{3t/2} / (1+e^{2t})^(3/2).

    Identical to the sqrt-price form read at s = e^{t/2}.
    """
    return _density(CurveSpec.ccmm(k), t, TICK, curves._sign_factor(sign))


def parabola_liquidity_sqrtprice(s: float, domain: str = POSITIVE) -> float:
    """Fingerprint of the m=2 parabola.

    Positive domain (s = sqrt(p) > 0):   L(s) = 4 s^3 / (1+s^2)^3.
    Negative domain (s = sqrt(-p) in (0,1)): L(s) = -4 s^3 / (1-s^2)^3,
    i.e. the derivative along the mirrored axis; it is negative and its
    magnitude diverges as the price approaches the zero bound (s -> 1
    marks p -> -1, past which the curve quotes no states).
    """
    return _density(_PARABOLA, s, SQRTPRICE, _domain_sign(domain))


def parabola_liquidity_tick(t: float, domain: str = POSITIVE) -> float:
    """m=2 parabola fingerprint in tick space, t = ln|p|.

    Positive domain: 4 e^{3t/2} / (1+e^t)^3 for any finite t.  Negative
    domain: defined for t < 0 only and negative there, blowing up as
    t -> 0- where the pool's negative liquidity concentrates.
    """
    return _density(_PARABOLA, t, TICK, _domain_sign(domain))


def cpmm_liquidity(L: float, sign: str = "+") -> float:
    """Constant-product fingerprint: uniform depth +/- L at every coordinate."""
    return _CLOSED_FORMS[Family.CPMM](CurveSpec.cpmm(L), 1.0, curves._sign_factor(sign))


def gaussian_fingerprint(t: float, mu: float, sigma: float, mass: float) -> float:
    """Gaussian comparator in tick space: mass * N(t; mu, sigma^2)."""
    if not math.isfinite(mu):
        raise ParameterError(f"mu must be finite, got mu={mu}")
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ParameterError(f"sigma must be > 0, got sigma={sigma}")
    if not math.isfinite(mass) or mass <= 0.0:
        raise ParameterError(f"mass must be > 0, got mass={mass}")
    z = (t - mu) / sigma
    return mass * math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def numeraire_reserve(spec: CurveSpec, s: float, domain: str = POSITIVE) -> float:
    """Numeraire (token Y) reserve at sqrt-price magnitude s.

    The price is s^2 in the positive domain and -s^2 in the negative one.
    This is the function whose s-derivative is the fingerprint.
    """
    s = _sqrt_price(s, SQRTPRICE)
    return curves.state_from_price(spec, _domain_sign(domain) * (s * s)).y


def central_difference(f: Callable[[float], float], x: float, step: float) -> float:
    """Symmetric two-point derivative estimate (f(x+h) - f(x-h)) / 2h."""
    if not math.isfinite(step) or step <= 0.0:
        raise ParameterError(f"step must be finite and > 0, got {step}")
    return (f(x + step) - f(x - step)) / (2.0 * step)


def numeric_fingerprint(
    spec: CurveSpec,
    coord_grid: Sequence[float],
    space: str = SQRTPRICE,
    domain: str = POSITIVE,
) -> list[FingerprintSample]:
    """Reference fingerprint from numerical differentiation of the reserve.

    For each grid coordinate the reserve y(s) is evaluated through the
    curve's own inversion machinery and differentiated centrally with
    step h = 1e-5 * max(1, |s|).  Tick coordinates are read through
    s = e^{t/2}.  Negative-domain densities are negated, matching the
    signed-axis convention of the closed forms.
    """
    if space not in (SQRTPRICE, TICK):
        raise ParameterError(f"space must be {SQRTPRICE!r} or {TICK!r}, got {space!r}")
    sgn = _domain_sign(domain)
    points = []
    # Read the whole grid first: a tick out of float range is reported before
    # any point whose reserve the curve refuses.
    for coord in coord_grid:
        c = float(coord)
        s = _sqrt_price(c, space)
        if s == 0.0 or s == math.inf:
            raise DomainError(f"tick t={c} takes the sqrt-price e^(t/2) out of float range")
        points.append((c, s))
    samples = []
    for c, s in points:
        h = 1e-5 * max(1.0, s)
        if h >= s:
            h = 0.5 * s
        d = central_difference(lambda ss: numeraire_reserve(spec, ss, domain), s, h)
        samples.append(FingerprintSample(c, sgn * d, domain))
    return samples


def tail_index(samples: Sequence[FingerprintSample]) -> float:
    """Power-law tail index from a log-log fit of density against coordinate.

    Fits ln(density) = a + b * ln(coord) by least squares over the samples
    with positive coordinate and positive density, and returns -b.  At
    least 10 usable samples are required.
    """
    points = [
        (math.log(smp.coord), math.log(smp.density))
        for smp in samples
        if smp.coord > 0.0 and smp.density > 0.0
        and math.isfinite(smp.coord) and math.isfinite(smp.density)
    ]
    if len(points) < 10:
        raise InsufficientDataError(
            f"tail fit needs at least 10 positive samples, got {len(points)}"
        )
    # statistics.linear_regression's slope as CPython 3.10 and 3.11 sum it, with fsum
    xs, ys = zip(*points)
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxx = math.fsum((d := xi - xbar) * d for xi in xs)
    if sxx == 0.0:  # every coordinate is the same
        raise InsufficientDataError("tail fit needs distinct coordinates: x is constant")
    return -(math.fsum((xi - xbar) * (yi - ybar) for xi, yi in points) / sxx)


def circle_angle_of_price(p: float) -> float:
    """Wrap the extended price line onto the circle: angle = 2*atan(p).

    Monotone in p, with 0 at p=0 and the two infinities meeting at +/-pi
    (the top of the circle).  Accepts +/-inf.
    """
    if math.isnan(p):
        raise ParameterError("price must not be NaN")
    return 2.0 * math.atan(p)


def circle_map(t: float, domain: str = POSITIVE) -> float:
    """Circle angle for the price with tick t = ln|p| in the given domain."""
    if math.isnan(t):
        raise ParameterError("tick must not be NaN")
    try:
        mag = math.exp(t)
    except OverflowError:
        mag = math.inf
    return circle_angle_of_price(_domain_sign(domain) * mag)
