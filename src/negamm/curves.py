"""Invariant curves for negative-price-capable market makers.

Four families are implemented:

* ``cpmm``     constant product x*y = L^2 (positive prices only, the
  classic two-sided pool; also exposes its negative-liquidity branch
  x = -L/sqrt(p) for illustration).
* ``ccmm``     circular invariant (x-k)^2 + (y-k)^2 = k^2, tangent to both
  axes.  Its lower arc prices every real number: the marginal price runs
  from +inf at x=0 through 0 at x=k to -inf at x=2k.
* ``csemm``    super-elliptical invariant |x/alpha-1|^u(alpha) +
  |y/beta-1|^u(beta) = 1 with u(c) = ln2 / ln(c/(c-1)).  The exponent map
  pins (1,1) onto every member of the family, recovers the circle at
  alpha = beta = 2+sqrt(2) and degenerates to the diamond x+y=2 as
  alpha = beta -> 2.
* ``parabola`` y = (1-sqrt(x))^m with even m >= 2; prices fold through
  zero at x = 1 and approach -1 asymptotically as x grows.

All curve functions are pure and operate on immutable values, so they are
safe to call concurrently.  Marginal prices are quoted as p = -dy/dx, i.e.
the price of token X in units of token Y.

Everything the package knows about a family sits in its record in
``_FAMILIES`` at the end of this module: parameters, branch bounds, fold,
y(x), x(y, side), p(x), the state at a price and gamma = dx/dp.  The generic
functions and the other modules read the records.  A spec reads its parameters
through the record, checks them, computes its derived constants and resolves
its branch (the record's ``branch``) once, when it is built; trades and
checks read that resolved branch.  The record's bounds are the only statement
of each reserve range: reserves, states, branch names and prices are checked
once (``_within``, ``_check``, ``y_from_x``, ``state_from_price``), and the
kernels only compute.  A trade is one ``_trade``, one pass that builds its new
state, checks its x range and its residual once each and stores its price; its
y, residual and price come from one call of the record's ``point``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from enum import Enum

from ._value import Factory, Value
from .errors import ConvergenceError, DomainError, DomainExceeded, ParameterError

_TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)
_THREE_HALF_PI = 1.5 * math.pi

# Residual tolerance factor for deciding whether a state sits on its curve.
_RESIDUAL_TOL = 1e-9

# Range of ccmm k and cpmm L: inside it k^2 and L^2, the residual of every
# on-branch state and the tolerance 1e-9 k^2 stay clear of float overflow (near
# k = 1.3e154) and underflow.
_SIZE_MIN, _SIZE_MAX = 1e-150, 1e150


class Family(str, Enum):
    """Supported invariant families."""

    CPMM = "cpmm"
    CCMM = "ccmm"
    CSEMM = "csemm"
    PARABOLA = "parabola"


class CurveSpec(Value):
    """Immutable description of one pool's invariant.

    Only the fields relevant to ``family`` are set; the rest stay None.  Each is
    read through its family record's ``params``: a float, or an exact int for m.

    A built spec also holds its derived constants, ``_consts``, and in the slot
    ``_branch`` (not in ``vars``) the branch its record states: (x bounds,
    left-side y bounds, right-side y bounds, fold), both made on every build and copy.
    """

    __slots__ = ("__dict__", "__weakref__", "_branch")
    family: Family
    k: float | None = None
    alpha: float | None = None
    beta: float | None = None
    m: int | None = None
    L: float | None = None

    def __post_init__(self):  # every build, replace and copy included, reads and checks here
        if not isinstance(self.family, Family):
            object.__setattr__(self, "family", Family(self.family))
        rec = _FAMILIES[self.family]
        for name, (kind, _) in rec.params.items():
            try:
                object.__setattr__(self, name, kind(getattr(self, name)))
            except (TypeError, ValueError, OverflowError):
                pass  # None, or no value of its kind: left as given for rec.check to refuse
        rec.check(self)
        object.__setattr__(self, "_consts", rec.derive(self))  # not a field
        object.__setattr__(self, "_branch", rec.branch(self))

    @classmethod
    def ccmm(cls, k: float) -> "CurveSpec":
        return cls(Family.CCMM, k=k)

    @classmethod
    def csemm(cls, alpha: float, beta: float) -> "CurveSpec":
        return cls(Family.CSEMM, alpha=alpha, beta=beta)

    @classmethod
    def parabola(cls, m: int = 2) -> "CurveSpec":
        return cls(Family.PARABOLA, m=m)

    @classmethod
    def cpmm(cls, L: float) -> "CurveSpec":
        return cls(Family.CPMM, L=L)


class PoolState(Value):
    """Reserves of one pool.  ``theta`` is the arc angle, ccmm only.

    On the ccmm trading arc theta runs through [pi, 2*pi]:
    x = k*(1+cos(theta)), y = k*(1+sin(theta)), price p = cot(theta).

    Slot ``_checked`` (not a field): a traded state's price, written by _trade, read by price_of.
    Copies and pickles rebuild a state from its fields, so they never carry it.
    """

    __slots__ = ("__dict__", "__weakref__", "_checked")
    x: float
    y: float
    theta: float | None = None


def csemm_exponent(c: float) -> float:
    """Exponent u(c) = ln2 / ln(c/(c-1)) of the super-elliptical family.

    u(2) = 1 (diamond), u(2+sqrt(2)) = 2 (circle), and u grows without
    bound as c -> inf.  Requires c >= 2, and c/(c-1) > 1 in floats, which
    holds up to about c = 9.007e15 (2**53).
    """
    if not math.isfinite(c) or c < 2.0:
        raise ParameterError(f"exponent map requires c >= 2, got c={c}")
    ratio = c / (c - 1.0)
    if ratio == 1.0:
        raise ParameterError(f"exponent map requires c/(c-1) > 1 in floats, got c={c}")
    return math.log(2.0) / math.log(ratio)


def _log_abs_dev(z: float, c: float) -> float:
    """ln|z/c - 1| computed without cancellation near z=0 and z=2c."""
    if z < c:
        return math.log1p(-z / c)
    return math.log1p((z - 2.0 * c) / c)


def _csemm_inner(z: float, c: float, u: float) -> float:
    """1 - |z/c - 1|**u for z in [0, 2c], accurate at both endpoints."""
    if z == c:
        return 1.0
    if z <= 0.0 or z >= 2.0 * c:
        return 0.0
    return -math.expm1(u * _log_abs_dev(z, c))


def ccmm_y_from_x(x: float, k: float, branch: str = "lower") -> float:
    """Solve the circle (x-k)^2 + (y-k)^2 = k^2 for y.

    The lower branch y = k - sqrt(x*(2k-x)) is the trading arc; the upper
    branch is exposed for plotting only.  Domain: x in [0, 2k].
    """
    return y_from_x(CurveSpec.ccmm(k), x, branch)


def _ccmm_y(spec: CurveSpec, v: float, branch: str) -> float:
    """y(x) and, the circle being symmetric in x and y, x(y): k + root on the far
    arc (branch 'upper', side 'right'), k - root otherwise."""
    k = spec.k
    root = math.sqrt(v * (2.0 * k - v))
    return k + root if branch == "upper" or branch == "right" else k - root


def csemm_y_from_x(x: float, alpha: float, beta: float, branch: str = "lower") -> float:
    """Solve |x/alpha-1|^u(alpha) + |y/beta-1|^u(beta) = 1 for y.

    Lower branch: y = beta * (1 - (1 - |x/alpha-1|^u(alpha))^(1/u(beta))),
    spanning y in [0, beta] for x in [0, 2*alpha].  Powers are evaluated in
    log space so the endpoints x=0, x=alpha and x=2*alpha come out exact.
    """
    return y_from_x(CurveSpec.csemm(alpha, beta), x, branch)


def _csemm_y(spec: CurveSpec, x: float, branch: str) -> float:
    a, b = spec.alpha, spec.beta
    u_a, u_b = spec._consts
    inner = _csemm_inner(x, a, u_a)
    if inner == 0.0:
        return float(b)
    if branch == "upper":
        return b * (1.0 + math.exp(math.log(inner) / u_b))
    return 0.0 - b * math.expm1(math.log(inner) / u_b)  # near side; 0.0 - keeps the end +0.0


def parabola_y_from_x(x: float, m: int = 2) -> float:
    """y = (1 - sqrt(x))^m for x >= 0 and even m >= 2."""
    return y_from_x(CurveSpec.parabola(m), x)


def cpmm_y_from_x(x: float, L: float) -> float:
    """y = L^2 / x on the positive branch of x*y = L^2."""
    return y_from_x(CurveSpec.cpmm(L), x)


def cpmm_x_from_price(p: float, L: float, sign: str = "+") -> float:
    """Reserve from price on x*y = L^2: x = +/- L / sqrt(p).

    The '-' branch is the negative-liquidity mirror (both reserves
    negative at the same positive price); it exists to show that the
    constant-product family owns such a branch even though no pool state
    can reach it.  Prices must be strictly positive either way.
    """
    spec = CurveSpec.cpmm(L)
    return _sign_factor(sign) * _cpmm_x(p, spec.L)


def _sign_factor(sign: str) -> float:
    """+1.0 for '+' and -1.0 for '-', the branch or domain a sign names."""
    if sign == "+":
        return 1.0
    if sign == "-":
        return -1.0
    raise ParameterError(f"sign must be '+' or '-', got {sign!r}")


def _cpmm_x(p: float, L: float) -> float:
    if not math.isfinite(p) or p <= 0.0:
        raise DomainError(f"cpmm price must be > 0, got p={p}")
    return L / math.sqrt(p)


def invariant_residual(spec: CurveSpec, x: float, y: float) -> float:
    """Signed residual of (x, y) against the curve equation.

    Zero means exactly on-curve.  Scales: the residual is in natural curve
    units, compare against residual_scale(spec) when testing closeness.  It is
    inf, sign unknown, where a square or power of a reserve leaves the float range.
    """
    try:
        return _FAMILIES[spec.family].residual(spec, x, y)
    except OverflowError:
        return math.inf


def residual_scale(spec: CurveSpec) -> float:
    """Natural size of the invariant in the residual's units: ccmm k^2, cpmm L^2, else 1."""
    return _FAMILIES[spec.family].scale(spec, 1.0)


def fold_x(spec: CurveSpec) -> float | None:
    """x-coordinate where the marginal price crosses zero (None for cpmm)."""
    return spec._branch[3]


def y_from_x(spec: CurveSpec, x: float, branch: str = "lower") -> float:
    """Trading-branch y for a given x, any family.

    ``branch='upper'`` is accepted for ccmm and csemm only, and is meant
    for plotting the closed curve, not for trading.
    """
    rec = _FAMILIES[spec.family]
    if branch != "lower":
        if not rec.upper_branch:
            raise ParameterError(f"{spec.family.value} has a single branch")
        if branch != "upper":
            raise ParameterError(f"branch must be 'lower' or 'upper', got {branch!r}")
    _within(spec, x, spec._branch[0], "x")
    return rec.y(spec, x, branch)


def x_from_y_on_side(spec: CurveSpec, y: float, side: str = "left") -> float:
    """Invert the trading branch in the y direction.

    For ccmm, csemm and the parabola the trading branch is two-valued in
    y (the price folds through zero), so the caller states which side of
    the fold it is on: 'left' is the positive-price side (x below the
    fold), 'right' the negative-price side.  cpmm ignores ``side``.
    """
    if side not in ("left", "right"):
        raise ParameterError(f"side must be 'left' or 'right', got {side!r}")
    _within(spec, y, spec._branch[1 if side == "left" else 2], "y", side)
    return _FAMILIES[spec.family].x_of_y(spec, y, side)


def _within(spec: CurveSpec, value: float, bounds: tuple[float, float], name: str,
            side: str = "", trade: bool = False) -> None:
    """Refuse reserve ``name`` = ``value`` unless it lies on the branch ``bounds``.

    The branch is [lo, hi], or (lo, hi] where the family's ``open_low`` is set;
    NaN and +/-inf never lie on it.  The refusal is a DomainError naming the
    family and the ``side`` of the fold, or with ``trade`` a DomainExceeded
    worded as the move a trade would make.
    """
    lo, hi = bounds
    if lo < value <= hi and value < math.inf:
        return
    open_low = _FAMILIES[spec.family].open_low
    if value == lo and not open_low:
        return
    where = f"{'(' if open_low else '['}{lo:g}, {hi}{')' if hi == math.inf else ']'}"
    if trade:
        raise DomainExceeded(f"trade would move {name} to {value}, outside the branch {where}")
    what = f"{side}-side {name}" if side else name
    raise DomainError(f"{spec.family.value} {what} must lie in {where}, got {name}={value}")


def _csemm_price(x: float, a: float, b: float, u_a: float, u_b: float) -> float:
    """csemm marginal price at x in [0, 2a], given u_a = u(a) and u_b = u(b)."""
    if x == 0.0:
        return math.inf
    if x == 2.0 * a:
        return -math.inf
    if x == a:
        return 0.0
    lgx = _log_abs_dev(x, a)
    sgn_x = -1.0 if x < a else 1.0
    inner = -math.expm1(u_a * lgx)  # 1 - |x/a-1|^u_a, in [0, 1)
    if inner == 0.0:  # x/a underflows to 0: the branch end's price
        return math.inf if x < a else -math.inf
    lg_abs_y_dev = math.log(inner) / u_b  # ln|y/b - 1| on the lower branch
    num = u_a * b * math.exp((u_a - 1.0) * lgx) * sgn_x
    den = u_b * a * math.exp((u_b - 1.0) * lg_abs_y_dev) * (-1.0)
    return num / den


def price_of(spec: CurveSpec, state: PoolState) -> float:
    """Marginal price of token X in Y units at the given on-curve state.

    Positive left of the fold, exactly zero at it, negative beyond it;
    +/-inf at the arc endpoints.  Raises DomainError when the state's residual
    exceeds 1e-9 times the curve scale (the parabola's: max(1, y)), when its x is
    off the branch (cpmm too), or when a ccmm or csemm state is on the upper
    (plotting) branch: y above the trading branch away from the endpoints, where
    both branches meet.

    _trade stores (spec, price) in a state it returns, and that price is returned
    for that very spec object; any other spec gets the full check.
    """
    checked = getattr(state, "_checked", None)
    if checked is not None and checked[0] is spec:
        return checked[1]
    return _check(spec, state)


def _trade(spec: CurveSpec, state: PoolState, token_x: bool, effective: float) -> tuple:
    """(new state, its price, its residual) once ``effective`` of X (``token_x``) or of Y
    enters the pool, in one pass: one curve solve on the family record, one range check of
    the new x, and one ``point`` for its residual, on-curve test and price.  No upper-branch
    test: y(x) on the lower branch, or a y inside the branch's y range, never lies above the
    branch."""
    rec = _FAMILIES[spec.family]
    x_bounds, y_left, y_right, fold = spec._branch
    if token_x:  # x is range-checked as given, as in state_from_x, then read as a float
        x = state.x + effective
        _within(spec, x, x_bounds, "x", trade=True)
        x = float(x)
        y, res, price = _point(spec, rec, x, None)
    else:  # y moves on the state's side of the zero-price fold; at the fold, 'left' (p > 0)
        y = state.y + effective
        left = fold is None or state.x <= fold
        _within(spec, y, y_left if left else y_right, "y", trade=True)
        x = x_from_y_on_side(spec, y, "left" if left else "right")
        _within(spec, x, x_bounds, "x")  # cpmm's x overflows where y nears 0
        y, res, price = _point(spec, rec, x, y)
    # y stays the exact requested reserve; ccmm's angle reads the y solved from x.
    new = PoolState(x, y, rec.theta(spec, x, y if token_x else rec.y(spec, x, "lower"))
                    if rec.theta else None)
    object.__setattr__(new, "_checked", (spec, price))  # not yet seen by any caller
    return new, price, res


def _point(spec: CurveSpec, rec: _Record, x: float, y: float | None) -> tuple:
    """The record's (y, residual, price) at an on-branch x, refused unless the residual is
    within 1e-9 of the record's scale at y.  A given y whose square or power leaves the
    float range has residual inf, as in invariant_residual."""
    try:
        y, res, price = rec.point(spec, x, y)
    except OverflowError:  # only a given y's: y(x) on the branch stays in range
        res = price = math.inf
    if abs(res) <= _RESIDUAL_TOL * rec.scale(spec, y):  # a NaN reserve fails
        return y, res, price
    raise _off_curve(x, y, res)


def _off_curve(x: float, y: float, res: float) -> DomainError:
    return DomainError(f"state ({x}, {y}) is off-curve: residual {res:.3e}")


def _check(spec: CurveSpec, state: PoolState) -> float:
    """The price of a state after the one full check of a pool state; see price_of."""
    rec = _FAMILIES[spec.family]
    x_bounds, y_left, _, _ = spec._branch
    x, y = state.x, state.y
    try:
        _within(spec, x, x_bounds, "x")
    except DomainError:  # an off-curve state is refused as such before its x's range
        res = invariant_residual(spec, x, y)
        if not abs(res) <= _RESIDUAL_TOL * rec.scale(spec, y):
            raise _off_curve(x, y, res) from None
        raise
    _, _, price = _point(spec, rec, x, y)
    if rec.upper_branch and y > y_left[1] and math.isfinite(price):
        raise DomainError(f"state ({x}, {y}) is on the upper (plotting) branch")
    return price


def ccmm_angle_from_price(p: float) -> float:
    """Invert p = cot(theta) on the trading arc theta in [pi, 2*pi].

    theta = 3*pi/2 - atan(p); monotone decreasing in p, with p=+inf at
    theta=pi and p=-inf at theta=2*pi.
    """
    if math.isnan(p):
        raise ParameterError("price must not be NaN")
    return _THREE_HALF_PI - math.atan(p)


def _csemm_seed(p: float, a: float, b: float, u_a: float, u_b: float):
    """Newton estimate of z = ln|x/a - 1| at the reserve quoting p.

    On the branch of p's sign, ln|p(z)| = ln C + (u_a-1) z - c ln(1 - e^(u_a z))
    with C = u_a b / (u_b a) and c = (u_b-1) / u_b, which is convex and
    increasing in z < 0.  The iteration starts from the root of one asymptote,
    or from e^(u_a z) = 1/2 where that is nearer: for |p| <= C the z -> -inf
    asymptote, whose root lies right of the root; for |p| > C the z -> 0 one,
    whose root lies left of it.  Each step is Newton's; an iterate at z >= 0
    ends the search.
    Returns (z, slope, size, x0): slope = d ln|p| / dz, size bounds the two z
    terms, which sets the rounding error of the price expression, and x0 is
    the reserve at z.  Returns None when p is out of reach of an exponent-1
    member, sits on the boundary of that reach, or the iteration fails.
    """
    c = (u_b - 1.0) / u_b
    q = math.log(abs(p) * u_b * a / (u_a * b))  # ln(|p| / C)
    z = -_LN2 / u_a  # midpoint e^(u_a z) = 1/2, a valid start on either side
    if q <= 0.0 and u_a > 1.0:
        z = min(z, q / (u_a - 1.0))
    elif q > 0.0 and c > 0.0:
        w = q / c  # asymptote: 1 - e^(u_a z) = e^-w
        z = max(z, (math.log(-math.expm1(-w)) if w < _LN2
                    else math.log1p(-math.exp(-w))) / u_a)
    else:
        return None
    for _ in range(40):  # it takes at most about seven steps
        if not z < 0.0:
            return None
        em = -math.expm1(u_a * z)  # 1 - e^(u_a z)
        a_term = (1.0 - u_a) * z
        b_term = -c * math.log(em)
        f = b_term - a_term - q
        slope = (u_a - 1.0) + c * u_a * (1.0 - em) / em
        size = a_term + b_term + 8.0
        if abs(f) <= 2.0**-48 * size:
            d0 = -a * math.expm1(z)  # distance a(1 - e^z) from p's branch end
            return z, slope, size, (d0 if p > 0.0 else 2.0 * a - d0)
        z -= f / slope
    return None


def _csemm_fence(p: float, delta: float, left: bool, seed, a: float, b: float,
                 u_a: float, u_b: float) -> float:
    """A certified bound on the reserves that quote beyond p +/- delta.

    ``left``: a bound cl with _csemm_price(x) > p + delta at every x <= cl,
    or -inf.  Otherwise a bound cr with _csemm_price(x) < p - delta at every
    x >= cr, or inf.  The bounds hold for the computed prices, rounding
    included.  The fence sits just past where |price| = |p| +/- delta per the
    seed, at least one ulp from the seed reserve, and counts only when its
    computed price clears p + delta by ``gap``, an over-estimate of the
    expression's relative rounding error near the root: each libm call is
    within 1 ulp, and the two exp() arguments, below ``size`` in magnitude,
    carry error in proportion.  Past a counted fence the exact price moves
    away from p faster than that error can grow.  The one rounding not
    relative to the price, fl(x/a), moves the reserve x (or 2a - x) by half
    an ulp, which the shift by 2**-50 of that reserve covers.
    """
    z, slope, size, x0 = seed
    gap = 2.0**-46 * size
    r = delta / abs(p) + 4.0 * gap  # wanted relative offset of |price| from |p|
    if left == (p > 0.0):  # |price| grows with z, and away from the root here
        dz = math.log1p(r) / slope
    elif r < 1.0:
        dz = math.log1p(-r) / slope
    else:
        return -math.inf if left else math.inf
    # d = a(1 - e^z) is the distance from the branch end on p's side of the fold
    d = -a * math.expm1(min(z + dz, 0.0))  # z = 0 is the branch end
    two_a = 2.0 * a
    if p < 0.0:
        d = two_a - d
    margin = delta + gap * (abs(p) + delta)
    if left:
        f = min(d, x0 - math.ulp(x0))
        if 0.0 <= f and _csemm_price(f, a, b, u_a, u_b) - p > margin:
            return f - 2.0**-50 * min(f, two_a - f)
        return -math.inf
    f = max(d, x0 + math.ulp(x0))
    if f <= two_a and p - _csemm_price(f, a, b, u_a, u_b) > margin:
        return f + 2.0**-50 * min(f, two_a - f)
    return math.inf


def csemm_x_from_price(
    p: float,
    alpha: float,
    beta: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Invert the super-elliptical price curve; the answer is bisection's.

    The result is defined as what bisection on [0, 2*alpha] returns: halve
    the bracket at 0.5*(lo+hi), keep the half whose computed price still
    brackets p, and stop once the bracket is below ``tol`` (or 4 ulp) and
    the quoted price is within 1e-10 * max(1, |p|) of the target, running the
    bracket down to float resolution if needed, within ``max_iter`` halvings.
    That float is reproduced exactly with a fraction of the price
    evaluations:

    1. Seed: Newton on z = ln|x/alpha - 1|, in which ln|p| is convex and
       increasing, from the root of an asymptote (``_csemm_seed``).
    2. Fences: the price at a reserve just either side of the seed.  A fence
       counts only if its price misses p by far more than the price
       expression's rounding error; then every reserve beyond it provably
       quotes on the same side of p (``_csemm_fence``).
    3. Replay: the bisection's own midpoints, exit test and iteration count,
       evaluating the price only at midpoints between the fences or where the
       bracket is narrow enough for the exit test to pass.  Every other
       halving goes the way its fence says.  When a narrow bracket still sits
       outside the fences (a root below ``tol``), one more fence on that side
       marks where the price cannot be within tolerance either.

    A missing seed or a fence that fails its check costs evaluations, never
    bits.  Members with alpha = 2 or beta = 2 (exponent 1) quote only part of
    the real line: a p out of their reach is refused with DomainError naming
    what they quote; any other failure raises ConvergenceError.
    """
    u_a = csemm_exponent(alpha)
    u_b = csemm_exponent(beta)
    if not math.isfinite(p):
        raise ParameterError(f"target price must be finite, got p={p}")
    if p == 0.0:
        return float(alpha)
    a, b = float(alpha), float(beta)
    price_tol = 1e-10 * max(1.0, abs(p))
    seed = _csemm_seed(p, a, b, u_a, u_b)
    # Halvings at x <= cl go right and at x >= cr go left; narrow brackets at
    # x <= bl or x >= br cannot pass the exit test.
    cl, cr = -math.inf, math.inf
    bl, br = -math.inf, math.inf
    if seed is not None:
        cl = _csemm_fence(p, 0.0, True, seed, a, b, u_a, u_b)
        cr = _csemm_fence(p, 0.0, False, seed, a, b, u_a, u_b)
    band_left = band_right = seed is not None  # band fences yet to place
    lo, hi = 0.0, 2.0 * alpha  # price(lo) = +inf, price(hi) = -inf
    wide = max(tol, 4.0 * math.ulp(hi))  # no wider bracket passes the exit test
    x = 0.5 * (lo + hi)
    # Halvings outside the fences, walked bare while the bracket is surely wide:
    # after k halvings it spans 2a 2^-k to within ulp(2a) <= wide / 4 (each midpoint
    # rounds by at most ulp(2a) / 2), so while 2^k <= a / wide it is over 1.7 wide,
    # not narrow, and no midpoint can exhaust it.  The replay takes the rest.
    walk = min(max_iter, math.frexp(hi / wide)[1] - 2)
    done = 0
    for done in range(walk):
        if x <= cl:
            lo = x
        elif x >= cr:
            hi = x
        else:
            break
        x = 0.5 * (lo + hi)
    else:
        done = max(walk, 0)
    for _ in range(max_iter - done):
        width = hi - lo
        narrow = width <= wide and (width <= tol or width <= 4.0 * math.ulp(x))
        if cl < x < cr or narrow and bl < x < br:
            px = _csemm_price(x, a, b, u_a, u_b)
            if narrow:
                if abs(px - p) <= price_tol:
                    return x
                if band_left and x <= cl:
                    band_left = False
                    bl = _csemm_fence(p, price_tol, True, seed, a, b, u_a, u_b)
                elif band_right and x >= cr:
                    band_right = False
                    br = _csemm_fence(p, price_tol, False, seed, a, b, u_a, u_b)
            above = px > p
        else:
            above = x <= cl
        if above:
            lo = x
        else:
            hi = x
        nxt = 0.5 * (lo + hi)
        if nxt == lo or nxt == hi:
            # Bracket exhausted at float resolution.
            if abs(_csemm_price(nxt, a, b, u_a, u_b) - p) <= price_tol:
                return nxt
            break
        x = nxt
    edge = u_a * b / (u_b * a)
    if u_a == 1.0 and u_b == 1.0 and abs(p) != edge:
        reach = f"|p| = {edge}"
    elif u_a == 1.0 and u_b != 1.0 and abs(p) < edge:
        reach = f"|p| >= {edge}"
    elif u_b == 1.0 and u_a != 1.0 and abs(p) > edge:
        reach = f"|p| <= {edge}"
    else:
        raise ConvergenceError(
            f"csemm price inversion did not converge for p={p}, "
            f"alpha={alpha}, beta={beta}"
        )
    raise DomainError(
        f"csemm with alpha={alpha}, beta={beta} quotes only {reach}, got p={p}"
    )


def parabola_x_from_price(p: float, m: int = 2) -> float:
    """Invert p = (1-sqrt(x))/sqrt(x) for the m=2 parabola: x = (1+p)^-2.

    The price domain is p > -1; the curve flattens toward p = -1 as
    x -> inf.  Only m=2 admits this closed inversion; other m values are
    plot-only.
    """
    return _parabola_x(p, CurveSpec.parabola(m).m)


def _parabola_x(p: float, m: int) -> float:
    if m != 2:
        raise ParameterError(
            f"price inversion is only available for m=2, got m={m}"
        )
    if not math.isfinite(p) or p <= -1.0:
        raise DomainError(f"parabola prices lie in (-1, inf), got p={p}")
    return 1.0 / ((1.0 + p) * (1.0 + p))


def state_from_x(spec: CurveSpec, x: float) -> PoolState:
    """Build the on-curve trading-branch state at reserve x.  x is range-checked and
    solved as given, so a refusal names it so, and only then read as a float."""
    _within(spec, x, spec._branch[0], "x")
    rec = _FAMILIES[spec.family]
    y = rec.y(spec, x, "lower")
    x = float(x)
    return PoolState(x, y, rec.theta(spec, x, y) if rec.theta else None)


def state_from_price(spec: CurveSpec, p: float) -> PoolState:
    """Build the trading-branch state quoting marginal price p.

    ccmm/csemm accept any finite p; cpmm needs p > 0; the parabola (m=2)
    needs p > -1.  A non-finite p is refused for every family.
    """
    if not math.isfinite(p):
        raise DomainError(f"price must be finite, got p={p}")
    return _FAMILIES[spec.family].at_price(spec, p)


# ------------------------------------------------------------ family table


class _Record(Value):
    """Everything the package knows about one family; callables take the spec first.

    ``params`` maps the CurveSpec fields used to (kind, help), in constructor
    order: the one reading of each, by the spec and the CLI.  ``branch(spec)`` is
    (x bounds, left-side y bounds, right-side y bounds, fold), stored on a spec as
    ``_branch`` when it is built: reserves lie in [lo, hi] (default [0, inf), no
    fold), or (lo, hi] when ``open_low``, the only statement of each range, which
    ``_within`` checks before any kernel runs.  ``point(spec, x, y)`` is (y, residual,
    marginal price) at an x on the branch, where y=None means y(x) on the lower branch,
    each sub-expression evaluated once: it is how a trade and ``_check`` read a state;
    ``residual`` stays for x off the branch (``invariant_residual``).  ``scale(spec, y)``
    is the size a residual is compared with, and ``gamma(spec, p, x)`` gets the x
    quoting p.  ``derive`` returns the spec's derived constants, stored on it as
    ``_consts``.  Entries call private kernels, which only compute and trust the spec and
    their arguments (the parabola's ``y``, and its ``point`` given no y, refuse a y past
    the float range); ``csemm_x_from_price`` and ``x_from_y_on_side`` are called by
    module attribute only because ``bench/layers.py`` requires their spans.  csemm's and
    the parabola's ``at_price`` build their state from the inverted x without a second
    range check: bisection midpoints lie in [0, 2 alpha], and 1/(1+p)^2 >= 0 for p > -1.
    """

    params: dict
    check: Callable
    residual: Callable
    y: Callable
    x_of_y: Callable
    point: Callable
    at_price: Callable
    gamma: Callable
    defaults: dict = Factory(dict)
    open_low: bool = False
    upper_branch: bool = False
    branch: Callable = lambda spec: ((0.0, math.inf), (0.0, math.inf), (0.0, math.inf), None)
    scale: Callable = lambda spec, y: 1.0
    theta: Callable | None = None  # arc angle of a state, ccmm only
    derive: Callable = lambda spec: None


def _require(spec: CurveSpec, lo: float, strict: bool, *names: str,
             size: bool = False) -> None:
    """Each named parameter is finite, > lo (strict) or >= lo, and with ``size``
    in [_SIZE_MIN, _SIZE_MAX]."""
    for name in names:
        val = getattr(spec, name)  # a float, or what rec.params could not read
        if not isinstance(val, float) or not lo <= val < math.inf or strict and val == lo:
            rule = f"{name} {'>' if strict else '>='} {lo:g}"
        elif size and not _SIZE_MIN <= val <= _SIZE_MAX:
            rule = f"{_SIZE_MIN:g} <= {name} <= {_SIZE_MAX:g}"
        else:
            continue
        raise ParameterError(f"{spec.family.value} requires {rule}, got {name}={val}")


def _cpmm_point(spec: CurveSpec, x: float, y: float | None) -> tuple:
    l2 = spec.L * spec.L
    if y is None:
        y = l2 / x
    return y, x * y - l2, y / x


def _ccmm_point(spec: CurveSpec, x: float, y: float | None) -> tuple:
    k = spec.k
    root = math.sqrt(x * (2.0 * k - x))
    if y is None:
        y = k - root
    res = (x - k) ** 2 + (y - k) ** 2 - k * k
    if root == 0.0:  # an end of the arc, or x so near 0 that x(2k - x) underflows
        return y, res, math.inf if x < k else -math.inf
    return y, res, (k - x) / root


def _ccmm_at_price(spec: CurveSpec, p: float) -> PoolState:
    theta = ccmm_angle_from_price(p)
    k = spec.k
    # theta rounds to fl(pi) for p >~ 1.6e16, whose sine is +1.2e-16; the arc has y <= k.
    return PoolState(k * (1.0 + math.cos(theta)), k * (1.0 + min(math.sin(theta), 0.0)), theta)


def _csemm_residual(spec: CurveSpec, x: float, y: float) -> float:
    a, b = spec.alpha, spec.beta
    u_a, u_b = spec._consts
    term_x = 1.0 - _csemm_inner(x, a, u_a)
    term_y = 1.0 - _csemm_inner(y, b, u_b)
    return term_x + term_y - 1.0


def _csemm_point(spec: CurveSpec, x: float, y: float | None) -> tuple:
    """_csemm_y, _csemm_residual and _csemm_price at once, from one ln|x/a - 1|, one
    1 - |x/a - 1|^u_a and one ln|y/b - 1| on the lower branch."""
    a, b = spec.alpha, spec.beta
    u_a, u_b = spec._consts
    if x == a:  # the fold, where ln|x/a - 1| is -inf
        inner, lower, price = 1.0, 0.0, 0.0
    else:
        lgx = _log_abs_dev(x, a)
        inner = -math.expm1(u_a * lgx)  # 1 - |x/a-1|^u_a, in [0, 1)
        if inner == 0.0:  # a branch end, or x/a underflows to 0 there: the end's y and price
            lower, price = float(b), math.inf if x < a else -math.inf
        else:
            lgy = math.log(inner) / u_b
            lower = 0.0 - b * math.expm1(lgy)  # the near-side rule of _csemm_y
            sgn = 1.0 if x < a else -1.0  # _csemm_price's two signs in one
            num = u_a * b * math.exp((u_a - 1.0) * lgx) * sgn
            price = num / (u_b * a * math.exp((u_b - 1.0) * lgy))
    if y is None:
        y = lower
    return y, (1.0 - inner) + (1.0 - _csemm_inner(y, b, u_b)) - 1.0, price


def _csemm_x_of_y(spec: CurveSpec, y: float, side: str) -> float:
    a, b = spec.alpha, spec.beta
    u_a, u_b = spec._consts
    inner = _csemm_inner(y, b, u_b)
    if inner == 0.0:
        return float(a)
    if side == "left":
        return 0.0 - a * math.expm1(math.log(inner) / u_a)  # the near-side rule of _csemm_y
    return a * (2.0 + math.expm1(math.log(inner) / u_a))


def _csemm_gamma(spec: CurveSpec, p: float, x: float) -> float:
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
    indistinguishable from 2 exactly.  Where dp/dx is zero off the fold (the
    straight sides of the alpha = beta = 2 diamond) gamma is -inf as well.
    """
    a, b = spec.alpha, spec.beta
    u_a, u_b = spec._consts
    inner = _csemm_inner(x, a, u_a)
    if x == a:
        if u_a < 2.0 - 1e-9:
            return 0.0
        if u_a > 2.0 + 1e-9:
            return -math.inf
        fy = -(u_b / b)  # |y/b-1| = 1 at the fold
        fxp = u_a * (u_a - 1.0) / (a * a)
        return fy / fxp
    lgx = _log_abs_dev(x, a)
    sgn_x = -1.0 if x < a else 1.0
    lgy = math.log(inner) / u_b  # ln|y/b-1| on the lower branch
    fx = (u_a / a) * math.exp((u_a - 1.0) * lgx) * sgn_x
    fy = -(u_b / b) * math.exp((u_b - 1.0) * lgy)
    fxp = (u_a * (u_a - 1.0) / (a * a)) * math.exp((u_a - 2.0) * lgx)
    fyp = (u_b * (u_b - 1.0) / (b * b)) * math.exp((u_b - 2.0) * lgy)
    dpdx = fxp / fy + fx * fx * fyp / (fy * fy * fy)
    return 1.0 / dpdx if dpdx else -math.inf


def _integer(value) -> int:
    """An integral value as an exact int, never via float: 2, 2.0 and '2.0' read 2."""
    if str(value).strip().lstrip("+-").isdigit():
        return int(value)
    if not float(value).is_integer():  # 2.5, +/-inf and NaN
        raise ValueError(f"{value!r} is not an integer")
    return int(float(value))


_integer.__name__ = "integer"  # argparse names the kind of a flag it refuses


def _parabola_m(m: int | None) -> None:
    if not isinstance(m, int) or m < 2 or m % 2 != 0:
        raise ParameterError(f"parabola requires even integer m >= 2, got m={m}")


def _parabola_y(spec: CurveSpec, x: float, branch: str) -> float:
    try:
        return (1.0 - math.sqrt(x)) ** spec.m
    except OverflowError:  # (1 - sqrt(x))^m for m >= 4 and huge x
        raise DomainError(f"parabola y leaves the float range at x={x}") from None


def _parabola_x_of_y(spec: CurveSpec, y: float, side: str) -> float:
    root = y ** (1.0 / spec.m)
    return (1.0 - root) ** 2 if side == "left" else (1.0 + root) ** 2


def _parabola_point(spec: CurveSpec, x: float, y: float | None) -> tuple:
    root = math.sqrt(x)
    try:
        power = (1.0 - root) ** spec.m
    except OverflowError:  # (1 - sqrt(x))^m for m >= 4 and huge x
        if y is None:
            raise DomainError(f"parabola y leaves the float range at x={x}") from None
        raise
    if y is None:
        y = power
    price = spec.m * (1.0 - root) ** (spec.m - 1) / (2.0 * root) if x != 0.0 else math.inf
    return y, y - power, price


_FAMILIES: dict[Family, _Record] = {
    Family.CPMM: _Record(
        params={"L": (float, "cpmm liquidity parameter")},
        check=lambda s: _require(s, 0.0, True, "L", size=True),
        open_low=True,
        scale=lambda s, y: s.L * s.L,
        residual=lambda s, x, y: x * y - s.L * s.L,
        y=lambda s, x, branch: s.L * s.L / x,
        x_of_y=lambda s, y, side: s.L * s.L / y,
        point=_cpmm_point,
        at_price=lambda s, p: PoolState(_cpmm_x(p, s.L), s.L * math.sqrt(p)),
        # where 2 p^1.5 underflows to zero, below p ~ 1.2e-216, divide in two steps
        gamma=lambda s, p, x: -s.L / d if (d := 2.0 * p * math.sqrt(p))
        else -(s.L / (2.0 * p)) / math.sqrt(p),
    ),
    Family.CCMM: _Record(
        params={"k": (float, "ccmm radius/offset")},
        check=lambda s: _require(s, 0.0, True, "k", size=True),
        branch=lambda s: ((0.0, 2.0 * s.k), (0.0, s.k), (0.0, s.k), s.k),
        scale=lambda s, y: s.k * s.k,
        residual=lambda s, x, y: (x - s.k) ** 2 + (y - s.k) ** 2 - s.k * s.k,
        upper_branch=True,
        y=_ccmm_y,
        x_of_y=_ccmm_y,
        point=_ccmm_point,
        at_price=_ccmm_at_price,
        theta=lambda s, x, y: math.atan2(y - s.k, x - s.k) + _TWO_PI,  # atan2 in [-pi, 0]
        gamma=lambda s, p, x: -s.k / (1.0 + p * p) ** 1.5,
    ),
    Family.CSEMM: _Record(
        params={"alpha": (float, "csemm x-axis crossing"),
                "beta": (float, "csemm y-axis crossing")},
        check=lambda s: _require(s, 2.0, False, "alpha", "beta"),
        branch=lambda s: ((0.0, 2.0 * s.alpha), (0.0, s.beta), (0.0, s.beta), s.alpha),
        residual=_csemm_residual,
        upper_branch=True,
        y=_csemm_y,
        x_of_y=_csemm_x_of_y,
        point=_csemm_point,
        at_price=lambda s, p: PoolState(x := csemm_x_from_price(p, s.alpha, s.beta),
                                        _csemm_y(s, x, "lower")),
        gamma=_csemm_gamma,
        derive=lambda s: (csemm_exponent(s.alpha), csemm_exponent(s.beta)),
    ),
    Family.PARABOLA: _Record(
        params={"m": (_integer, "parabola exponent (even, default 2)")},
        defaults={"m": 2},
        check=lambda s: _parabola_m(s.m),
        branch=lambda s: ((0.0, math.inf), (0.0, 1.0), (0.0, math.inf), 1.0),
        scale=lambda s, y: y if 1.0 < y < math.inf else 1.0,  # y is unbounded: max(1, y)
        residual=lambda s, x, y: y - (1.0 - math.sqrt(max(x, 0.0))) ** s.m,
        y=_parabola_y,
        x_of_y=_parabola_x_of_y,
        point=_parabola_point,
        at_price=lambda s, p: PoolState(x := _parabola_x(p, s.m), _parabola_y(s, x, "lower")),
        gamma=lambda s, p, x: -2.0 / (1.0 + p) ** 3,
    ),
}
