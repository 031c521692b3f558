"""Exact-input swap engine over the invariant curves.

Sign conventions:

* ``amount_in``  is what the trader sends; positive amounts add that token
  to the pool.  The fee is charged on the way in, so the pool's post-trade
  reserve is ``reserve + (1 - fee) * amount_in``.
* ``amount_out`` is the change in the counter reserve, old minus new.  It
  can be negative: once the marginal price has crossed into the negative
  region, buying more X requires the trader to hand over both tokens, and
  the "output" is a deposit.

Trades that would step off the trading branch are rejected with
DomainExceeded rather than clamped, so the pool never quotes beyond its
price asymptotes.  All functions are pure; no state is mutated once returned.
"""

from __future__ import annotations

import math

from . import curves
from ._value import Value
from .curves import CurveSpec, PoolState
from .errors import InvalidFee, ParameterError

TOKEN_X = "x"
TOKEN_Y = "y"


class SwapRequest(Value):
    """One exact-input trade: which token goes in, how much, at what fee."""

    token_in: str
    amount_in: float
    fee: float = 0.0

    def __init__(self, token_in: str, amount_in: float, fee: float = 0.0):
        set_field = object.__setattr__  # as Value's __init__: a trade reads these fields
        set_field(self, "token_in", token_in)
        set_field(self, "amount_in", amount_in)
        set_field(self, "fee", fee)


class SwapResult(Value):
    """Outcome of one exact-input trade; ``new_state`` is where it leaves the pool."""

    amount_out: float
    price_before: float
    price_after: float
    residual_after: float
    new_state: PoolState

    def __init__(self, amount_out: float, price_before: float, price_after: float,
                 residual_after: float, new_state: PoolState):
        d = self.__dict__  # filled in place, as PoolState's
        d["amount_out"] = amount_out
        d["price_before"] = price_before
        d["price_after"] = price_after
        d["residual_after"] = residual_after
        d["new_state"] = new_state


def _validate_request(req: SwapRequest) -> None:
    if req.token_in not in (TOKEN_X, TOKEN_Y):
        raise ParameterError(f"token_in must be 'x' or 'y', got {req.token_in!r}")
    if not math.isfinite(req.amount_in) or req.amount_in == 0.0:
        raise ParameterError(f"amount_in must be finite and nonzero, got {req.amount_in}")
    if not math.isfinite(req.fee) or req.fee < 0.0 or req.fee >= 1.0:
        raise InvalidFee(f"fee must lie in [0, 1), got {req.fee}")


def _traverse(spec: CurveSpec, state: PoolState, req: SwapRequest) -> PoolState:
    """Post-trade state for an exact-input trade, one curve solve on the family record; pure."""
    rec = curves._FAMILIES[spec.family]
    x_bounds, y_left, y_right, fold = spec._branch
    effective = (1.0 - req.fee) * req.amount_in
    if req.token_in == TOKEN_X:
        x_new = state.x + effective
        curves._within(spec, x_new, x_bounds, "x", trade=True)
        y_new = rec.y(spec, x_new, "lower")
        return PoolState(x_new, y_new, rec.theta(spec, x_new, y_new) if rec.theta else None)
    y_new = state.y + effective
    # The side of the zero-price fold; a state exactly at the fold counts as
    # 'left' (positive prices), so a y-input trade from it moves that way.
    if fold is None or state.x <= fold:
        side, y_bounds = "left", y_left
    else:
        side, y_bounds = "right", y_right
    curves._within(spec, y_new, y_bounds, "y", trade=True)
    x_new = curves.x_from_y_on_side(spec, y_new, side)
    curves._within(spec, x_new, x_bounds, "x")  # cpmm's x overflows where y nears 0
    # y stays the exact requested reserve; ccmm's angle reads the y solved from x.
    return PoolState(x_new, y_new,
                     rec.theta(spec, x_new, rec.y(spec, x_new, "lower")) if rec.theta else None)


def quote_exact_in(spec: CurveSpec, state: PoolState, req: SwapRequest) -> SwapResult:
    """Quote an exact-input swap without executing it."""
    _validate_request(req)
    price_before = curves.price_of(spec, state)
    new_state = _traverse(spec, state, req)
    price_after, residual = curves._check(spec, new_state)
    object.__setattr__(new_state, "_checked", (spec, price_after))  # not yet seen by any caller
    if req.token_in == TOKEN_X:
        amount_out = state.y - new_state.y
    else:
        amount_out = state.x - new_state.x
    return SwapResult(amount_out, price_before, price_after, residual, new_state)


def execute_swap(
    spec: CurveSpec, state: PoolState, req: SwapRequest
) -> tuple[PoolState, SwapResult]:
    """Quote and apply an exact-input swap, returning (new_state, result).

    The quote's own traversal is the trade: the curve is solved once.
    """
    result = quote_exact_in(spec, state, req)
    return result.new_state, result


def price_impact(
    spec: CurveSpec, state: PoolState, req: SwapRequest
) -> tuple[float, float]:
    """(price_before, price_after) for a prospective trade."""
    result = quote_exact_in(spec, state, req)
    return result.price_before, result.price_after
