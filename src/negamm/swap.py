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
price asymptotes.  No state is mutated once returned.  The one thing kept is
the last quote: ``execute_swap`` of the same spec, state and request objects
returns it instead of solving again, and every execute clears it.
"""

from __future__ import annotations

import math

from . import curves
from ._value import Value
from .curves import CurveSpec, PoolState
from .errors import InvalidFee, ParameterError

TOKEN_X = "x"
TOKEN_Y = "y"

_pending = None  # (spec, state, req, result) of the last quote, until an execute


class SwapRequest(Value):
    """One exact-input trade: which token goes in, how much, at what fee."""

    token_in: str
    amount_in: float
    fee: float = 0.0


class SwapResult(Value):
    """Outcome of one exact-input trade; ``new_state`` is where it leaves the pool."""

    amount_out: float
    price_before: float
    price_after: float
    residual_after: float
    new_state: PoolState


def _validate_request(req: SwapRequest) -> None:
    if req.token_in not in (TOKEN_X, TOKEN_Y):
        raise ParameterError(f"token_in must be 'x' or 'y', got {req.token_in!r}")
    if not math.isfinite(req.amount_in) or req.amount_in == 0.0:
        raise ParameterError(f"amount_in must be finite and nonzero, got {req.amount_in}")
    if not math.isfinite(req.fee) or req.fee < 0.0 or req.fee >= 1.0:
        raise InvalidFee(f"fee must lie in [0, 1), got {req.fee}")


def quote_exact_in(spec: CurveSpec, state: PoolState, req: SwapRequest) -> SwapResult:
    """Quote an exact-input swap without executing it."""
    global _pending
    _validate_request(req)
    price_before = curves.price_of(spec, state)
    token_x = req.token_in == TOKEN_X
    new_state, price_after, residual = curves._trade(
        spec, state, token_x, (1.0 - req.fee) * req.amount_in)
    amount_out = state.y - new_state.y if token_x else state.x - new_state.x
    result = SwapResult(amount_out, price_before, price_after, residual, new_state)
    _pending = (spec, state, req, result)
    return result


def execute_swap(
    spec: CurveSpec, state: PoolState, req: SwapRequest
) -> tuple[PoolState, SwapResult]:
    """Quote and apply an exact-input swap, returning (new_state, result).

    The quote's own traversal is the trade: the curve is solved once, or not at
    all right after a quote of the same ``spec``, ``state`` and ``req`` objects
    (``is``, not ``==``): that quote's result is returned.  No quote stays pending.
    """
    global _pending
    pending = _pending
    if pending is not None and pending[0] is spec and pending[1] is state and pending[2] is req:
        result = pending[3]
    else:
        result = quote_exact_in(spec, state, req)
    _pending = None
    return result.new_state, result


def price_impact(
    spec: CurveSpec, state: PoolState, req: SwapRequest
) -> tuple[float, float]:
    """(price_before, price_after) for a prospective trade."""
    result = quote_exact_in(spec, state, req)
    return result.price_before, result.price_after
