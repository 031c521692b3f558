"""csemm price inversion against the plain bisection it replays.

``_bisect_reference`` is the bisection loop ``csemm_x_from_price`` ran before
it was seeded and fenced, kept verbatim.  The solver must return the same
float, bit for bit, and raise where it raises.  The one change allowed: at
the exponent-1 members (alpha or beta = 2) a price outside the curve's reach
is refused with DomainError instead of ConvergenceError.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from negamm import (
    ConvergenceError,
    CurveSpec,
    DomainError,
    NegammError,
    ParameterError,
    csemm_exponent,
    csemm_x_from_price,
    state_from_price,
    state_from_x,
)
from negamm.curves import _csemm_price
from conftest import CIRCLE_PARAM

PAIRS = [
    (CIRCLE_PARAM, CIRCLE_PARAM), (3.0, 3.0), (3.0, 4.0), (8.0, 2.5),
    (2.2, 2.2), (2.001, 2.001), (8.0, 8.0), (2.5, 7.0), (50.0, 3.0), (4.0, 2.0),
]


def _bisect_reference(
    p: float,
    alpha: float,
    beta: float,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Invert the super-elliptical price curve by bisection.

    The marginal price is strictly decreasing in x across (0, 2*alpha), so
    bisection on x is guaranteed to converge; Newton steps are avoided on
    purpose because dp/dx is unbounded near the fold when u(alpha) < 2.
    Stops once the bracket is below ``tol`` and the quoted price is within
    1e-10 * max(1, |p|) of the target, running the bracket down to float
    resolution if needed.
    """
    u_check = csemm_exponent(alpha), csemm_exponent(beta)  # validates params
    del u_check
    if not math.isfinite(p):
        raise ParameterError(f"target price must be finite, got p={p}")
    if p == 0.0:
        return float(alpha)
    spec = CurveSpec.csemm(alpha, beta)
    consts = spec.alpha, spec.beta, *spec._consts  # every midpoint lies in [0, 2 alpha]
    lo, hi = 0.0, 2.0 * alpha  # price(lo) = +inf, price(hi) = -inf
    price_tol = 1e-10 * max(1.0, abs(p))
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        px = _csemm_price(x, *consts)
        if abs(px - p) <= price_tol and hi - lo <= max(tol, 4.0 * math.ulp(x)):
            return x
        if px > p:
            lo = x
        else:
            hi = x
        nxt = 0.5 * (lo + hi)
        if nxt == lo or nxt == hi:
            # Bracket exhausted at float resolution.
            if abs(_csemm_price(nxt, *consts) - p) <= price_tol:
                return nxt
            break
        x = nxt
    raise ConvergenceError(
        f"csemm price inversion did not converge for p={p}, "
        f"alpha={alpha}, beta={beta}"
    )


def _out_of_reach(p, alpha, beta):
    """True where an exponent-1 member cannot quote p at all."""
    u_a, u_b = csemm_exponent(alpha), csemm_exponent(beta)
    edge = u_a * beta / (u_b * alpha)
    if u_a == 1.0 and u_b == 1.0:
        return abs(p) != edge
    if u_a == 1.0:
        return abs(p) < edge
    if u_b == 1.0:
        return abs(p) > edge
    return False


def _assert_same(p, alpha, beta, **kwargs):
    try:
        want = _bisect_reference(p, alpha, beta, **kwargs)
    except ConvergenceError:
        refusal = DomainError if _out_of_reach(p, alpha, beta) else ConvergenceError
        with pytest.raises(refusal):
            csemm_x_from_price(p, alpha, beta, **kwargs)
        return
    got = csemm_x_from_price(p, alpha, beta, **kwargs)
    assert got == want, (p, alpha, beta, kwargs, got, want)


@pytest.mark.parametrize("alpha, beta", PAIRS)
def test_matches_bisection_on_tick_grid(alpha, beta):
    for t in np.linspace(-12.0, 12.0, 121):
        for sign in (1.0, -1.0):
            _assert_same(sign * math.exp(float(t)), alpha, beta)


_PARAMS = st.one_of(
    st.sampled_from([2.0, 2.2, CIRCLE_PARAM]),
    st.floats(min_value=2.0, max_value=50.0, allow_nan=False),
)


@given(
    alpha=_PARAMS,
    beta=_PARAMS,
    t=st.floats(min_value=-12.0, max_value=12.0, allow_nan=False),
    sign=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=300, deadline=None)
def test_matches_bisection_drawn(alpha, beta, t, sign):
    _assert_same(sign * math.exp(t), alpha, beta)


@given(
    alpha=_PARAMS,
    beta=_PARAMS,
    t=st.floats(min_value=-740.0, max_value=709.0, allow_nan=False),
    sign=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=200, deadline=None)
def test_matches_bisection_at_extreme_magnitudes(alpha, beta, t, sign):
    _assert_same(sign * math.exp(t), alpha, beta)


@given(
    alpha=_PARAMS,
    beta=_PARAMS,
    t=st.floats(min_value=-12.0, max_value=12.0, allow_nan=False),
    sign=st.sampled_from([1.0, -1.0]),
    max_iter=st.integers(min_value=0, max_value=60),
    tol=st.sampled_from([1e-12, 1e-9, 1e-3, 1e-15, 0.0]),
)
@settings(max_examples=300, deadline=None)
def test_matches_bisection_with_small_budgets(alpha, beta, t, sign, max_iter, tol):
    _assert_same(sign * math.exp(t), alpha, beta, max_iter=max_iter, tol=tol)


def test_matches_bisection_on_cli_payoff_grid():
    # payoff --family csemm --alpha 3 --beta 3 --grid -3:3:2001
    for p in np.linspace(-3.0, 3.0, 2001):
        _assert_same(float(p), 3.0, 3.0)


def test_matches_bisection_on_cli_fingerprint_points():
    # fingerprint --family csemm --alpha 3 --beta 4 --space sqrtprice
    # --grid 0.1:5:50 differentiates the reserve at p = (s -/+ h)^2.
    for s in np.linspace(0.1, 5.0, 50):
        s = float(s)
        h = 1e-5 * max(1.0, abs(s))
        if h >= s:
            h = 0.5 * s
        for q in (s + h, s - h):
            _assert_same(q * q, 3.0, 4.0)


@pytest.mark.parametrize(
    "p, alpha, beta",
    [(0.5, 2.0, 2.0), (0.5, 2.0, 4.0), (5.0, 4.0, 2.0)],
)
def test_out_of_reach_prices_refused_with_domain_error(p, alpha, beta):
    with pytest.raises(ConvergenceError):
        _bisect_reference(p, alpha, beta)
    with pytest.raises(DomainError, match=r"quotes only \|p\|"):
        csemm_x_from_price(p, alpha, beta)


@pytest.mark.parametrize(
    "p, alpha, beta, x",
    [(5.0, 2.0, 4.0, 0.09286734914303452), (1.0, 2.0, 2.0, 4.547473508864641e-13)],
)
def test_reachable_exponent_one_prices_keep_their_bits(p, alpha, beta, x):
    assert _bisect_reference(p, alpha, beta) == x
    assert csemm_x_from_price(p, alpha, beta) == x


@pytest.mark.parametrize("alpha, beta", PAIRS)
def test_state_from_price_is_the_checked_state_at_the_inverted_reserve(alpha, beta):
    # state_from_price builds its csemm state without re-checking the reserve;
    # it must be the state the checked path builds, bit for bit, or its refusal.
    spec = CurveSpec.csemm(alpha, beta)
    for t in np.linspace(-12.0, 12.0, 121):
        for sign in (1.0, -1.0):
            p = sign * math.exp(float(t))
            try:
                want = state_from_x(spec, csemm_x_from_price(p, alpha, beta))
            except NegammError as err:
                with pytest.raises(type(err), match=re.escape(str(err))):
                    state_from_price(spec, p)
                continue
            got = state_from_price(spec, p)
            assert type(got) is type(want)
            assert (got.x.hex(), got.y.hex(), got.theta) == (want.x.hex(), want.y.hex(), want.theta)
