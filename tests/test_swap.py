"""Swap engine: traversal, fees, domain policing, and the zero-price fold."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from negamm import (
    CurveSpec,
    DomainError,
    DomainExceeded,
    InvalidFee,
    NegammError,
    ParameterError,
    PoolState,
    invariant_residual,
    price_of,
    residual_scale,
    state_from_price,
    state_from_x,
)
from negamm.swap import (
    SwapRequest,
    TOKEN_X,
    TOKEN_Y,
    execute_swap,
    price_impact,
    quote_exact_in,
)
from conftest import CIRCLE_PARAM

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_swap_to_tangency():
    # From the unit-price point, buying the rest of the way to (1, 0).
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 1.0 - INV_SQRT2)
    new_state, result = execute_swap(spec, state, SwapRequest(TOKEN_X, INV_SQRT2))
    assert result.amount_out == pytest.approx(1.0 - INV_SQRT2, rel=1e-14)
    assert result.price_after == 0.0
    assert new_state.x == pytest.approx(1.0, rel=1e-15)
    assert new_state.y == 0.0


def test_swap_in_negative_region_trader_deposits_both():
    # Past the fold both reserves rise together: amount_out goes negative.
    spec = CurveSpec.ccmm(1.0)
    x0 = 1.0 + math.cos(7.0 * math.pi / 4.0)
    x1 = 1.0 + math.cos(11.0 * math.pi / 6.0)
    state = state_from_x(spec, x0)
    new_state, result = execute_swap(spec, state, SwapRequest(TOKEN_X, x1 - x0))
    assert result.price_before == pytest.approx(-1.0, rel=1e-14)
    assert result.amount_out == pytest.approx(-0.20710678118654713, rel=1e-12)
    assert result.amount_out < 0.0
    assert result.price_after == pytest.approx(-math.sqrt(3.0), rel=1e-13)
    assert new_state.y > state.y  # the pool gained y too


def test_csemm_swap_to_tangency():
    spec = CurveSpec.csemm(CIRCLE_PARAM, CIRCLE_PARAM)
    state = PoolState(x=1.0, y=1.0)
    new_state, result = execute_swap(
        spec, state, SwapRequest(TOKEN_X, CIRCLE_PARAM - 1.0)
    )
    assert result.amount_out == 1.0
    assert result.price_after == 0.0
    assert new_state.y == 0.0


def test_marginal_price_limit():
    """amount_out / amount_in -> price_before as the trade size vanishes."""
    cases = [
        (CurveSpec.ccmm(1.0), 0.5),
        (CurveSpec.csemm(3.0, 4.0), 1.0),
        (CurveSpec.parabola(2), 0.25),
        (CurveSpec.cpmm(2.0), 1.0),
    ]
    for spec, x0 in cases:
        state = state_from_x(spec, x0)
        eps = 1e-7
        result = quote_exact_in(spec, state, SwapRequest(TOKEN_X, eps))
        assert result.amount_out / eps == pytest.approx(
            result.price_before, abs=1e-5
        )


def test_quote_does_not_mutate():
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 0.5)
    quote_exact_in(spec, state, SwapRequest(TOKEN_X, 0.3))
    assert (state.x, state.y) == (0.5, state.y)


def test_y_input_swap_resolves_on_current_side():
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 0.5)  # left of the fold
    new_state, result = execute_swap(spec, state, SwapRequest(TOKEN_Y, 0.25))
    assert new_state.x < 0.5  # stayed on the left branch
    assert result.amount_out == pytest.approx(0.2877262861503477, rel=1e-12)
    assert new_state.y == state.y + 0.25  # y lands exactly where requested

    right = state_from_x(spec, 1.5)  # right of the fold
    new_right, _ = execute_swap(spec, right, SwapRequest(TOKEN_Y, 0.25))
    assert new_right.x > 1.5


def test_fee_reduces_effective_input():
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 0.5)
    gross = execute_swap(spec, state, SwapRequest(TOKEN_X, 0.5, fee=0.0))[1]
    net = execute_swap(spec, state, SwapRequest(TOKEN_X, 0.5, fee=0.003))[1]
    assert net.amount_out < gross.amount_out
    # fee is taken off the input before traversal
    manual = execute_swap(spec, state, SwapRequest(TOKEN_X, 0.5 * (1 - 0.003)))[1]
    assert net.amount_out == manual.amount_out


def test_fee_validation():
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 0.5)
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(InvalidFee):
            quote_exact_in(spec, state, SwapRequest(TOKEN_X, 0.1, fee=bad))


def test_amount_validation():
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 0.5)
    with pytest.raises(ParameterError):
        quote_exact_in(spec, state, SwapRequest(TOKEN_X, 0.0))
    with pytest.raises(ParameterError):
        quote_exact_in(spec, state, SwapRequest(TOKEN_X, math.nan))
    with pytest.raises(ParameterError):
        quote_exact_in(spec, state, SwapRequest("z", 0.1))


def test_rejected_beyond_branch():
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 1.5)
    with pytest.raises(DomainExceeded):
        quote_exact_in(spec, state, SwapRequest(TOKEN_X, 0.6))  # x' > 2k
    with pytest.raises(DomainExceeded):
        quote_exact_in(spec, state, SwapRequest(TOKEN_X, -1.6))  # x' < 0
    with pytest.raises(DomainExceeded):
        # y' would exceed the lower branch's reach
        quote_exact_in(spec, state_from_x(spec, 0.1), SwapRequest(TOKEN_Y, 0.9))


def test_cpmm_never_leaves_positive_prices():
    spec = CurveSpec.cpmm(2.0)
    state = state_from_x(spec, 1.0)
    for amt in (0.5, 5.0, 500.0):
        result = quote_exact_in(spec, state, SwapRequest(TOKEN_X, amt))
        assert result.price_after > 0.0
    with pytest.raises(DomainExceeded):
        quote_exact_in(spec, state, SwapRequest(TOKEN_X, -1.0))  # x' = 0
    # A new reserve that overflows to inf leaves the branch as well.
    with pytest.raises(DomainExceeded):
        execute_swap(spec, PoolState(1e308, 4e-308), SwapRequest(TOKEN_X, 1e308))
    with pytest.raises(DomainExceeded):
        execute_swap(spec, PoolState(4e-308, 1e308), SwapRequest(TOKEN_Y, 1e308))
    # y = 2.2e-16 solves to x = L^2 / y = inf, which the solved x's own range check
    # refuses: neither the trade's y check nor the state check's residual.
    spec = CurveSpec.cpmm(1e150)
    with pytest.raises(DomainError) as err:
        execute_swap(spec, state_from_x(spec, 1e300), SwapRequest(TOKEN_Y, -0.9999999999999998))
    assert type(err.value) is DomainError
    assert str(err.value) == "cpmm x must lie in (0, inf), got x=inf"


def test_price_impact_known_angles():
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 1.0 - INV_SQRT2)
    before, after = price_impact(spec, state, SwapRequest(TOKEN_X, INV_SQRT2))
    assert before == pytest.approx(1.0, rel=1e-14)
    assert after == 0.0


def test_price_impact_crossing_fold():
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 0.5)
    before, after = price_impact(spec, state, SwapRequest(TOKEN_X, 0.7))
    assert before > 0.0 > after


def test_amount_out_monotone_concave_positive_region():
    # At zero fee, out(amount) climbs but with falling marginal rate.
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 0.2)
    amounts = [0.05 * i for i in range(1, 16)]  # stays left of the fold
    outs = [
        quote_exact_in(spec, state, SwapRequest(TOKEN_X, a)).amount_out
        for a in amounts
    ]
    assert all(b > a for a, b in zip(outs, outs[1:]))
    second = [outs[i + 1] - 2 * outs[i] + outs[i - 1] for i in range(1, len(outs) - 1)]
    assert all(d < 0 for d in second)


def test_role_swap_symmetry_is_exact():
    # With alpha = beta the curve is symmetric in its reserves, and the
    # x-input and y-input code paths are the same formula: results must
    # match bit for bit, not merely to tolerance.
    for spec, x0 in [
        (CurveSpec.ccmm(1.0), 0.4),
        (CurveSpec.csemm(CIRCLE_PARAM, CIRCLE_PARAM), 1.2),
    ]:
        state = state_from_x(spec, x0)
        mirror = PoolState(x=state.y, y=state.x)
        fwd_state, fwd = execute_swap(spec, state, SwapRequest(TOKEN_X, 0.3))
        mir_state, mir = execute_swap(spec, mirror, SwapRequest(TOKEN_Y, 0.3))
        assert fwd_state.x == mir_state.y
        assert fwd_state.y == mir_state.x
        assert fwd.amount_out == mir.amount_out


@given(
    x0=st.floats(min_value=0.05, max_value=1.95),
    amount=st.floats(min_value=-0.5, max_value=0.5),
    fee=st.sampled_from([0.0, 0.003, 0.05]),
)
@settings(max_examples=300, deadline=None)
def test_residual_stays_small_ccmm(x0, amount, fee):
    if amount == 0.0:
        return
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, x0)
    try:
        _, result = execute_swap(spec, state, SwapRequest(TOKEN_X, amount, fee))
    except DomainExceeded:
        return
    assert abs(result.residual_after) <= 1e-9 * residual_scale(spec)


@given(
    x0=st.floats(min_value=0.1, max_value=5.9),
    amount=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_zero_fee_roundtrip_csemm(x0, amount):
    spec = CurveSpec.csemm(3.0, 4.0)
    state = state_from_x(spec, x0)
    try:
        mid, out = execute_swap(spec, state, SwapRequest(TOKEN_X, amount))
        back, _ = execute_swap(spec, mid, SwapRequest(TOKEN_X, -amount))
    except DomainExceeded:
        return
    assert back.x == pytest.approx(state.x, abs=1e-9)
    assert back.y == pytest.approx(state.y, abs=1e-9)


@given(
    d1=st.floats(min_value=0.01, max_value=0.4),
    d2=st.floats(min_value=0.01, max_value=0.4),
)
@settings(max_examples=200, deadline=None)
def test_swap_composition(d1, d2):
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 0.3)
    try:
        a, _ = execute_swap(spec, state, SwapRequest(TOKEN_X, d1))
        b, _ = execute_swap(spec, a, SwapRequest(TOKEN_X, d2))
        c, _ = execute_swap(spec, state, SwapRequest(TOKEN_X, d1 + d2))
    except DomainExceeded:
        return
    assert b.x == pytest.approx(c.x, abs=1e-9)
    assert b.y == pytest.approx(c.y, abs=1e-9)


@given(x0=st.floats(min_value=0.05, max_value=1.95),
       amount=st.floats(min_value=-0.4, max_value=0.4))
@settings(max_examples=200, deadline=None)
def test_adding_x_pushes_price_down(x0, amount):
    if amount == 0.0:
        return
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, x0)
    try:
        result = quote_exact_in(spec, state, SwapRequest(TOKEN_X, amount))
    except DomainExceeded:
        return
    if result.price_before != result.price_after:
        moved_down = result.price_before > result.price_after
        assert moved_down == (amount > 0)


def test_negative_price_region_x_input_yields_negative_out():
    spec = CurveSpec.csemm(3.0, 4.0)
    state = state_from_x(spec, 4.0)  # right of the fold, price < 0
    result = quote_exact_in(spec, state, SwapRequest(TOKEN_X, 0.3))
    assert result.price_before < 0.0
    assert result.amount_out < 0.0


def test_execute_swap_solves_the_curve_once(monkeypatch):
    """Per trade the family record solves the curve once: y(x) for x in, in its point
    (given no y), x(y) for y in, through one public x_from_y_on_side; only ccmm reads
    y(x) again, for its angle."""
    from negamm import curves

    calls = []  # (what ran, whether inside the public x_from_y_on_side)
    inside = [False]

    def counting(entry, original):
        def wrapped(*args):
            if entry != "point" or args[2] is None:  # a point given its y solves nothing
                calls.append((entry, inside[0]))
            return original(*args)
        return wrapped

    for fam, rec in list(curves._FAMILIES.items()):
        monkeypatch.setitem(curves._FAMILIES, fam, dataclasses.replace(
            rec, y=counting("y", rec.y), x_of_y=counting("x_of_y", rec.x_of_y),
            point=counting("point", rec.point)))
    public = curves.x_from_y_on_side

    def x_from_y_on_side(*args):
        calls.append(("x_from_y_on_side", inside[0]))
        inside[0] = True
        try:
            return public(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(curves, "x_from_y_on_side", x_from_y_on_side)
    for spec in ALL_FAMILIES:
        for x in (0.5, 1.5):
            state = state_from_x(spec, x)
            for req in (SwapRequest(TOKEN_X, 0.2, 0.003), SwapRequest(TOKEN_Y, 0.1, 0.003)):
                calls.clear()
                new, res = execute_swap(spec, state, req)
                if req.token_in == TOKEN_X:
                    expected = [("point", False)]
                else:
                    expected = [("x_from_y_on_side", False), ("x_of_y", True)]
                    expected += [("y", False)] * (spec.family == "ccmm")
                assert calls == expected, (spec, x, req)
                assert res == quote_exact_in(spec, state, req)
                assert new == res.new_state


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls; returns the counter."""
    calls = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


ALL_FAMILIES = [CurveSpec.ccmm(1.0), CurveSpec.csemm(3.0, 4.0), CurveSpec.cpmm(1.0),
                CurveSpec.parabola(2)]
BOTH_TOKENS = (SwapRequest(TOKEN_X, 0.2, 0.003), SwapRequest(TOKEN_Y, 0.1, 0.003))


def test_csemm_swap_reads_the_spec_exponents(monkeypatch):
    from negamm import curves

    spec = CurveSpec.csemm(3.0, 4.0)
    calls = _count_calls(monkeypatch, curves, "csemm_exponent")
    for x in (0.5, 4.0):  # either side of the fold
        state = state_from_x(spec, x)
        for req in BOTH_TOKENS:
            calls[0] = 0
            execute_swap(spec, state, req)
            assert calls[0] == 0, (x, req)


def test_execute_swap_computes_each_residual_once(residuals):
    for spec in ALL_FAMILIES:
        state = state_from_x(spec, 0.5)
        for req in BOTH_TOKENS:
            residuals[0] = 0
            execute_swap(spec, state, req)
            assert residuals[0] == 2, (spec, req)


def test_parabola_hot_paths_build_no_spec(monkeypatch):
    spec = CurveSpec.parabola(2)
    state = state_from_x(spec, 0.5)
    calls = _count_calls(monkeypatch, CurveSpec, "__post_init__")
    for req in BOTH_TOKENS:
        execute_swap(spec, state, req)
    state_from_price(spec, 0.7)
    assert calls[0] == 0


def test_result_residual_and_price_are_those_of_the_new_state():
    for spec in ALL_FAMILIES:
        for x in (0.3, 0.5, 1.2):
            state = state_from_x(spec, x)
            for req in BOTH_TOKENS:
                new, res = execute_swap(spec, state, req)
                assert res.residual_after == invariant_residual(spec, new.x, new.y)
                assert res.price_after == price_of(spec, new)


def test_cpmm_hot_paths_skip_the_public_checks(monkeypatch):
    from negamm import curves

    spec = CurveSpec.cpmm(1.0)
    state = state_from_x(spec, 0.5)
    calls = [_count_calls(monkeypatch, curves, name)
             for name in ("cpmm_y_from_x", "cpmm_x_from_price")]
    for req in BOTH_TOKENS:
        execute_swap(spec, state, req)
    state_from_price(spec, 0.7)
    assert [c[0] for c in calls] == [0, 0]


def test_upper_branch_state_is_not_traded():
    spec = CurveSpec.ccmm(1.0)
    state = PoolState(0.5, 1.0 + math.sqrt(0.75))  # the upper branch above x = 0.5
    for req in BOTH_TOKENS:
        with pytest.raises(DomainError, match="upper"):
            execute_swap(spec, state, req)


@pytest.mark.parametrize("alpha, beta", [(3.0, 4.0), (2.0, 2.0), (8.0, 2.5)])
def test_csemm_branch_ends_quote_and_trade_inward(alpha, beta):
    # At x = 5e-324, x/alpha underflows to 0, so 1 - |x/alpha - 1|^u is 0 and
    # has no log: the price is the branch end's, +inf.
    spec = CurveSpec.csemm(alpha, beta)
    low = state_from_x(spec, 5e-324)
    high = state_from_x(spec, math.nextafter(2.0 * alpha, 0.0))
    assert price_of(spec, low) == math.inf
    assert -math.inf < price_of(spec, high) < 0.0
    for state in (low, high):
        # Inward: x in at the low end, x out at the high end; y out at both.
        inward = ((TOKEN_X, 0.1 if state is low else -0.1), (TOKEN_Y, -0.1))
        for token, amount in inward:
            new_state, result = execute_swap(spec, state, SwapRequest(token, amount))
            assert result.price_before == price_of(spec, state)
            assert math.isfinite(result.price_after)
            assert 0.0 < new_state.x < 2.0 * alpha
            with pytest.raises(DomainExceeded):
                execute_swap(spec, state, SwapRequest(token, -amount))


# ------------------------------------------------- chains of trades (stored check)

CHAIN_SPECS = [CurveSpec.ccmm(1.0), CurveSpec.csemm(3.0, 4.0),
               CurveSpec.csemm(CIRCLE_PARAM, CIRCLE_PARAM), CurveSpec.csemm(2.0, 3.0),
               CurveSpec.cpmm(1.0), CurveSpec.parabola(2)]


def _outcome(fn, *args):
    """Every float of a result as float.hex, or the refusal's class and text."""
    try:
        result = fn(*args)
    except NegammError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):  # execute_swap's (new_state, result)
        result = result[1]
    s = result.new_state
    return tuple(float.hex(v) for v in (result.amount_out, result.price_before,
                                        result.price_after, result.residual_after, s.x, s.y)
                 ) + (s.theta if s.theta is None else float.hex(s.theta),)


@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=repr)
def test_chained_trades_match_the_same_trades_on_fresh_states(spec):
    rng = random.Random(f"chain:{spec!r}")
    hi = 2.0 * (spec.k or spec.alpha or 0.5)  # the ccmm and csemm x span; 1.0 otherwise
    state = state_from_x(spec, 0.3 * hi)
    refused, signs = 0, set()
    for _ in range(240):
        token = rng.choice((TOKEN_X, TOKEN_Y))
        reach = state.x if spec.family.value == "cpmm" else hi
        amount = rng.uniform(-0.6, 0.6) * reach * (3.0 if rng.random() < 0.1 else 1.0)
        req = SwapRequest(token, amount, rng.choice((0.0, 0.003)))
        fresh = PoolState(state.x, state.y, state.theta)
        assert price_of(spec, state) == price_of(spec, fresh)
        for fn in (quote_exact_in, execute_swap):
            assert _outcome(fn, spec, state, req) == _outcome(fn, spec, fresh, req), (state, req)
        try:
            state, result = execute_swap(spec, state, req)
        except NegammError:
            refused += 1
            continue
        signs.add(math.copysign(1.0, result.price_after))
    assert refused > 0
    assert signs == ({1.0} if spec.family.value == "cpmm" else {1.0, -1.0})


def test_execute_on_a_traded_state_computes_one_residual(residuals):
    for spec in ALL_FAMILIES:
        for req in BOTH_TOKENS:
            state, _ = execute_swap(spec, state_from_x(spec, 0.5), req)
            residuals[0] = 0
            execute_swap(spec, state, req)
            assert residuals[0] == 1, (spec, req)


def test_traded_state_gets_the_full_check_for_any_other_spec(residuals):
    for spec in ALL_FAMILIES:
        state, result = execute_swap(spec, state_from_x(spec, 0.5), BOTH_TOKENS[0])
        residuals[0] = 0
        assert price_of(spec, state) == result.price_after and residuals[0] == 0
        equal = CurveSpec(spec.family, spec.k, spec.alpha, spec.beta, spec.m, spec.L)
        assert equal == spec and equal is not spec
        assert price_of(equal, state) == result.price_after and residuals[0] == 1
    # A different curve re-checks the state and refuses it: it is off that curve.
    state, _ = execute_swap(CurveSpec.ccmm(1.0), state_from_x(CurveSpec.ccmm(1.0), 0.5),
                            BOTH_TOKENS[0])
    with pytest.raises(DomainError, match="off-curve"):
        price_of(CurveSpec.ccmm(2.0), state)
    with pytest.raises(DomainError, match="off-curve"):
        execute_swap(CurveSpec.ccmm(2.0), state, BOTH_TOKENS[1])


@pytest.mark.parametrize("x0", [1e6, 1e7, 1e8, 1e10, 1e12])
def test_parabola_y_trades_at_large_reserves_stay_on_curve(x0):
    # y is unbounded on the parabola's right side, so its on-curve tolerance grows with y.
    spec = CurveSpec.parabola(2)
    rng = random.Random(int(x0).bit_length())
    start = state_from_x(spec, x0)
    for _ in range(199):
        req = SwapRequest(TOKEN_Y, start.y * rng.uniform(-0.9, 3.0))
        state, result = execute_swap(spec, start, req)
        assert abs(result.residual_after) <= 1e-9 * max(1.0, state.y)
        assert result.price_after == price_of(spec, PoolState(state.x, state.y)) < 0.0
        again = execute_swap(spec, state, SwapRequest(TOKEN_Y, -0.5 * state.y, 0.003))[1]
        assert again.new_state.y < state.y and again.price_after > result.price_after


def test_parabola_state_with_unbounded_y_is_refused():
    spec = CurveSpec.parabola(2)
    for y in (math.inf, -math.inf, math.nan):
        for x in (4.0, 1e10, math.inf):
            with pytest.raises(DomainError):
                price_of(spec, PoolState(x, y))
    x = 1e10
    y = state_from_x(spec, x).y
    price_of(spec, PoolState(x, y * (1.0 + 5e-10)))
    with pytest.raises(DomainError, match="off-curve"):
        price_of(spec, PoolState(x, y * (1.0 + 2e-9)))
    assert residual_scale(spec) == 1.0



def test_fee_comes_off_the_input_reserve_exactly():
    # The pool's input reserve moves by (1 - fee) * amount, bit for bit, on every family
    # (x in) and on the exact requested y (y in).  A trade that crosses the ccmm fold
    # cannot tell a fee added from one taken off: the circle's mirror reserves pay the same.
    for spec in (CurveSpec.ccmm(1.0), CurveSpec.csemm(3.0, 4.0), CurveSpec.cpmm(1.0),
                 CurveSpec.parabola(2)):
        state = state_from_x(spec, 0.5)
        for token, amount in ((TOKEN_X, 0.1), (TOKEN_Y, 0.05)):
            new, _ = execute_swap(spec, state, SwapRequest(token, amount, fee=0.003))
            moved = (new.x, state.x) if token == TOKEN_X else (new.y, state.y)
            assert moved[0] == moved[1] + (1.0 - 0.003) * amount


# ------------------------------------------------- a trade's own check of its new state

# (spec, x span to start from, y span to move by): the ccmm and csemm branches, and
# wide enough windows of the cpmm and parabola ones, whose fold is at x = 1
CHECKED_TRADES = [(CurveSpec.ccmm(1.0), 2.0, 1.0), (CurveSpec.csemm(3.0, 4.0), 6.0, 4.0),
                  (CurveSpec.csemm(8.0, 2.5), 16.0, 2.5), (CurveSpec.cpmm(1.0), 4.0, 4.0),
                  (CurveSpec.parabola(2), 4.0, 1.0)]


@settings(max_examples=400, deadline=None)
@given(case=st.sampled_from(CHECKED_TRADES),
       where=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)),
       token=st.sampled_from((TOKEN_X, TOKEN_Y)),
       reach=st.one_of(st.sampled_from([-1.0, -0.5, 0.5, 1.0]), st.floats(-1.5, 1.5)),
       fee=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
def test_a_trade_result_matches_the_full_check_of_its_state(case, where, token, reach, fee):
    # A trade checks its new state in one pass, without the full check's second range test
    # and upper-branch test; the full check of the same reserves must agree with it.
    spec, x_span, y_span = case
    x0 = where * x_span
    if spec.family.value == "cpmm" and x0 == 0.0:
        x0 = 0.5 * x_span  # x = 0 is off cpmm's branch
    amount = reach * (x_span if token == TOKEN_X else y_span)
    if amount == 0.0:
        return
    try:
        new, result = execute_swap(spec, state_from_x(spec, x0), SwapRequest(token, amount, fee))
    except NegammError:
        return  # past a branch end, or a cpmm x that overflows
    fresh = PoolState(new.x, new.y, new.theta)  # no stored check: price_of checks it in full
    assert float.hex(result.price_after) == float.hex(price_of(spec, fresh))
    assert float.hex(result.residual_after) == float.hex(invariant_residual(spec, new.x, new.y))
    if spec.family.value in ("ccmm", "csemm"):  # the top of the left-side y range
        assert new.y <= (spec.k if spec.family.value == "ccmm" else spec.beta)


# (spec, start x, token, amount, message): a trade leaves the branch, per family and
# token, on both sides of the fold where the y range differs by side
TRADE_REFUSALS = [
    (CurveSpec.ccmm(1.0), 0.5, TOKEN_X, 5.0,
     "trade would move x to 5.5, outside the branch [0, 2.0]"),
    (CurveSpec.ccmm(1.0), 1.0, TOKEN_Y, 5.0,
     "trade would move y to 5.0, outside the branch [0, 1.0]"),
    (CurveSpec.csemm(3.0, 4.0), 0.5, TOKEN_X, 6.0,
     "trade would move x to 6.5, outside the branch [0, 6.0]"),
    (CurveSpec.csemm(3.0, 4.0), 3.0, TOKEN_Y, 5.0,
     "trade would move y to 5.0, outside the branch [0, 4.0]"),
    (CurveSpec.cpmm(1.0), 0.5, TOKEN_X, -1.0,
     "trade would move x to -0.5, outside the branch (0, inf)"),
    (CurveSpec.cpmm(1.0), 0.5, TOKEN_Y, -3.0,
     "trade would move y to -1.0, outside the branch (0, inf)"),
    (CurveSpec.parabola(2), 0.5, TOKEN_X, -1.0,
     "trade would move x to -0.5, outside the branch [0, inf)"),
    (CurveSpec.parabola(2), 0.25, TOKEN_Y, 1.0,
     "trade would move y to 1.25, outside the branch [0, 1.0]"),
    (CurveSpec.parabola(2), 4.0, TOKEN_Y, -2.0,
     "trade would move y to -1.0, outside the branch [0, inf)"),
]


@pytest.mark.parametrize("spec, x0, token, amount, message", TRADE_REFUSALS)
def test_a_trade_off_the_branch_is_refused_in_the_trade_wording(spec, x0, token, amount,
                                                               message):
    state = state_from_x(spec, x0)
    for fn in (quote_exact_in, execute_swap):
        with pytest.raises(DomainExceeded) as exc:
            fn(spec, state, SwapRequest(token, amount))
        assert str(exc.value) == message


def test_a_y_trade_whose_solved_x_leaves_the_branch_is_refused():
    # The solved x is checked as a reserve: cpmm's x = 1/y overflows for a subnormal y.
    spec = CurveSpec.cpmm(1.0)
    state = state_from_x(spec, 1e300)
    with pytest.raises(DomainError) as exc:
        execute_swap(spec, state, SwapRequest(TOKEN_Y, 1e-310 - state.y))
    assert type(exc.value) is DomainError
    assert str(exc.value) == "cpmm x must lie in (0, inf), got x=inf"


@pytest.mark.parametrize("spec, state, message", [
    (CurveSpec.ccmm(1.0), PoolState(0.5, 0.5),
     "state (0.5, 0.5) is off-curve: residual -5.000e-01"),
    (CurveSpec.csemm(3.0, 4.0), PoolState(3.0, 4.0),
     "state (3.0, 4.0) is off-curve: residual -1.000e+00"),
    (CurveSpec.cpmm(1.0), PoolState(1.0, 2.0),
     "state (1.0, 2.0) is off-curve: residual 1.000e+00"),
    (CurveSpec.parabola(2), PoolState(4.0, 0.0),
     "state (4.0, 0.0) is off-curve: residual -1.000e+00"),
])
def test_a_quote_on_an_off_curve_state_is_refused(spec, state, message):
    for req in BOTH_TOKENS:
        with pytest.raises(DomainError) as exc:
            quote_exact_in(spec, state, req)
        assert type(exc.value) is DomainError
        assert str(exc.value) == message


def test_the_on_curve_tolerance_is_inclusive():
    # At x = 1 the parabola's residual is y itself and its scale is 1, so a residual of
    # exactly 1e-9 times the scale is accepted and the next float above it is refused.
    spec = CurveSpec.parabola(2)
    assert price_of(spec, PoolState(1.0, 1e-9)) == 0.0
    with pytest.raises(DomainError, match="off-curve"):
        price_of(spec, PoolState(1.0, math.nextafter(1e-9, 1.0)))
