"""An execute that follows its own quote returns that quote instead of solving again.

``quote_exact_in`` (and so ``price_impact``) keeps its last result; ``execute_swap``
of the very same spec, state and request objects returns it, and every execute
clears it.  These tests pin that a hit returns the bits a fresh solve returns,
when the curve is solved, and that nothing outlives the execute.
"""

import copy
import dataclasses
import gc
import weakref

import pytest

from negamm import CurveSpec, DomainExceeded, PoolState, state_from_x
from negamm import swap
from negamm.swap import SwapRequest, TOKEN_X, TOKEN_Y, execute_swap, price_impact, quote_exact_in

FAMILIES = [lambda: CurveSpec.ccmm(1.0), lambda: CurveSpec.csemm(3.0, 4.0),
            lambda: CurveSpec.cpmm(1.0), lambda: CurveSpec.parabola(2)]
REQUESTS = [lambda: SwapRequest(TOKEN_X, 0.2, 0.003), lambda: SwapRequest(TOKEN_Y, 0.1, 0.003)]
READS = [quote_exact_in, price_impact]


def _hexes(new, res):
    """float.hex of every field an execute returns."""
    fields = (new.x, new.y, res.amount_out, res.price_before, res.price_after,
              res.residual_after, res.new_state.x, res.new_state.y)
    return tuple(float(v).hex() for v in fields)


def _states(spec):
    """A state no trade returned, and one a trade returned (it carries its check)."""
    traded = execute_swap(spec, state_from_x(spec, 0.4), SwapRequest(TOKEN_X, 0.1))[0]
    return [state_from_x(spec, 0.5), traded]


@pytest.mark.parametrize("read", READS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("make_req", REQUESTS, ids=("x_in", "y_in"))
@pytest.mark.parametrize("make_spec", FAMILIES, ids=("ccmm", "csemm", "cpmm", "parabola"))
def test_execute_after_a_read_returns_the_bits_of_a_fresh_execute(make_spec, make_req, read):
    spec, req = make_spec(), make_req()
    for state in _states(spec):
        looked = read(spec, state, req)
        new, res = execute_swap(spec, state, req)
        if read is quote_exact_in:
            assert res is looked
        else:
            assert looked == (res.price_before, res.price_after)
        assert new is res.new_state
        fresh_new, fresh_res = execute_swap(make_spec(), PoolState(state.x, state.y), make_req())
        assert _hexes(new, res) == _hexes(fresh_new, fresh_res), (spec, state, req)
        assert (new, res) == (fresh_new, fresh_res)


@pytest.fixture
def solves(monkeypatch):
    """Every curve solve of the family records, y(x) and x(y), as a list of names; a
    ``point`` solves y(x) where it is given no y."""
    from negamm import curves

    calls = []

    def counting(entry, original):
        def wrapped(*args):
            if entry != "point" or args[2] is None:
                calls.append(entry)
            return original(*args)
        return wrapped

    for fam, rec in list(curves._FAMILIES.items()):
        monkeypatch.setitem(curves._FAMILIES, fam, dataclasses.replace(
            rec, y=counting("y", rec.y), x_of_y=counting("x_of_y", rec.x_of_y),
            point=counting("point", rec.point)))
    return calls


def _one_solve(spec, state, req, solves):
    """The solves of one execute with no read before it, from an equal state."""
    solves.clear()
    execute_swap(spec, PoolState(state.x, state.y), req)
    once = list(solves)
    assert once  # every trade solves the curve at least once
    solves.clear()
    return once


@pytest.mark.parametrize("make_req", REQUESTS, ids=("x_in", "y_in"))
@pytest.mark.parametrize("make_spec", FAMILIES, ids=("ccmm", "csemm", "cpmm", "parabola"))
def test_when_an_execute_solves_the_curve(make_spec, make_req, solves):
    spec, req = make_spec(), make_req()
    state = state_from_x(spec, 0.5)
    once = _one_solve(spec, state, req, solves)

    # the quote of the same three objects: nothing is solved
    for read in READS:
        read(spec, state, req)
        solves.clear()
        execute_swap(spec, state, req)
        assert solves == [], read.__name__

    # a quote of an equal but distinct request, state or spec: one solve
    other_spec = copy.copy(spec)
    assert other_spec == spec and other_spec is not spec
    for quoted in ((spec, state, make_req()), (spec, PoolState(state.x, state.y), req),
                   (other_spec, state, req)):
        quote_exact_in(*quoted)
        solves.clear()
        execute_swap(spec, state, req)
        assert solves == once, quoted

    # two executes in a row of the same objects: two solves
    quote_exact_in(spec, state, req)
    solves.clear()
    execute_swap(spec, state, req)
    execute_swap(spec, state, req)
    assert solves == once

    # quote A, quote B, execute A: the later quote is the pending one
    other_req = SwapRequest(req.token_in, req.amount_in / 2, req.fee)
    quote_exact_in(spec, state, req)
    quote_exact_in(spec, state, other_req)
    solves.clear()
    execute_swap(spec, state, req)
    assert solves == once
    quote_exact_in(spec, state, req)
    quote_exact_in(spec, state, other_req)
    solves.clear()
    execute_swap(spec, state, other_req)
    assert solves == []


def test_a_miss_calls_quote_exact_in_through_the_module(monkeypatch):
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 0.5)
    req = SwapRequest(TOKEN_X, 0.2)
    calls = []
    original = swap.quote_exact_in

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(swap, "quote_exact_in", counting)
    swap.execute_swap(spec, state, req)
    assert calls == [(spec, state, req)]
    calls.clear()
    swap.quote_exact_in(spec, state, req)
    swap.execute_swap(spec, state, req)
    assert len(calls) == 1  # the quote itself; the execute reused it


def test_a_refused_quote_leaves_the_pending_quote_as_it_was(solves):
    spec = CurveSpec.ccmm(1.0)
    state = state_from_x(spec, 0.5)
    good = SwapRequest(TOKEN_X, 0.2)
    bad = SwapRequest(TOKEN_X, 5.0)  # past x = 2k, off the branch
    quoted = quote_exact_in(spec, state, good)
    with pytest.raises(DomainExceeded) as by_quote:
        quote_exact_in(spec, state, bad)
    solves.clear()
    new, res = execute_swap(spec, state, good)
    assert res is quoted and solves == []
    with pytest.raises(DomainExceeded) as by_execute:
        execute_swap(spec, state, bad)
    assert type(by_execute.value) is type(by_quote.value)
    assert str(by_execute.value) == str(by_quote.value)


def test_no_state_outlives_its_execute():
    spec = CurveSpec.csemm(3.0, 4.0)
    req = SwapRequest(TOKEN_Y, 0.1, 0.003)
    state = state_from_x(spec, 0.5)
    old = weakref.ref(state)
    quote_exact_in(spec, state, req)
    new, res = execute_swap(spec, state, req)
    del state, res
    gc.collect()
    assert old() is None
    assert new.x > 0.0


def test_an_execute_that_missed_leaves_nothing_pending():
    spec = CurveSpec.cpmm(1.0)
    req = SwapRequest(TOKEN_X, 0.2)
    state = state_from_x(spec, 0.5)
    old = weakref.ref(state)
    execute_swap(spec, state, req)
    del state
    gc.collect()
    assert old() is None
