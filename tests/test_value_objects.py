"""The frozen value classes: fields, repr, equality, hashing, replace, immutability."""

import copy
import dataclasses
import math
import pickle

import pytest

from negamm import (CurveSpec, FingerprintSample, GreeksPoint, PoolState, SwapResult, price_of,
                    state_from_x)
from negamm.swap import SwapRequest, execute_swap

STATE = PoolState(1.5, 0.25, 4.0)
# (class, positional values, repr, defaults left out of the positional values)
CASES = [
    (PoolState, (1.5, 0.25, 4.0), "PoolState(x=1.5, y=0.25, theta=4.0)", {"theta": None}),
    (GreeksPoint, (-0.7, 2.5, 1.25, -0.5, 0.16),
     "GreeksPoint(p=-0.7, value=2.5, delta=1.25, gamma=-0.5, theta=0.16)", {}),
    (FingerprintSample, (0.5, -math.inf, "negative_price"),
     "FingerprintSample(coord=0.5, density=-inf, domain_sign='negative_price')",
     {"domain_sign": "positive_price"}),
    (SwapResult, (0.75, 2.0, -1.0, 0.0, STATE),
     "SwapResult(amount_out=0.75, price_before=2.0, price_after=-1.0, residual_after=0.0, "
     "new_state=PoolState(x=1.5, y=0.25, theta=4.0))", {}),
]


@pytest.mark.parametrize("cls, values, text, defaults", CASES)
def test_value_class_behaves_as_a_frozen_dataclass(cls, values, text, defaults):
    names = [f.name for f in dataclasses.fields(cls)]
    assert len(names) == len(values)
    obj = cls(*values)
    assert repr(obj) == text
    assert [getattr(obj, n) for n in names] == list(values)
    assert vars(obj) == dict(zip(names, values))
    # Keyword construction, ==, hash and the defaults.
    same = cls(**dict(zip(names, values)))
    assert same == obj and hash(same) == hash(obj) and same is not obj
    required = [n for n in names if n not in defaults]
    bare = cls(*values[: len(required)])
    assert {n: getattr(bare, n) for n in defaults} == defaults
    # replace builds a new object of the same class; the original is untouched.
    first = names[0]
    changed = dataclasses.replace(obj, **{first: 9.0})
    assert type(changed) is cls and getattr(changed, first) == 9.0
    assert changed != obj and obj == cls(*values)
    # Frozen: no field can be assigned or deleted, and no new attribute added.
    for name in (first, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(obj, first)
    # Never equal to a plain tuple of the same values, nor to another class.
    assert obj != tuple(values) and tuple(values) != obj
    assert all(obj != other(*o_values) for other, o_values, _, _ in CASES if other is not cls)
    # Copies and pickles round-trip to equal objects.
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls and clone == obj and repr(clone) == text


def test_copies_of_a_traded_state_are_equal_and_carry_no_stored_check(residuals):
    spec = CurveSpec.csemm(3.0, 4.0)
    traded, result = execute_swap(spec, state_from_x(spec, 0.5), SwapRequest("x", 0.2))
    fresh = PoolState(traded.x, traded.y, traded.theta)
    assert vars(traded) == vars(fresh) and repr(traded) == repr(fresh)
    assert traded == fresh and hash(traded) == hash(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        traded._checked = None
    residuals[0] = 0
    assert price_of(spec, traded) == result.price_after and residuals[0] == 0
    for clone in (copy.copy(traded), copy.deepcopy(traded), pickle.loads(pickle.dumps(traded)),
                  dataclasses.replace(traded)):
        assert type(clone) is PoolState and clone == traded and vars(clone) == vars(traded)
        residuals[0] = 0
        assert price_of(spec, clone) == result.price_after and residuals[0] == 1
