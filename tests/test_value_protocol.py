"""The ten value classes keep the frozen-dataclass protocol, and build without ``dataclasses``.

Their methods come from the small ``negamm._value`` base; ``__dataclass_fields__`` and
``__dataclass_params__`` are made on first read.  The field names and defaults pinned
here are those the classes had as ``@dataclass(frozen=True)`` classes.
"""

import ast
import copy
import dataclasses
import datetime
import pickle
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from negamm.curves import _FAMILIES, CurveSpec, Family, PoolState, _Record
from negamm.fingerprint import FingerprintSample
from negamm.payoff import GreeksPoint
from negamm.series import PriceSeries, ReturnSeries, YearStats
from negamm.swap import SwapRequest, SwapResult

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = "required"  # a field without a default
FACTORY_DICT = "default_factory=dict"
LAMBDA = "the class's own lambda"

STATE = PoolState(0.5, 0.25, 4.0)
DATES = (datetime.date(2020, 4, 19), datetime.date(2020, 4, 20))

# class: (an object of it, {field: default} in field order, a field to replace, its new value)
CASES = {
    CurveSpec: (CurveSpec.csemm(3.0, 4.0),
                {"family": REQUIRED, "k": None, "alpha": None, "beta": None, "m": None,
                 "L": None}, "alpha", 5.0),
    PoolState: (STATE, {"x": REQUIRED, "y": REQUIRED, "theta": None}, "x", 0.75),
    _Record: (_FAMILIES[Family.PARABOLA],
              {"params": REQUIRED, "check": REQUIRED, "residual": REQUIRED, "y": REQUIRED,
               "x_of_y": REQUIRED, "point": REQUIRED, "at_price": REQUIRED, "gamma": REQUIRED,
               "defaults": FACTORY_DICT, "open_low": False, "upper_branch": False,
               "branch": LAMBDA, "scale": LAMBDA, "theta": None, "derive": LAMBDA},
              "open_low", True),
    SwapRequest: (SwapRequest("y", 0.1, 0.003),
                  {"token_in": REQUIRED, "amount_in": REQUIRED, "fee": 0.0}, "fee", 0.01),
    SwapResult: (SwapResult(0.75, 2.0, -1.0, 0.0, STATE),
                 {"amount_out": REQUIRED, "price_before": REQUIRED, "price_after": REQUIRED,
                  "residual_after": REQUIRED, "new_state": REQUIRED}, "amount_out", 0.5),
    GreeksPoint: (GreeksPoint(-0.7, 2.5, 1.25, -0.5, 0.16),
                  {"p": REQUIRED, "value": REQUIRED, "delta": REQUIRED, "gamma": REQUIRED,
                   "theta": REQUIRED}, "gamma", -0.25),
    FingerprintSample: (FingerprintSample(0.5, 1.5, "negative_price"),
                        {"coord": REQUIRED, "density": REQUIRED,
                         "domain_sign": "positive_price"}, "density", 2.0),
    PriceSeries: (PriceSeries(DATES, (1.5, -2.0)), {"dates": REQUIRED, "prices": REQUIRED},
                  "prices", (3.0, 4.0)),
    ReturnSeries: (ReturnSeries("arithmetic_diff", DATES[1:], (-3.5,)),
                   {"mode": REQUIRED, "dates": REQUIRED, "values": REQUIRED, "skipped": 0},
                   "skipped", 2),
    YearStats: (YearStats(12, -7.5), {"negative_days": REQUIRED, "min_price": REQUIRED},
                "min_price", -8.0),
}
UNHASHABLE = (_Record,)  # its params field is a dict, as at any frozen dataclass
UNPICKLABLE = (_Record,)  # its fields hold lambdas


def default_of(cls, field):
    if field.default_factory is dict:
        return FACTORY_DICT
    if field.default is dataclasses.MISSING:
        return REQUIRED
    if callable(field.default) and field.default is vars(cls).get(field.name):
        return LAMBDA
    return field.default


def test_every_value_class_is_pinned():
    assert len(CASES) == 10


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_fields_and_defaults_are_the_dataclass_ones(cls):
    obj, pinned, _, _ = CASES[cls]
    assert {f.name: default_of(cls, f) for f in dataclasses.fields(cls)} == pinned
    assert [f.name for f in dataclasses.fields(obj)] == list(pinned)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(obj)
    assert cls.__dataclass_params__.frozen and cls.__dataclass_params__.eq
    assert cls.__match_args__ == tuple(pinned)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_replace_asdict_hash_and_frozen(cls):
    obj, pinned, name, value = CASES[cls]
    values = tuple(getattr(obj, n) for n in pinned)
    changed = dataclasses.replace(obj, **{name: value})
    assert type(changed) is cls and getattr(changed, name) == value and changed != obj
    assert dataclasses.replace(obj) == obj and obj == cls(*values)
    plain = {n: vars(v) if isinstance(v, PoolState) else v for n, v in zip(pinned, values)}
    assert dataclasses.asdict(obj) == plain
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(values)
    for attr in (name, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field"):
            setattr(obj, attr, value)
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field"):
            delattr(obj, attr)
    assert tuple(getattr(obj, n) for n in pinned) == values


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_copies_pickles_and_patterns(cls):
    obj, pinned, _, _ = CASES[cls]
    clones = [copy.copy(obj), copy.deepcopy(obj)]
    if cls not in UNPICKLABLE:
        clones.append(pickle.loads(pickle.dumps(obj)))
    for clone in clones:
        assert type(clone) is cls and clone == obj and repr(clone) == repr(obj)
    first, second = list(pinned)[:2]
    match obj:
        case cls(a, b):
            assert (a, b) == (getattr(obj, first), getattr(obj, second))
        case _:
            pytest.fail("positional pattern did not match")


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_type_hints_resolve(cls):
    assert list(typing.get_type_hints(cls)) == list(CASES[cls][1])


def test_generic_init_refuses_what_a_dataclass_init_refuses():
    assert YearStats(min_price=-1.0, negative_days=3) == YearStats(3, -1.0)
    for args, kwargs in [((3,), {}), ((3, -1.0, 0), {}), ((3,), {"negative_days": 4}),
                         ((3, -1.0), {"extra": 1})]:
        with pytest.raises(TypeError, match="YearStats"):
            YearStats(*args, **kwargs)
    records = list(_FAMILIES.values())
    assert records[0].defaults == {} and records[0].defaults is not records[1].defaults


def test_values_build_without_dataclasses_until_the_protocol_is_read():
    # -S: no site module, whose .pth files may import modules of their own
    code = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from negamm.curves import CurveSpec, state_from_x\n"
        "from negamm.fingerprint import numeric_fingerprint\n"
        "from negamm.payoff import greeks\n"
        "from negamm.series import PriceSeries, YearStats\n"
        "from negamm.swap import SwapRequest, execute_swap\n"
        "spec = CurveSpec.csemm(3.0, 4.0)\n"
        "state, res = execute_swap(spec, state_from_x(spec, 0.5), SwapRequest('x', 0.1))\n"
        "objs = [spec, state, res, greeks(spec, -0.7), PriceSeries((), ()), YearStats(1, -2.0),\n"
        "        *numeric_fingerprint(spec, [0.5, 1.0])]\n"
        "same = [o == o and hash(o) == hash(o) and bool(repr(o)) for o in objs]\n"
        "before = 'dataclasses' in sys.modules\n"
        "protocol = hasattr(CurveSpec, '__dataclass_fields__')\n"
        "after = 'dataclasses' in sys.modules\n"
        "import dataclasses\n"
        "print((all(same), before, protocol, after, [f.name for f in dataclasses.fields(spec)]))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    fields = ["family", "k", "alpha", "beta", "m", "L"]
    assert ast.literal_eval(proc.stdout) == (True, False, True, True, fields)


def test_no_value_class_writes_its_own_constructor_or_reduce():
    # Value writes every class's __init__ and __reduce__: one store of the fields, in _value.py
    for path in sorted((ROOT / "src" / "negamm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "Value" for base in node.bases):
                own = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
                assert not own & {"__init__", "__reduce__"}, (path.name, node.name)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_a_wrong_call_raises_a_type_error_that_names_the_class(cls):
    obj, pinned, _, _ = CASES[cls]
    values = tuple(getattr(obj, name) for name in pinned)
    required = list(pinned.values()).count(REQUIRED)
    assert cls(*values) == obj and cls(**dict(zip(pinned, values))) == obj
    for args, kwargs in [(values[:required - 1], {}), ((*values, None), {}),
                         (values, {"extra": None})]:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) "):
            cls(*args, **kwargs)


def test_a_factory_default_is_made_afresh_for_each_object():
    record = _FAMILIES[Family.CPMM]
    given = {name: getattr(record, name) for name, default in CASES[_Record][1].items()
             if default == REQUIRED}
    first, second = _Record(**given), _Record(**given)
    assert first.defaults == second.defaults == {}
    assert first.defaults is not second.defaults
    assert _Record(**given, defaults=record.defaults).defaults is record.defaults
