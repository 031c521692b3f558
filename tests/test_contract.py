"""No bare Python exception escapes, over a fixed slice of the ``tools/sweep.py`` corpus.

Every public call returns a value or raises a NegammError, and every in-process
``cli.run`` returns 0, 1 or 2 and prints no traceback.
"""

import math
import os
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import negamm
from negamm import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools"))
import sweep  # noqa: E402

_LIBRARY = sweep.library_calls()
# Every parameter reading (they are cheap), and a fixed stride through the rest.
LIBRARY = [c for c in _LIBRARY if c[0].startswith(("CurveSpec", "parabola_"))] + _LIBRARY[::31]
CLI = sweep.cli_calls()[::12]


def test_slices_hold_a_few_hundred_calls():
    assert 300 <= len(LIBRARY) <= 1000 and 50 <= len(CLI) <= 200


def test_public_calls_return_or_raise_negamm_errors(tmp_path, monkeypatch):
    sweep.write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    escaped = []
    for name, args in LIBRARY:
        _, exc = sweep.call(negamm, name, args)
        if exc is not None and not isinstance(exc, negamm.NegammError):
            escaped.append(f"{name}{args!r}: {type(exc).__name__}: {exc}")
    assert escaped == []


def test_cli_runs_exit_0_1_or_2_without_traceback(tmp_path, monkeypatch):
    sweep.write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    bad = []
    for argv in CLI:
        code, _, err = sweep.run_cli(cli, argv)
        if code not in (0, 1, 2) or "Traceback" in err:
            bad.append((argv, code))
    assert bad == []


def _near(value, steps):
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=st.sampled_from(sweep.SPECS), end=st.sampled_from(("low", "high", "fold")),
       steps=st.integers(-4, 4), token=st.sampled_from(("x", "y")),
       amount=st.floats(-2.0, 2.0).filter(bool))
def test_reserves_near_branch_ends_quote_or_refuse(spec, end, steps, token, amount):
    built = sweep._resolve(negamm, spec)
    high = 2.0 * (built.k or built.alpha or 5e299)  # cpmm and the parabola have no high end
    x = _near({"low": 0.0, "high": high, "fold": negamm.fold_x(built) or 1.0}[end], steps)
    try:
        state = negamm.state_from_x(built, x)
        negamm.price_of(built, state)
        negamm.quote_exact_in(built, state, negamm.SwapRequest(token, amount))
    except negamm.NegammError:
        pass
