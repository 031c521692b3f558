#!/usr/bin/env python3
"""Edge-value sweep of negamm's public API and CLI, and a tree-against-tree diff.

    python tools/sweep.py                    # outcome counts on this tree
    python tools/sweep.py --against PARENT   # differences, PARENT -> this tree
    python tools/sweep.py --against PARENT --show 3   # ... with 3 examples each
    python tools/sweep.py --record FILE      # one digest per group, as JSON

The corpus is deterministic, uses the standard library only and is always
this file's.  Library calls cover every callable in ``negamm.__all__`` (and
the four ``CurveSpec`` constructors) at reserves, prices and parameters at 0,
+/-5e-324, one ulp from each branch end, 1e+/-300, +/-inf and NaN, refused
specs included, and at states a trade returned, priced and traded again with
the spec object that traded them, an equal but distinct spec and another
spec (parabola y-in trades from large reserves among them, and cpmm y-in
trades whose solved x overflows); each records the ``float.hex`` of every
float it returns, or its exception's class and text.
CLI invocations run every subcommand x family x edge flag value through
``negamm.cli.run`` and record the exit code and the sha256 of stdout and of
stderr; the top-level and each subcommand's ``--help`` are among them, so the
help text (at ``COLUMNS=80``) is part of the corpus.

Each tree runs in its own subprocess, with its ``src`` first on sys.path, in
a scratch directory holding the corpus's input files.  ``--against`` prints
the count of differences grouped by function and by outcome class, and exits
1 if there are any.  ``--record`` writes one sha256 per group of records, a
group being one function name x curve family or one CLI subcommand, with the
group's record count, in corpus order (``tests/data/sweep_digests.json``).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import enum
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
from collections import Counter, namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INF, NAN, TINY = math.inf, math.nan, 5e-324
EDGES = (0.0, -0.0, TINY, -TINY, 1e-300, -1e-300, 1e300, -1e300, INF, -INF, NAN)
PRICES = EDGES + (1.0, -1.0, 0.5, -0.5, 2.0, -0.999, -1e6, 1e6)
# Parameter values: refused ones, the boundaries, integral floats and ints.
PARAMS = (0.0, TINY, -TINY, 1e-300, 1e300, INF, -INF, NAN, -1.0, 1.0, 1e-150, 1e150,
          2.0, math.nextafter(2.0, 0.0), 2.5, 3.0, 4.0, 9.1e15, 1e16, 2, 4, 10**20 + 2)
AMOUNTS = (TINY, -TINY, 1e-300, 0.1, -0.1, 0.5, 1.0, -1.0, 1e300, -1e300, 0.0, INF, NAN)
SIDES = ("left", "right", "middle")
BRANCHES = ("lower", "upper", "side")
SIGNS = ("+", "-", "*")
DOMAINS = ("positive_price", "negative_price", "zero")

# Markers, resolved in the tree under test; their reprs are the call labels.
Spec = namedtuple("Spec", "family params")
At = namedtuple("At", "spec x")  # the state at reserve x: state_from_x(spec, x)
After = namedtuple("After", "spec x req")  # the new state of execute_swap(spec, At(spec, x), req)
Twin = namedtuple("Twin", "spec")  # a CurveSpec equal to spec's but another object
State = namedtuple("State", "x y")  # PoolState(x, y) as given
Req = namedtuple("Req", "token amount fee")
Series = namedtuple("Series", "path")  # load_series(path)
Returns = namedtuple("Returns", "path mode")  # returns(load_series(path), mode)
Samples = namedtuple("Samples", "spec grid space")  # numeric_fingerprint(...)
Points = namedtuple("Points", "coords densities")  # FingerprintSamples as given
Fn = namedtuple("Fn", "name")

CIRCLE = 2.0 + math.sqrt(2.0)
SPECS = (
    Spec("ccmm", (("k", 1.0),)), Spec("ccmm", (("k", 1e-150),)), Spec("ccmm", (("k", 1e150),)),
    Spec("csemm", (("alpha", 3.0), ("beta", 4.0))), Spec("csemm", (("alpha", 2.0), ("beta", 2.0))),
    Spec("csemm", (("alpha", 2.0), ("beta", 3.0))), Spec("csemm", (("alpha", 3.0), ("beta", 2.0))),
    Spec("csemm", (("alpha", CIRCLE), ("beta", CIRCLE))),
    Spec("csemm", (("alpha", 8.0), ("beta", 2.5))), Spec("csemm", (("alpha", 1e15), ("beta", 3.0))),
    Spec("cpmm", (("L", 1.0),)), Spec("cpmm", (("L", 1e150),)),
    Spec("parabola", (("m", 2),)), Spec("parabola", (("m", 4),)),
)
FAMILY_PARAMS = {"ccmm": ("k",), "csemm": ("alpha", "beta"), "cpmm": ("L",), "parabola": ("m",)}

# Input files, written into the scratch directory each tree runs in.
FILES = {
    "good.csv": "date,price\n2020-01-01,5.0\n2020-01-02,-2.5\n2020-01-03,0.0\n"
                "2020-01-04,1e-300\n2021-06-01,-40.0\n2021-06-02,12.0\n2021-06-03,7.5\n",
    "header.csv": "day,price\n2020-01-01,1.0\n",
    "empty.csv": "",
    "only_header.csv": "date,price\n",
    "bad_date.csv": "date,price\n2020-13-01,1.0\n",
    "bad_price.csv": "date,price\n2020-01-01,abc\n",
    "nan_price.csv": "date,price\n2020-01-01,nan\n2020-01-02,1.0\n",
    "backwards.csv": "date,price\n2020-01-02,1.0\n2020-01-01,2.0\n",
    "bom.csv": "\ufeffdate,price\r\n2020-01-01,5.0\r\n2020-01-02,-2.5\r\n2021-06-01,12.0\r\n",
    "m2.params": "family = parabola\nm = 2.0\n",
    "minf.params": "family = parabola\nm = inf\n",
    # files no tool of the package wrote: bytes (written as given) and a field over csv's limit
    "not_utf8.csv": b"\xff",
    "long_field.csv": "date,price\n2020-01-01," + "1" * 131_073 + "\n",
    "not_utf8.params": b"\xff",
}


def _ends(values):
    """Each value and its two float neighbours."""
    out = []
    for v in values:
        out += [math.nextafter(v, -INF), v, math.nextafter(v, INF)]
    return tuple(out)


def _x_edges(spec: Spec):
    p = dict(spec.params)
    hi = {"ccmm": 2.0 * p.get("k", 0.0), "csemm": 2.0 * p.get("alpha", 0.0)}.get(spec.family)
    fold = {"ccmm": p.get("k"), "csemm": p.get("alpha"), "parabola": 1.0}.get(spec.family)
    ends = [v for v in (hi, fold) if v is not None]
    return EDGES + _ends(ends) + tuple(0.5 * v for v in ends[-1:])


def _y_edges(spec: Spec):
    p = dict(spec.params)
    hi = {"ccmm": p.get("k"), "csemm": p.get("beta"), "parabola": 1.0}.get(spec.family)
    return EDGES + (_ends([hi]) + (0.5 * hi,) if hi is not None else (1.0,))


def library_calls():
    """The library corpus: a list of (function name, argument markers)."""
    calls = []
    add = calls.append
    for fam, names in FAMILY_PARAMS.items():  # refused and accepted parameters
        for name in names:
            for v in PARAMS:
                given = dict(zip(names, map(float, _BASE[fam]))) | {name: v}
                add(("CurveSpec", (fam, given)))  # a trailing dict holds keyword arguments
                add((f"CurveSpec.{fam}", tuple(given.values())))
    for v in PARAMS:
        add(("csemm_exponent", (v,)))
        add(("cpmm_liquidity", (v, "+")))
        add(("ccmm_liquidity_sqrtprice", (1.0, v)))
        for p in (0.5, -0.5, 2.0):
            add(("parabola_x_from_price", (p, v)))
            add(("cpmm_x_from_price", (p, v)))
            add(("csemm_x_from_price", (p, v, 3.0)))
            add(("csemm_x_from_price", (p, 3.0, v)))
        for x in (0.25, 1.0, 4.0):
            add(("parabola_y_from_x", (x, v)))
            add(("ccmm_y_from_x", (x, v)))
            add(("cpmm_y_from_x", (x, v)))
            add(("csemm_y_from_x", (x, v, 3.0)))
    for fam in FAMILY_PARAMS:
        add(("Family", (fam,)))
    for p in PRICES:
        for fn in ("ccmm_angle_from_price", "circle_angle_of_price"):
            add((fn, (p,)))
        for d in DOMAINS:
            add(("circle_map", (p, d)))
            add(("parabola_liquidity_sqrtprice", (p, d)))
            add(("parabola_liquidity_tick", (p, d)))
        for s in SIGNS:
            add(("cpmm_x_from_price", (p, 1.0, s)))
            add(("ccmm_liquidity_sqrtprice", (p, 1.0, s)))
            add(("ccmm_liquidity_tick", (p, 1.0, s)))
        add(("parabola_x_from_price", (p,)))
        add(("parabola_x_from_price", (p, 4)))
        add(("gaussian_fingerprint", (p, 0.0, 1.0, 1.0)))
        add(("gaussian_fingerprint", (0.0, p, p, p)))
        add(("central_difference", (Fn("square"), p, 1e-3)))
        add(("central_difference", (Fn("abs"), 1.0, p)))
        add(("FingerprintSample", (p, p)))
        add(("GreeksPoint", (p, p, p, p, p)))
        add(("hill_tail_index", ((p, 1.0, 2.0, 3.0, 4.0, 5.0), 3)))
        for a, b in ((3.0, 4.0), (2.0, 3.0), (3.0, 2.0), (2.0, 2.0), (CIRCLE, CIRCLE)):
            add(("csemm_x_from_price", (p, a, b)))
    for c in (4.0 / 3.0, 1.5, 2.0):  # the reach C of the exponent-1 members
        for p in (c, -c, math.nextafter(c, 0.0), math.nextafter(c, INF)):
            for a, b in ((2.0, 3.0), (3.0, 2.0), (2.0, 2.0)):
                add(("csemm_x_from_price", (p, a, b)))
    for tol in (0.0, -1.0, NAN, INF, 1e-300):
        add(("csemm_x_from_price", (-0.7, 3.0, 3.0, tol)))
    for it in (0, 1, 45, -1):
        add(("csemm_x_from_price", (-0.7, 3.0, 3.0, 1e-12, it)))
    for spec in SPECS:
        add(("fold_x", (spec,)))
        add(("residual_scale", (spec,)))
        xs, ys = _x_edges(spec), _y_edges(spec)
        for x in xs:
            add(("state_from_x", (spec, x)))
            add(("price_of", (spec, At(spec, x))))
            add(("numeraire_reserve", (spec, x)))
            add(("numeraire_reserve", (spec, x, "negative_price")))
            for branch in BRANCHES:
                add(("y_from_x", (spec, x, branch)))
            for y in (0.0, 1.0, NAN):
                add(("invariant_residual", (spec, x, y)))
        for y in ys:
            for side in SIDES:
                add(("x_from_y_on_side", (spec, y, side)))
        for x, y in ((-1.0, -1.0), (1.0, 1.0), (0.5, 1.5), (NAN, NAN), (1e300, 1e-300), (0.0, 0.0)):
            add(("price_of", (spec, State(x, y))))
            add(("quote_exact_in", (spec, State(x, y), Req("y", 1.0, 0.0))))
        for p in PRICES:
            add(("state_from_price", (spec, p)))
            for fn in ("lp_value", "delta", "gamma", "greeks"):
                add((fn, (spec, p)))
            add(("theta", (spec, p, 0.5)))
        for sigma in (0.0, -0.1, 0.3, INF, NAN):
            add(("greeks", (spec, 0.5, sigma)))
        for space in ("sqrtprice", "tick", "ring"):
            for grid in ((0.5, 1.0, 2.0), (-1.0, 0.0, 1.0), (TINY, 1e300), (NAN,)):
                for domain in DOMAINS:
                    add(("numeric_fingerprint", (spec, grid, space, domain)))
        add(("tail_index", (Samples(spec, tuple(0.5 + 0.5 * i for i in range(12)), "sqrtprice"),)))
        for x in xs[::3]:
            for req in (Req("x", a, 0.0) for a in AMOUNTS):
                add(("quote_exact_in", (spec, At(spec, x), req)))
            for req in (Req("y", a, 0.003) for a in AMOUNTS):
                add(("execute_swap", (spec, At(spec, x), req)))
        mid = At(spec, xs[-1])
        for fee in (0.0, -0.1, 0.5, 1.0, NAN):
            add(("price_impact", (spec, mid, Req("x", 0.1, fee))))
        for token in ("x", "y", "z"):
            add(("price_impact", (spec, mid, Req(token, 0.1, 0.0))))
    for i, spec in enumerate(SPECS):  # traded states, priced with their spec, a twin, another
        others = (spec, Twin(spec), SPECS[(i + 1) % len(SPECS)])
        for x in (v for v in _x_edges(spec) if 0.0 < v < 1e300):
            for req in (Req(t, a, f) for t, f in (("x", 0.0), ("y", 0.003)) for a in (0.1, -0.1)):
                after = After(spec, x, req)
                for other in others:
                    add(("price_of", (other, after)))
                    add(("quote_exact_in", (other, after, Req("x", 0.05, 0.0))))
                    add(("execute_swap", (other, after, Req("y", -0.05, 0.003))))
                    add(("price_impact", (other, after, Req("x", -0.05, 0.0))))
    parabola = Spec("parabola", (("m", 2),))  # y-in trades where y, unbounded, is large
    for x in (1e7, 1e10):
        y = (math.sqrt(x) - 1.0) ** 2
        fractions = (-0.9, -0.5, -0.1, -1e-3, 1e-6, 0.1, 0.37, 1.0, 2.5)
        for a in [y * f for f in fractions] + [7.0, -0.1]:
            after = After(parabola, x, Req("y", a, 0.003))
            add(("execute_swap", (parabola, At(parabola, x), Req("y", a, 0.003))))
            add(("price_of", (Twin(parabola), after)))
            for b in (0.25 * y, -0.25 * y, 1.0):
                add(("execute_swap", (parabola, after, Req("y", b, 0.0))))
    # cpmm y-in trades from y = 1 - 2^-53 to a few ulps above 0, where x = L^2 / y: n = 1
    # trades y to 0, n = 2**27 leaves x finite, and the rest overflow x to inf
    cpmm = Spec("cpmm", (("L", 1e150),))
    for n in (1, 2, 3, 8, 2**27):
        for fn in ("quote_exact_in", "execute_swap"):
            add((fn, (cpmm, At(cpmm, 1e300), Req("y", -(1.0 - n * 2.0**-53), 0.0))))
    for dens in ((1.0,) * 12, tuple(2.0 ** -i for i in range(12)), (0.0,) * 12, (NAN,) * 12,
                 (1.0,) * 3):
        add(("tail_index", (Points(tuple(float(i + 1) for i in range(len(dens))), dens),)))
    add(("tail_index", (Points((1.0,) * 12, tuple(2.0 ** -i for i in range(12))),)))
    for path in FILES:
        if path.endswith(".csv"):
            add(("load_series", (path,)))
            add(("negative_price_stats", (Series(path),)))
            for mode in ("arithmetic_diff", "percent", "log"):
                add(("returns", (Series(path), mode)))
                add(("squared_returns", (Returns(path, mode),)))
                for k in (1, 2, 3, 0, -1, 2.5, 100):
                    add(("hill_tail_index", (Returns(path, mode), k)))
    for eps in (0.0, -1.0, 1e-300, INF, NAN):
        add(("returns", (Series("good.csv"), "percent", eps)))
    for name in ("ConvergenceError", "DomainError", "DomainExceeded", "InsufficientDataError",
                 "InvalidFee", "MonotonicityError", "NegammError", "ParameterError",
                 "SeriesError", "SeriesParseError"):
        add((name, ("message",)))
    add(("PoolState", (1.0, 0.0)))
    add(("PoolState", (1.0, 0.0, 4.0)))
    add(("SwapRequest", ("x", 1.0)))
    add(("SwapResult", (1.0, 2.0, 3.0, 4.0, State(1.0, 0.0))))
    add(("PriceSeries", ((), ())))
    add(("ReturnSeries", ("percent", (), (), 2)))
    add(("YearStats", (3, -1.0)))
    return list({f"{name}{args!r}": (name, args) for name, args in calls}.values())


_BASE = {"ccmm": ("1",), "csemm": ("3", "4"), "cpmm": ("1",), "parabola": ("2",)}
FLAG_VALUES = ("0", "5e-324", "-5e-324", "-1", "1", "2", "2.0", "2.5", "3", "4", "4.0",
               "1e-300", "1e300", "9.1e15", "1e16", "1e400", "inf", "-inf", "nan", "abc",
               "100000000000000000002")
_COMMANDS = {
    "curve": ("--grid", "0:1:3"),
    "swap": ("--x", "0.5", "--token-in", "x", "--amount-in", "0.1"),
    "fingerprint": ("--grid", "0.5:2:3"),
    "payoff": ("--grid", "0.5:2:3"),
}


def _family_flags(fam, **override):
    flags = []
    for name, val in zip(FAMILY_PARAMS[fam], _BASE[fam]):
        flags += [f"--{name}", override.get(name, val)]
    return flags


def cli_calls():
    """The CLI corpus: a list of argv lists for ``negamm.cli.run``."""
    calls = []
    for cmd, rest in _COMMANDS.items():
        for fam, names in FAMILY_PARAMS.items():
            calls.append([cmd, "--family", fam, *rest])  # required parameters missing
            for name in names:
                for val in FLAG_VALUES:
                    calls.append([cmd, "--family", fam, *_family_flags(fam, **{name: val}), *rest])
        calls += [[cmd, "--params", path, *rest] for path in FILES if path.endswith(".params")]
    for fam in FAMILY_PARAMS:
        flags = ["--family", fam, *_family_flags(fam)]
        for lo, hi in (("0", "1"), ("-1", "0"), ("5e-324", "1e-300"), ("1", "1e300"),
                       ("-1e300", "1e300"), ("1", "inf"), ("1", "1")):
            for cmd in ("curve", "fingerprint", "payoff"):
                calls.append([cmd, *flags, "--grid", f"{lo}:{hi}:3"])
        calls.append(["curve", *flags, "--grid", "0:1:3", "--branch", "upper"])
        for x in ("0", "5e-324", "-5e-324", "1e-300", "0.5", "1", "3", "1e300", "inf", "nan"):
            for token in ("x", "y"):
                for amount in ("0.1", "-0.1", "1e300", "5e-324"):
                    calls.append(["swap", *flags, "--x", x, "--token-in", token,
                                  "--amount-in", amount])
            calls.append(["swap", *flags, "--x", x, "--y", x, "--token-in", "y",
                          "--amount-in", "0.1", "--fee", "0.003"])
        for space in ("sqrtprice", "tick", "circle"):
            for domain in ("positive", "negative", "both"):
                for source in ("auto", "analytic", "numeric"):
                    calls.append(["fingerprint", *flags, "--grid", "-1:1:3", "--space", space,
                                  "--domain", domain, "--source", source])
        for sigma in ("0", "0.3", "-1", "inf", "nan"):
            calls.append(["payoff", *flags, "--grid", "-0.5:0.5:3", "--sigma-iv", sigma])
        for name in FAMILY_PARAMS[fam]:
            for val in FLAG_VALUES:
                spec = ",".join(f"{n}={val if n == name else v}"
                                for n, v in zip(FAMILY_PARAMS[fam], _BASE[fam]))
                calls.append(["compare", "--specs", f"{fam}:{spec}", "--grid", "-1:1:3"])
    for val in FLAG_VALUES:
        for key in ("mu", "sigma", "mass"):
            params = {"mu": "0", "sigma": "1", "mass": "1"} | {key: val}
            spec = ",".join(f"{k}={v}" for k, v in params.items())
            calls.append(["compare", "--specs", f"gaussian:{spec}", "--grid", "-1:1:3"])
    for spec in ("frob:k=1", "ccmm", "ccmm:k", "ccmm:q=1", "ccmm:q=abc", "csemm:alpha=3",
                 "parabola", "parabola:m=2,m=4"):
        calls.append(["compare", "--specs", spec, "--grid", "-1:1:3"])
    for path in [*(p for p in FILES if p.endswith(".csv")), "missing.csv"]:
        for stat in ("negative-days", "returns", "squared-returns", "hill"):
            for mode in ("arithmetic_diff", "percent"):
                calls.append(["analyze", "--input", path, "--stat", stat, "--mode", mode,
                              "--top-k", "2"])
    for eps in ("0", "-1", "1e-300", "inf", "nan"):
        calls.append(["analyze", "--input", "good.csv", "--stat", "returns", "--mode", "percent",
                      "--eps", eps])
    for top_k in ("0", "-1", "3", "100", "2.5"):
        calls.append(["analyze", "--input", "good.csv", "--stat", "hill", "--top-k", top_k])
    calls.append(["curve", "--family", "ccmm", "--k", "1", "--grid", "0:1:3", "--output", "json"])
    calls += [["--help"], *([cmd, "--help"] for cmd in
                            ("curve", "swap", "fingerprint", "payoff", "analyze", "compare"))]
    return list({" ".join(argv): argv for argv in calls}.values())


def _resolve(ng, arg, specs=None):
    """The object a marker stands for, built in the tree under test.

    ``specs`` holds the CurveSpec each Spec marker built for one call, so one
    marker stands for one object throughout the call's arguments.
    """
    if isinstance(arg, Spec):
        if specs is None:
            specs = {}
        if arg not in specs:
            specs[arg] = ng.CurveSpec(arg.family, **dict(arg.params))
        return specs[arg]
    if isinstance(arg, Twin):
        return _resolve(ng, arg.spec)
    if isinstance(arg, At):
        return ng.state_from_x(_resolve(ng, arg.spec, specs), arg.x)
    if isinstance(arg, After):
        spec = _resolve(ng, arg.spec, specs)
        return ng.execute_swap(spec, ng.state_from_x(spec, arg.x), _resolve(ng, arg.req, specs))[0]
    if isinstance(arg, State):
        return ng.PoolState(arg.x, arg.y)
    if isinstance(arg, Req):
        return ng.SwapRequest(arg.token, arg.amount, arg.fee)
    if isinstance(arg, Series):
        return ng.load_series(arg.path)
    if isinstance(arg, Returns):
        return ng.returns(ng.load_series(arg.path), arg.mode)
    if isinstance(arg, Samples):
        return ng.numeric_fingerprint(_resolve(ng, arg.spec, specs), arg.grid, arg.space)
    if isinstance(arg, Points):
        return [ng.FingerprintSample(c, d) for c, d in zip(arg.coords, arg.densities)]
    if isinstance(arg, Fn):
        return {"square": lambda v: v * v, "abs": abs}[arg.name]
    return arg


def encode(value) -> str:
    """A value as text, each float as its float.hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(map(encode, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{encode(k)}: {encode(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (enum.Enum, datetime.date)) or value is None:
        return repr(value)
    if isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, BaseException):
        return f"{type(value).__name__}({value})"
    if hasattr(value, "__dict__"):  # the package's value objects
        return type(value).__name__ + encode(vars(value))
    return repr(value)


def call(ng, name: str, args: tuple):
    """(result, None) or (None, exception) of one library call."""
    try:
        fn = ng
        for part in name.split("."):
            fn = getattr(fn, part)
        kwargs = args[-1] if args and isinstance(args[-1], dict) else {}
        args = args[:-1] if kwargs else args
        specs = {}
        return fn(*[_resolve(ng, a, specs) for a in args], **kwargs), None
    except Exception as exc:  # recorded, whatever it is
        return None, exc


def run_cli(cli, argv):
    """(exit code or the escaped exception's class name, stdout, stderr) of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # an escape is an outcome, recorded with its traceback
            code = f"raised {type(exc).__name__}"
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


def write_files(directory: str) -> None:
    for name, text in FILES.items():
        with open(os.path.join(directory, name), "wb") as fh:  # each byte as given
            fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))


def _family(args: tuple) -> str:
    """The curve family a library call's arguments name first (a Spec marker, or a
    family's name), or ''."""
    for arg in args:
        if isinstance(arg, Spec):
            return arg.family
        if isinstance(arg, str) and arg in FAMILY_PARAMS:
            return arg
        if isinstance(arg, tuple) and (fam := _family(arg)):
            return fam
    return ""


def emit(src: str, path: str) -> None:
    """Run the corpus on the negamm under ``src`` and write one JSON record per call."""
    sys.path.insert(0, src)
    ng = importlib.import_module("negamm")
    cli = importlib.import_module("negamm.cli")
    records = []
    with tempfile.TemporaryDirectory() as scratch:
        write_files(scratch)
        here = os.getcwd()
        os.chdir(scratch)
        try:
            for name, args in library_calls():
                result, exc = call(ng, name, args)
                if exc is None:
                    outcome, cls = encode(result), "value"
                else:
                    outcome, cls = f"{type(exc).__name__}: {exc}", type(exc).__name__
                group = f"{name} {fam}" if (fam := _family(args)) else name
                records.append([name, f"{name}{args!r}", cls, outcome, group])
            for argv in cli_calls():
                code, out, err = run_cli(cli, argv)
                digest = [hashlib.sha256(text.encode()).hexdigest()[:16] for text in (out, err)]
                records.append([f"cli {argv[0]}", " ".join(argv), f"exit {code}",
                                f"exit {code} stdout {digest[0]} stderr {digest[1]}",
                                f"cli {argv[0]}"])
        finally:
            os.chdir(here)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)


def collect(tree: str) -> list:
    """The corpus's records on ``tree``, run in a subprocess."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "records.json")
        env = dict(os.environ, COLUMNS="80", PYTHONHASHSEED="0")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", path,
                        "--src", os.path.join(os.path.abspath(tree), "src")],
                       check=True, env=env)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


def digests(records) -> dict:
    """{group: [record count, sha256 of its calls and outcomes]}, in corpus order."""
    hashes: dict = {}
    for name, key, cls, outcome, group in records:
        entry = hashes.setdefault(group, [0, hashlib.sha256()])
        entry[0] += 1
        entry[1].update(json.dumps([key, cls, outcome]).encode() + b"\n")
    return {group: [count, h.hexdigest()] for group, (count, h) in hashes.items()}


def write_digests(groups: dict, path: str) -> None:
    """``groups`` as JSON with one group a line, so a diff names the groups that moved."""
    lines = [f"{json.dumps(group)}: {json.dumps(entry)}" for group, entry in groups.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def _change_class(old, new) -> str:
    if old[2] != new[2]:
        return f"{old[2]} -> {new[2]}"
    if not old[0].startswith("cli "):
        return f"{old[2]} -> {new[2]} (bits or text)"
    what = [s for s, a, b in zip(("stdout", "stderr"), old[3].split()[-3::2],
                                 new[3].split()[-3::2]) if a != b]
    return f"{old[2]} -> {new[2]} ({' and '.join(what)})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", metavar="PATH", help="tree to compare this one with")
    parser.add_argument("--show", type=int, default=0, metavar="N",
                        help="print up to N differing calls per group")
    parser.add_argument("--record", metavar="FILE",
                        help="write this tree's group digests to FILE")
    parser.add_argument("--emit", metavar="FILE", help=argparse.SUPPRESS)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.src, args.emit)
        return 0
    mine = collect(ROOT)
    if args.record:
        write_digests(digests(mine), args.record)
        return 0
    n_cli = sum(rec[0].startswith("cli ") for rec in mine)
    print(f"sweep: {len(mine) - n_cli} library calls, {n_cli} CLI invocations")
    if not args.against:
        counts = Counter((rec[0], rec[2]) for rec in mine)
        for (name, cls), n in sorted(counts.items()):
            print(f"{n:7d}  {name:30s} {cls}")
        return 0
    theirs = {rec[1]: rec for rec in collect(args.against)}
    groups: dict = {}
    for rec in mine:
        old = theirs.get(rec[1])
        if old is None:
            groups.setdefault((rec[0], "(not in the other tree's run)"), []).append(rec[1])
        elif old[3] != rec[3]:
            groups.setdefault((rec[0], _change_class(old, rec)), []).append(rec[1])
    total = sum(map(len, groups.values()))
    print(f"differences, {args.against} -> {ROOT}: {total}")
    for (name, change), keys in sorted(groups.items()):
        print(f"{len(keys):7d}  {name:30s} {change}")
        for key in keys[:args.show]:
            print(f"           {key}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
