#!/usr/bin/env python3
"""Alternating A/B timing of negamm primitives: a parent tree against this one.

    python tools/abtime.py --against PARENT           # min of 25 repeats per side
    python tools/abtime.py --against PARENT -k 51     # more repeats
    python tools/abtime.py --against . --quick        # smoke run, short repeats

One process loads ``negamm`` from the parent tree's ``src`` and then from
this tree's, each under its own module objects, so the two copies run side by
side under the same interpreter, allocator and machine load.  Each primitive
(spec builds, trades from a traded state, a quote, a full state check, price
inversions and greeks) is timed with ``timeit`` on one copy and then the
other, alternating which goes first, ``k`` times each; the min of each side
is printed in microseconds with the change/parent ratio.  A repeat runs about
5 ms of calls, the same number on both sides, set from the parent's first run.

The standard library only.  It asserts no timing: the exit code is 1 only if
a tree cannot be loaded or a primitive raises.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(tree: str):
    """The ``negamm`` package of ``tree``'s ``src``, imported afresh."""
    src = os.path.join(os.path.abspath(tree), "src")
    for name in [n for n in sys.modules if n == "negamm" or n.startswith("negamm.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        pkg = importlib.import_module("negamm")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SystemExit(f"abtime: negamm loaded from {pkg.__file__}, not from {src}")
    return pkg


FUNCTIONS = ("CurveSpec", "execute_swap", "quote_exact_in", "price_of", "state_from_price",
             "greeks")


def namespace(n, build) -> dict:
    """The names a timed statement may use, for the spec ``build(CurveSpec)``.

    ``fresh`` is the state at x = 0.7, with no stored check; ``traded`` the
    state an x-in trade from 0.5 left at 0.7, which carries its checked price.
    """
    spec = build(n.CurveSpec)
    ns = {name: getattr(n, name) for name in FUNCTIONS}
    ns.update(spec=spec, fresh=n.state_from_x(spec, 0.7),
              req_x=n.SwapRequest("x", 0.1, 0.003), req_y=n.SwapRequest("y", 0.05, 0.003))
    ns["traded"] = n.execute_swap(spec, n.state_from_x(spec, 0.5), n.SwapRequest("x", 0.2))[0]
    return ns


CCMM = ("ccmm k=1", lambda C: C.ccmm(1.0))
CSEMM34 = ("csemm 3,4", lambda C: C.csemm(3.0, 4.0))
CSEMM33 = ("csemm 3,3", lambda C: C.csemm(3.0, 3.0))
CPMM = ("cpmm L=1", lambda C: C.cpmm(1.0))
PARABOLA = ("parabola m=2", lambda C: C.parabola(2))

# (label, timed statement, (name, build) of the namespace's spec)
PRIMITIVES = (
    [("CurveSpec.ccmm(1.0)", "CurveSpec.ccmm(1.0)", CCMM),
     ("CurveSpec.csemm(3.0, 4.0)", "CurveSpec.csemm(3.0, 4.0)", CCMM),
     ("CurveSpec('ccmm', k=1.0)", "CurveSpec('ccmm', k=1.0)", CCMM)]
    + [(f"execute_swap {family[0]} {token} in", f"execute_swap(spec, traded, req_{token})", family)
       for family in (CCMM, CSEMM34, CPMM, PARABOLA) for token in "xy"]
    + [("quote_exact_in ccmm k=1 x in", "quote_exact_in(spec, traded, req_x)", CCMM),
       ("price_of ccmm k=1, fresh state", "price_of(spec, fresh)", CCMM),
       ("price_of csemm 3,4, fresh state", "price_of(spec, fresh)", CSEMM34)]
    + [(f"{call} {family[0]} p=-0.7", f"{call}(spec, -0.7{args})", family)
       for call, args in (("state_from_price", ""), ("greeks", ", 0.8"))
       for family in (CCMM, CSEMM33)]
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, metavar="TREE",
                    help="the parent tree: a checkout whose src/negamm is timed first")
    ap.add_argument("-k", type=int, default=25, help="repeats per side (default 25)")
    ap.add_argument("--quick", action="store_true",
                    help="2 repeats of about 2 ms per side: a smoke run, not a measurement")
    args = ap.parse_args(argv)
    k, budget = (2, 0.002) if args.quick else (max(args.k, 1), 0.005)
    trees = (load(args.against), load(ROOT))
    print(f"# parent {os.path.abspath(args.against)}, change {ROOT}")
    print(f"# Python {sys.version.split()[0]}, min of {k} alternating repeats per side")
    print(f"{'primitive':40} {'parent us':>10} {'change us':>10} {'ratio':>7}")
    ratios = []
    for label, stmt, (_, build) in PRIMITIVES:
        timers = [timeit.Timer(stmt, globals=namespace(n, build)) for n in trees]
        once = timers[0].timeit(20) / 20  # also a warm-up of the parent's copy
        number = max(1, round(budget / once))
        best = [math.inf, math.inf]
        for r in range(k):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                best[side] = min(best[side], timers[side].timeit(number) / number)
        ratio = best[1] / best[0]
        ratios.append(ratio)
        print(f"{label:40} {best[0] * 1e6:10.3f} {best[1] * 1e6:10.3f} {ratio:7.3f}", flush=True)
    geo = math.exp(sum(map(math.log, ratios)) / len(ratios))
    print(f"{'geometric mean of the ratios':40} {'':10} {'':10} {geo:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
