#!/usr/bin/env python3
"""Alternating A/B timing of negamm primitives: a parent tree against this one.

    python tools/abtime.py --against PARENT           # min of 25 repeats per side
    python tools/abtime.py --against PARENT -k 51     # more repeats
    python tools/abtime.py --against . --quick        # smoke run, short repeats
    python tools/abtime.py --against PARENT --cli     # CLI spawns, min of 5 rounds
    python tools/abtime.py --against PARENT --ops     # instruction and C-call counts

One process loads ``negamm`` from the parent tree's ``src`` and then from
this tree's, each under its own module objects, so the two copies run side by
side under the same interpreter, allocator and machine load.  Each primitive
(spec builds, value-object builds and one field read of a traded state, trades
from a traded state left of the fold and, for ccmm and csemm, from one right of
it, where a y-in trade solves on the fold's other side, a quote, a read and then
the execute of the same request, a full state check, price inversions and
greeks) is timed with ``timeit`` on one copy and then the other, alternating
which goes first, ``k`` times each;
the min of each side is printed in microseconds with the change/parent ratio.
The two read-then-execute rows time the execute that returns its own quote;
every other ``execute_swap`` row solves in full, because an execute never
leaves a quote pending for the next one.  A repeat runs about 5 ms of calls,
the same number on both sides, set from the parent's first run.

``--cli`` times whole processes instead: ``python -m negamm.cli`` runs of the
benchmark's fixed invocations (``FIXED_INVOCATIONS`` in ``bench/workloads.py``)
and its three ``analyze`` runs on a series ``make_series`` writes for seed 1
into a temporary directory.  Each round runs every invocation on both trees,
one after the other, alternating which goes first.  It prints each
invocation's minimum per side in milliseconds, then the rate over the sum of
the minima (the benchmark's ``ops_per_s``) and their median.  Its header says
whether the spawns can write bytecode and whether each tree has it already:
where neither holds, every spawn compiles the sources it imports.

``--ops`` times nothing: it counts, for one call of each primitive's statement
on each tree after two warm-up calls, the bytecode instructions run
(``sys.settrace`` with ``f_trace_opcodes``, or ``sys.monitoring``'s INSTRUCTION
events on 3.12 and later) and the calls into C functions (``sys.setprofile``'s
``c_call`` events), with the garbage collector off.
The counts repeat exactly between runs of one interpreter, but depend on its
version, which the header states; an instruction does not weigh a C call's
work, so moving work into C reads as fewer instructions.

The standard library only.  It asserts no timing: the exit code is 1 only if
a tree cannot be loaded, a primitive raises, or, with ``--cli``, the two
trees' exit codes or stdout differ.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import statistics
import sys
import tempfile
import timeit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(tree: str):
    """The ``negamm`` package of ``tree``'s ``src``, imported afresh.

    The package binds its public names on their first read, importing its
    submodules relative to whichever ``negamm`` is then in ``sys.modules``, so
    they are read here, before another tree is loaded, and checked to come
    from this tree's files.
    """
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
    for name in pkg.__all__:
        code = getattr(getattr(pkg, name), "__code__", None)
        if code is not None and not os.path.abspath(code.co_filename).startswith(src + os.sep):
            raise SystemExit(f"abtime: negamm.{name} loaded from {code.co_filename}, "
                             f"not from {src}")
    return pkg


FUNCTIONS = ("CurveSpec", "PoolState", "SwapResult", "YearStats", "execute_swap",
             "quote_exact_in", "price_impact", "price_of", "state_from_price", "greeks")


def namespace(n, build) -> dict:
    """The names a timed statement may use, for the spec ``build(CurveSpec)``.

    ``fresh`` is the state at x = 0.7, with no stored check; ``traded`` the
    state an x-in trade from 0.5 left at 0.7, which carries its checked price;
    ``right``, where the spec has a fold, the state an x-in trade left 0.5 right of it.
    """
    spec = build(n.CurveSpec)
    ns = {name: getattr(n, name) for name in FUNCTIONS}
    ns.update(spec=spec, fresh=n.state_from_x(spec, 0.7),
              req_x=n.SwapRequest("x", 0.1, 0.003), req_y=n.SwapRequest("y", 0.05, 0.003))
    ns["traded"] = n.execute_swap(spec, n.state_from_x(spec, 0.5), n.SwapRequest("x", 0.2))[0]
    fold = n.fold_x(spec)
    if fold is not None:
        ns["right"] = n.execute_swap(spec, n.state_from_x(spec, fold + 0.3),
                                     n.SwapRequest("x", 0.2))[0]
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
     ("CurveSpec('ccmm', k=1.0)", "CurveSpec('ccmm', k=1.0)", CCMM),
     ("PoolState(0.5, 0.25)", "PoolState(0.5, 0.25)", CCMM),
     ("SwapResult(...)", "SwapResult(0.1, 1.0, 0.9, 0.0, traded)", CCMM),
     ("YearStats(3, -1.0)", "YearStats(3, -1.0)", CCMM),
     ("traded.x, one field read", "traded.x", CCMM)]
    + [(f"execute_swap {family[0]} {token} in", f"execute_swap(spec, traded, req_{token})", family)
       for family in (CCMM, CSEMM34, CPMM, PARABOLA) for token in "xy"]
    + [(f"execute_swap {family[0]} {token} in, p < 0", f"execute_swap(spec, right, req_{token})",
        family) for family in (CCMM, CSEMM34) for token in "xy"]
    + [("quote_exact_in ccmm k=1 x in", "quote_exact_in(spec, traded, req_x)", CCMM),
       ("quote, execute ccmm k=1 x in",
        "quote_exact_in(spec, traded, req_x); execute_swap(spec, traded, req_x)", CCMM),
       ("price_impact, execute csemm 3,4 y in",
        "price_impact(spec, traded, req_y); execute_swap(spec, traded, req_y)", CSEMM34),
       ("price_of ccmm k=1, fresh state", "price_of(spec, fresh)", CCMM),
       ("price_of csemm 3,4, fresh state", "price_of(spec, fresh)", CSEMM34)]
    + [(f"{call} {family[0]} p=-0.7", f"{call}(spec, -0.7{args})", family)
       for call, args in (("state_from_price", ""), ("greeks", ", 0.8"))
       for family in (CCMM, CSEMM33)]
)


def count_ops(fn) -> tuple[int, int]:
    """(bytecode instructions, C calls) that one call ``fn()`` runs, outside this frame.

    Instructions are ``sys.settrace``'s opcode events, or, where the interpreter has
    ``sys.monitoring`` (3.12 on), its INSTRUCTION events: there ``sys.settrace`` sends
    no opcode events to a frame that sets ``f_trace_opcodes`` when it starts.
    """
    counts = [0, 0]
    outer = sys._getframe()
    monitoring = getattr(sys, "monitoring", None)

    def instruction(code, offset):
        if code is not outer.f_code:
            counts[0] += 1

    def opcodes(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        return opcodes

    def new_frame(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcodes

    def c_calls(frame, event, arg):
        if event == "c_call" and frame is not outer:
            counts[1] += 1

    saved, collecting = (sys.gettrace(), sys.getprofile()), gc.isenabled()
    gc.disable()
    if monitoring:
        tool = next(i for i in range(6) if monitoring.get_tool(i) is None)
        monitoring.use_tool_id(tool, "abtime")
        monitoring.register_callback(tool, monitoring.events.INSTRUCTION, instruction)
    sys.setprofile(c_calls)
    if monitoring:
        monitoring.set_events(tool, monitoring.events.INSTRUCTION)
    else:
        sys.settrace(new_frame)
    try:
        fn()
    finally:
        if monitoring:
            monitoring.set_events(tool, 0)
            monitoring.register_callback(tool, monitoring.events.INSTRUCTION, None)
            monitoring.free_tool_id(tool)
        else:
            sys.settrace(saved[0])
        sys.setprofile(saved[1])
        if collecting:
            gc.enable()
    return counts[0], counts[1]


def row_ops(n, stmt: str, build) -> tuple[int, int]:
    """count_ops of the timed statement ``stmt`` on package ``n``, after two warm-up calls."""
    ns = namespace(n, build)
    exec(f"def _row():\n    {stmt}\n", ns)
    ns["_row"]()
    ns["_row"]()
    return count_ops(ns["_row"])


def print_ops(trees) -> None:
    print(f"{'primitive':40} {'parent ins':>10} {'change ins':>10} {'ratio':>7} "
          f"{'parent C':>8} {'change C':>8}")
    for label, stmt, (_, build) in PRIMITIVES:
        (ins0, c0), (ins1, c1) = (row_ops(n, stmt, build) for n in trees)
        print(f"{label:40} {ins0:10d} {ins1:10d} {ins1 / ins0:7.3f} {c0:8d} {c1:8d}", flush=True)


def cli_invocations(directory: str) -> tuple[list, object]:
    """The benchmark's fixed invocations and seeded analyze runs, and its ``run_cli``."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    series = os.path.join(directory, "series-1.csv")
    workloads.make_series(1, series)
    seeded = [["analyze", "--input", series, "--stat", stat]
              for stat in ("negative-days", "returns")]
    seeded.append(["analyze", "--input", series, "--stat", "hill",
                   "--top-k", str(workloads.HILL_TOP_K)])
    return workloads.FIXED_INVOCATIONS + seeded, workloads.run_cli


def bytecode_header(roots: tuple[str, str], env) -> list[str]:
    """Whether the spawns can write bytecode, and which trees hold some already.

    Where they cannot and a tree has none, every timed spawn compiles the
    ``negamm`` sources it imports, and the times include that compilation.
    """
    can = not env.get("PYTHONDONTWRITEBYTECODE")
    lines = [f"# spawned interpreters write bytecode: "
             f"{'yes' if can else 'no, PYTHONDONTWRITEBYTECODE is set in their environment'}"]
    for label, root in zip(("parent", "change"), roots):
        cache = os.path.isdir(os.path.join(root, "src", "negamm", "__pycache__"))
        lines.append(f"# {label} src/negamm/__pycache__ before the first spawn: "
                     f"{'present' if cache else 'absent'}")
    return lines


def time_cli(roots: tuple[str, str], k: int) -> int:
    """Alternating CLI spawns of the two trees; 1 if their outputs differ."""
    with tempfile.TemporaryDirectory() as directory:
        invocations, run_cli = cli_invocations(directory)
        best = [[math.inf] * len(invocations) for _ in roots]
        outputs = [[None] * len(invocations) for _ in roots]
        for r in range(k):
            for i, argv in enumerate(invocations):
                for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                    code, out, _, ns = run_cli(roots[side], argv)
                    best[side][i] = min(best[side][i], ns / 1e6)
                    outputs[side][i] = (code, out)
    print(f"{'invocation':60} {'parent ms':>10} {'change ms':>10} {'ratio':>7}")
    for i, argv in enumerate(invocations):
        label = " ".join(argv)
        label = label if len(label) <= 60 else label[:57] + "..."
        print(f"{label:60} {best[0][i]:10.2f} {best[1][i]:10.2f} {best[1][i] / best[0][i]:7.3f}")
    rates = [len(mins) / sum(mins) * 1e3 for mins in best]
    medians = [statistics.median(mins) for mins in best]
    print(f"{'ops/s over the sum of the minima':60} {rates[0]:10.2f} {rates[1]:10.2f} "
          f"{rates[1] / rates[0]:7.3f}")
    print(f"{'median of the minima, ms':60} {medians[0]:10.2f} {medians[1]:10.2f} "
          f"{medians[1] / medians[0]:7.3f}")
    differ = [" ".join(argv) for argv, a, b in zip(invocations, *outputs) if a != b]
    for label in differ:
        print(f"abtime: exit code or stdout differs: {label}", file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True, metavar="TREE",
                    help="the parent tree: a checkout whose src/negamm is timed first")
    ap.add_argument("-k", type=int, help="repeats per side (default 25, or 5 rounds with --cli)")
    ap.add_argument("--quick", action="store_true",
                    help="2 repeats of about 2 ms per side (1 round with --cli): "
                         "a smoke run, not a measurement")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--cli", action="store_true",
                      help="time python -m negamm.cli spawns of the benchmark's invocations")
    mode.add_argument("--ops", action="store_true",
                      help="count each primitive's bytecode instructions and C calls; "
                           "time nothing")
    args = ap.parse_args(argv)
    print(f"# parent {os.path.abspath(args.against)}, change {ROOT}")
    if args.ops:
        print(f"# Python {sys.version.split()[0]}, bytecode instructions and C calls "
              f"of one call per primitive, after two warm-up calls")
        print_ops((load(args.against), load(ROOT)))
        return 0
    if args.cli:
        k = 1 if args.quick else max(args.k or 5, 1)
    else:
        k, budget = (2, 0.002) if args.quick else (max(args.k or 25, 1), 0.005)
    print(f"# Python {sys.version.split()[0]}, min of {k} alternating "
          f"{'rounds' if args.cli else 'repeats'} per side")
    if args.cli:
        roots = (os.path.abspath(args.against), ROOT)
        print("\n".join(bytecode_header(roots, os.environ)))  # the spawns inherit os.environ
        return time_cli(roots, k)
    trees = (load(args.against), load(ROOT))
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
