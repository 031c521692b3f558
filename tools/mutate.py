#!/usr/bin/env python3
"""Mutation check of the tier-1 tests against ``src/negamm``.

    python tools/mutate.py --list               # every mutation site, no runs
    python tools/mutate.py --changed REV        # mutants of lines `git diff REV` touches
    python tools/mutate.py --module swap -j 2   # every mutant of one module
    python tools/mutate.py --known              # the listed survivors still survive

Each mutant makes one change to one module:

* flip a comparison: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``is`` and ``is not``, ``in`` and ``not in``;
* swap ``+`` and ``-``, or ``*`` and ``/``, in a binary operation;
* negate the test of an ``if`` (or ``elif``) statement.

The change is made to the operator's own characters (or by wrapping the test
in ``not (...)``), so every other line keeps its text and number, and the
mutated module is parsed back and checked against the mutated syntax tree.
Each worker copies the tree once, without ``.git`` and caches; it runs tier-1
on the unmutated copy first, then writes one mutant at a time into its copy
and runs ``python -m pytest -q -x --hypothesis-seed=0`` there.  A mutant is
killed when that run fails or times out.  A full run takes over an hour; the
whole tier-1 runs once per mutant.

``KNOWN`` lists the sites where no test is expected to kill the mutant, each
with its reason: equivalent mutants (no input tells them apart) and work-only
mutants (the same outcomes from more or less solver work).  The exit code is
1 if a mutant not on that list survives, 2 if the unmutated tree fails.
The standard library only; this tool is not part of tier-1 or of CI.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import Counter, namedtuple
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "negamm")
TIER1 = ["-m", "pytest", "-q", "-x", "--hypothesis-seed=0", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]

# (module file, the operator's line without its comment, source text of the mutated
# node, mutation) -> why tier-1 cannot kill it
KNOWN = {
    ("curves.py", "if z < c:", "z < c", "< -> <="):
        "equivalent: at z = c both branches compute log1p(-1)",
    ("curves.py", "den = u_b * a * math.exp((u_b - 1.0) * lg_abs_y_dev) * (-1.0)",
     "u_b * a * math.exp((u_b - 1.0) * lg_abs_y_dev) * (-1.0)", "* -> /"):
        "equivalent: times -1.0 and over -1.0 give the same float",
    ("fingerprint.py", "if sgn < 0.0:", "sgn < 0.0", "< -> <="):
        "equivalent: sgn is +1.0 or -1.0, never 0.0",
    ("curves.py", "z = -_LN2 / u_a", "-_LN2 / u_a", "/ -> *"):
        "work-only: another Newton start for the csemm seed; fences and bisection decide",
    ("curves.py", "if 0.0 <= f and _csemm_price(f, a, b, u_a, u_b) - p > margin:",
     "0.0 <= f", "<= -> <"):
        "work-only: at f = 0.0 the left fence is -inf, so more halvings are replayed",
    ("curves.py", "elif band_right and x >= cr:", "x >= cr", ">= -> >"):
        "work-only: at x = cr the right band fence is placed later or not at all",
    ("curves.py", "return y, res, math.inf if x < k else -math.inf", "x < k", "< -> <="):
        "equivalent: the root is 0 only at the arc's ends or where x(2k - x) underflows, "
        "never at x = k",
    ("curves.py", "lower, price = float(b), math.inf if x < a else -math.inf", "x < a",
     "< -> <="):
        "equivalent: x = a takes the fold's branch before",
    ("curves.py", "sgn = 1.0 if x < a else -1.0", "x < a", "< -> <="):
        "equivalent: x = a takes the fold's branch before",
    ("curves.py", "num = u_a * b * math.exp((u_a - 1.0) * lgx) * sgn",
     "u_a * b * math.exp((u_a - 1.0) * lgx) * sgn", "* -> /"):
        "equivalent: times and over sgn, +1.0 or -1.0, give the same float",
}

FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
TEXT = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
        ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
        ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}

# ``expected``: the mutated module's syntax tree, dumped; ``source`` must parse to it
Site = namedtuple("Site", "module line text segment label source expected")


def _offset(starts, lineno: int, col: int) -> int:
    """Byte offset of an ast (lineno, col_offset) in the UTF-8 source."""
    return starts[lineno - 1] + col


def _replace_operator(data: bytes, start: int, end: int, new: str) -> bytes:
    """Put ``new`` in place of the operator between two operands.

    The gap from the left operand's end to the right one's start holds only
    brackets, blanks, line continuations and the operator itself.
    """
    core = re.search(rb"[^()\s\\](.*[^()\s\\])?", data[start:end], re.S)
    return data[:start + core.start()] + new.encode() + data[start + core.end():]


def _dump(tree) -> str:
    return ast.dump(tree, include_attributes=False)


def sites(module: str) -> list[Site]:
    """Every mutant of one module, each with its whole mutated source."""
    path = os.path.join(ROOT, PACKAGE, module)
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    lines = text.splitlines()
    tree = ast.parse(text)
    out = []

    def add(node, label, line, mutated_data, mutate, shown=None):
        def expected():
            saved = {field: getattr(node, field) for field in node._fields}
            mutate(node)
            try:
                return _dump(tree)
            finally:
                for field, value in saved.items():
                    setattr(node, field, value)
        text_line = re.sub(r"\s*#.*$", "", lines[line - 1]).strip()
        out.append(Site(module, line, text_line, ast.get_source_segment(text, shown or node),
                        label, mutated_data.decode(), expected))

    def gap(left, right):
        return (_offset(starts, left.end_lineno, left.end_col_offset),
                _offset(starts, right.lineno, right.col_offset))

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            for i, op in enumerate(node.ops):
                new = FLIP[type(op)]
                a, b = gap(operands[i], operands[i + 1])

                def flip(n, i=i, new=new):
                    n.ops = n.ops[:i] + [new()] + n.ops[i + 1:]
                add(node, f"{TEXT[type(op)]} -> {TEXT[new]}", operands[i].end_lineno,
                    _replace_operator(data, a, b, TEXT[new]), flip)
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAP:
            new = SWAP[type(node.op)]
            a, b = gap(node.left, node.right)

            def swap(n, new=new):
                n.op = new()
            add(node, f"{TEXT[type(node.op)]} -> {TEXT[new]}", node.left.end_lineno,
                _replace_operator(data, a, b, TEXT[new]), swap)
        elif isinstance(node, ast.If):
            t = node.test
            a = _offset(starts, t.lineno, t.col_offset)
            b = _offset(starts, t.end_lineno, t.end_col_offset)

            def negate(n):
                n.test = ast.UnaryOp(ast.Not(), n.test)
            add(node, "if -> if not", t.lineno,
                data[:a] + b"not (" + data[a:b] + b")" + data[b:], negate, shown=t)
    out.sort(key=lambda s: s.line)
    return out


def check(site: Site) -> None:
    """Refuse a mutant whose text does not parse to the mutated tree."""
    if _dump(ast.parse(site.source)) != site.expected():
        raise SystemExit(f"mutate: {site.module}:{site.line}: the text edit for {site.label} "
                         f"does not give the mutated tree")


def known(site: Site):
    return KNOWN.get((site.module, site.text, site.segment, site.label))


def _label(site: Site) -> str:
    return f"{site.module}:{site.line}: {site.label}  [{' '.join(site.segment.split())}]"


def changed_lines(rev: str) -> dict[str, set[int]]:
    """Module file -> the line numbers ``git diff rev`` adds or changes in it."""
    diff = subprocess.run(["git", "diff", "-U0", rev, "--", PACKAGE], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout
    lines: dict[str, set[int]] = {}
    current = None
    for row in diff.splitlines():
        if row.startswith("+++ "):
            current = None if row == "+++ /dev/null" else os.path.basename(row[4:])
        elif row.startswith("@@") and current:
            start, _, count = re.match(r"@@ -\S+ \+(\d+)(,(\d+))? @@", row).groups()
            first, n = int(start), 1 if count is None else int(count)
            lines.setdefault(current, set()).update(range(first, first + n))
    return lines


class Worker:
    """One copy of the tree, in which mutants are written and tested one at a time."""

    def __init__(self, root: str, timeout: float):
        self.root = root
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(  # "out": bench/out
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", "out"))
        self.timeout = timeout

    def tier1(self) -> str:
        """'passed', 'failed' or 'timeout' for tier-1 on the copy as it stands."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run([sys.executable] + TIER1, cwd=self.root, env=env,
                                  capture_output=True, timeout=self.timeout)
        except subprocess.TimeoutExpired:
            return "timeout"
        return "passed" if proc.returncode == 0 else "failed"

    def run(self, site: Site) -> str:
        path = os.path.join(self.root, PACKAGE, site.module)
        with open(path, "rb") as fh:
            original = fh.read()
        try:
            with open(path, "w") as fh:
                fh.write(site.source)
            return self.tier1()
        finally:
            with open(path, "wb") as fh:
                fh.write(original)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--changed", metavar="REV",
                    help="only the sites on lines that `git diff REV` adds or changes")
    ap.add_argument("--module", action="append", metavar="NAME",
                    help="only this module of negamm (repeatable), e.g. swap")
    ap.add_argument("--known", action="store_true",
                    help="only the sites listed in KNOWN, to check that they still survive")
    ap.add_argument("--list", action="store_true", help="print the sites and run nothing")
    ap.add_argument("-j", type=int, default=2, help="mutants tested at once (default 2)")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="seconds one tier-1 run may take before the mutant counts as killed")
    args = ap.parse_args(argv)

    modules = sorted(f for f in os.listdir(os.path.join(ROOT, PACKAGE)) if f.endswith(".py"))
    if args.module:
        modules = [m for m in modules if m[:-3] in args.module]
    todo = [s for m in modules for s in sites(m)]
    if args.changed:
        touched = changed_lines(args.changed)
        todo = [s for s in todo if s.line in touched.get(s.module, ())]
    if args.known:
        todo = [s for s in todo if known(s)]
    if args.list or not todo:
        for site in todo:
            reason = known(site)
            print(f"{_label(site)}" + (f"  (known: {reason})" if reason else ""))
        print(f"mutate: {len(todo)} sites")
        return 0
    for site in todo:
        check(site)

    base = tempfile.mkdtemp(prefix="negamm-mutate-")
    try:
        workers = [Worker(os.path.join(base, f"tree-{i}"), args.timeout)
                   for i in range(max(1, min(args.j, len(todo))))]
        if workers[0].tier1() != "passed":
            print("mutate: tier-1 fails on the unmutated tree", file=sys.stderr)
            return 2
        free = list(workers)
        lock = threading.Lock()

        def test(site):
            with lock:
                worker = free.pop()
            try:
                return site, worker.run(site)
            finally:
                with lock:
                    free.append(worker)

        tally = Counter()
        survivors = 0
        with ThreadPoolExecutor(len(workers)) as pool:
            for site, outcome in pool.map(test, todo):
                reason = known(site)
                killed = outcome != "passed"
                tally[site.module, killed] += 1
                if not killed and not reason:
                    survivors += 1
                verdict = ("killed" if outcome == "failed" else "killed (timeout)" if killed
                           else f"survived, known: {reason}" if reason else "SURVIVED")
                print(f"{_label(site)}  {verdict}", flush=True)
        for module in sorted({m for m, _ in tally}):
            total = tally[module, True] + tally[module, False]
            print(f"mutate: {module}: {tally[module, True]} of {total} killed")
        print(f"mutate: {survivors} survivors not in KNOWN")
        return 1 if survivors else 0
    finally:
        shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
