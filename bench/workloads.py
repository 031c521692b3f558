"""The three benchmark workloads, their seeded inputs and their output checks.

All three are closed loops with one client: negamm's callers (plot scripts,
notebooks, build scripts) wait for each answer before asking the next, and at
most one child process runs at a time.

* ``cli_recipes``  sequential ``python -m negamm.cli`` runs.  Interpreter
  start and import are most of every run, so import and numpy work show here;
  the csemm payoff carries the price solver into the tail, and ``analyze`` on
  a long seeded series is where the ``series`` layer does real work.
* ``swap_stream``  in-process exact-input trades on five pools that carry
  their state forward.  Exercises ``swap`` and the forward closed forms in
  ``curves``; never touches csemm price inversion or start-up.
* ``price_grid``   in-process greeks and one-point fingerprints on a jittered
  tick grid through both price domains.  csemm bisection is most of the time;
  neither start-up nor swaps appear.  The ticks negamm cannot yet price lie
  outside fixed per-curve windows; they are run once per run, untimed, and
  reported as known refusals, not as failures.

An operation fails when it raises on an input inside the curve's stated price
domain or when its output misses a check.  A refused trade that the
benchmark's own bound check also refuses is correct, not a failure.  An output
that contradicts an exact identity additionally marks the run incorrect.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from array import array

now = time.perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(HERE, "out")


def quantile(sorted_vals, q: float) -> float:
    """Linear-interpolated quantile of an already sorted sequence."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


class Tally:
    """Outcomes and latencies of one measured phase.

    A workload runs a fixed, seeded list of operations, repeated whole until
    its time is up.  Each operation's latency is its minimum over the
    repeats: on a shared machine the same call can take twice as long while
    a neighbour is busy, and the minimum is what the code itself costs.  The
    rates and percentiles are taken over these per-operation minima.  Only
    one number per operation is held, so the benchmark's own memory does not
    grow with the length of the run.  ``keep_samples`` also keeps every
    latency, for a workload with too few distinct operations for a tail.
    """

    def __init__(self, keep_samples: bool = False):
        self.samples = array("q") if keep_samples else None
        self.best = array("q")
        self.pos = 0
        self.repeats = 0
        self.ops = 0
        self.busy_ns = 0
        self.failed = 0
        self.refused = 0
        self.incorrect = 0
        self.reasons: dict[str, int] = {}
        self.examples: list[str] = []

    def op(self, ns: int) -> None:
        if self.samples is not None:
            self.samples.append(ns)
        if self.repeats == 0:
            self.best.append(ns)
        elif ns < self.best[self.pos]:
            self.best[self.pos] = ns
        self.pos += 1
        self.ops += 1
        self.busy_ns += ns

    def end_repeat(self) -> None:
        if self.pos != len(self.best):
            raise RuntimeError(f"a repeat ran {self.pos} operations, not {len(self.best)}")
        self.pos = 0
        self.repeats += 1

    def fail(self, reason: str, detail: str, contradiction: bool = False,
             operation: bool = True) -> None:
        """Record a miss; ``operation`` False for a check outside any operation."""
        self.failed += operation
        self.incorrect += contradiction
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if len(self.examples) < 5:
            self.examples.append(f"{reason}: {detail}"[:300])

    def summary(self) -> dict:
        if self.pos:
            self.end_repeat()
        best = sorted(self.best)
        ms = [quantile(best, q) / 1e6 for q in (0.5, 0.9, 0.99)] if best else [0.0] * 3
        return {
            "ops": self.ops,
            "distinct_ops": len(best),
            "repeats": self.repeats,
            "failed": self.failed,
            "refused": self.refused,
            "incorrect": self.incorrect,
            "busy_s": self.busy_ns / 1e9,
            "ops_per_s": len(best) / sum(best) * 1e9 if best else 0.0,
            "p50_ms": ms[0],
            "p90_ms": ms[1],
            "p99_ms": ms[2],
            "p90_all_ms": quantile(sorted(self.samples), 0.9) / 1e6 if self.samples else None,
            "reasons": self.reasons,
            "examples": self.examples,
        }


# ---------------------------------------------------------------- cli_recipes

FIXTURE = "tests/data/spot_prices.csv"
CIRCLE = "3.414213562373095"

# Fixed-argument invocations; their stdout digests are recorded in
# digests.json, which is the byte-identity proof for refactors.
FIXED_INVOCATIONS = [
    # the nine CLI-determinism invocations of the acceptance tests
    ["curve", "--family", "ccmm", "--k", "1", "--grid", "0:2:101"],
    ["curve", "--family", "csemm", "--alpha", "3", "--beta", "4",
     "--grid", "0:6:61", "--output", "json"],
    ["swap", "--family", "ccmm", "--k", "1", "--x", "0.5",
     "--token-in", "x", "--amount-in", "0.7"],
    ["fingerprint", "--family", "ccmm", "--k", "1", "--space", "tick",
     "--grid", "-6:6:241", "--domain", "both"],
    ["fingerprint", "--family", "csemm", "--alpha", "3", "--beta", "4",
     "--space", "sqrtprice", "--grid", "0.1:5:50"],
    ["payoff", "--family", "ccmm", "--k", "1", "--grid", "-5:5:101",
     "--sigma-iv", "0.8", "--output", "json"],
    ["analyze", "--input", FIXTURE, "--stat", "negative-days"],
    ["analyze", "--input", FIXTURE, "--stat", "returns"],
    ["compare", "--specs", "ccmm:k=1", "gaussian:mu=0,sigma=1.13,mass=1.69",
     "--space", "tick", "--grid", "-6:6:121"],
    # README recipes 1-5
    ["curve", "--family", "csemm", "--alpha", "2.001", "--beta", "2.001",
     "--grid", "0:2.001:401"],
    ["curve", "--family", "csemm", "--alpha", CIRCLE, "--beta", CIRCLE,
     "--grid", f"0:{CIRCLE}:401"],
    ["curve", "--family", "csemm", "--alpha", "8", "--beta", "8", "--grid", "0:8:401"],
    ["compare", "--specs", "ccmm:k=1",
     "gaussian:mu=0,sigma=1.1273579724198353,mass=1.6944261289744884",
     "--space", "tick", "--grid", "-12:12:481"],
    ["payoff", "--family", "ccmm", "--k", "1", "--sigma-iv", "0.8", "--grid", "-3:3:241"],
    ["fingerprint", "--family", "ccmm", "--k", "1", "--space", "circle",
     "--domain", "both", "--grid", "-16:16:801"],
    ["fingerprint", "--family", "parabola", "--space", "circle",
     "--domain", "negative", "--grid", "-16:-0.05:401"],
    ["analyze", "--input", FIXTURE, "--stat", "negative-days"],
    ["analyze", "--input", FIXTURE, "--stat", "returns", "--mode", "arithmetic_diff"],
    ["analyze", "--input", FIXTURE, "--stat", "hill", "--top-k", "3"],
    # csemm payoff: 2001 points of double bisection
    ["payoff", "--family", "csemm", "--alpha", "3", "--beta", "3",
     "--sigma-iv", "0.8", "--grid", "-3:3:2001"],
]

SERIES_ROWS = 30_000
HILL_TOP_K = 300


def digest_key(argv) -> str:
    return " ".join(argv)


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root: str, argv, timeout: float = 120.0):
    """(exit code, stdout bytes, stderr text, wall ns) of one CLI process."""
    cmd = [sys.executable, "-m", "negamm.cli", *argv]
    t0 = now()
    proc = subprocess.run(cmd, cwd=root, env=cli_env(root), capture_output=True,
                          timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace"), now() - t0


def make_series(seed: int, path: str) -> dict:
    """Write a seeded daily price series with negative prints to ``path``.

    Returns the exact stdout each seeded ``analyze`` run must produce, plus
    the Hill estimate recomputed here in plain Python.
    """
    rng = random.Random(f"series:{seed}")
    day0 = datetime.date(1940, 1, 1)
    level = 45.0
    dates, prices = [], []
    for i in range(SERIES_ROWS):
        level = 0.97 * level + 0.03 * 45.0 + rng.gauss(0.0, 3.0)
        price = level if rng.random() > 0.03 else -rng.uniform(0.5, 80.0)
        dates.append(day0 + datetime.timedelta(days=i))
        prices.append(round(price, 2))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,price\n")
        fh.writelines(f"{d.isoformat()},{p!r}\n" for d, p in zip(dates, prices))
    years: dict[int, list] = {}
    for d, p in zip(dates, prices):
        stat = years.setdefault(d.year, [0, p])
        stat[0] += p < 0.0
        stat[1] = min(stat[1], p)
    diffs = [prices[i] - prices[i - 1] for i in range(1, len(prices))]
    top = sorted((abs(v) for v in diffs), reverse=True)[:HILL_TOP_K]
    hill = 1.0 / (sum(math.log(v / top[-1]) for v in top[:-1]) / (len(top) - 1))
    return {
        "negative-days": "year,negative_days,min_price\n" + "".join(
            f"{y},{n},{m!r}\n" for y, (n, m) in sorted(years.items())),
        "returns": "date,return\n" + "".join(
            f"{d.isoformat()},{v!r}\n" for d, v in zip(dates[1:], diffs)),
        "rows": len(prices),
        "hill": hill,
    }


class CliRecipes:
    name = "cli_recipes"

    def __init__(self, root: str, seed: int):
        self.root = root
        os.makedirs(OUT, exist_ok=True)
        self.series_path = os.path.join(OUT, f"series-{seed}.csv")
        self.expected = make_series(seed, self.series_path)
        rel = os.path.relpath(self.series_path, root)
        self.seeded = [
            ["analyze", "--input", rel, "--stat", "negative-days"],
            ["analyze", "--input", rel, "--stat", "returns"],
            ["analyze", "--input", rel, "--stat", "hill", "--top-k", str(HILL_TOP_K)],
        ]
        with open(DIGESTS, encoding="utf-8") as fh:
            self.digests = json.load(fh)
        self.invocations = FIXED_INVOCATIONS + self.seeded
        random.Random(f"cli:{seed}").shuffle(self.invocations)

    def check(self, tally: Tally, argv, code: int, out: bytes, err: str) -> None:
        label = digest_key(argv)
        if code != 0:
            tally.fail("exit code", f"{label} -> {code}: {err.strip()[-200:]}", True)
        elif argv in self.seeded:
            stat = argv[4]
            text = out.decode()
            if stat == "hill":
                try:
                    value = float(text.splitlines()[1].split(",")[1])
                except (IndexError, ValueError):
                    value = math.nan
                if not math.isclose(value, self.expected["hill"], rel_tol=1e-9):
                    tally.fail("hill", f"{text[:80]!r} != {self.expected['hill']}", True)
            elif text != self.expected[stat]:
                rows = text.count("\n") - 1
                tally.fail(f"analyze {stat}",
                           f"output differs ({rows} rows for {self.expected['rows']} prices)",
                           True)
        elif hashlib.sha256(out).hexdigest() != self.digests.get(label):
            tally.fail("stdout digest", label, True)

    def warmup(self) -> None:
        run_cli(self.root, FIXED_INVOCATIONS[0])

    def run(self, tally: Tally) -> None:
        """Every invocation, in the seeded order, as a subprocess."""
        for argv in self.invocations:
            code, out, err, ns = run_cli(self.root, argv)
            tally.op(ns)
            self.check(tally, argv, code, out, err)

    def in_process(self, tally: Tally, cli) -> None:
        """Every invocation through ``negamm.cli.run``, stdout captured."""
        for argv in self.invocations:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0 = now()
                code = cli.run(argv)
                ns = now() - t0
            tally.op(ns)
            self.check(tally, argv, code, buf.getvalue().encode(), "")


def record_digests(root: str) -> dict:
    digests = {}
    for argv in FIXED_INVOCATIONS:
        code, out, err, _ = run_cli(root, argv)
        if code != 0:
            raise RuntimeError(f"{digest_key(argv)} exited {code}: {err}")
        digests[digest_key(argv)] = hashlib.sha256(out).hexdigest()
    return digests


# ---------------------------------------------------------------- swap_stream

READ_SHARE = 3 / 7     # a read precedes 3 of 7 executes: 30% of all ops
OUT_OF_BRANCH = 0.03   # share of trades drawn to leave the branch
RETARGET = 40          # trades on one pool before its target is redrawn
SWAP_TRADES = 7000     # trades per repeat, about 10,000 operations


class SwapStream:
    name = "swap_stream"

    def __init__(self, negamm, pools, seed: int):
        self.n = negamm
        self.seed = seed
        self.pools = pools
        self.restart()

    def restart(self) -> None:
        self.rng = random.Random(f"swap:{self.seed}")
        self.states = [state for _, _, state in self.pools]
        self.targets = [branch.draw_target(self.rng) for branch, _, _ in self.pools]
        self.since = [0] * len(self.pools)

    def draw(self, i: int, state):
        """A trade toward pool i's target price, or (rarely) off the branch."""
        rng = self.rng
        branch = self.pools[i][0]
        x, y = state.x, state.y
        span = branch.x_hi if math.isfinite(branch.x_hi) else 1.0
        if self.since[i] >= RETARGET or abs(x - self.targets[i]) < 0.01 * span:
            self.targets[i] = branch.draw_target(rng)
            self.since[i] = 0
        self.since[i] += 1
        target = self.targets[i]
        fee = rng.random() * 0.01
        if rng.random() < OUT_OF_BRANCH:
            token = "x" if rng.random() < 0.5 else "y"
            goal = branch.draw_beyond(rng, token, x, y)
            move = goal - (x if token == "x" else y)
        elif branch.left(target) == branch.left(x) and rng.random() < 0.5:
            token = "y"
            move = (branch.y(target) - y) * rng.uniform(0.2, 1.0)
        else:
            token = "x"
            move = (target - x) * rng.uniform(0.2, 1.0)
        amount = move / (1.0 - fee) or 1e-9
        req = self.n.SwapRequest(token, amount, fee)
        return req, branch.leaves(token, x, y, (1.0 - fee) * amount)

    def _refusal(self, tally: Tally, err, leaves: bool, label: str, req) -> bool:
        """Score a call's refusal, if any; True when the call succeeded."""
        if err is None:
            if leaves:
                tally.fail("accepted off-branch trade", f"{label} {req}", True)
            return not leaves
        if leaves and isinstance(err, self.n.DomainExceeded):
            tally.refused += 1
            return False
        tally.fail(f"raised {type(err).__name__}", f"{label} {req}: {err}")
        return False

    def step(self, tally: Tally) -> None:
        n = self.n
        rng = self.rng
        i = rng.randrange(len(self.pools))
        branch, spec, state = self.pools[i][0], self.pools[i][1], self.states[i]
        req, leaves = self.draw(i, state)
        read = None
        if rng.random() < READ_SHARE:
            read = n.quote_exact_in if rng.random() < 0.5 else n.price_impact
            err = None
            t0 = now()
            try:
                looked = read(spec, state, req)
            except Exception as exc:  # every outcome is scored below
                err = exc
            tally.op(now() - t0)
            if not self._refusal(tally, err, leaves, branch.label, req):
                read = None
        err = None
        t0 = now()
        try:
            new, res = n.execute_swap(spec, state, req)
        except Exception as exc:
            err = exc
        tally.op(now() - t0)
        if not self._refusal(tally, err, leaves, branch.label, req):
            return
        eff = (1.0 - req.fee) * req.amount_in
        if req.token_in == "x":
            exact = new.x == state.x + eff and res.amount_out == state.y - new.y
        else:
            exact = new.y == state.y + eff and res.amount_out == state.x - new.x
        problem = None
        if not exact:
            problem = "reserve accounting", f"-> {new}, {res}", True
        elif abs(branch.residual(new.x, new.y)) > 1e-9 * branch.scale:
            problem = "residual", f"-> {new}", False
        elif read is n.quote_exact_in and looked != res:
            problem = "quote != execute", f"{looked} vs {res}", True
        elif read is n.price_impact and looked != (res.price_before, res.price_after):
            problem = "price_impact != execute", f"{looked} vs {res}", True
        if problem:
            tally.fail(problem[0], f"{branch.label} {req} {problem[1]}", problem[2])
        self.states[i] = new

    def warmup(self) -> None:
        scratch = Tally()
        for _ in range(500):
            self.step(scratch)

    def run(self, tally: Tally) -> None:
        """The first SWAP_TRADES trades of the stream, from the start."""
        self.restart()
        for _ in range(SWAP_TRADES):
            self.step(tally)


# ---------------------------------------------------------------- price_grid

GRID_CELLS = 161  # ticks per domain; 322 points per curve
SIGMA_IV = 0.8

# Tick windows (t_lo, t_hi) per curve and domain, "+" for p = e^t and "-" for
# p = -e^t, outside which negamm refuses or misses a check today; each edge
# keeps three grid cells (0.3 in t) of margin from the first failing cell.
#   ccmm: state_from_price loses the 1e-10 price accuracy at |p| >~ 1000,
#         because x = k(1 + cos theta) cancels near the branch ends.
#   csemm: the inversion raises ConvergenceError at large negative prices,
#         and near-diamond (2.2, 2.2) also at small |p| and at p < -e^1.8.
# A cell is measured only when it lies wholly inside its window, so the
# measured set does not depend on the seed's jitter; the other cells are the
# known refusals, run once per run, untimed and outside every count.
FULL = (-8.0, 8.0)
WINDOWS = {
    "ccmm k=1": {"+": (-8.0, 7.0), "-": (-8.0, 6.4)},
    "csemm circle": {"+": FULL, "-": (-8.0, 6.5)},
    "csemm 3,3": {"+": FULL, "-": (-8.0, 5.5)},
    "csemm 3,4": {"+": FULL, "-": (-8.0, 7.6)},
    "csemm 8,2.5": {"+": FULL, "-": (-8.0, 3.4)},
    "csemm near-diamond 2.2,2.2": {"+": (-2.4, 8.0), "-": (-2.4, 1.6)},
}


class PriceGrid:
    name = "price_grid"

    def __init__(self, negamm, curves, seed: int):
        self.n = negamm
        self.curves = curves
        rng = random.Random(f"grid:{seed}")
        ticks = [-8.0 + 16.0 * (i + rng.random()) / GRID_CELLS for i in range(GRID_CELLS)]
        # per curve: {domain: measured ticks}, and (domain, tick) known refusals
        self.measured, self.outside = [], []
        for branch, _ in curves:
            inside, outside = {}, []
            for domain, sign in ((negamm.POSITIVE, "+"), (negamm.NEGATIVE, "-")):
                lo, hi = WINDOWS[branch.label][sign]
                inside[domain] = []
                for i, t in enumerate(ticks):
                    left, right = (-8.0 + 16.0 * j / GRID_CELLS for j in (i, i + 1))
                    if lo <= left and right <= hi:
                        inside[domain].append(t)
                    else:
                        outside.append((domain, t))
            self.measured.append(inside)
            self.outside.append(outside)

    def point(self, tally: Tally, branch, spec, t: float, domain: str):
        """Greeks and a one-point fingerprint at p = +/-e^t; one operation."""
        n = self.n
        p = math.exp(t) if domain == n.POSITIVE else -math.exp(t)
        g = smp = err = None
        t0 = now()
        try:
            g = n.greeks(spec, p, sigma_iv=SIGMA_IV)
        except Exception as exc:  # scored below; one bad point never stops the grid
            err = exc
        try:
            smp = n.numeric_fingerprint(spec, [t], space="tick", domain=domain)[0]
        except Exception as exc:
            err = err or exc
        tally.op(now() - t0)
        if err is not None:
            tally.fail(f"{branch.label}: raised {type(err).__name__}", f"p={p!r}: {err}")
            return None
        try:
            problem = self.check(branch, spec, p, t, domain, g, smp)
        except Exception as exc:
            problem = ("check raised", f"{type(exc).__name__}: {exc}", True)
        if problem:
            reason, detail, contradiction = problem
            tally.fail(reason, f"{branch.label} p={p!r}: {detail}", contradiction)
        return smp

    def check(self, branch, spec, p, t, domain, g, smp):
        """None, or (reason, detail, contradiction) for the first miss."""
        n = self.n
        state = n.state_from_x(spec, g.delta)
        scale = max(1.0, abs(p))
        if g.delta != state.x:
            return "delta != state.x", f"{g.delta} vs {state.x}", True
        if abs(g.value - (p * state.x + state.y)) > 1e-9 * scale:
            return "value != p*x + y", f"{g.value}", False
        if abs(n.price_of(spec, state) - p) > 1e-10 * scale:
            return f"{branch.label}: price_of(state) != p", f"x={state.x!r}", False
        d = smp.density
        if branch.family == "ccmm":
            # Two-point central differences of the reserve carry ~1e-7
            # relative round-off on this grid; 1e-5 leaves margin.
            k = branch.params["k"]
            closed = 2.0 * k * math.exp(1.5 * t) / (1.0 + math.exp(2.0 * t)) ** 1.5
            if domain == n.NEGATIVE:
                closed = -closed
            if abs(d - closed) > 1e-5 * abs(closed):
                return "ccmm fingerprint != closed form", f"{d} vs {closed}", False
            return None
        signed = d <= 0.0 if domain == n.NEGATIVE else d >= 0.0
        if not (math.isfinite(d) and signed):
            return "fingerprint sign", f"{d} in {domain}", True
        return None

    def run(self, tally: Tally) -> None:
        """One pass over every curve, both domains and every measured tick."""
        n = self.n
        for (branch, spec), inside in zip(self.curves, self.measured):
            tail = []
            for domain, ticks in inside.items():
                for t in ticks:
                    smp = self.point(tally, branch, spec, t, domain)
                    if smp is not None and domain == n.POSITIVE and t >= 2.0:
                        tail.append(n.FingerprintSample(math.exp(0.5 * t), smp.density))
            # Tail fit in sqrt-price coordinates; checked, not an operation.
            try:
                index = n.tail_index(tail)
            except Exception as exc:
                index = f"{type(exc).__name__}: {exc}"
            # ccmm decays like s^-3 in sqrt-price; csemm only needs a finite fit.
            ok = isinstance(index, float) and math.isfinite(index) and index > 0.0
            if not ok or (branch.family == "ccmm" and abs(index - 3.0) > 0.05):
                tally.fail("tail index", f"{branch.label}: {index}", True, operation=False)

    def known_refusals(self) -> dict:
        """The ticks outside the windows, once: how many negamm still refuses
        or answers wrongly there, by reason."""
        tally = Tally()
        for (branch, spec), outside in zip(self.curves, self.outside):
            for domain, t in outside:
                self.point(tally, branch, spec, t, domain)
        return {"points": tally.ops, "refused": tally.failed,
                "incorrect": tally.incorrect, "reasons": tally.reasons}

    def warmup(self) -> None:
        scratch = Tally()
        branch, spec = self.curves[2]
        for t in self.measured[2][self.n.POSITIVE][::8]:
            self.point(scratch, branch, spec, t, self.n.POSITIVE)

