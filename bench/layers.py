"""Per-layer figures for the traced run.

* ``baseline_table``: untraced per-call costs of the operations in the
  ROADMAP's baseline table (ccmm k=1 and csemm alpha=beta=3), so that table is
  regenerated by every traced run.
* ``cli_startup``: interpreter start plus ``import negamm.cli`` in fresh
  processes, and its split into numpy and the rest from ``-X importtime``.
* ``traced_suite``: a fixed set of calls, made while traced, that reaches
  every layer, so that every per-layer figure exists on every workload.
* ``layer_metrics``: the per-layer figures, computed from the spans.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from workloads import HILL_TOP_K, Tally, cli_env

now = time.perf_counter_ns

PRICES = [-3.0, -1.0, -0.25, 0.1, 0.5, 1.0, 2.0, 3.0]
POSITIVE_PRICES = [p for p in PRICES if p > 0.0]
GRID_400 = [0.1 + 4.9 * i / 399 for i in range(400)]  # sqrt-price coordinates
CLI_COMMANDS = ("curve", "swap", "fingerprint", "payoff", "analyze", "compare")
LIB_MODULES = ("curves", "swap", "payoff", "fingerprint", "series", "cli")


def _specs(n):
    return n.CurveSpec.ccmm(1.0), n.CurveSpec.csemm(3.0, 3.0)


def _swaps(n):
    """The baseline swaps: x in on ccmm, y in on csemm, from price 1."""
    ccmm, csemm = _specs(n)
    return [
        (ccmm, n.state_from_price(ccmm, 1.0), n.SwapRequest(n.TOKEN_X, 0.3, 0.003)),
        (csemm, n.state_from_price(csemm, 1.0), n.SwapRequest(n.TOKEN_Y, 0.3, 0.003)),
    ]


def _per_call_us(fn, calls: int, reps: int = 5) -> float:
    """Median over ``reps`` of the mean time of ``calls`` calls of fn()."""
    times = []
    for _ in range(reps):
        t0 = now()
        for _ in range(calls):
            fn()
        times.append((now() - t0) / calls / 1e3)
    return statistics.median(times)


def baseline_table(n) -> dict:
    """Per-call cost, in us, of each baseline row for ccmm and csemm."""
    ccmm, csemm = _specs(n)
    swaps = _swaps(n)
    table = {}
    for label, spec, calls in (("ccmm", ccmm, 400), ("csemm", csemm, 20)):
        table[f"state_from_price.{label}_us"] = _per_call_us(
            lambda: [n.state_from_price(spec, p) for p in PRICES], calls) / len(PRICES)
        table[f"greeks.{label}_us"] = _per_call_us(
            lambda: [n.greeks(spec, p, sigma_iv=0.8) for p in PRICES], calls) / len(PRICES)
        table[f"numeric_fingerprint_400.{label}_ms"] = _per_call_us(
            lambda: n.numeric_fingerprint(spec, GRID_400), max(1, calls // 100)) / 1e3
    for (spec, state, req), label in zip(swaps, ("ccmm_x_in", "csemm_y_in")):
        table[f"execute_swap.{label}_us"] = _per_call_us(
            lambda: n.execute_swap(spec, state, req), 2000)
    return table


def _spawn_ms(root: str, args, reps: int) -> list:
    out = []
    for _ in range(reps):
        t0 = now()
        proc = subprocess.run([sys.executable, *args], cwd=root, env=cli_env(root),
                              capture_output=True, timeout=120)
        out.append((now() - t0) / 1e6)
        if proc.returncode != 0:
            raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr[-300:]!r}")
    return out


def cli_startup(root: str, reps: int = 5) -> dict:
    """Fresh-process start-up of the CLI module, and its import split."""
    numpy_ms, negamm_ms = [], []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import negamm.cli"],
                              cwd=root, env=cli_env(root), capture_output=True, text=True,
                              timeout=120)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        numpy_ms.append(cumulative.get("numpy", 0.0))
        negamm_ms.append(cumulative["negamm.cli"] - numpy_ms[-1])
    return {
        "startup_ms": statistics.median(_spawn_ms(root, ["-c", "import negamm.cli"], reps)),
        "bare_python_ms": statistics.median(_spawn_ms(root, ["-c", "pass"], reps)),
        "numpy_ms": statistics.median(numpy_ms),
        "negamm_ms": statistics.median(negamm_ms),
    }


def traced_suite(n, cli, recipes, series_path: str):
    """Calls that reach every layer, made with the tracer installed; returns
    the tally of the in-process CLI pass, whose outputs are checked."""
    ccmm, csemm = _specs(n)
    for spec in (ccmm, csemm):
        for p in PRICES:
            n.state_from_price(spec, p)
            n.greeks(spec, p, sigma_iv=0.8)
        samples = n.numeric_fingerprint(spec, GRID_400)
        n.tail_index(samples[len(samples) // 2:])
    for spec in (n.CurveSpec.cpmm(1.0), n.CurveSpec.parabola(2)):
        for p in POSITIVE_PRICES:
            n.state_from_price(spec, p)
    for spec, state, req in _swaps(n):
        for _ in range(20):
            n.execute_swap(spec, state, req)
    data = n.load_series(series_path)
    ret = n.returns(data)
    n.negative_price_stats(data)
    n.hill_tail_index(ret, HILL_TOP_K)
    tally = Tally()
    recipes.in_process(tally, cli)
    return tally


def _need(idx, what: str):
    if not idx:
        raise RuntimeError(f"no successful spans of {what}")
    return idx


def layer_metrics(tr, startup: dict, overhead_frac: float, unit_spans: int,
                  unit_ops: int) -> dict:
    """name -> (value, unit) for every per-layer figure.

    Self time per module comes from the first ``unit_spans`` spans, those of
    the traced workload units, spread over their ``unit_ops`` operations; every
    other figure uses all spans, the fixed suite's included.
    """
    def median_us(qual, tag=None):
        idx = _need(tr.select(qual, tag), f"{qual} {tag or ''}")
        return statistics.median(tr.durations_ns(idx)) / 1e3

    def per_size_us(qual, tag=None):
        idx = _need(tr.select(qual, tag), f"{qual} {tag or ''}")
        return sum(tr.durations_ns(idx)) / sum(tr.size[i] for i in idx) / 1e3

    out = {
        "cli.startup_ms": (startup["startup_ms"], "ms"),
        "cli.import.numpy_ms": (startup["numpy_ms"], "ms"),
        "cli.import.negamm_ms": (startup["negamm_ms"], "ms"),
    }
    for cmd in CLI_COMMANDS:
        idx = _need(tr.select("cli.run", cmd), f"cli.run {cmd}")
        out[f"cli.run.{cmd}_ms"] = (statistics.fmean(tr.durations_ns(idx)) / 1e6, "ms")

    inv_all = tr.select("curves.csemm_x_from_price", ok=None)
    inv = _need(tr.select("curves.csemm_x_from_price"), "csemm_x_from_price")
    out["curves.csemm_x_from_price.us"] = (median_us("curves.csemm_x_from_price"), "us")
    out["curves.csemm_x_from_price.ok_ratio"] = (len(inv) / len(inv_all), "ratio")
    out["curves.csemm_exponent.calls_per_inversion"] = (
        sum(tr.leaf[i] for i in inv) / len(inv), "calls")
    out["payoff.csemm_inversions_per_greeks"] = (
        tr.calls_per("curves.csemm_x_from_price", _need(tr.select("payoff.greeks", "csemm"),
                                                         "greeks csemm")), "calls")
    for fam in ("ccmm", "csemm", "cpmm", "parabola"):
        out[f"curves.state_from_price.{fam}_us"] = (median_us("curves.state_from_price", fam), "us")
    out["curves.x_from_y_on_side.us"] = (median_us("curves.x_from_y_on_side"), "us")

    executes = _need(tr.select("swap.execute_swap"), "execute_swap")
    for fn in ("state_from_x", "price_of", "invariant_residual"):
        out[f"curves.{fn}.calls_per_execute"] = (tr.calls_per(f"curves.{fn}", executes), "calls")
    out["swap.execute_swap.us"] = (median_us("swap.execute_swap"), "us")
    out["swap.quote_exact_in.us"] = (median_us("swap.quote_exact_in"), "us")
    out["swap.refused_frac"] = (
        1.0 - len(executes) / len(tr.select("swap.execute_swap", ok=None)), "frac")

    for fam in ("ccmm", "csemm"):
        out[f"payoff.greeks.{fam}_us"] = (median_us("payoff.greeks", fam), "us")
        out[f"fingerprint.numeric_fingerprint.{fam}_us_per_point"] = (
            per_size_us("fingerprint.numeric_fingerprint", fam), "us/point")
    prints = tr.select("fingerprint.numeric_fingerprint")
    out["fingerprint.numeraire_reserve.calls_per_point"] = (
        tr.calls_per("fingerprint.numeraire_reserve", prints) * len(prints)
        / sum(tr.size[i] for i in prints), "calls")
    out["fingerprint.tail_index.us"] = (median_us("fingerprint.tail_index"), "us")

    for fn in ("load_series", "returns", "negative_price_stats"):
        out[f"series.{fn}.us_per_row"] = (per_size_us(f"series.{fn}"), "us/row")
    out["series.hill_tail_index.us"] = (median_us("series.hill_tail_index"), "us")

    self_ns = tr.self_ns_by_module(unit_spans)
    for mod in LIB_MODULES:
        out[f"{mod}.self_us_per_op"] = (self_ns.get(mod, 0) / unit_ops / 1e3, "us/op")
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out
