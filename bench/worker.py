"""One benchmark process, started by run.py from the root of the checkout:

    python bench/worker.py <workload> <seed> <seconds> <trace 0|1> <setup|run>

It imports negamm (``negamm.cli`` for ``cli_recipes``), builds the workload's
specs and starting states, and prints ``READY``; run.py times set-up from the
spawn to that line.  In ``setup`` mode it exits there.  In ``run`` mode it
makes the seeded inputs, warms up untimed, runs the workload, and prints one
JSON line with the raw results.

The set-up path imports nothing but negamm and ``pools`` (which needs only
``math``), so set-up time is negamm's, not the benchmark's.
"""

import os
import sys

ROOT = os.getcwd()

# Traced runs do a fixed amount of work, so their call counts repeat exactly:
# this many pairs of one untraced and one traced repeat of the workload (for
# cli_recipes, an in-process pass through negamm.cli.run).
TRACE_PAIRS = {"cli_recipes": 2, "swap_stream": 3, "price_grid": 2}

REPRO = ["fingerprint", "--family", "csemm", "--alpha", "3", "--beta", "3",
         "--space", "tick", "--domain", "both", "--grid", "-8:8:801"]


def setup(workload: str):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if workload == "cli_recipes":
        import negamm.cli  # noqa: F401
        return None
    import negamm
    import pools

    if workload == "swap_stream":
        return pools.build_pools(negamm)
    return pools.build_curves(negamm)


def probes(n) -> list:
    """Known failures, run once, untimed and outside the failure count."""
    from workloads import run_cli

    code, _, err, _ = run_cli(ROOT, REPRO)
    lines = err.strip().splitlines()
    found = [{"probe": "negamm " + " ".join(REPRO), "exit_code": code,
              "message": lines[-1] if lines else ""}]
    try:
        state = n.state_from_price(n.CurveSpec.csemm(2.0, 2.0), 0.5)
        found.append({"probe": "state_from_price(csemm(2, 2), 0.5)", "result": repr(state)})
    except Exception as exc:  # recorded, whatever it is
        found.append({"probe": "state_from_price(csemm(2, 2), 0.5)",
                      "exception": type(exc).__name__, "message": str(exc)})
    return found


def known_refusals(workload):
    """price_grid's points outside its measured windows, run once."""
    return workload.known_refusals() if hasattr(workload, "known_refusals") else None


def traced(n, workload, seed: int) -> dict:
    import negamm.cli as cli

    import layers
    from tracer import Tracer
    from workloads import OUT, CliRecipes, Tally

    recipes = workload if isinstance(workload, CliRecipes) else CliRecipes(ROOT, seed)
    table = layers.baseline_table(n)
    startup = layers.cli_startup(ROOT)
    if workload is recipes:
        def unit(tally):
            recipes.in_process(tally, cli)
    else:
        unit = workload.run
    tracer = Tracer()
    plain, spanned = Tally(), Tally()
    for _ in range(TRACE_PAIRS[workload.name]):
        unit(plain)
        plain.end_repeat()
        tracer.install()
        try:
            unit(spanned)
        finally:
            tracer.uninstall()
        spanned.end_repeat()
    unit_spans = len(tracer)
    tracer.install()
    try:
        suite = layers.traced_suite(n, cli, recipes, recipes.series_path)
        known = known_refusals(workload)
    finally:
        tracer.uninstall()
    overhead = (spanned.busy_ns / spanned.ops) / (plain.busy_ns / plain.ops) - 1.0
    metrics = layers.layer_metrics(tracer, startup, overhead, unit_spans, spanned.ops)
    trace_path = os.path.join(OUT, f"trace-{workload.name}-{seed}.csv.gz")
    tracer.write(trace_path)
    table["bare_python_ms"] = startup["bare_python_ms"]
    table["import_negamm_cli_ms"] = startup["startup_ms"]
    return {
        "tally": spanned.summary(),
        "untraced": plain.summary(),
        "suite": suite.summary(),
        "known_refusals": known,
        "spans": len(tracer),
        "trace_file": os.path.relpath(trace_path, ROOT),
        "baseline_table": table,
        "per_layer": metrics,
    }


def main() -> None:
    name, seed, seconds, trace, mode = sys.argv[1:6]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    built = setup(name)
    print("READY", flush=True)
    if mode == "setup":
        return

    import json
    import resource
    import time

    import negamm as n
    import workloads

    if name == "cli_recipes":
        workload = workloads.CliRecipes(ROOT, seed)
    elif name == "swap_stream":
        workload = workloads.SwapStream(n, built, seed)
    else:
        workload = workloads.PriceGrid(n, built, seed)
    workload.warmup()
    if trace:
        result = traced(n, workload, seed)
    else:
        # 23 CLI invocations are too few for a tail over per-operation minima.
        tally = workloads.Tally(keep_samples=name == "cli_recipes")
        t_end = time.perf_counter() + seconds
        while True:  # whole repeats, at least one
            workload.run(tally)
            tally.end_repeat()
            if time.perf_counter() >= t_end:
                break
        # The largest CLI child for cli_recipes, else this process; read
        # before the probes and known refusals, which must not count.
        who = resource.RUSAGE_CHILDREN if name == "cli_recipes" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        result = {"tally": tally.summary(), "peak_rss_mb": peak_rss_mb, "probes": probes(n),
                  "known_refusals": known_refusals(workload)}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
