"""negamm benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check
    python3 bench/run.py --record-digests

Run from anywhere; it works on the checkout that contains it, with negamm
taken from its ``src/`` (nothing needs installing).  Workloads, metrics and
bounds are listed in BENCHMARK.json at the root; bench/README.md explains
them.  The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it report the
environment, sample counts, failures by reason, price_grid's known refusals
and the known-failure probes.  A fuller report goes to bench/out/.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  ``--self-check`` runs every workload briefly in both modes and checks
that every metric named in BENCHMARK.json is emitted with its unit.
``--record-digests`` rewrites bench/digests.json from the current code; do it
only when a change to the CLI's output is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cli_recipes", "swap_stream", "price_grid")
SETUP_SPAWNS = 9   # set-up is timed this many times per run; the median counts
DEADLINE_S = 170   # a run must end within 180 s
# The highest percentile each workload's sample count supports: p99 over the
# per-operation minima of 1932 grid points or ~10^4 swap operations, but p90
# over all ~140 samples (23 invocations x repeats) for cli_recipes.
TAIL = {"cli_recipes": "p90_all_ms"}


class BenchError(Exception):
    pass


def environment() -> dict:
    from importlib import metadata

    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src_lines = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha, "numpy": numpy, "src_lines": src_lines}


def spawn(workload: str, seed: int, seconds: float, trace: int, mode: str, t_end: float):
    """Start a worker; return (process, seconds from spawn to READY)."""
    cmd = [sys.executable, WORKER, workload, str(seed), str(seconds), str(trace), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, t_end)
        raise BenchError(f"worker for {workload} did not start (exit {proc.returncode})")
    return proc, ready


def finish(proc, t_end: float) -> str:
    """Wait for a worker within the deadline; return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, t_end - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the report, whose ``result`` is the final line."""
    if not os.path.isfile(os.path.join(ROOT, "src", "negamm", "__init__.py")):
        raise BenchError(f"no negamm sources under {os.path.join(ROOT, 'src')}")
    t_end = time.monotonic() + DEADLINE_S
    setups = []
    if not trace:
        # Untimed first spawn: compiles bytecode and warms the file cache.
        finish(spawn(workload, seed, seconds, trace, "setup", t_end)[0], t_end)
        for _ in range(SETUP_SPAWNS - 1):
            proc, ready = spawn(workload, seed, seconds, trace, "setup", t_end)
            finish(proc, t_end)
            setups.append(ready)
    proc, ready = spawn(workload, seed, seconds, trace, "run", t_end)
    setups.append(ready)
    raw = json.loads(finish(proc, t_end).strip().splitlines()[-1])
    tally = raw["tally"]
    known = raw.get("known_refusals") or {}
    incorrect = (tally["incorrect"] + raw.get("suite", {}).get("incorrect", 0)
                 + known.get("incorrect", 0))
    if trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in raw["per_layer"].items()}
    else:
        t = tally
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": t["ops_per_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": t["p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": t[TAIL.get(workload, "p99_ms")], "unit": "ms"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": incorrect == 0 and tally["ops"] > 0, "attempted": tally["ops"],
              "failed": tally["failed"], "metrics": metrics}
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "setup_samples_s": setups, **raw,
              "result": result}
    return report


def print_report(report: dict) -> None:
    t = report["tally"]
    env = report["environment"]
    print(f"# env: python {env['python']}, nproc {env['nproc']}, numpy {env['numpy']}, "
          f"git {env['git_sha']}, src lines {env['src_lines']}")
    print(f"# {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{t['distinct_ops']} operations x {t['repeats']} repeats = {t['ops']} latency samples, "
          f"{t['refused']} correct refusals, failed_frac {t['failed'] / max(1, t['ops']):.6f}")
    every = f"; all samples: p90 {t['p90_all_ms']:.5g} ms" if t["p90_all_ms"] else ""
    print(f"#   per-operation minima: p50 {t['p50_ms']:.5g} ms, p90 {t['p90_ms']:.5g} ms, "
          f"p99 {t['p99_ms']:.5g} ms{every}")
    for reason, count in sorted(t["reasons"].items()):
        print(f"#   failed: {count} x {reason}")
    known = report.get("known_refusals")
    if known:
        print(f"# known refusals, outside the measured windows and every count: "
              f"{known['refused']} of {known['points']} points")
        for reason, count in sorted(known["reasons"].items()):
            print(f"#   known: {count} x {reason}")
    for probe in report.get("probes", []):
        print(f"# probe: {json.dumps(probe)}")
    for name, value in report.get("baseline_table", {}).items():
        print(f"# baseline: {name} = {value:.4g}")


def self_check() -> int:
    """Run every workload briefly in both modes; check names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            try:
                result = measure(workload, 1, 1.0, trace)["result"]
            except BenchError as exc:
                problems.append(f"{workload} trace {trace}: {exc}")
                continue
            got = result["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    problems.append(f"{workload} trace {trace}: missing {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{workload} trace {trace}: {m['name']} unit "
                                    f"{got[m['name']]['unit']} != {m['unit']}")
            extra = set(got) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{workload} trace {trace}: unlisted {sorted(extra)}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: outputs incorrect")
            print(f"{workload} trace {trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    try:
        if args.self_check:
            return self_check()
        if args.record_digests:
            from workloads import DIGESTS, record_digests

            digests = record_digests(ROOT)
            with open(DIGESTS, "w", encoding="utf-8") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")
            return 0
        if args.workload is None or args.seed is None or args.seconds is None:
            ap.error("--workload, --seed and --seconds are required")
        report = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"report-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
