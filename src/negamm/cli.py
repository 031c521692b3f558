"""Command line front door.

Subcommands mirror the library surface: ``curve`` samples an invariant,
``swap`` runs one exact-input trade, ``fingerprint`` emits liquidity
densities, ``payoff`` tabulates LP value and greeks, ``analyze`` digests a
price-history CSV and ``compare`` lines several fingerprints up on one
grid; one table, ``_COMMANDS``, states each one's flags.  Output is CSV
(default) or JSON, to stdout or ``--output-path``; identical invocations
produce identical bytes.

Exit codes: 0 success, 1 domain/convergence/data errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from . import curves  # the commands import fingerprint, payoff, series, swap, json
from .curves import CurveSpec, Family
from .errors import NegammError

_FAMILY_NAMES = [fam.value for fam in Family]
_MODES = ("arithmetic_diff", "percent")  # series.ARITHMETIC_DIFF, series.PERCENT


def _parse_grid(text: str) -> list[float]:
    """min:max:steps with inclusive endpoints; steps is the point count."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"must be min:max:steps, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be numeric min:max:steps, got {text!r}")
    if steps < 2:
        raise argparse.ArgumentTypeError(f"needs steps >= 2, got {steps}")
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise argparse.ArgumentTypeError(f"needs finite min < max, got {text!r}")
    # numpy.linspace's points, bit for bit: lo + i*step, then hi itself; where
    # the step underflows to zero, lo + (i/(steps-1))*(hi-lo).
    span = hi - lo
    step = span / (steps - 1)
    inner = [lo + (i * step if step else i / (steps - 1) * span) for i in range(steps - 1)]
    return inner + [hi]


def _spec_from_args(args, parser: argparse.ArgumentParser) -> CurveSpec:
    rec = curves._FAMILIES[(family := Family(args.family))]
    values = {name: getattr(args, name) for name in rec.params}
    if None in values.values():
        required = [f"--{name}" for name in rec.params if name not in rec.defaults]
        verb = "is" if len(required) == 1 else "are"
        parser.error(f"{' and '.join(required)} {verb} required for --family {args.family}")
    return CurveSpec(family=family, **values)


def _json_cell(value):
    """JSON has no nan or infinity, so those floats go out as their text."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _emit(header, rows, args) -> None:
    if args.output == "json":
        import json
        payload = [
            {key: _json_cell(val) for key, val in zip(header, row)} for row in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        import csv as _csv
        import io

        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)  # floats go out as repr, which is their str
        text = buf.getvalue()
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_curve(args, parser):
    spec = _spec_from_args(args, parser)
    rows = [[x, curves.y_from_x(spec, x, args.branch)] for x in args.grid]
    return ["x", "y"], rows


def _cmd_swap(args, parser):
    from . import swap
    spec = _spec_from_args(args, parser)
    if args.y is None:
        state = curves.state_from_x(spec, args.x)
    else:
        state = curves.PoolState(args.x, args.y)
    req = swap.SwapRequest(token_in=args.token_in, amount_in=args.amount_in, fee=args.fee)
    new_state, result = swap.execute_swap(spec, state, req)
    header = ["amount_out", "price_before", "price_after", "residual_after", "new_x", "new_y"]
    return header, [[result.amount_out, result.price_before, result.price_after,
                     result.residual_after, new_state.x, new_state.y]]


def _fingerprint_rows(spec, grid, space, domain, source):
    """Rows (coord, density, domain_sign) for one domain of one curve.

    The closed form is used where the family has one, unless ``source`` is numeric.
    """
    from . import fingerprint
    eval_space = fingerprint.TICK if space == "circle" else space
    if spec.family in fingerprint._CLOSED_FORMS and source != "numeric":
        sgn = fingerprint._domain_sign(domain)
        points = [(t, fingerprint._density(spec, t, eval_space, sgn)) for t in grid]
    else:
        samples = fingerprint.numeric_fingerprint(spec, grid, eval_space, domain)
        points = [(smp.coord, smp.density) for smp in samples]
    if space == "circle":
        points = [(fingerprint.circle_map(coord, domain), d) for coord, d in points]
    return [[coord, d, domain] for coord, d in points]


def _cmd_fingerprint(args, parser):
    from . import fingerprint
    spec = _spec_from_args(args, parser)
    if args.source == "analytic" and spec.family not in fingerprint._CLOSED_FORMS:
        parser.error(
            f"{spec.family.value} has no closed-form fingerprint; use --source numeric"
        )
    both = [fingerprint.POSITIVE, fingerprint.NEGATIVE]
    rows = []
    for domain in {"positive": both[:1], "negative": both[1:], "both": both}[args.domain]:
        rows.extend(_fingerprint_rows(spec, args.grid, args.space, domain, args.source))
    return ["coord", "density", "domain_sign"], rows


def _cmd_payoff(args, parser):
    from . import payoff
    spec = _spec_from_args(args, parser)
    rows = []
    for p in args.grid:
        point = payoff.greeks(spec, p, args.sigma_iv)
        rows.append([point.p, point.value, point.delta, point.gamma, point.theta])
    return ["p", "value", "delta", "gamma", "theta"], rows


def _cmd_analyze(args, parser):
    from . import series
    data = series.load_series(args.input)
    if args.stat == "negative-days":
        stats = series.negative_price_stats(data)
        rows = [
            [year, stats[year].negative_days, stats[year].min_price]
            for year in sorted(stats)
        ]
        return ["year", "negative_days", "min_price"], rows
    ret = series.returns(data, args.mode, args.eps)
    if args.stat == "returns":
        rows = [[d.isoformat(), v] for d, v in zip(ret.dates, ret.values)]
        return ["date", "return"], rows
    if args.stat == "squared-returns":
        rows = [[d.isoformat(), r2] for d, r2 in series.squared_returns(ret)]
        return ["date", "squared_return"], rows
    # hill
    alpha = series.hill_tail_index(ret, args.top_k)
    return ["top_k", "tail_index"], [[args.top_k, alpha]]


def _parse_compare_spec(text: str, parser):
    """family:key=value[,key=value...]; 'gaussian:mu=..,sigma=..,mass=..' allowed."""
    name, _, rest = text.partition(":")
    if name == "gaussian":
        params, values = dict.fromkeys(("mu", "sigma", "mass"), (float, "")), {}
    elif name in _FAMILY_NAMES:
        rec = curves._FAMILIES[(family := Family(name))]
        params, values = rec.params, dict(rec.defaults)
    else:
        parser.error(f"bad spec {text!r}: unknown family {name!r}")
    for part in rest.split(",") if rest else ():
        key, eq, val = (piece.strip() for piece in part.partition("="))
        if not eq:
            parser.error(f"bad spec {text!r}: expected key=value, got {part!r}")
        if key not in params:
            parser.error(f"bad spec {text!r}: unknown parameter {key!r}")
        kind = params[key][0]
        try:
            values[key] = kind(val)
        except ValueError:
            parser.error(f"bad spec {text!r}: invalid {kind.__name__} value for {key}: {val!r}")
    missing = [key for key in params if key not in values]
    if missing:
        parser.error(f"bad spec {text!r}: missing parameter {missing[0]!r}")
    if name == "gaussian":
        return values["mu"], values["sigma"], values["mass"]
    return CurveSpec(family=family, **values)


def _cmd_compare(args, parser):
    from . import fingerprint
    parsed = [_parse_compare_spec(text, parser) for text in args.specs]
    columns = []
    for entry in parsed:
        if isinstance(entry, CurveSpec):
            rows = _fingerprint_rows(
                entry, args.grid, args.space, fingerprint.POSITIVE, "auto"
            )
            columns.append([row[1] for row in rows])
        else:
            if args.space != fingerprint.TICK:
                parser.error("gaussian comparator is defined in tick space")
            columns.append([fingerprint.gaussian_fingerprint(t, *entry) for t in args.grid])
    rows = [[t, *densities] for t, *densities in zip(args.grid, *columns)]
    return ["coord", *args.specs], rows


def _expand_params(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Splice each ``--params FILE`` or ``--params=FILE`` in as ordinary flags.

    A file's key=value pairs go where its --params stood, in order, so flags
    given later win (argparse keeps the last occurrence).  Flags read from a
    file are not expanded again.
    """
    expanded: list[str] = []
    args = iter(argv)
    for arg in args:
        flag, eq, path = arg.partition("=")
        if flag != "--params":
            expanded.append(arg)
            continue
        path = path if eq else next(args, "")
        if not path:
            parser.error("--params needs a file path")
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            parser.error(f"{path}: not UTF-8 ({exc.reason})")
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not (key and eq and val):
                parser.error(f"{path}: line {lineno}: expected key = value, got {raw.strip()!r}")
            if key == "specs":
                expanded.extend(["--specs", *val.split()])
            else:
                expanded.extend([f"--{key}", val])
    return expanded


# Each subcommand: its help, its command, whether --family is required, whether
# --grid is parsed and required (swap and analyze take it unparsed, so one
# --params file can serve every command), and its own flags.
_COMMANDS = {
    "curve": ("sample (x, y) points of an invariant", _cmd_curve, True, True, {
        "--branch": dict(choices=("lower", "upper"), default="lower"),
    }),
    "swap": ("execute one exact-input swap", _cmd_swap, True, False, {
        "--x": dict(type=float, required=True, help="current x reserve"),
        "--y": dict(type=float, help="current y reserve (else derived)"),
        "--token-in": dict(choices=("x", "y"), required=True),
        "--amount-in": dict(type=float, required=True),
        "--fee": dict(type=float, default=0.0),
    }),
    "fingerprint": ("liquidity density samples", _cmd_fingerprint, True, True, {
        "--space": dict(choices=("sqrtprice", "tick", "circle"), default="sqrtprice"),
        "--domain": dict(choices=("positive", "negative", "both"), default="positive"),
        "--source": dict(choices=("auto", "analytic", "numeric"), default="auto",
                         help="closed form where available (auto), or force the numeric oracle"),
    }),
    "payoff": ("LP value, delta, gamma, theta", _cmd_payoff, True, True, {
        "--sigma-iv": dict(type=float, default=0.0),
    }),
    "analyze": ("price-history statistics", _cmd_analyze, False, False, {
        "--input": dict(required=True, help="CSV with header date,price"),
        "--stat": dict(choices=("negative-days", "returns", "squared-returns", "hill"),
                       default="negative-days"),
        "--mode": dict(choices=_MODES, default=_MODES[0]),
        "--eps": dict(type=float, default=1e-9),
        "--top-k": dict(type=int, default=50),
    }),
    "compare": ("aligned fingerprints of several curves", _cmd_compare, False, True, {
        "--specs": dict(nargs="+", required=True, metavar="SPEC",
                        help="e.g. ccmm:k=1 csemm:alpha=3,beta=3 gaussian:mu=0,sigma=1.4,mass=2"),
        "--space": dict(choices=("sqrtprice", "tick"), default="tick"),
    }),
}

# Accept leading-minus values like "-6:6:241" or "-1e-3" as arguments
# rather than flags; argparse's stock matcher only covers plain decimals.
_NEGATIVE_VALUE = re.compile(r"^-\d|^-\.\d")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The negamm parser.  Every subcommand is listed, so the top-level usage and
    help never change, but with ``command`` only the subcommand of that name (if
    any) gets its flags: the shared ones, then its own from ``_COMMANDS``."""
    parser = argparse.ArgumentParser(
        prog="negamm",
        description="Invariant curves, swaps and liquidity analytics for "
        "markets whose prices can go negative.",
    )
    parser._negative_number_matcher = _NEGATIVE_VALUE
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, run, family, grid, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        sub._negative_number_matcher = _NEGATIVE_VALUE
        if command not in (None, name):
            continue
        sub.set_defaults(run=run)
        sub.add_argument("--family", choices=_FAMILY_NAMES, required=family)
        for rec in curves._FAMILIES.values():
            for param, (kind, text) in rec.params.items():
                sub.add_argument(f"--{param}", type=kind, help=text, default=rec.defaults.get(param))
        sub.add_argument("--grid", type=_parse_grid if grid else str, required=grid,
                         help="sample grid, min:max:steps (inclusive)")
        sub.add_argument("--output", choices=("csv", "json"), default="csv")
        sub.add_argument("--output-path", help="write here instead of stdout")
        sub.add_argument("--params", metavar="FILE", help="key = value file of extra flags")
        for flag, kwargs in flags.items():
            sub.add_argument(flag, **kwargs)
    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # The first argument names the subcommand unless it is an option (--params, -h).
    parser = _build_parser(argv[0] if argv and not argv[0].startswith("-") else None)
    try:
        args = parser.parse_args(_expand_params(argv, parser))
        if args.params is not None:  # an abbreviation, or --params inside a file
            parser.error(f"--params {args.params!r} was not read; spell out --params FILE")
        header, rows = args.run(args, parser)
        _emit(header, rows, args)
    except SystemExit as exc:  # argparse, or parser.error inside a command
        return 0 if exc.code in (0, None) else 2
    except (NegammError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # a --grid or its rows too large for this process
        print("error: out of memory", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
