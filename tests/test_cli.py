"""Command-line interface: emission formats, exit codes, determinism."""

import csv
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from negamm.cli import run

FIXTURE = str(Path(__file__).parent / "data" / "spot_prices.csv")


def invoke(argv):
    """run() with captured stdout/stderr -> (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------- commands


def test_curve_csv_tangency_rows():
    code, out, _ = invoke(
        ["curve", "--family", "ccmm", "--k", "1", "--grid", "0:2:201"]
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["x", "y"]
    assert len(rows) == 202  # header + 201 samples
    assert [float(v) for v in rows[1]] == [0.0, 1.0]
    assert [float(v) for v in rows[101]] == [1.0, 0.0]


def test_curve_upper_branch():
    code, out, _ = invoke(
        ["curve", "--family", "ccmm", "--k", "1", "--grid", "0:2:3",
         "--branch", "upper"]
    )
    assert code == 0
    rows = rows_of(out)
    assert [float(v) for v in rows[2]] == [1.0, 2.0]


def test_fingerprint_tick_peak():
    code, out, _ = invoke(
        ["fingerprint", "--family", "ccmm", "--k", "1", "--space", "tick",
         "--grid", "-6:6:241"]
    )
    assert code == 0
    rows = rows_of(out)[1:]
    assert len(rows) == 241
    best = max(rows, key=lambda r: float(r[1]))
    assert float(best[0]) == 0.0
    assert float(best[1]) == pytest.approx(0.70711, abs=5e-6)


def test_fingerprint_both_domains():
    code, out, _ = invoke(
        ["fingerprint", "--family", "ccmm", "--k", "1", "--space", "tick",
         "--grid", "-2:2:5", "--domain", "both"]
    )
    assert code == 0
    rows = rows_of(out)[1:]
    assert len(rows) == 10
    pos, neg = rows[:5], rows[5:]
    assert all(r[2] == "positive_price" for r in pos)
    assert all(r[2] == "negative_price" for r in neg)
    for rp, rn in zip(pos, neg):
        assert float(rn[1]) == -float(rp[1])  # mirrored density


def test_fingerprint_circle_space_maps_coordinate():
    code, out, _ = invoke(
        ["fingerprint", "--family", "ccmm", "--k", "1", "--space", "circle",
         "--grid", "0:1:2"]
    )
    assert code == 0
    rows = rows_of(out)[1:]
    # tick 0 (price 1) sits at angle pi/2 on the price circle
    assert float(rows[0][0]) == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_fingerprint_csemm_needs_numeric_source():
    code, _, err = invoke(
        ["fingerprint", "--family", "csemm", "--alpha", "3", "--beta", "4",
         "--grid", "0.5:2:4", "--source", "analytic"]
    )
    assert code == 2
    assert "numeric" in err


def test_swap_json_document():
    code, out, _ = invoke(
        ["swap", "--family", "ccmm", "--k", "1",
         "--x", str(1.0 - 1.0 / math.sqrt(2.0)),
         "--token-in", "x", "--amount-in", str(1.0 / math.sqrt(2.0)),
         "--output", "json"]
    )
    assert code == 0
    (doc,) = json.loads(out)
    assert doc["amount_out"] == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-12)
    assert doc["price_after"] == 0.0
    assert doc["new_x"] == pytest.approx(1.0, rel=1e-15)
    assert doc["new_y"] == 0.0


def test_swap_accepts_negative_amount():
    # scientific notation and a leading minus must both survive argparse
    code, out, _ = invoke(
        ["swap", "--family", "ccmm", "--k", "1", "--x", "1.2",
         "--token-in", "x", "--amount-in", "-1e-1"]
    )
    assert code == 0
    row = rows_of(out)[1]
    # withdrawing x at a negative price hands the trader y as well
    assert float(row[0]) > 0.0
    assert float(row[1]) < 0.0  # price_before


def test_payoff_gamma_column():
    code, out, _ = invoke(
        ["payoff", "--family", "ccmm", "--k", "1", "--grid", "-1:1:3",
         "--sigma-iv", "1"]
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["p", "value", "delta", "gamma", "theta"]
    mid = rows[2]
    assert float(mid[0]) == 0.0
    assert float(mid[3]) == -1.0
    assert float(mid[4]) == 0.5


def test_parabola_payoff_runs_through_zero_to_its_price_floor():
    code, out, err = invoke(["payoff", "--family", "parabola", "--grid", "-0.5:1:4"])
    assert code == 0 and err == ""
    rows = rows_of(out)[1:]
    assert [float(r[0]) for r in rows] == [-0.5, 0.0, 0.5, 1.0]
    assert rows[0][1:4] == ["-1.0", "4.0", "-16.0"]  # V = p/(1+p), delta (1+p)^-2, gamma -2/(1+p)^3
    code, out, err = invoke(["payoff", "--family", "parabola", "--grid", "-1:0:2"])
    assert code == 1 and out == ""
    assert err == "error: parabola prices lie in (-1, inf), got p=-1.0\n"


def test_payoff_json_serializes_infinities():
    code, out, _ = invoke(
        ["payoff", "--family", "csemm", "--alpha", "5", "--beta", "3",
         "--grid", "-1:1:3", "--output", "json"]
    )
    assert code == 0
    docs = json.loads(out)
    assert docs[1]["p"] == 0.0
    assert docs[1]["gamma"] == "-inf"  # flat fold: infinite curvature


def test_analyze_negative_days():
    code, out, _ = invoke(
        ["analyze", "--input", FIXTURE, "--stat", "negative-days"]
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["year", "negative_days", "min_price"]
    assert rows[1] == ["2022", "0", "48.75"]
    assert rows[2] == ["2023", "2", "-5.25"]


def test_analyze_returns_and_squares():
    code, out, _ = invoke(
        ["analyze", "--input", FIXTURE, "--stat", "returns"]
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["date", "return"]
    assert rows[1] == ["2022-01-04", "0.5"]
    code, out, _ = invoke(
        ["analyze", "--input", FIXTURE, "--stat", "squared-returns"]
    )
    assert code == 0
    assert rows_of(out)[1] == ["2022-01-04", "0.25"]


def test_analyze_hill():
    code, out, _ = invoke(
        ["analyze", "--input", FIXTURE, "--stat", "hill", "--top-k", "4"]
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["top_k", "tail_index"]
    assert float(rows[1][1]) == pytest.approx(0.9393307180164027, rel=1e-12)


def test_compare_headers_are_literal_specs():
    code, out, _ = invoke(
        ["compare", "--specs", "ccmm:k=1", "gaussian:mu=0,sigma=1.5,mass=2",
         "--space", "tick", "--grid", "-1:1:3"]
    )
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["coord", "ccmm:k=1", "gaussian:mu=0,sigma=1.5,mass=2"]
    assert float(rows[2][1]) == pytest.approx(0.7071067811865475, rel=1e-15)


def test_compare_gaussian_requires_tick_space():
    code, _, err = invoke(
        ["compare", "--specs", "gaussian:mu=0,sigma=1,mass=1",
         "--space", "sqrtprice", "--grid", "0.5:2:4"]
    )
    assert code == 2
    assert "tick" in err


# ------------------------------------------------------------ file handling


def test_output_path_matches_stdout(tmp_path):
    argv = ["curve", "--family", "cpmm", "--L", "2", "--grid", "0.5:4:8"]
    _, stdout_text, _ = invoke(argv)
    target = tmp_path / "curve.csv"
    code, out, _ = invoke(argv + ["--output-path", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == stdout_text


def test_params_file_splice(tmp_path):
    params = tmp_path / "pool.params"
    params.write_text("family = ccmm\nk = 1 # curve scale\n\n", encoding="utf-8")
    code, out, _ = invoke(
        ["curve", "--params", str(params), "--grid", "0:2:3"]
    )
    assert code == 0
    assert [float(v) for v in rows_of(out)[2]] == [1.0, 0.0]


def test_params_file_explicit_flags_win(tmp_path):
    params = tmp_path / "pool.params"
    params.write_text("family = ccmm\nk = 1\n", encoding="utf-8")
    code, out, _ = invoke(
        ["curve", "--params", str(params), "--k", "2", "--grid", "0:4:5"]
    )
    assert code == 0
    # x = 2 is the fold of the k=2 circle, not off-curve as it would be at k=1
    assert [float(v) for v in rows_of(out)[3]] == [2.0, 0.0]


def test_params_file_missing(tmp_path):
    code, _, err = invoke(
        ["curve", "--params", str(tmp_path / "nope.params"), "--grid", "0:1:2"]
    )
    assert code == 1
    assert "nope.params" in err


# ----------------------------------------------------------------- failures


def test_usage_errors_exit_two():
    assert invoke(["curve", "--grid", "0:1:5"])[0] == 2  # no family
    assert invoke(["curve", "--family", "ccmm", "--k", "1"])[0] == 2  # no grid
    assert invoke(["frobnicate"])[0] == 2
    assert invoke(["curve", "--family", "ccmm", "--k", "1",
                   "--grid", "abc"])[0] == 2
    assert invoke(["curve", "--family", "ccmm", "--k", "1",
                   "--grid", "0:1:1"])[0] == 2  # steps < 2


def test_domain_and_parameter_errors_exit_one():
    code, _, err = invoke(
        ["curve", "--family", "csemm", "--alpha", "1.5", "--beta", "4",
         "--grid", "0:1:5"]
    )
    assert code == 1
    assert "alpha" in err
    code, _, _ = invoke(
        ["curve", "--family", "ccmm", "--k", "1", "--grid", "0:3:7"]
    )
    assert code == 1  # grid walks off the curve
    code, _, err = invoke(
        ["curve", "--family", "csemm", "--alpha", "1e16", "--beta", "3", "--grid", "0:1:2"]
    )
    assert code == 1  # c/(c-1) rounds to 1
    assert err.startswith("error: ") and "c=1e+16" in err


def test_unwritable_output_exits_one(tmp_path):
    code, _, err = invoke(
        ["curve", "--family", "ccmm", "--k", "1", "--grid", "0:1:3",
         "--output-path", str(tmp_path / "no" / "such" / "dir.csv")]
    )
    assert code == 1
    assert "error" in err


def test_missing_input_file_exits_one():
    code, _, _ = invoke(["analyze", "--input", "does-not-exist.csv",
                         "--stat", "returns"])
    assert code == 1


# -------------------------------------------------------------- determinism


def test_repeated_runs_byte_identical():
    argv = ["fingerprint", "--family", "ccmm", "--k", "1", "--space", "tick",
            "--grid", "-6:6:241", "--domain", "both"]
    first = invoke(argv)
    second = invoke(argv)
    assert first == second


def test_subprocess_runs_byte_identical():
    cmd = [sys.executable, "-m", "negamm.cli", "payoff", "--family", "ccmm",
           "--k", "1", "--grid", "-2:2:41", "--sigma-iv", "0.5"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
    assert a.stdout == b.stdout
    assert a.stdout  # sanity: something was emitted


# ------------------------------------------------- family table, spec parsing


def test_family_choices_follow_the_family_enum():
    import argparse

    from negamm import Family
    from negamm.cli import _build_parser

    parser = _build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for sub in subs.choices.values():
        family = next(a for a in sub._actions if a.dest == "family")
        assert list(family.choices) == [f.value for f in Family]
    assert [f.value for f in Family] == ["cpmm", "ccmm", "csemm", "parabola"]


def test_fingerprint_closed_form_refuses_quartic_parabola():
    for argv in (
        ["fingerprint", "--family", "parabola", "--m", "4", "--grid", "1:2:3"],
        ["compare", "--specs", "parabola:m=4", "--grid", "1:2:3"],
    ):
        code, out, err = invoke(argv)
        assert code == 1, argv
        assert out == ""
        assert "fingerprints are defined for the m=2 parabola only" in err


def test_cpmm_closed_form_fingerprint_reads_its_coordinate():
    # A sqrt-price coordinate must be > 0 for every family, cpmm included.
    for family in (["cpmm", "--L", "2"], ["ccmm", "--k", "1"]):
        for source in ("auto", "numeric"):
            code, out, err = invoke(
                ["fingerprint", "--family", *family, "--space", "sqrtprice",
                 "--source", source, "--grid", "-1:1:3"]
            )
            assert (code, out) == (1, ""), (family, source)
            assert "got s=-1.0" in err
    code, out, _ = invoke(
        ["fingerprint", "--family", "cpmm", "--L", "2", "--space", "sqrtprice",
         "--grid", "0.5:1:2"]
    )
    assert code == 0
    assert rows_of(out)[1:] == [["0.5", "2.0", "positive_price"],
                                ["1.0", "2.0", "positive_price"]]


def test_compare_spec_non_integer_m_is_usage_error():
    for spec in ("parabola:m=2.5", "parabola:m=3.9"):
        code, out, err = invoke(["compare", "--specs", spec, "--grid", "1:2:3"])
        assert code == 2, spec
        assert out == ""
        assert "integer" in err


def test_compare_spec_unknown_parameter_is_usage_error():
    code, out, err = invoke(["compare", "--specs", "ccmm:k=1,alpha=9", "--grid", "1:2:3"])
    assert code == 2
    assert out == ""
    assert "unknown parameter 'alpha'" in err


def test_compare_gaussian_nonfinite_mu_is_refused():
    code, out, err = invoke(
        ["compare", "--specs", "gaussian:mu=nan,sigma=1,mass=1", "--grid", "1:2:3"]
    )
    assert code == 1
    assert out == ""
    assert "mu" in err


def test_cli_import_does_not_load_numpy():
    probe = "import sys, negamm.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"


def test_numeric_tick_fingerprint_refuses_overflowing_tick():
    code, out, err = invoke(
        ["fingerprint", "--family", "ccmm", "--k", "1", "--source", "numeric",
         "--space", "tick", "--grid", "1400:1500:3"]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "t=1450.0" in err


# ------------------------------------------------------ pinned stdout bytes


def test_bench_digest_invocations_reproduce_their_stdout(monkeypatch):
    # bench/digests.json pins the sha256 of each invocation's stdout; its keys
    # are argv joined by single spaces, with paths relative to the repo root.
    import hashlib

    root = Path(__file__).resolve().parent.parent
    digests = json.loads((root / "bench" / "digests.json").read_text(encoding="utf-8"))
    assert len(digests) >= 19
    monkeypatch.chdir(root)
    for key, want in digests.items():
        code, out, err = invoke(key.split(" "))
        assert code == 0, (key, err)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, key


# ------------------------------------------------ paths run only in-process


def test_swap_given_y_matches_derived_y():
    from negamm import ccmm_y_from_x

    argv = ["swap", "--family", "ccmm", "--k", "1", "--x", "0.5",
            "--token-in", "x", "--amount-in", "0.1"]
    code, derived, _ = invoke(argv)
    assert code == 0
    code, given, _ = invoke(argv + ["--y", repr(ccmm_y_from_x(0.5, 1.0))])
    assert code == 0
    assert given == derived
    code, out, err = invoke(argv + ["--y", "0.2"])  # off the circle
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_swap_nan_reserve_exits_one():
    for reserve in (["--x", "0.5", "--y", "nan"], ["--x", "nan"]):
        code, out, err = invoke(
            ["swap", "--family", "ccmm", "--k", "1", *reserve,
             "--token-in", "x", "--amount-in", "0.1"]
        )
        assert (code, out) == (1, ""), reserve
        assert err.startswith("error: ")


def test_swap_and_analyze_leave_grid_unparsed():
    # a --params file shared with the grid commands may set grid for them too
    code, out, _ = invoke(["swap", "--family", "ccmm", "--k", "1", "--x", "0.5",
                           "--token-in", "x", "--amount-in", "0.1", "--grid", "abc"])
    assert code == 0 and rows_of(out)[0][0] == "amount_out"
    code, out, _ = invoke(["analyze", "--input", FIXTURE, "--grid", "abc"])
    assert code == 0 and rows_of(out)[0] == ["year", "negative_days", "min_price"]


def test_numeric_source_rows_track_the_closed_form():
    argv = ["fingerprint", "--family", "ccmm", "--k", "1", "--space", "tick",
            "--grid", "-2:2:9", "--domain", "both"]
    code, analytic, _ = invoke(argv)
    assert code == 0
    code, numeric, _ = invoke(argv + ["--source", "numeric"])
    assert code == 0
    a_rows, n_rows = rows_of(analytic), rows_of(numeric)
    assert n_rows[0] == a_rows[0] == ["coord", "density", "domain_sign"]
    assert len(n_rows) == len(a_rows) == 19
    for a, n in zip(a_rows[1:], n_rows[1:]):
        assert (n[0], n[2]) == (a[0], a[2])
        assert float(n[1]) == pytest.approx(float(a[1]), rel=1e-6)


def test_closed_form_parabola_and_cpmm_rows():
    from negamm.fingerprint import cpmm_liquidity, parabola_liquidity_sqrtprice

    code, out, _ = invoke(["fingerprint", "--family", "parabola", "--grid", "0.5:2:4"])
    assert code == 0
    rows = rows_of(out)[1:]
    assert [float(r[0]) for r in rows] == [0.5, 1.0, 1.5, 2.0]
    assert [float(r[1]) for r in rows] == [
        parabola_liquidity_sqrtprice(s) for s in (0.5, 1.0, 1.5, 2.0)]
    code, out, _ = invoke(["fingerprint", "--family", "cpmm", "--L", "2",
                           "--space", "tick", "--grid", "-1:1:3"])
    assert code == 0
    assert [float(r[1]) for r in rows_of(out)[1:]] == [cpmm_liquidity(2.0)] * 3


def test_malformed_grids_exit_two():
    base = ["curve", "--family", "ccmm", "--k", "1", "--grid"]
    for grid in ("0:x:5", "0:1:2.5", "1:0:5", "1:1:5", "nan:1:3", "0:inf:3", "0:1"):
        code, out, _ = invoke(base + [grid])
        assert (code, out) == (2, ""), grid


def test_missing_required_flags_and_parameters_exit_two():
    for argv in (["curve", "--family", "ccmm", "--grid", "0:2:3"],
                 ["payoff", "--family", "csemm", "--alpha", "3", "--grid", "0:1:3"],
                 ["swap", "--family", "ccmm", "--k", "1", "--token-in", "x",
                  "--amount-in", "0.1"],
                 ["analyze", "--stat", "returns"],
                 ["compare", "--grid", "0:1:3"]):
        code, out, _ = invoke(argv)
        assert (code, out) == (2, ""), argv


def test_params_file_usage_errors_exit_two(tmp_path):
    assert invoke(["curve", "--grid", "0:2:3", "--params"])[0] == 2
    params = tmp_path / "bad.params"
    params.write_text("family = ccmm\nk\n", encoding="utf-8")
    code, out, _ = invoke(["curve", "--params", str(params), "--grid", "0:2:3"])
    assert (code, out) == (2, "")


def test_params_file_specs_key(tmp_path):
    params = tmp_path / "cmp.params"
    params.write_text("specs = ccmm:k=1 gaussian:mu=0,sigma=1.5,mass=2\ngrid = -1:1:3\n",
                      encoding="utf-8")
    code, out, _ = invoke(["compare", "--params", str(params)])
    assert code == 0
    assert rows_of(out)[0] == ["coord", "ccmm:k=1", "gaussian:mu=0,sigma=1.5,mass=2"]
    assert out == invoke(["compare", "--specs", "ccmm:k=1", "gaussian:mu=0,sigma=1.5,mass=2",
                          "--grid", "-1:1:3"])[1]


def test_swap_refuses_an_upper_branch_state():
    code, out, err = invoke(["swap", "--family", "ccmm", "--k", "1", "--x", "0.5",
                             "--y", "1.8660254037844386", "--token-in", "x",
                             "--amount-in", "0.01"])
    assert (code, out) == (1, "")
    assert "upper" in err


def _pool_params(tmp_path):
    params = tmp_path / "pool.params"
    params.write_text("family = ccmm\nk = 1\n", encoding="utf-8")
    return params


def test_params_equals_spelling_is_read(tmp_path):
    params = _pool_params(tmp_path)
    code, out, _ = invoke(["curve", f"--params={params}", "--grid", "0:2:3"])
    assert code == 0
    assert out == invoke(["curve", "--params", str(params), "--grid", "0:2:3"])[1]


def test_every_params_flag_is_read_in_order(tmp_path):
    first = _pool_params(tmp_path)
    second = tmp_path / "wide.params"
    second.write_text("k = 2\n", encoding="utf-8")
    code, out, _ = invoke(["curve", "--params", str(first), "--params", str(second),
                           "--grid", "0:4:5"])
    assert code == 0
    assert [float(v) for v in rows_of(out)[3]] == [2.0, 0.0]  # the fold of k = 2
    code, _, err = invoke(["curve", "--params", str(first),
                           "--params", str(tmp_path / "missing.params"), "--grid", "0:2:3"])
    assert code == 1
    assert "missing.params" in err


def test_unexpanded_params_spellings_exit_two(tmp_path):
    params = _pool_params(tmp_path)
    nested = tmp_path / "nested.params"
    nested.write_text(f"params = {params}\n", encoding="utf-8")
    base = ["curve", "--family", "ccmm", "--k", "1", "--grid", "0:2:3"]
    for extra in (["--param", str(params)], ["--params", str(nested)], ["--params="]):
        code, out, _ = invoke(base + extra)
        assert (code, out) == (2, ""), extra


def test_malformed_compare_specs_exit_two():
    for spec in ("frob:k=1", "ccmm:k", "ccmm:k=abc", "csemm:alpha=3"):
        code, out, _ = invoke(["compare", "--specs", spec, "--grid", "0:1:3"])
        assert (code, out) == (2, ""), spec


def test_float_range_overflow_reaches_no_caller():
    # Each of these let an OverflowError or ZeroDivisionError out of run(), but the
    # last: a y-in trade whose solved x overflows to inf, refused by that x's range.
    payoffs = (
        ["payoff", "--family", "ccmm", "--k", "1", "--grid", "1e110:1e120:2"],
        ["payoff", "--family", "parabola", "--grid", "1e103:1e104:2"],
        ["payoff", "--family", "cpmm", "--L", "2", "--grid", "1e-300:1e-299:2"],
    )
    for argv, gamma in zip(payoffs, ("-0.0", "-0.0", "-inf")):
        code, out, _ = invoke(argv)
        assert code == 0, argv
        assert [row[3] for row in rows_of(out)[1:]] == [gamma, gamma]
    refusals = (
        (["swap", "--family", "ccmm", "--k", "1", "--x", "0", "--y", "1e200",
          "--token-in", "x", "--amount-in", "0.1"], "off-curve"),
        (["curve", "--family", "parabola", "--m", "4", "--grid", "1e299:1e300:2"], "x=1e+299"),
        (["swap", "--family", "cpmm", "--L", "1e150", "--x", "1e300", "--token-in", "y",
          "--amount-in", "-0.9999999999999998"],
         "error: cpmm x must lie in (0, inf), got x=inf\n"),
    )
    for argv, reason in refusals:
        code, out, err = invoke(argv)
        assert code == 1, argv
        assert err.startswith("error: ") and err.count("\n") == 1 and reason in err


def test_denormal_csemm_reserve_swaps_without_traceback():
    # At x = 5e-324 the price's 1 - |x/alpha - 1|^u underflows to 0; the
    # branch end quotes +inf, and no bare ValueError may leave run().
    argv = ["swap", "--family", "csemm", "--alpha", "3", "--beta", "4", "--x", "5e-324",
            "--token-in", "x", "--amount-in", "0.1"]
    code, out, err = invoke(argv)
    assert code == 0 and "Traceback" not in err
    assert rows_of(out)[1][1:2] == ["inf"]  # price_before, the branch end's


def test_analyze_reads_a_csv_with_a_utf8_bom(tmp_path):
    # Excel writes CSV as UTF-8 with a byte-order mark and CRLF line ends.
    text = Path(FIXTURE).read_text(encoding="utf-8").replace("\n", "\r\n")
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    for stat in ("negative-days", "returns", "squared-returns", "hill"):
        outs = [invoke(["analyze", "--input", str(path), "--stat", stat, "--top-k", "3"])
                for path in (plain, bom)]
        assert outs[0][0] == 0 and outs[0][1]
        assert outs[1] == outs[0]


def test_swap_to_the_top_of_the_csemm_branch_lands_on_plus_zero():
    # y rises to beta on the left side: the reserve x is the branch end, +0.0.
    code, out, _ = invoke(["swap", "--family", "csemm", "--alpha", "3", "--beta", "4",
                           "--x", "0.5", "--token-in", "y", "--amount-in", "2.315099505288941"])
    assert code == 0
    header, row = rows_of(out)
    assert row[header.index("new_x")] == "0.0"


def test_cli_import_does_not_load_typing():
    # -S: no site module, which may import typing itself
    probe = ("import sys; sys.path.insert(0, 'src'); import negamm.cli; "
             "assert 'typing' not in sys.modules")
    subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                   cwd=Path(__file__).resolve().parent.parent)


def test_a_grid_whose_step_underflows_stays_finite_and_ordered():
    from negamm.cli import _parse_grid

    points = _parse_grid("0:1e-321:1000")  # step = 1e-321 / 999 rounds to 0.0
    assert len(points) == 1000 and points[0] == 0.0 and points[-1] == 1e-321
    assert all(math.isfinite(p) for p in points)
    assert points == sorted(points) and points[500] > 0.0


def test_a_grid_whose_step_underflows_spaces_its_points_as_documented():
    from negamm.cli import _parse_grid

    # lo + (i / (steps - 1)) * (hi - lo) for the inner points, then hi itself
    lo, hi, steps = -1e-321, 1e-321, 1000
    points = _parse_grid(f"{lo!r}:{hi!r}:{steps}")
    assert points == [lo + i / (steps - 1) * (hi - lo) for i in range(steps - 1)] + [hi]
