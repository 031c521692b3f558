"""Each outside input is read once: family parameters through the record, states in ``_check``."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

import negamm
from negamm import (
    CurveSpec,
    DomainError,
    Family,
    ParameterError,
    PoolState,
    SwapRequest,
    cli,
    curves,
    errors,
    execute_swap,
    fingerprint,
    parabola_x_from_price,
    parabola_y_from_x,
    payoff,
    price_impact,
    price_of,
    quote_exact_in,
    series,
    swap,
)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def parsed_m(argv):
    return cli._build_parser().parse_args(cli._expand_params(argv, cli._build_parser())).m


# ------------------------------------------------------------ parameters


def test_integral_m_reads_as_int_at_every_entry_point(tmp_path):
    for spec in (CurveSpec(Family.PARABOLA, m=2.0), CurveSpec.parabola(2.0)):
        assert spec.m == 2 and type(spec.m) is int
        assert spec == CurveSpec.parabola(2)
    curve = ["curve", "--family", "parabola", "--grid", "0:4:9"]
    assert parsed_m([*curve, "--m", "2.0"]) == 2
    assert invoke([*curve, "--m", "2.0"]) == invoke([*curve, "--m", "2"])
    params = tmp_path / "m.params"
    params.write_text("m = 2.0\n", encoding="utf-8")
    assert parsed_m([*curve, "--params", str(params)]) == 2
    assert invoke([*curve, "--params", str(params)]) == invoke([*curve, "--m", "2"])
    code, out, _ = invoke(["compare", "--specs", "parabola:m=2.0", "--grid", "1:2:3"])
    assert code == 0
    assert out.splitlines()[1:] == invoke(
        ["compare", "--specs", "parabola:m=2", "--grid", "1:2:3"])[1].splitlines()[1:]


def test_an_int_m_is_never_rounded_through_float():
    big = 10**20 + 2
    assert CurveSpec.parabola(big).m == big
    assert CurveSpec(Family.PARABOLA, m=big).m == big
    assert parsed_m(["curve", "--family", "parabola", "--grid", "0:1:2", "--m", str(big)]) == big


@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan, 2.5])
def test_non_integral_m_is_a_parameter_error(m):
    for build in (lambda: CurveSpec.parabola(m), lambda: CurveSpec(Family.PARABOLA, m=m),
                  lambda: parabola_y_from_x(0.25, m), lambda: parabola_x_from_price(0.5, m)):
        with pytest.raises(ParameterError, match="parabola requires even integer m >= 2"):
            build()


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "2.5", "1e400"])
def test_non_integral_m_is_a_usage_error(text):
    code, out, err = invoke(["curve", "--family", "parabola", f"--m={text}", "--grid", "0:1:3"])
    assert (code, out) == (2, "")
    assert f"argument --m: invalid integer value: '{text}'" in err
    code, out, err = invoke(["compare", "--specs", f"parabola:m={text}", "--grid", "1:2:3"])
    assert (code, out) == (2, "")
    assert "integer" in err and "Traceback" not in err


def test_range_refusals_still_exit_one_with_the_library_message():
    for flags, message in ((["--family", "parabola", "--m", "3"],
                            "parabola requires even integer m >= 2, got m=3"),
                           (["--family", "parabola", "--m", "3.0"],
                            "parabola requires even integer m >= 2, got m=3"),
                           (["--family", "ccmm", "--k", "-1"], "ccmm requires k > 0, got k=-1.0"),
                           (["--family", "cpmm", "--L", "1e200"],
                            "cpmm requires 1e-150 <= L <= 1e+150, got L=1e+200")):
        code, out, err = invoke(["curve", *flags, "--grid", "0:1:3"])
        assert (code, out, err) == (1, "", f"error: {message}\n")
    code, _, err = invoke(["curve", "--family", "ccmm", "--k", "abc", "--grid", "0:1:3"])
    assert code == 2 and "argument --k: invalid float value: 'abc'" in err


def test_a_direct_spec_stores_floats():
    spec = CurveSpec(Family.CSEMM, alpha=3, beta=4)
    assert (spec.alpha, spec.beta) == (3.0, 4.0) and type(spec.alpha) is float
    assert spec == CurveSpec.csemm(3.0, 4.0)
    with pytest.raises(ParameterError, match="ccmm requires k > 0, got k=None"):
        CurveSpec(Family.CCMM)


def test_family_flags_and_their_help_come_from_the_records():
    records = [(name, text) for rec in curves._FAMILIES.values()
               for name, (_, text) in rec.params.items()]
    assert [name for name, _ in records] == ["L", "k", "alpha", "beta", "m"]
    for command in ("curve", "swap", "fingerprint", "payoff", "analyze", "compare"):
        code, out, _ = invoke([command, "--help"])
        assert code == 0
        for name, text in records:
            assert f"--{name} {name.upper()}" in out and text in out, (command, name)


# ------------------------------------------------------------ states


def test_cpmm_mirror_state_is_refused_by_every_reader():
    spec, state = CurveSpec.cpmm(1.0), PoolState(-1.0, -1.0)
    req = SwapRequest("y", 1.0)
    for read in (lambda: price_of(spec, state), lambda: quote_exact_in(spec, state, req),
                 lambda: execute_swap(spec, state, req), lambda: price_impact(spec, state, req)):
        with pytest.raises(DomainError, match=r"cpmm x must lie in \(0, inf\), got x=-1.0"):
            read()


# ------------------------------------------------------------ public names


def test_public_names_are_the_submodules_objects():
    modules = (curves, errors, fingerprint, payoff, series, swap)
    assert len(negamm.__all__) == len(set(negamm.__all__)) == 68
    for name in negamm.__all__:
        obj = getattr(negamm, name)
        assert not isinstance(obj, type(negamm)), name
        assert any(getattr(mod, name, None) is obj for mod in modules), name
    namespace = {}
    exec("from negamm import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(negamm.__all__)
