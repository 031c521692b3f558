"""What a process loads: the lazy package namespace and the CLI's per-command imports."""

import argparse
import ast
import importlib
import inspect
import io
import os
import shutil
import subprocess
import sys
import typing
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import negamm
from negamm import cli

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("curves", "errors", "fingerprint", "payoff", "series", "swap")

# Modules the CLI imports only in the commands that use them.  (``datetime``
# stays at module level in ``series``: its dataclasses' annotations name it.)
WATCHED = ("negamm.fingerprint", "negamm.payoff", "negamm.swap", "statistics", "json")


def probe(code: str):
    """Run ``code`` under ``python -S`` against this tree's ``src``; its printed literal."""
    # -S: no site module, whose .pth files may import modules of their own
    code = "import sys; sys.path.insert(0, 'src')\n" + code
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_import_negamm_loads_no_submodule():
    loaded = probe("import negamm\n"
                   "print(sorted(m for m in sys.modules if m.startswith('negamm.')))")
    assert loaded == []


def test_private_and_submodule_names_load_nothing():
    found = probe("import negamm\n"
                  "names = ('curves', 'cli', '_missing', '__wrapped__')\n"
                  "tried = [hasattr(negamm, name) for name in names]\n"
                  "print((tried, sorted(m for m in sys.modules if m.startswith('negamm.'))))")
    assert found == ([False] * 4, [])


def test_import_cli_loads_no_command_module():
    loaded = probe(f"import negamm.cli\nprint([m for m in {WATCHED!r} if m in sys.modules])")
    assert loaded == []


@pytest.mark.parametrize("argv, added", [
    (["curve", "--family", "ccmm", "--k", "1", "--grid", "0:2:3"], []),
    (["curve", "--family", "ccmm", "--k", "1", "--grid", "0:2:3", "--output", "json"], ["json"]),
    (["swap", "--family", "ccmm", "--k", "1", "--x", "0.5", "--token-in", "x",
      "--amount-in", "0.1"], ["negamm.swap"]),
    (["fingerprint", "--family", "ccmm", "--k", "1", "--grid", "1:2:3"], ["negamm.fingerprint"]),
    (["payoff", "--family", "ccmm", "--k", "1", "--grid", "0:2:3"], ["negamm.payoff"]),
    (["analyze", "--input", "tests/data/spot_prices.csv", "--stat", "hill", "--top-k", "3"], []),
    (["compare", "--specs", "ccmm:k=1", "--grid", "0:1:3"], ["negamm.fingerprint"]),
])
def test_each_command_loads_only_its_own_module(argv, added):
    code, loaded = probe(
        "import io, contextlib, negamm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = negamm.cli.run({argv!r})\n"
        f"print((code, [m for m in {WATCHED!r} if m in sys.modules]))")
    assert (code, loaded) == (0, added)


def test_first_public_read_binds_every_name():
    bound, listed, star, before, hook = probe(
        "import negamm\n"
        "before = '__all__' in vars(negamm)\n"
        "negamm.execute_swap\n"
        "names = negamm.__all__\n"
        "namespace = {}\n"
        "exec('from negamm import *', namespace)\n"
        "print(([n for n in names if n in vars(negamm)], [n for n in names if n in dir(negamm)],"
        " sorted(k for k in namespace if k != '__builtins__'), before,"
        " '__getattr__' in vars(negamm)))")
    assert before is False
    assert hook is False  # gone once every name is bound: module reads stay fast
    assert len(bound) == 68 and listed == bound and star == sorted(bound)
    assert bound == negamm.__all__


def test_unknown_first_read_binds_the_names_and_raises_attribute_error():
    found = probe("import negamm\n"
                  "try:\n"
                  "    negamm.no_such_name\n"
                  "except AttributeError as exc:\n"
                  "    print((str(exc), len(negamm.__all__)))")
    assert found == ("module 'negamm' has no attribute 'no_such_name'", 68)


def test_emit_writes_each_cell_as_its_str():
    cells = [-0.0, 5e-324, 1e16, 0.1, float("inf"), float("-inf"), float("nan"), 7,
             "negative_price"]
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit([f"c{i}" for i in range(len(cells))], [cells, cells],
                  argparse.Namespace(output="csv", output_path=None))
    line = ",".join(map(str, cells))
    assert out.getvalue() == ",".join(f"c{i}" for i in range(len(cells))) + f"\n{line}\n{line}\n"
    assert line == "-0.0,5e-324,1e+16,0.1,inf,-inf,nan,7,negative_price"


def test_annotations_resolve():
    for short in MODULES:
        mod = importlib.import_module(f"negamm.{short}")
        objs = [obj for obj in vars(mod).values()
                if (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == mod.__name__]
        objs += [fn for cls in objs if inspect.isclass(cls)
                 for fn in vars(cls).values() if inspect.isfunction(fn)]
        for obj in objs:
            typing.get_type_hints(obj)  # raises NameError on an unimported name


# What a CLI process no longer loads: the dataclass machinery (the value classes
# have their own base), and series with datetime except for analyze.
NOT_LOADED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "datetime", "negamm.series")

COMMAND_ARGV = {
    "curve": ["curve", "--family", "ccmm", "--k", "1", "--grid", "0:2:3"],
    "swap": ["swap", "--family", "ccmm", "--k", "1", "--x", "0.5", "--token-in", "x",
             "--amount-in", "0.1"],
    "fingerprint": ["fingerprint", "--family", "ccmm", "--k", "1", "--grid", "1:2:3"],
    "payoff": ["payoff", "--family", "ccmm", "--k", "1", "--grid", "0:2:3"],
    "analyze": ["analyze", "--input", "tests/data/spot_prices.csv", "--stat", "hill",
                "--top-k", "3"],
    "compare": ["compare", "--specs", "ccmm:k=1", "--grid", "0:1:3"],
}


def test_import_cli_loads_no_dataclasses_and_no_series():
    loaded = probe(f"import negamm.cli\nprint([m for m in {NOT_LOADED!r} if m in sys.modules])")
    assert loaded == []


@pytest.mark.parametrize("command", COMMAND_ARGV)
def test_only_analyze_loads_series(command):
    code, loaded = probe(
        "import io, contextlib, negamm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = negamm.cli.run({COMMAND_ARGV[command]!r})\n"
        f"print((code, [m for m in {NOT_LOADED!r} if m in sys.modules]))")
    assert (code, loaded) == (0, ["datetime", "negamm.series"] if command == "analyze" else [])


def test_mode_choices_are_the_series_modes():
    from negamm import series

    for command in (None, "analyze"):
        sub = cli._build_parser(command)._subparsers._group_actions[0].choices["analyze"]
        mode = next(a for a in sub._actions if a.dest == "mode")
        assert tuple(mode.choices) == (series.ARITHMETIC_DIFF, series.PERCENT)
        assert mode.default == series.ARITHMETIC_DIFF


def parse_output(parser, argv):
    """(exit code, stdout, stderr) of ``parser.parse_args(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMAND_ARGV)
def test_a_parser_built_for_one_command_prints_the_same_help_and_errors(command):
    cases = [[command, "--help"], [command], [command, "--no-such-flag"], ["--help"], [],
             ["no-such-command"], COMMAND_ARGV[command] + ["--output", "xml"]]
    for argv in cases:
        full = parse_output(cli._build_parser(), argv)
        assert parse_output(cli._build_parser(command), argv) == full, argv
        assert full[0] in (0, 2) and (full[1] or full[2])


def test_run_builds_only_the_named_command_and_reports_usage_as_before(monkeypatch):
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda command=None: built.append(command) or build(command))
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.run(["curve", "--family", "ccmm", "--grid", "0:1:3"])
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes = [cli.run(argv) for argv in (["--help"], [])]
    assert (code, codes, built) == (2, [0, 2], ["curve", None, None])
    usage = build().format_usage()
    assert err.getvalue() == usage + "negamm: error: --k is required for --family ccmm\n"


# ------------------------------------------------------------ tools/abtime.py


@pytest.fixture
def abtime():
    """tools/abtime.py, with this process's negamm modules put back afterwards."""
    saved = {k: v for k, v in sys.modules.items() if k == "negamm" or k.startswith("negamm.")}
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        yield importlib.import_module("abtime")
    finally:
        sys.path.remove(str(ROOT / "tools"))
        for name in [k for k in sys.modules if k == "negamm" or k.startswith("negamm.")]:
            del sys.modules[name]
        sys.modules.update(saved)


@pytest.mark.parametrize("order", ["ab", "ba"])
def test_abtime_loads_each_tree_from_its_own_src(abtime, tmp_path, order):
    for tree in "ab":
        shutil.copytree(ROOT / "src" / "negamm", tmp_path / tree / "src" / "negamm",
                        ignore=shutil.ignore_patterns("__pycache__"))
    pkgs = {tree: abtime.load(str(tmp_path / tree)) for tree in order}
    for tree, pkg in pkgs.items():
        src = str(tmp_path / tree / "src") + os.sep
        for name in ("execute_swap", "state_from_price", "greeks", "load_series"):
            assert getattr(pkg, name).__code__.co_filename.startswith(src), (tree, name)


def test_abtime_ops_counts_repeat_exactly(abtime):
    pkg = abtime.load(str(ROOT))
    [(stmt, build)] = [(stmt, build) for label, stmt, (_, build) in abtime.PRIMITIVES
                       if label == "execute_swap csemm 3,4 x in"]
    first, second = (abtime.row_ops(pkg, stmt, build) for _ in range(2))
    assert first == second and first[0] > 100 and first[1] > 0


def test_abtime_cli_header_says_whether_spawns_compile(abtime, tmp_path):
    (tmp_path / "a" / "src" / "negamm" / "__pycache__").mkdir(parents=True)
    (tmp_path / "b" / "src" / "negamm").mkdir(parents=True)
    roots = (str(tmp_path / "a"), str(tmp_path / "b"))
    off, on = (abtime.bytecode_header(roots, env)
               for env in ({"PYTHONDONTWRITEBYTECODE": "1"}, {"PYTHONDONTWRITEBYTECODE": ""}))
    assert off[0] == ("# spawned interpreters write bytecode: "
                      "no, PYTHONDONTWRITEBYTECODE is set in their environment")
    assert on[0] == "# spawned interpreters write bytecode: yes"
    assert off[1:] == on[1:] == [
        "# parent src/negamm/__pycache__ before the first spawn: present",
        "# change src/negamm/__pycache__ before the first spawn: absent"]
