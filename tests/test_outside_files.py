"""Files the package did not write: whatever bytes ``--input`` or ``--params`` holds,
``negamm`` ends in an exit code and, on a refusal, one line of reason."""

import codecs
import csv
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from negamm import SeriesParseError, cli, load_series

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools"))
import sweep  # noqa: E402

ANALYZE = ["analyze", "--stat", "returns", "--input"]
# The flags after --params win, so a file can add flags but never a grid of its own.
CURVE = ["--family", "ccmm", "--k", "1", "--grid", "0:1:3"]


def _run(argv):
    """(exit code, stdout, stderr) of cli.run; an escaped exception's code is 'raised ...'."""
    return sweep.run_cli(cli, argv)


def _assert_exit(code, out, err):
    assert code in (0, 1, 2), err
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    if code != 0:
        assert out == ""
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(), st.binary().map(lambda b: b"date,price\n" + b)))
def test_any_bytes_as_input_or_params_end_in_an_exit_code(data, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a --params file may name an --output-path
    (tmp_path / "given").write_bytes(data)
    _assert_exit(*_run([*ANALYZE, "given"]))
    _assert_exit(*_run(["curve", "--params", "given", *CURVE]))


@pytest.fixture
def files(tmp_path, monkeypatch):
    sweep.write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_input_not_utf8_is_one_error_line(files):
    assert _run([*ANALYZE, "not_utf8.csv"]) == (
        1, "", "error: not_utf8.csv: byte 0: not UTF-8 (invalid start byte)\n")


def test_input_field_over_the_csv_limit_is_one_error_line(files):
    limit = csv.field_size_limit()
    assert _run([*ANALYZE, "long_field.csv"]) == (
        1, "", "error: long_field.csv: row 2: field larger than field limit (131072)\n")
    assert csv.field_size_limit() == limit == 131_072


def test_params_not_utf8_is_a_usage_error(files):
    code, out, err = _run(["curve", "--params", "not_utf8.params", *CURVE])
    assert (code, out) == (2, "")
    assert err.endswith("negamm: error: not_utf8.params: not UTF-8 (invalid start byte)\n")


@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
def test_load_series_names_the_offset_of_the_first_bad_byte_in_the_file(tmp_path, bom):
    # Past the decoder's first chunk, and after a BOM: the offset still counts from byte 0.
    head = bom + b"date,price\n" + b"".join(b"2020-01-%02d,1.0\n" % d for d in range(1, 29)) * 40
    path = tmp_path / "late.csv"
    path.write_bytes(head + b"2021-01-01,\xe9\n")
    with pytest.raises(SeriesParseError, match=rf"late.csv: byte {len(head) + 11}: not UTF-8"):
        load_series(path)


def test_load_series_refuses_a_nul_as_a_parse_error(tmp_path):
    # csv refuses a NUL before Python 3.11 and reads it since; either way the row is refused.
    path = tmp_path / "nul.csv"
    path.write_bytes(b"date,price\n2020-01-01,1\x00\n")
    with pytest.raises(SeriesParseError, match="nul.csv: row 2: "):
        load_series(path)
