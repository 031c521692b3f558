"""Price-series loading and negative-price statistics.

The bundled fixture uses dyadic prices (halves and quarters) on purpose:
arithmetic returns and their cumulative sums are then exact in floating
point, so reconstruction tests can use equality instead of tolerances.
"""

import datetime
import math
from pathlib import Path

import numpy as np
import pytest

from negamm import (
    ARITHMETIC_DIFF,
    PERCENT,
    InsufficientDataError,
    MonotonicityError,
    PriceSeries,
    ReturnSeries,
    SeriesError,
    SeriesParseError,
    hill_tail_index,
    load_series,
    negative_price_stats,
    returns,
    squared_returns,
)

FIXTURE = Path(__file__).parent / "data" / "spot_prices.csv"


def test_load_fixture():
    series = load_series(FIXTURE)
    assert len(series) == 12
    assert series.dates[0] == datetime.date(2022, 1, 3)
    assert series.prices[0] == 50.0
    assert series.prices[7] == -5.25


def test_negative_price_stats_fixture():
    stats = negative_price_stats(load_series(FIXTURE))
    assert sorted(stats) == [2022, 2023]
    assert stats[2022].negative_days == 0
    assert stats[2022].min_price == 48.75
    assert stats[2023].negative_days == 2
    assert stats[2023].min_price == -5.25


def test_arithmetic_returns_rebuild_prices_exactly():
    series = load_series(FIXTURE)
    ret = returns(series, ARITHMETIC_DIFF)
    assert len(ret) == len(series) - 1
    assert ret.skipped == 0
    rebuilt = series.prices[0] + np.cumsum(ret.values)
    assert tuple(rebuilt) == series.prices[1:]


def test_arithmetic_returns_values():
    series = load_series(FIXTURE)
    ret = returns(series, ARITHMETIC_DIFF)
    assert ret.values[0] == 0.5
    assert ret.values[6] == -52.75  # 47.5 -> -5.25, the first plunge below zero
    assert ret.dates[0] == datetime.date(2022, 1, 4)


def test_percent_returns_fixture():
    series = load_series(FIXTURE)
    ret = returns(series, PERCENT)
    assert ret.mode == PERCENT
    assert ret.skipped == 0
    # base is |previous|, so a negative base keeps the return's direction
    i = ret.dates.index(datetime.date(2023, 1, 4))
    assert ret.values[i] == pytest.approx((30.0 - -5.25) / 5.25, rel=1e-15)


def test_percent_mode_skips_zero_bases():
    series = PriceSeries(
        dates=(
            datetime.date(2024, 1, 1),
            datetime.date(2024, 1, 2),
            datetime.date(2024, 1, 3),
        ),
        prices=(1.0, 0.0, 2.0),
    )
    ret = returns(series, PERCENT)
    assert ret.skipped == 1
    assert ret.values == (-1.0,)
    assert ret.dates == (datetime.date(2024, 1, 2),)


def test_bad_mode_rejected():
    with pytest.raises(SeriesError):
        returns(load_series(FIXTURE), "log")


def test_squared_returns():
    ret = ReturnSeries(
        mode=ARITHMETIC_DIFF,
        dates=(datetime.date(2024, 1, 2), datetime.date(2024, 1, 3)),
        values=(2.0, -3.0),
    )
    assert squared_returns(ret) == [
        (datetime.date(2024, 1, 2), 4.0),
        (datetime.date(2024, 1, 3), 9.0),
    ]


# ----------------------------------------------------------------- parsing


def _write(tmp_path, text):
    p = tmp_path / "series.csv"
    p.write_text(text, encoding="utf-8")
    return p


def test_missing_header(tmp_path):
    p = _write(tmp_path, "2024-01-01,5.0\n2024-01-02,6.0\n")
    with pytest.raises(SeriesParseError, match="row 1"):
        load_series(p)


def test_bad_date_names_row(tmp_path):
    p = _write(tmp_path, "date,price\n2024-01-01,5.0\n01/02/2024,6.0\n")
    with pytest.raises(SeriesParseError, match="row 3"):
        load_series(p)


def test_bad_price_names_row(tmp_path):
    p = _write(tmp_path, "date,price\n2024-01-01,five\n")
    with pytest.raises(SeriesParseError, match="row 2"):
        load_series(p)


@pytest.mark.parametrize("cell", ["1_000", "４", "-３.5", "abc"])
def test_a_price_cell_is_ascii_without_underscores(tmp_path, cell):
    """float() would read 1_000 and the full-width digit as numbers; the reader refuses them."""
    p = _write(tmp_path, f"date,price\n2024-01-01, -3 \n2024-01-02, {cell} \n")
    with pytest.raises(SeriesParseError) as exc:
        load_series(p)
    assert str(exc.value) == f"{p}: row 3: bad price {cell!r}"
    assert load_series(_write(tmp_path, "date,price\n2024-01-01, -3 \n")).prices == (-3.0,)


def test_nonfinite_price_rejected(tmp_path):
    p = _write(tmp_path, "date,price\n2024-01-01,inf\n")
    with pytest.raises(SeriesParseError, match="finite"):
        load_series(p)


def test_dates_must_increase(tmp_path):
    p = _write(tmp_path, "date,price\n2024-01-02,5.0\n2024-01-02,6.0\n")
    with pytest.raises(MonotonicityError, match="row 3"):
        load_series(p)
    p2 = _write(tmp_path, "date,price\n2024-01-02,5.0\n2024-01-01,6.0\n")
    with pytest.raises(MonotonicityError):
        load_series(p2)


def test_wrong_column_count(tmp_path):
    p = _write(tmp_path, "date,price\n2024-01-01,5.0,extra\n")
    with pytest.raises(SeriesParseError, match="2 columns"):
        load_series(p)


def test_empty_inputs(tmp_path):
    with pytest.raises(SeriesError):
        load_series(_write(tmp_path, ""))
    with pytest.raises(SeriesError):
        load_series(_write(tmp_path, "date,price\n"))


def test_returns_need_two_prices(tmp_path):
    p = _write(tmp_path, "date,price\n2024-01-01,5.0\n")
    with pytest.raises(InsufficientDataError):
        returns(load_series(p))


# ----------------------------------------------------------- tail estimator


def test_hill_recovers_pareto_tail():
    # Inverse-CDF Pareto(3) sample; the estimator should land near 3.
    rng = np.random.default_rng(20230517)
    sample = rng.uniform(size=100_000) ** (-1.0 / 3.0)
    est = hill_tail_index(sample.tolist(), top_k=1000)
    assert abs(est - 3.0) <= 0.2


def test_hill_sees_thin_tails_as_large_index():
    rng = np.random.default_rng(987654321)
    sample = rng.exponential(scale=1.0, size=100_000)
    est = hill_tail_index(sample.tolist(), top_k=1000)
    assert est > 5.0


def test_hill_accepts_return_series():
    rng = np.random.default_rng(7)
    vals = tuple(rng.uniform(size=64) ** (-1.0 / 2.0))
    ret = ReturnSeries(
        mode=ARITHMETIC_DIFF,
        dates=tuple(
            datetime.date(2024, 1, 1) + datetime.timedelta(days=i) for i in range(64)
        ),
        values=vals,
    )
    assert hill_tail_index(ret, top_k=16) == hill_tail_index(vals, top_k=16)


def test_hill_top_k_bounds():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    with pytest.raises(InsufficientDataError):
        hill_tail_index(vals, top_k=1)
    with pytest.raises(InsufficientDataError):
        hill_tail_index(vals, top_k=5)  # > n/2
    with pytest.raises(InsufficientDataError):
        hill_tail_index([1.0, 2.0], top_k=2)  # n < 4
    with pytest.raises(SeriesError):
        hill_tail_index(vals, top_k=2.5)


def test_hill_degenerate_tails():
    with pytest.raises(InsufficientDataError):
        hill_tail_index([5.0] * 40, top_k=10)  # constant: no tail
    with pytest.raises(InsufficientDataError):
        hill_tail_index([0.0] * 40, top_k=10)


def test_hill_refuses_non_finite_values():
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SeriesError):
            hill_tail_index(base + [bad], top_k=3)


def test_hill_accepts_what_float_accepts():
    values = [1.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    assert hill_tail_index([str(v) for v in values], top_k=3) == hill_tail_index(
        values, top_k=3
    )


def test_negative_price_stats_refuses_an_empty_series():
    with pytest.raises(SeriesError):
        negative_price_stats(PriceSeries((), ()))


def test_a_zero_price_day_is_not_a_negative_print():
    days = (datetime.date(2020, 4, 19), datetime.date(2020, 4, 20), datetime.date(2020, 4, 21))
    stats = negative_price_stats(PriceSeries(days, (0.0, -0.0, 2.5)))
    assert stats[2020].negative_days == 0 and stats[2020].min_price == 0.0


def test_hill_accepts_top_k_of_half_the_sample():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    expected = 3.0 / math.fsum(math.log(v / 5.0) for v in (8.0, 7.0, 6.0))
    assert hill_tail_index(vals, top_k=4) == pytest.approx(expected, rel=1e-15)


def test_percent_returns_keep_a_base_of_exactly_eps():
    days = (datetime.date(2024, 1, 1), datetime.date(2024, 1, 2), datetime.date(2024, 1, 3))
    ret = returns(PriceSeries(days, (1e-9, 3e-9, -1e-9)), mode=PERCENT, eps=1e-9)
    assert ret.skipped == 0 and ret.dates == days[1:]
    assert ret.values == ((3e-9 - 1e-9) / 1e-9, (-1e-9 - 3e-9) / 3e-9)


def test_two_prices_give_one_return():
    days = (datetime.date(2024, 1, 1), datetime.date(2024, 1, 2))
    series = PriceSeries(days, (2.0, -1.0))
    assert returns(series, ARITHMETIC_DIFF).values == (-3.0,)
    assert returns(series, PERCENT).values == (-1.5,)
