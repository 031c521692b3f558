"""Loading and analysing spot-price histories that may go negative.

Input format is a two-column CSV, header ``date,price``, ISO-8601 dates in
strictly increasing order.  Returns are arithmetic differences by default:
percentage returns blow up around zero crossings, which is precisely the
region these series care about, so the percent mode exists only with an
epsilon guard and an explicit skip count.
"""

from __future__ import annotations

import datetime
import math
from collections.abc import Iterable, Sequence

from ._value import Value
from .errors import (
    InsufficientDataError,
    MonotonicityError,
    SeriesError,
    SeriesParseError,
)

ARITHMETIC_DIFF = "arithmetic_diff"
PERCENT = "percent"


class PriceSeries(Value):
    """Prices by date, as ``load_series`` reads them."""

    dates: tuple[datetime.date, ...]
    prices: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.prices)


class ReturnSeries(Value):
    """Per-step returns; ``skipped`` counts pairs dropped by the eps guard."""

    mode: str
    dates: tuple[datetime.date, ...]
    values: tuple[float, ...]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.values)


class YearStats(Value):
    """One calendar year's count of negative prints and its lowest price."""

    negative_days: int
    min_price: float


def load_series(path) -> PriceSeries:
    """Read a ``date,price`` CSV into a PriceSeries.

    Errors name the offending row (1-based, header included) and column, or the byte
    where the file stops being UTF-8; a UTF-8 BOM is skipped.
    """
    import csv
    rows = []  # extend keeps the rows read before a csv.Error, so it names the next
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows.extend(csv.reader(fh))
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:  # once more, whole: exc counts from the chunk it decoded
            raw = fh.read()
        try:
            raw.decode("utf-8")  # a BOM is UTF-8 too, so this counts from the file's start
        except UnicodeDecodeError as whole:
            exc = whole
        raise SeriesParseError(f"{path}: byte {exc.start}: not UTF-8 ({exc.reason})") from None
    except csv.Error as exc:  # a field over csv's limit, or a NUL before Python 3.11
        raise SeriesParseError(f"{path}: row {len(rows) + 1}: {exc}") from None
    if not rows:
        raise SeriesError(f"{path}: empty series (no header row)")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["date", "price"]:
        raise SeriesParseError(
            f"{path}: row 1: expected header 'date,price', got {','.join(rows[0])!r}"
        )
    if len(rows) == 1:
        raise SeriesError(f"{path}: empty series (header only)")
    dates = []
    prices = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise SeriesParseError(
                f"{path}: row {i}: expected 2 columns, got {len(row)}"
            )
        raw_date, raw_price = row[0].strip(), row[1].strip()
        try:
            day = datetime.date.fromisoformat(raw_date)
        except ValueError as exc:
            raise SeriesParseError(
                f"{path}: row {i}: bad date {raw_date!r} ({exc})"
            ) from None
        try:
            if not raw_price.isascii() or "_" in raw_price:  # float() reads 1_000 and "４" too
                raise ValueError
            price = float(raw_price)
        except ValueError:
            raise SeriesParseError(
                f"{path}: row {i}: bad price {raw_price!r}"
            ) from None
        if not math.isfinite(price):
            raise SeriesParseError(
                f"{path}: row {i}: price must be finite, got {raw_price!r}"
            )
        if dates and day <= dates[-1]:
            raise MonotonicityError(
                f"{path}: row {i}: date {day.isoformat()} does not increase "
                f"over {dates[-1].isoformat()}"
            )
        dates.append(day)
        prices.append(price)
    return PriceSeries(dates=tuple(dates), prices=tuple(prices))


def returns(
    series: PriceSeries, mode: str = ARITHMETIC_DIFF, eps: float = 1e-9
) -> ReturnSeries:
    """Per-step returns of a price series.

    ``arithmetic_diff``: r_i = p_i - p_{i-1}; always defined, and the
    cumulative sum rebuilds the series from its first price.  ``percent``:
    r_i = (p_i - p_{i-1}) / |p_{i-1}|, with pairs whose base is zero or within
    ``eps`` of zero skipped and counted.
    """
    if mode not in (ARITHMETIC_DIFF, PERCENT):
        raise SeriesError(f"mode must be '{ARITHMETIC_DIFF}' or '{PERCENT}', got {mode!r}")
    if len(series) < 2:
        raise InsufficientDataError(
            f"returns need at least 2 prices, got {len(series)}"
        )
    if mode == ARITHMETIC_DIFF:
        vals = tuple(
            series.prices[i] - series.prices[i - 1] for i in range(1, len(series))
        )
        return ReturnSeries(mode=mode, dates=series.dates[1:], values=vals)
    dates = []
    vals = []
    skipped = 0
    for i in range(1, len(series)):
        base = series.prices[i - 1]
        if abs(base) < eps or base == 0.0:  # whatever eps is, even NaN
            skipped += 1
            continue
        dates.append(series.dates[i])
        vals.append((series.prices[i] - base) / abs(base))
    return ReturnSeries(
        mode=mode, dates=tuple(dates), values=tuple(vals), skipped=skipped
    )


def squared_returns(ret: ReturnSeries) -> list[tuple[datetime.date, float]]:
    """(timestamp, r^2) pairs; the variance proxy used for vol plots."""
    return [(d, v * v) for d, v in zip(ret.dates, ret.values)]


def negative_price_stats(series: PriceSeries) -> dict[int, YearStats]:
    """Per calendar year: number of strictly negative prices and the minimum."""
    if len(series) == 0:
        raise SeriesError("empty series")
    tally: dict[int, list] = {}  # year -> [negative days, minimum]
    for day, price in zip(series.dates, series.prices):
        stat = tally.setdefault(day.year, [0, price])
        stat[0] += 1 if price < 0.0 else 0
        stat[1] = min(stat[1], price)
    return {year: YearStats(n, low) for year, (n, low) in tally.items()}


def hill_tail_index(
    ret: ReturnSeries | Sequence[float] | Iterable[float], top_k: int
) -> float:
    """Hill estimator of the tail index of |returns|.

    Sorts absolute values, takes the ``top_k`` largest, and inverts the
    mean log-ratio of the top ``top_k - 1`` to the ``top_k``-th largest:

        alpha = 1 / mean(ln(X_(i) / X_(top_k)),  i = 1..top_k-1.

    Requires finite values and 2 <= top_k <= n/2.  A constant block (all
    ratios 1) has no tail to measure and raises InsufficientDataError.
    """
    values = ret.values if isinstance(ret, ReturnSeries) else ret
    mags = [abs(float(v)) for v in values]
    for v in mags:
        if not math.isfinite(v):
            raise SeriesError(f"Hill estimator needs finite returns, got |r|={v!r}")
    n = len(mags)
    if not isinstance(top_k, int):
        raise SeriesError(f"top_k must be an integer, got {top_k!r}")
    if top_k < 2 or n < 4 or top_k > n // 2:
        raise InsufficientDataError(
            f"top_k must lie in [2, n/2] with n={n}, got top_k={top_k}"
        )
    top = sorted(mags, reverse=True)[:top_k]
    x_k = top[-1]
    if x_k <= 0.0:
        raise InsufficientDataError(
            "tail is degenerate: the top_k-th largest |return| is zero"
        )
    mean_log = math.fsum(math.log(v / x_k) for v in top[:-1]) / (top_k - 1)
    if mean_log <= 0.0:
        raise InsufficientDataError(
            "tail is degenerate: top returns are all equal"
        )
    return 1.0 / mean_log
