"""Market indicators over daily OHLCV bars.

Implements the five indicators consumed by the market feature block: simple
and exponential moving averages, the relative strength index, the moving
average convergence/divergence line, the commodity channel index, and
Bollinger bands. All of them share warmup semantics: an output entry is
undefined (NaN) until its lookback window is complete, never zero-filled.

Everything here is a pure function over immutable inputs and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import IndicatorConfig
from .errors import InvalidArgumentError
from .inputs import OhlcvBar
from .inputs import load_ohlcv_csv  # noqa: F401  (bench/traced.py imports it from here)

#: Order of the slots in the market feature vector.
MARKET_FEATURE_NAMES = ("rsi", "macd", "cci", "bb", "ma")


@dataclass(frozen=True)
class IndicatorSeries:
    """An indicator aligned to its input series.

    ``values`` holds NaN for the first ``warmup_len`` entries and finite
    floats everywhere after.
    """

    values: np.ndarray
    warmup_len: int

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 1:
            raise InvalidArgumentError("indicator values must be 1-D")
        if not (0 <= self.warmup_len <= v.size):
            raise InvalidArgumentError("warmup_len out of range")
        if not np.all(np.isnan(v[: self.warmup_len])):
            raise InvalidArgumentError("warmup entries must be undefined")
        if not np.all(np.isfinite(v[self.warmup_len :])):
            raise InvalidArgumentError("post-warmup entries must be finite")

    def __len__(self) -> int:
        return int(self.values.size)


def _as_series(series: Sequence[float] | np.ndarray) -> np.ndarray:
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InvalidArgumentError("series must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("series must be finite")
    return x


def sma(series: Sequence[float] | np.ndarray, n: int) -> IndicatorSeries:
    """Simple moving average: mean of the n most recent values, inclusive."""
    x = _as_series(series)
    if n < 1:
        raise InvalidArgumentError("period must be >= 1")
    out = np.full(x.size, np.nan)
    if x.size >= n:
        windows = np.lib.stride_tricks.sliding_window_view(x, n)
        out[n - 1 :] = windows.mean(axis=1)
    return IndicatorSeries(out, min(n - 1, x.size))


def ema(series: Sequence[float] | np.ndarray, n: int) -> IndicatorSeries:
    """Exponential moving average seeded with the simple mean of the first n values.

    Smoothing weight is 2/(n + 1); after the seed entry each value is
    ``a * x_t + (1 - a) * ema_{t-1}``.
    """
    x = _as_series(series)
    if n < 1:
        raise InvalidArgumentError("period must be >= 1")
    if x.size < n:
        raise InvalidArgumentError(f"series of length {x.size} shorter than period {n}")
    a = 2.0 / (n + 1)
    out = np.full(x.size, np.nan)
    out[n - 1] = x[:n].mean()
    for t in range(n, x.size):
        out[t] = a * x[t] + (1.0 - a) * out[t - 1]
    return IndicatorSeries(out, n - 1)


def rsi(closes: Sequence[float] | np.ndarray, n: int) -> IndicatorSeries:
    """Relative strength index in [0, 100] from smoothed up-moves and down-moves.

    Day-over-day gains and losses are split into two non-negative series,
    each smoothed with an n-period EMA; the index is
    ``100 - 100 / (1 + ema_up / ema_down)``. A flat window (both EMAs zero)
    maps to the neutral midpoint 50; a loss-free window maps to 100.
    """
    x = _as_series(closes)
    if n < 2:
        raise InvalidArgumentError("period must be >= 2")
    if x.size < n + 2:
        raise InvalidArgumentError(f"need at least {n + 2} closes, got {x.size}")
    diff = np.diff(x)
    ups = np.maximum(diff, 0.0)
    downs = np.maximum(-diff, 0.0)
    ema_up = ema(ups, n).values[n - 1 :]
    ema_down = ema(downs, n).values[n - 1 :]

    ratio = np.divide(ema_up, ema_down, out=np.zeros_like(ema_up), where=ema_down != 0)
    vals = np.where(
        (ema_up == 0) & (ema_down == 0),
        50.0,
        np.where(ema_down == 0, 100.0, 100.0 - 100.0 / (1.0 + ratio)),
    )
    out = np.full(x.size, np.nan)
    out[n:] = vals
    return IndicatorSeries(out, n)


def macd(closes: Sequence[float] | np.ndarray, fast: int, slow: int) -> IndicatorSeries:
    """Fast EMA minus slow EMA of closes, defined once the slow EMA is."""
    x = _as_series(closes)
    if fast < 1 or fast >= slow:
        raise InvalidArgumentError("fast period must satisfy 1 <= fast < slow")
    if x.size < slow:
        raise InvalidArgumentError(f"need at least {slow} closes, got {x.size}")
    vals = ema(x, fast).values - ema(x, slow).values
    return IndicatorSeries(vals, slow - 1)


def typical_price(bar: OhlcvBar) -> float:
    return (bar.high + bar.low + bar.close) / 3.0


def cci(bars: Sequence[OhlcvBar], p: int) -> IndicatorSeries:
    """Commodity channel index of the typical price over a p-bar window.

    ``(tp - window_mean) / (0.015 * window_mean_abs_deviation)``, with the
    degenerate zero-deviation window mapped to 0.
    """
    if p < 2:
        raise InvalidArgumentError("period must be >= 2")
    if len(bars) < p:
        raise InvalidArgumentError(f"need at least {p} bars, got {len(bars)}")
    tp = np.array([typical_price(b) for b in bars])
    windows = np.lib.stride_tricks.sliding_window_view(tp, p)
    ma = windows.mean(axis=1)
    dev = np.abs(windows - ma[:, None]).mean(axis=1)
    num = tp[p - 1 :] - ma
    vals = np.where(dev == 0, 0.0, num / (0.015 * np.where(dev == 0, 1.0, dev)))
    out = np.full(tp.size, np.nan)
    out[p - 1 :] = vals
    return IndicatorSeries(out, p - 1)


def bollinger(
    closes: Sequence[float] | np.ndarray, n: int, m: float
) -> tuple[IndicatorSeries, IndicatorSeries, IndicatorSeries]:
    """Bollinger bands: (upper, middle, lower).

    Middle is the n-period simple moving average; the envelope is m
    population standard deviations of the same window on either side.
    """
    x = _as_series(closes)
    if n < 2:
        raise InvalidArgumentError("period must be >= 2")
    if not m > 0:
        raise InvalidArgumentError("band width multiplier must be > 0")
    if x.size < n:
        raise InvalidArgumentError(f"need at least {n} closes, got {x.size}")
    middle = sma(x, n)
    windows = np.lib.stride_tricks.sliding_window_view(x, n)
    sigma = windows.std(axis=1)
    upper = np.full(x.size, np.nan)
    lower = np.full(x.size, np.nan)
    upper[n - 1 :] = middle.values[n - 1 :] + m * sigma
    lower[n - 1 :] = middle.values[n - 1 :] - m * sigma
    return (
        IndicatorSeries(upper, n - 1),
        middle,
        IndicatorSeries(lower, n - 1),
    )


def market_feature_matrix(
    bars: Sequence[OhlcvBar], cfg: IndicatorConfig
) -> tuple[np.ndarray, int]:
    """All five market features for every bar at once.

    Returns an (n_bars, 5) array ordered [rsi, macd, cci, bb, ma] with NaN
    rows during warmup, plus the index of the first fully defined row.
    """
    if len(bars) <= cfg.warmup:
        raise InvalidArgumentError(
            f"need more than {cfg.warmup} bars for the configured indicators, got {len(bars)}"
        )
    first = cfg.warmup
    closes = np.array([b.close for b in bars])
    ub, mb, lb = (s.values[first:] for s in bollinger(closes, cfg.bb_period, cfg.bb_sigma_mult))
    if cfg.bb_scalar_mode == "percent_b":
        # where a flat window's bands meet, %B is the midpoint
        bb = np.divide(closes[first:] - lb, ub - lb, out=np.full(ub.size, 0.5), where=ub != lb)
    elif cfg.bb_scalar_mode == "bandwidth":
        bb = (ub - lb) / mb
    else:
        bb = mb
    out = np.full((len(bars), 5), np.nan)
    out[first:, 0] = rsi(closes, cfg.rsi_period).values[first:]
    out[first:, 1] = macd(closes, cfg.macd_fast, cfg.macd_slow).values[first:]
    out[first:, 2] = cci(bars, cfg.cci_period).values[first:]
    out[first:, 3] = bb
    out[first:, 4] = sma(closes, cfg.ma_period).values[first:]
    return out, first
