"""The raw inputs: daily OHLCV bars from CSV, tweets from JSON lines, bar labels.

Nothing here imports numpy, so ``tmfusion ingest`` parses and inventories
its inputs without it. Readers reject a malformed line with a
``SchemaError`` naming it, or skip it with a ``Diagnostic`` when lenient.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass

from .errors import Diagnostic, InvalidArgumentError, SchemaError

OHLCV_COLUMNS = ("Date", "Open", "High", "Low", "Close", "Adj Close")

#: Accepted CSV date formats, tried in order.
_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%Y")

LABEL_FIELDS = ("close", "open", "adj_close")

_REQUIRED_TWEET_FIELDS = ("id", "username", "timestamp", "text", "ticker")
_COUNTER_FIELDS = ("retweets", "favorites", "replies", "follower_count", "friends_count")
#: Counters above this bound are rejected; the feature build turns them into float64.
_MAX_COUNTER = 2**63 - 1


# ---------------------------------------------------------------------------
# OHLCV CSV ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OhlcvBar:
    """One trading day of prices for a single ticker.

    The adjusted close is carried through unchecked against high/low: split
    and dividend adjustments legitimately push it outside the day's range.
    """

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    adj_close: float

    def validate(self) -> None:
        prices = (self.open, self.high, self.low, self.close, self.adj_close)
        if not all(math.isfinite(p) and p > 0 for p in prices):
            raise InvalidArgumentError(f"bar {self.date}: prices must be finite and > 0")
        if self.low > min(self.open, self.close):
            raise InvalidArgumentError(f"bar {self.date}: low exceeds open/close")
        if self.high < max(self.open, self.close):
            raise InvalidArgumentError(f"bar {self.date}: high below open/close")
        if self.low > self.high:
            raise InvalidArgumentError(f"bar {self.date}: low exceeds high")


@dataclass
class OhlcvIngestResult:
    """Parsed bars plus any label column the file carried and per-line rejects."""

    bars: list[OhlcvBar]
    file_labels: dict[dt.date, int]
    diagnostics: list[Diagnostic]


def _parse_date(raw: str) -> dt.date:
    for fmt in _DATE_FORMATS:
        try:
            return dt.datetime.strptime(raw.strip(), fmt).date()
        except ValueError:
            continue
    raise ValueError(f"unparseable date {raw!r} (expected YYYY-MM-DD or DD/MM/YYYY)")


def load_ohlcv_csv(path: str, lenient: bool = False) -> OhlcvIngestResult:
    """Parse a daily bar CSV with header Date,Open,High,Low,Close,Adj Close.

    Rows must be strictly date-ascending after parsing. Extra columns are
    ignored, except an integer ``Label`` column which is captured so callers
    can cross-check it against the computed labels. Malformed rows raise
    SchemaError, or are skipped with a diagnostic when ``lenient``.
    """
    bars: list[OhlcvBar] = []
    file_labels: dict[dt.date, int] = {}
    diagnostics: list[Diagnostic] = []

    def reject(line: int, message: str) -> None:
        if not lenient:
            raise SchemaError(f"{path}: line {line}: {message}")
        diagnostics.append(Diagnostic(line, message))

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in OHLCV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required columns {missing}")
        has_label = "Label" in header

        for lineno, row in enumerate(reader, start=2):
            try:
                date = _parse_date(row["Date"])
                bar = OhlcvBar(
                    date=date,
                    open=float(row["Open"]),
                    high=float(row["High"]),
                    low=float(row["Low"]),
                    close=float(row["Close"]),
                    adj_close=float(row["Adj Close"]),
                )
                bar.validate()
            except (ValueError, TypeError, KeyError) as exc:
                reject(lineno, str(exc))
                continue
            if bars and bar.date <= bars[-1].date:
                reject(lineno, f"date {bar.date} not strictly after {bars[-1].date}")
                continue
            bars.append(bar)
            if has_label:
                try:
                    file_labels[date] = int(row["Label"])
                except (ValueError, TypeError):
                    reject(lineno, f"unparseable Label {row.get('Label')!r}")

    return OhlcvIngestResult(bars=bars, file_labels=file_labels, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Labeling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledBar:
    """A bar plus the direction of the following bar's price."""

    bar: OhlcvBar
    label: int


def label_bars(bars: list[OhlcvBar], label_field: str = "close") -> list[LabeledBar]:
    """Label 0 when the day's price exceeds the next day's, 1 otherwise.

    Equality counts as 1 (not a drop). The final bar has no successor and is
    dropped, so the result is one shorter than the input.
    """
    if label_field not in LABEL_FIELDS:
        raise InvalidArgumentError(f"label_field must be one of {LABEL_FIELDS}")
    if len(bars) < 2:
        raise InvalidArgumentError("need at least 2 bars to label")
    out = []
    for today, tomorrow in zip(bars, bars[1:]):
        if tomorrow.date <= today.date:
            raise InvalidArgumentError("bars must be strictly date-ascending")
        price_today = getattr(today, label_field)
        price_tomorrow = getattr(tomorrow, label_field)
        out.append(LabeledBar(today, 0 if price_today > price_tomorrow else 1))
    return out


def compare_file_labels(
    labeled: list[LabeledBar], file_labels: dict[dt.date, int]
) -> list[str]:
    """Dates (ISO) where a CSV's own label column disagrees with the rule."""
    mismatches = []
    for lb in labeled:
        claimed = file_labels.get(lb.bar.date)
        if claimed is not None and claimed != lb.label:
            mismatches.append(lb.bar.date.isoformat())
    return mismatches


# ---------------------------------------------------------------------------
# Tweet JSONL ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TweetRecord:
    """One tweet as ingested from the JSON-lines corpus."""

    id: str
    username: str
    timestamp: dt.datetime
    text: str
    ticker: str
    retweets: int = 0
    favorites: int = 0
    replies: int = 0
    follower_count: int = 0
    friends_count: int = 0
    hashtags: tuple[str, ...] = ()

    def validate(self) -> None:
        if not self.id:
            raise InvalidArgumentError("tweet id must be nonempty")
        if not self.username:
            raise InvalidArgumentError("username must be nonempty")
        for name in _COUNTER_FIELDS:
            if getattr(self, name) < 0:
                raise InvalidArgumentError(f"{name} must be >= 0")


def parse_timestamp(raw: str) -> dt.datetime:
    """ISO-8601 timestamp; trailing Z accepted; naive values are taken as UTC."""
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    parsed = dt.datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        return parsed.replace(tzinfo=dt.timezone.utc)
    try:
        return parsed.astimezone(dt.timezone.utc)
    except OverflowError as exc:  # an offset that moves the first or last day out of range
        raise ValueError(f"timestamp {raw!r} is out of range in UTC") from exc


def _tweet_from_json(obj: dict) -> TweetRecord:
    missing = [f for f in _REQUIRED_TWEET_FIELDS if f not in obj]
    if missing:
        raise ValueError(f"missing required fields {missing}")
    counters = {}
    for name in _COUNTER_FIELDS:
        value = obj.get(name, 0)
        # a JSON integer, as the config reader demands: no bool, float or string
        if type(value) is not int or not 0 <= value <= _MAX_COUNTER:
            raise ValueError(f"{name} must be an integer in [0, {_MAX_COUNTER}], got {value!r}")
        counters[name] = value
    hashtags = obj.get("hashtags", [])
    if not isinstance(hashtags, list) or not all(isinstance(h, str) for h in hashtags):
        raise ValueError("hashtags must be a list of strings")
    tweet = TweetRecord(
        id=str(obj["id"]),
        username=str(obj["username"]),
        timestamp=parse_timestamp(str(obj["timestamp"])),
        text=str(obj["text"]),
        ticker=str(obj["ticker"]),
        hashtags=tuple(hashtags),
        **counters,
    )
    tweet.validate()
    return tweet


def load_tweets_jsonl(path: str, lenient: bool = False) -> tuple[list[TweetRecord], list[Diagnostic]]:
    """Parse one TweetRecord JSON object per line.

    Unknown fields are ignored. Malformed lines, invalid UTF-8 among them,
    raise SchemaError with the line number, or are skipped with a
    diagnostic when ``lenient``.
    """
    tweets: list[TweetRecord] = []
    diagnostics: list[Diagnostic] = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw.decode("utf-8"))
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                tweets.append(_tweet_from_json(obj))
            except (ValueError, TypeError, InvalidArgumentError) as exc:
                if not lenient:
                    raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
                diagnostics.append(Diagnostic(lineno, str(exc)))
    return tweets, diagnostics
