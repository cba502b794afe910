"""The raw inputs: daily OHLCV bars from CSV, tweets from JSON lines, bar labels.

Nothing here imports numpy, so ``tmfusion ingest`` parses and inventories
its inputs without it. Readers reject a malformed line with a
``SchemaError`` naming it, or skip it with a ``Diagnostic`` when lenient.

The JSON lines are parsed once: ingest streams the validated tweets into
columns (``TweetColumnBuilder``) and writes them as the tweet file
(``write_tweets``), which ``dataset.read_tweets`` reads back as arrays.
"""

from __future__ import annotations

import codecs
import csv
import datetime as dt
import hashlib
import io
import json
import math
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .artifacts import read_text, write_tmds
from .config import checked_value
from .errors import Diagnostic, InvalidArgumentError, SchemaError

OHLCV_COLUMNS = ("Date", "Open", "High", "Low", "Close", "Adj Close")

#: Accepted CSV date formats, tried in order.
_DATE_FORMATS = ("%Y-%m-%d", "%d/%m/%Y")

_REQUIRED_TWEET_FIELDS = ("id", "username", "timestamp", "text", "ticker")
_REQUIRED_TWEET_KEYS = frozenset(_REQUIRED_TWEET_FIELDS)
#: The tweet counters, in the order the tweet file stores them and the social vector uses.
COUNTER_FIELDS = ("follower_count", "friends_count", "replies", "retweets", "favorites")
#: Counters above this bound are rejected; the feature build turns them into float64.
MAX_COUNTER = 2**63 - 1


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
    text = raw.strip()
    # the canonical YYYY-MM-DD without strptime; any other form, and a
    # canonical one that names no date, takes the loop below
    if len(text) == 10 and text[4] == text[7] == "-" and text.isascii():
        year, month, day = text[:4], text[5:7], text[8:]
        if (year + month + day).isdigit():
            try:
                return dt.date(int(year), int(month), int(day))
            except ValueError:
                pass
    for fmt in _DATE_FORMATS:
        try:
            return dt.datetime.strptime(text, fmt).date()
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

    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    try:
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
    except csv.Error as exc:  # an oversized field, for one
        # the DictReader's own line_num counts only the rows it returned
        raise SchemaError(f"{path}: line {reader.reader.line_num}: {exc}") from exc

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
    checked_value("label_field", label_field)
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


#: One tweet as the JSON-lines reader yields it: id, username, timestamp,
#: text, ticker, the counters in ``COUNTER_FIELDS`` order, and hashtags.
ParsedTweet = tuple[str, str, dt.datetime, str, str, tuple[int, ...], tuple[str, ...]]


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


def _parse_tweet(obj: dict) -> ParsedTweet:
    """The fields of one tweet's JSON object; an invalid one raises ValueError naming it."""
    if not _REQUIRED_TWEET_KEYS <= obj.keys():
        missing = [f for f in _REQUIRED_TWEET_FIELDS if f not in obj]
        raise ValueError(f"missing required fields {missing}")
    counters = tuple([obj.get(name, 0) for name in COUNTER_FIELDS])
    for name, value in zip(COUNTER_FIELDS, counters):
        # a JSON integer, as the config reader demands: no bool, float or string
        if type(value) is not int or not 0 <= value <= MAX_COUNTER:
            raise ValueError(f"{name} must be an integer in [0, {MAX_COUNTER}], got {value!r}")
    hashtags = obj.get("hashtags", [])
    if not isinstance(hashtags, list) or not all(isinstance(h, str) for h in hashtags):
        raise ValueError("hashtags must be a list of strings")
    tweet_id, username = str(obj["id"]), str(obj["username"])
    if not tweet_id:
        raise ValueError("tweet id must be nonempty")
    if not username:
        raise ValueError("username must be nonempty")
    timestamp = parse_timestamp(str(obj["timestamp"]))
    return tweet_id, username, timestamp, str(obj["text"]), str(obj["ticker"]), counters, tuple(hashtags)


def _read_tweet_lines(path: str, lenient: bool, diagnostics: list[Diagnostic]) -> Iterator[ParsedTweet]:
    """The valid tweets of a JSON-lines file, one per line, in file order.

    A leading UTF-8 byte-order mark is dropped, as ``artifacts.read_text``
    drops it. Malformed lines, invalid UTF-8 among them, raise SchemaError
    with the line number, or are skipped with a diagnostic appended to
    ``diagnostics`` when ``lenient``.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if lineno == 1:
                raw = raw.removeprefix(codecs.BOM_UTF8)
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw.decode("utf-8"))
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                tweet = _parse_tweet(obj)
            except (ValueError, TypeError) as exc:
                if not lenient:
                    raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
                diagnostics.append(Diagnostic(lineno, str(exc)))
                continue
            yield tweet


def load_tweets_jsonl(path: str, lenient: bool = False) -> tuple[list[TweetRecord], list[Diagnostic]]:
    """Parse one TweetRecord JSON object per line.

    Unknown fields are ignored. A malformed line raises SchemaError, or is
    skipped with a diagnostic when ``lenient``.
    """
    diagnostics: list[Diagnostic] = []
    tweets = [
        TweetRecord(tweet_id, username, timestamp, text, ticker, hashtags=hashtags,
                    **dict(zip(COUNTER_FIELDS, counters)))
        for tweet_id, username, timestamp, text, ticker, counters, hashtags
        in _read_tweet_lines(path, lenient, diagnostics)
    ]
    return tweets, diagnostics


# ---------------------------------------------------------------------------
# The tweet file: the parsed tweets as columns
# ---------------------------------------------------------------------------

#: The tweet file's name in an output directory.
TWEETS_NAME = "tweets.bin"

#: The tweet file's layout has not changed since format 2, so its text and
#: schema hash still name that format; the preamble carries the version.
TWEETS_DESCRIPTOR = (
    "tmds format 2 tweet file: magic 'TMDS'; u32le format_version; u32le header_len; "
    "canonical-json header, space-padded so the columns start 8-byte aligned; "
    "columns end to end; u32le crc32 of every byte before it. "
    "header {schema_hash, source_bytes, source_sha256 (of the JSON lines the tweets "
    "were parsed from), count, tickers, authors, texts (each sorted, distinct)}; "
    "columns: timestamp_us count i64le (UTC microseconds since 1970-01-01), counters "
    "count*5 i64le >= 0 (follower_count, friends_count, replies, retweets, favorites), "
    "ticker_id, author_id, text_id count i32le each, indexing tickers, authors, texts"
)

#: Each table of the header, with the column of ids into it, in column order.
TWEET_TABLES = {"tickers": "ticker_id", "authors": "author_id", "texts": "text_id"}

_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
_MICROSECOND = dt.timedelta(microseconds=1)


def tweets_schema_hash() -> str:
    return hashlib.sha256(TWEETS_DESCRIPTOR.encode("utf-8")).hexdigest()


def tweet_layout(header: dict) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, dtype, shape) of each column of a tweet file, in file order."""
    count = header["count"]
    return [
        ("timestamp_us", "<i8", (count,)),
        ("counters", "<i8", (count, len(COUNTER_FIELDS))),
        *((column, "<i4", (count,)) for column in TWEET_TABLES.values()),
    ]


class TweetColumnBuilder:
    """Parsed tweets appended one at a time, kept as the tweet file's columns.

    ``finish`` returns the sorted, distinct ticker, author and text tables
    and the columns, ids remapped to index the sorted tables.
    """

    def __init__(self) -> None:
        self.count = 0
        self._timestamps = array("q")
        self._counters = array("q")
        # ticker, author, text -> id in order of first appearance
        self._tables: tuple[dict[str, int], ...] = ({}, {}, {})
        self._ids = (array("i"), array("i"), array("i"))

    def append(self, tweet: ParsedTweet) -> None:
        _, username, timestamp, text, ticker, counters, _ = tweet
        self.count += 1
        self._timestamps.append((timestamp - _EPOCH) // _MICROSECOND)
        self._counters.extend(counters)
        tickers, authors, texts = self._tables
        ticker_ids, author_ids, text_ids = self._ids
        ticker_ids.append(tickers.setdefault(ticker, len(tickers)))
        author_ids.append(authors.setdefault(username, len(authors)))
        text_ids.append(texts.setdefault(text, len(texts)))

    def finish(self) -> tuple[dict[str, list[str]], list[array]]:
        """The tables by header key, and the columns in ``tweet_layout`` order."""
        tables, columns = {}, [self._timestamps, self._counters]
        for name, table, ids in zip(TWEET_TABLES, self._tables, self._ids):
            tables[name] = sorted(table)
            rank = [0] * len(table)
            for new, key in enumerate(tables[name]):
                rank[table[key]] = new
            columns.append(array("i", [rank[i] for i in ids]))
        if sys.byteorder == "big":
            columns = [array(column.typecode, column) for column in columns]
            for column in columns:
                column.byteswap()
        return tables, columns

    def ticker_count(self, ticker: str) -> int:
        """How many of the tweets name ``ticker``."""
        tid = self._tables[0].get(ticker)
        return 0 if tid is None else self._ids[0].count(tid)


def ingest_tweets(path: str, lenient: bool = False) -> tuple[TweetColumnBuilder, list[Diagnostic]]:
    """The valid tweets of a JSON-lines file as columns, and the lines skipped."""
    diagnostics: list[Diagnostic] = []
    columns = TweetColumnBuilder()
    for tweet in _read_tweet_lines(path, lenient, diagnostics):
        columns.append(tweet)
    return columns, diagnostics


def write_tweets(path: str | Path, columns: TweetColumnBuilder, source: dict) -> None:
    """Write the tweet file; ``source`` is ``artifacts.source_digest`` of the JSON lines."""
    tables, data = columns.finish()
    header = {"schema_hash": tweets_schema_hash(), **source, "count": columns.count, **tables}
    write_tmds(path, header, data)
