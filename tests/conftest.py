from __future__ import annotations

import datetime as dt
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from tmfusion.inputs import OhlcvBar

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240917)


def random_walk(rng: np.random.Generator, n: int, start: float = 100.0) -> np.ndarray:
    """A strictly positive random walk of closing prices."""
    steps = rng.normal(0.0, 1.0, size=n)
    walk = start + np.cumsum(steps)
    return np.maximum(walk, 1.0)


def random_bars(rng: np.random.Generator, n: int, start_date: dt.date | None = None) -> list[OhlcvBar]:
    """Valid OHLCV bars around a random-walk close."""
    closes = random_walk(rng, n)
    opens = closes + rng.normal(0.0, 0.5, size=n)
    opens = np.maximum(opens, 0.5)
    highs = np.maximum(opens, closes) + rng.uniform(0.0, 1.0, size=n)
    lows = np.maximum(np.minimum(opens, closes) - rng.uniform(0.0, 1.0, size=n), 0.1)
    d0 = start_date or dt.date(2021, 9, 22)
    bars = []
    for i in range(n):
        bars.append(
            OhlcvBar(
                date=d0 + dt.timedelta(days=i),
                open=float(opens[i]),
                high=float(highs[i]),
                low=float(lows[i]),
                close=float(closes[i]),
                adj_close=float(closes[i]),
            )
        )
    return bars


def constant_bars(n: int, price: float = 50.0, start_date: dt.date | None = None) -> list[OhlcvBar]:
    d0 = start_date or dt.date(2021, 9, 22)
    return [
        OhlcvBar(d0 + dt.timedelta(days=i), price, price, price, price, price)
        for i in range(n)
    ]


def weekday_bars(rng: np.random.Generator, n: int, start_date: dt.date | None = None) -> list[OhlcvBar]:
    """Random-walk bars on weekdays only, leaving weekend gaps in the calendar."""
    bars = random_bars(rng, n, start_date=start_date)
    out = []
    day = (start_date or dt.date(2021, 9, 22))
    for bar in bars:
        while day.weekday() >= 5:
            day += dt.timedelta(days=1)
        out.append(
            OhlcvBar(day, bar.open, bar.high, bar.low, bar.close, bar.adj_close)
        )
        day += dt.timedelta(days=1)
    return out


_TEXT_POOL = [
    "Shares surged after a strong earnings beat",
    "The stock crashed amid panic and heavy losses",
    "Quarterly results due next week",
    "Bullish on this rally, upgraded guidance",
    "Bearish analysts warn of a weak quarter",
    "Volume was unchanged from yesterday",
    "Record profits and confident management",
    "Downgraded on fraud allegations, selloff ahead",
    "Watching the 150 level closely",
    "Strong rebound, buy the dip",
]


def linear_rule_corpus(
    rng: np.random.Generator,
    n: int = 2000,
    width: int = 14,
    noise: float = 0.05,
    margin: float = 0.15,
):
    """Feature rows in [0, 1] whose label is a noisy fixed linear functional.

    Rows within ``margin`` of the separating hyperplane are resampled, so the
    classes are genuinely separable before the label flips.
    """
    w = rng.normal(0, 1, size=width)
    w /= np.linalg.norm(w)
    rows: list[np.ndarray] = []
    labels: list[int] = []
    while len(rows) < n:
        x = rng.uniform(0, 1, size=width)
        m = x @ w - 0.5 * w.sum()
        if abs(m) < margin:
            continue
        rows.append(x)
        labels.append(1 if m > 0 else 0)
    matrix = np.array(rows)
    out = np.array(labels)
    flips = rng.random(n) < noise
    out[flips] = 1 - out[flips]
    return matrix, out


def one_step_split(rows, labels, text=None):
    """A one-step ``Split`` of given numeric rows, labels and text matrices.

    Row i is its own trading day, 2021-01-01 + i days, with label
    ``labels[i]`` and every numeric column its own: ``rows`` is (N, width),
    or None for no numeric columns. ``text``, when given, is (N, max_len, k):
    each row gets a text of its own, whose token ids index its word vectors
    in a table after the zero row.
    """
    from tmfusion.dataset import Split

    labels = np.asarray(labels, dtype=np.uint8)
    n = labels.shape[0]
    own = np.zeros((n, 0)) if rows is None else np.asarray(rows, dtype=np.float64)
    text_rows = tokens = table = None
    if text is not None:
        _, max_len, k = text.shape
        table = np.concatenate([np.zeros((1, k)), text.reshape(-1, k)])
        tokens = np.arange(1, n * max_len + 1, dtype=np.int32).reshape(n, max_len)
        text_rows = np.arange(n, dtype=np.int32)
    return Split(
        ticker="SYN",
        own=own,
        day_rows=np.arange(n, dtype=np.int32),
        day_ordinals=(np.arange(n) + dt.date(2021, 1, 1).toordinal()).astype(np.int32),
        day_labels=labels,
        authors=["gen"],
        author_ids=np.zeros(n, dtype=np.int32),
        layout=(("own", own.shape[1]),) if own.shape[1] else (),
        text_rows=text_rows,
        tokens=tokens,
        table=table,
    )


def linear_rule_samples(rng: np.random.Generator, n: int = 2000, width: int = 14):
    """The linear-rule corpus as one-step splits, split 80/20."""
    rows, labels = linear_rule_corpus(rng, n=n, width=width)
    cut = int(n * 0.8)
    return one_step_split(rows[:cut], labels[:cut]), one_step_split(rows[cut:], labels[cut:])


def synthetic_tweets(
    rng: np.random.Generator,
    dates: list[dt.date],
    n: int,
    n_authors: int = 8,
    ticker: str = "AAPL",
):
    """Tweets with lexicon-scoreable text spread over the given calendar days."""
    from tmfusion.inputs import TweetRecord

    tweets = []
    for i in range(n):
        day = dates[int(rng.integers(0, len(dates)))]
        stamp = dt.datetime(
            day.year, day.month, day.day,
            int(rng.integers(0, 24)), int(rng.integers(0, 60)),
            tzinfo=dt.timezone.utc,
        )
        tweets.append(
            TweetRecord(
                id=str(i + 1),
                username=f"user{int(rng.integers(0, n_authors))}",
                timestamp=stamp,
                text=_TEXT_POOL[int(rng.integers(0, len(_TEXT_POOL)))],
                ticker=ticker,
                retweets=int(rng.integers(0, 50)),
                favorites=int(rng.integers(0, 200)),
                replies=int(rng.integers(0, 20)),
                follower_count=int(rng.integers(0, 5000)),
                friends_count=int(rng.integers(0, 1000)),
                hashtags=(ticker,),
            )
        )
    return tweets


def write_tweets_jsonl(path: Path, tweets) -> None:
    """Write tweet records as the JSON-lines corpus the CLI ingests."""
    with open(path, "w") as fh:
        for t in tweets:
            fh.write(json.dumps({
                "id": t.id, "username": t.username,
                "timestamp": t.timestamp.isoformat().replace("+00:00", "Z"),
                "text": t.text, "ticker": t.ticker,
                "retweets": t.retweets, "favorites": t.favorites,
                "replies": t.replies, "follower_count": t.follower_count,
                "friends_count": t.friends_count, "hashtags": list(t.hashtags),
            }) + "\n")


def assert_same_columns(got, expected) -> None:
    """Two dataclasses of columns hold the same bytes, dtypes and plain fields."""
    import dataclasses

    for field in dataclasses.fields(expected):
        x, y = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(y, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        else:
            assert x == y, field.name


def cell_with_blocks(kind: str, input_dim: int, hidden_dim: int, blocks: dict,
                     literal: bool = False):
    """A standalone cell whose per-gate blocks hold copies of ``blocks``."""
    from tmfusion.rnn.cells import CellParams

    cell = CellParams(kind, input_dim, hidden_dim, literal)
    for name, view in cell.blocks.items():
        view[...] = blocks[name]
    return cell


def write_v1_split(path) -> None:
    """A one-record split file in the version 1 layout: a row of records
    carrying their author name and numeric values inline."""
    header = json.dumps({
        "schema_hash": "0" * 64, "ticker": "AAPL", "label_field": "close",
        "flags": ["sentiment"], "numeric_width": 3, "numeric_steps": 1, "max_len": 0,
        "embedding_dim": 0, "count": 1,
    }).encode()
    record = (
        struct.pack("<BIH", 1, dt.date(2021, 1, 4).toordinal(), 1) + b"u"
        + struct.pack("<3d", 0.1, 0.2, 0.3)
    )
    path.write_bytes(b"TMDS" + struct.pack("<II", 1, len(header)) + header + record)
