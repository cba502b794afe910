"""The tweet file ingest writes, and the dataset build over its columns.

The column build is pinned to the per-tweet replay (``UserHistoryStore``,
one running count per author) bit for bit, a build from the tweet file to
the build from parsed records, and the tweet file's reader to the rule
that a damaged or stale file is a ``SchemaError`` naming it.
"""

from __future__ import annotations

import bisect
import dataclasses
import datetime as dt
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmfusion.dataset as dataset_module
from tmfusion.artifacts import source_digest, write_tmds
from tmfusion.dataset import BuildConfig, TweetColumns, build_dataset, read_tweets
from tmfusion.errors import InvalidArgumentError, JoinError, SchemaError
from tmfusion.indicators import market_feature_matrix
from tmfusion.inputs import (
    TWEETS_NAME,
    TweetRecord,
    ingest_tweets,
    load_tweets_jsonl,
    tweets_schema_hash,
    write_tweets,
)
from tmfusion.text import EmbeddingTable, load_stopwords, tokenize_clean

from .conftest import assert_same_columns, synthetic_tweets, weekday_bars, write_tweets_jsonl
from .test_dataset import FULL_NUMERIC, MSE, SMALL_IND, reference_raw_rows

UTC = dt.timezone.utc

#: Texts with positive, negative and neutral lexicon scores, so that some
#: authors' calls hit and others miss.
TEXTS = (
    "Shares surged after a strong earnings beat",
    "The stock crashed amid panic and heavy losses",
    "Quarterly results due next week",
    "Bullish on this rally, upgraded guidance",
    "Bearish analysts warn of a weak quarter",
)


def ingest(tmp_path: Path, tweets) -> tuple[Path, Path]:
    """The JSON lines of ``tweets`` and the tweet file ingest makes of them."""
    jsonl = tmp_path / "tweets.jsonl"
    write_tweets_jsonl(jsonl, tweets)
    columns, _ = ingest_tweets(str(jsonl))
    write_tweets(tmp_path / TWEETS_NAME, columns, source_digest(jsonl))
    return jsonl, tmp_path / TWEETS_NAME


@st.composite
def corpora(draw):
    """Bars and up to 300 tweets of one to four authors on three tickers.

    Timestamps repeat (four hours a day at most), every drop reason occurs
    (tweets before the first bar, on or after the last, unlabeled one, and
    inside the indicator warmup), and an author's hit count often passes
    11, the first count at which ``np.log10`` and ``math.log10`` differ.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    bars = weekday_bars(rng, draw(st.integers(6, 30), label="bars"))
    n = draw(st.integers(1, 300), label="tweets")
    authors = rng.integers(0, draw(st.integers(1, 4), label="authors"), n)
    offsets = rng.integers(-2, (bars[-1].date - bars[0].date).days + 3, n)
    hours = rng.choice([9, 10, 10, 16], n)
    texts = rng.integers(0, len(TEXTS), n)
    tickers = rng.choice(["AAPL", "AAPL", "AAPL", "MSFT", "IBM"], n)
    tweets = []
    for i in range(n):
        day = bars[0].date + dt.timedelta(days=int(offsets[i]))
        tweets.append(TweetRecord(
            id=str(i), username=f"user{authors[i]}",
            timestamp=dt.datetime(day.year, day.month, day.day, int(hours[i]), tzinfo=UTC),
            text=TEXTS[texts[i]], ticker=str(tickers[i]), retweets=i, favorites=2 * i,
            replies=i % 3, follower_count=100 * int(authors[i]), friends_count=7,
        ))
    return tweets, bars


@settings(max_examples=100, deadline=None)
@given(corpus=corpora())
def test_column_build_matches_per_tweet_replay(corpus):
    """Raw rows (credibility, running author counts and every other block)
    equal the per-tweet replay bit for bit, and the vocabulary holds
    exactly the words of the kept tweets."""
    tweets, bars = corpus
    embedding = EmbeddingTable.hashed(dim=2, seed=0)
    cfg = BuildConfig(ticker="AAPL", feature_set=FULL_NUMERIC | {"text"}, indicators=SMALL_IND,
                      embedding=embedding)
    expected = reference_raw_rows(tweets, bars, FULL_NUMERIC)
    # with the normalizer a no-op, the split rows are the raw rows
    with mock.patch.object(dataset_module, "apply_normalizer", lambda state, rows, out=None: rows):
        if len(expected) == 0:
            with pytest.raises(JoinError):
                build_dataset(tweets, bars, cfg)
            return
        if int(len(expected) * cfg.train_fraction) == 0:
            with pytest.raises(InvalidArgumentError, match="train split is empty"):
                build_dataset(tweets, bars, cfg)
            return
        result = build_dataset(tweets, bars, cfg)
    raw = np.concatenate([result.train.numeric_rows, result.test.numeric_rows])
    assert raw.tobytes() == expected.tobytes()

    dates = [b.date for b in bars]
    _, first_defined = market_feature_matrix(bars, SMALL_IND)
    kept = [
        t for t in sorted((t for t in tweets if t.ticker == "AAPL"), key=lambda t: t.timestamp)
        if first_defined <= bisect.bisect_right(dates, t.timestamp.date()) - 1 < len(bars) - 1
    ]
    stopwords = load_stopwords()
    vocab = sorted({w for t in kept for w in tokenize_clean(t.text, stopwords)[: result.max_len]})
    table = np.array([np.zeros(2)] + [embedding.lookup(w) for w in vocab])
    assert result.train.table.tobytes() == table.tobytes()


@pytest.mark.parametrize("flags, lookback", [
    (FULL_NUMERIC, 0), (frozenset({"text", "sentiment"}), 0), (MSE, 2),
], ids=["numeric", "text", "lookback"])
def test_build_from_tweet_file_equals_build_from_records(tmp_path, rng, flags, lookback):
    bars = weekday_bars(rng, 30)
    dates = [bars[0].date + dt.timedelta(days=i) for i in range(-3, 45)]
    tweets = synthetic_tweets(rng, dates, 150) + synthetic_tweets(rng, dates, 30, ticker="MSFT")
    jsonl, tweet_file = ingest(tmp_path, tweets)
    cfg = BuildConfig(ticker="AAPL", feature_set=flags, indicators=SMALL_IND,
                      embedding=EmbeddingTable.hashed(dim=3, seed=1), market_lookback=lookback)
    from_file = build_dataset(read_tweets(tweet_file, jsonl), bars, cfg)
    from_records = build_dataset(load_tweets_jsonl(str(jsonl))[0], bars, cfg)
    assert from_file.report == from_records.report
    assert sum(from_file.report["dropped"].values()) > 0
    assert_same_columns(from_file.train, from_records.train)
    assert_same_columns(from_file.test, from_records.test)
    assert from_file.normalizer.to_json_dict() == from_records.normalizer.to_json_dict()


def test_tweet_file_holds_the_parsed_tweets(tmp_path, rng):
    tweets = synthetic_tweets(rng, [dt.date(2021, 9, 22), dt.date(1969, 12, 31)], 40)
    tweets += synthetic_tweets(rng, [dt.date(2021, 9, 23)], 5, ticker="MSFT")
    jsonl, tweet_file = ingest(tmp_path, tweets)
    columns = read_tweets(tweet_file, jsonl)
    expected = TweetColumns.from_records(load_tweets_jsonl(str(jsonl))[0])
    assert len(columns) == len(tweets)
    assert columns.tickers == ["AAPL", "MSFT"]
    for t, stamp, author in zip(tweets, columns.timestamps.tolist(), columns.author_ids.tolist()):
        assert dt.datetime(1970, 1, 1, tzinfo=UTC) + dt.timedelta(microseconds=stamp) == t.timestamp
        assert columns.authors[author] == t.username
    assert_same_columns(columns, expected)


def test_leading_bom_ingests_to_the_same_columns(tmp_path, rng):
    tweets = synthetic_tweets(rng, [dt.date(2021, 9, 22), dt.date(2021, 9, 23)], 20)
    jsonl, tweet_file = ingest(tmp_path, tweets)
    bom_dir = tmp_path / "bom"
    bom_dir.mkdir()
    bom_jsonl = bom_dir / "tweets.jsonl"
    bom_jsonl.write_bytes(b"\xef\xbb\xbf" + jsonl.read_bytes())
    columns, diagnostics = ingest_tweets(str(bom_jsonl))
    write_tweets(bom_dir / TWEETS_NAME, columns, source_digest(bom_jsonl))
    assert diagnostics == []
    assert_same_columns(read_tweets(bom_dir / TWEETS_NAME, bom_jsonl), read_tweets(tweet_file, jsonl))
    assert len(load_tweets_jsonl(str(bom_jsonl))[0]) == len(tweets)


def rewrite(path: Path, jsonl: Path, columns: TweetColumns) -> None:
    """Write ``columns`` as a tweet file with a valid header and checksum."""
    header = {
        "schema_hash": tweets_schema_hash(), **source_digest(jsonl), "count": len(columns),
        "tickers": columns.tickers, "authors": columns.authors, "texts": columns.texts,
    }
    write_tmds(path, header, [
        np.ascontiguousarray(columns.timestamps, "<i8"), np.ascontiguousarray(columns.counters, "<i8"),
        *(np.ascontiguousarray(ids, "<i4")
          for ids in (columns.ticker_ids, columns.author_ids, columns.text_ids)),
    ])


@pytest.mark.parametrize("change, message", [
    (lambda c: {"author_ids": np.full_like(c.author_ids, len(c.authors))}, "author_id lies outside"),
    (lambda c: {"ticker_ids": np.full_like(c.ticker_ids, -1)}, "ticker_id lies outside"),
    (lambda c: {"text_ids": c.text_ids - 1}, "text_id lies outside"),
    (lambda c: {"authors": c.authors[::-1]}, "authors table is not sorted"),
    (lambda c: {"texts": c.texts[:1] * 2 + c.texts[1:]}, "texts table is not sorted"),
    (lambda c: {"counters": c.counters * np.array([1, 1, -1, 1, 1])}, "counter lies outside"),
    (lambda c: {"timestamps": c.timestamps + 2**62}, "timestamp lies outside"),
], ids=["author id", "ticker id", "text id", "unsorted authors", "repeated text",
        "negative counter", "timestamp"])
def test_bad_contents_rejected(tmp_path, rng, change, message):
    tweets = synthetic_tweets(rng, [dt.date(2021, 9, 22)], 12, n_authors=4)
    # every replies counter 1, so that negating its column makes it negative
    jsonl, tweet_file = ingest(tmp_path, [dataclasses.replace(t, replies=1) for t in tweets])
    columns = read_tweets(tweet_file, jsonl)
    rewrite(tweet_file, jsonl, columns)
    assert read_tweets(tweet_file, jsonl).counters.tobytes() == columns.counters.tobytes()
    rewrite(tweet_file, jsonl, dataclasses.replace(columns, **change(columns)))
    with pytest.raises(SchemaError, match=f"{TWEETS_NAME}: .*{message}"):
        read_tweets(tweet_file, jsonl)


def test_changed_or_missing_source_rejected(tmp_path, rng):
    jsonl, tweet_file = ingest(tmp_path, synthetic_tweets(rng, [dt.date(2021, 9, 22)], 5))
    blob = jsonl.read_bytes()
    jsonl.write_bytes(blob.replace(b"AAPL", b"AAPM", 1))  # same size, other bytes
    with pytest.raises(SchemaError, match="has changed since ingest"):
        read_tweets(tweet_file, jsonl)
    jsonl.unlink()
    with pytest.raises(SchemaError, match="tweets.jsonl: cannot be read"):
        read_tweets(tweet_file, jsonl)


@pytest.fixture(scope="module")
def tiny_tweet_file(tmp_path_factory) -> dict:
    """A small tweet file, its source and what it reads back as."""
    out = tmp_path_factory.mktemp("tweets")
    rng = np.random.default_rng(3)
    jsonl, tweet_file = ingest(out, synthetic_tweets(rng, [dt.date(2021, 9, 22)], 4, n_authors=2))
    return {"jsonl": jsonl, "blob": tweet_file.read_bytes(), "columns": read_tweets(tweet_file, jsonl)}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_tweet_file_reads_back_or_is_rejected(tiny_tweet_file, data):
    """Any truncation or single-byte change of a tweet file either reads
    back the very same columns or raises SchemaError naming the file."""
    blob = tiny_tweet_file["blob"]
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="size")]
    else:
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
        damaged = blob[:pos] + bytes([byte]) + blob[pos + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / TWEETS_NAME
        path.write_bytes(damaged)
        try:
            got = read_tweets(path, tiny_tweet_file["jsonl"])
        except SchemaError as exc:
            assert TWEETS_NAME in str(exc)
            return
    assert_same_columns(got, tiny_tweet_file["columns"])
