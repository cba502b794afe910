"""Sample assembly: normalization, feature fusion, dataset builds.

A sample is one tweet joined to its trading day's market features and the
next trading day's up/down label, with the numeric feature blocks min-max
normalized against the training split only. The build works on the tweets
as columns (``TweetColumns``, read from the tweet file ingest writes) with
array operations: a stable sort by timestamp, one ``searchsorted`` join to
trading days, masks for the drops, sentiment and token ids once per
distinct text, and running author counts and credibility from one stable
per-author sort. Each block is kept at its grain, raw, and the normalizer
is fitted per block on the rows the training samples use; the leakage
audit hashes the training samples' raw rows a chunk at a time. Each split
stores every column once at its grain: per trading day its windows cover,
the day's ordinal, label and normalized market row; per distinct text it
uses, the text's normalized sentiment and token ids; and per sample, its
social and credibility columns and its row ids into the day and text
tables, however long its lookback window. Text becomes token ids into one
embedding table of the words the dataset uses. The 80/20 split keeps
sample order, and each split is held as those tables (``Split``), the one
in-memory form of a dataset that training and inference take.

Artifacts are written to a directory as the two split files, the
embedding table when text is flagged, the normalizer and a build report,
all byte-stable for a fixed config.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import (
    CRC,
    DATASET_FORMAT_VERSION,
    DATASET_MAGIC,
    PREAMBLE,
    source_digest,
    write_json,
    write_tmds,
)
from .config import FEATURE_FLAGS, IndicatorConfig, normalize_feature_set
from .errors import AssemblyError, InvalidArgumentError, JoinError, SchemaError, checked_object
from .indicators import market_feature_matrix
from .inputs import (
    COUNTER_FIELDS,
    MAX_COUNTER,
    TWEET_TABLES,
    OhlcvBar,
    TweetColumnBuilder,
    TweetRecord,
    label_bars,
    tweet_layout,
    tweets_schema_hash,
)
from .social import (
    LexiconSentimentProvider,
    SentimentProvider,
    sentiment_vector,
    social_matrix,
)
from .text import EmbeddingTable, load_stopwords, tokenize_clean

#: Numeric feature blocks in concatenation order, with their widths.
BLOCK_WIDTHS = {"market": 5, "social": 6, "sentiment": 3, "credibility": 4}
NUMERIC_BLOCK_ORDER = FEATURE_FLAGS[:-1]

TRAIN_FRACTION = 0.8

#: The embedding table's file in a dataset directory; the splits' token ids index its rows.
TABLE_NAME = "embedding.bin"

#: Canonical description of the file layout; its digest ships in headers so
#: readers can detect incompatible writers.
SCHEMA_DESCRIPTOR = (
    "tmds format 4: magic 'TMDS'; u32le format_version; u32le header_len; "
    "canonical-json header, space-padded so the columns start 8-byte aligned; "
    "columns end to end; u32le crc32 of every byte before it. "
    "split header {schema_hash, ticker, label_field, flags, numeric_width, "
    "numeric_steps, days, texts, max_len, embedding_dim, vocab_size, count, authors "
    "(sorted, distinct)}: a day table of days rows (the trading days the windows cover, "
    "oldest first), a text table of texts rows (the distinct texts the split uses, by "
    "text id; 0 rows without sentiment and text) and count samples. split columns: own "
    "count*(numeric_width less the market and sentiment blocks) f64le (each sample's "
    "normalized social and credibility blocks), [market days*5 f64le (normalized) when "
    "market flagged], [sentiment texts*3 f64le (normalized) when sentiment flagged], "
    "day_ordinal days i32le strictly increasing, [token_id texts*max_len i32le in "
    "[0, vocab_size] when text flagged, 0 padding after the last token], day_row count "
    "i32le in [numeric_steps-1, days-1], [text_row count i32le in [0, texts-1] when "
    "sentiment or text flagged], author_id count i32le into authors, label days u8. "
    "sample i's day and label are day_ordinal and label at day_row[i]; its numeric step s "
    "is its blocks in the order market, social, sentiment, credibility: market "
    "market[day_row[i]-numeric_steps+1+s], sentiment sentiment[text_row[i]], social and "
    "credibility from own[i]; its token ids token_id[text_row[i]]. "
    "table header {schema_hash, rows, embedding_dim}; table column "
    "rows*embedding_dim f64le, row 0 the zero padding vector"
)


def schema_hash() -> str:
    return hashlib.sha256(SCHEMA_DESCRIPTOR.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Min-max normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizerState:
    """Columnwise min/max captured from the training split only."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise InvalidArgumentError("mins/maxs must be matching 1-D arrays")
        if np.any(self.maxs < self.mins):
            raise InvalidArgumentError("max must be >= min per column")

    @property
    def width(self) -> int:
        return int(self.mins.size)

    @property
    def degenerate(self) -> np.ndarray:
        """Mask of constant columns (min == max)."""
        return self.mins == self.maxs

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "mins": [float(v) for v in self.mins],
            "maxs": [float(v) for v in self.maxs],
            "degenerate": [bool(v) for v in self.degenerate],
        }


def fit_normalizer(rows: np.ndarray) -> NormalizerState:
    """Columnwise extrema of the given rows; constant columns are flagged."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise InvalidArgumentError("need at least one row to fit")
    if not np.all(np.isfinite(rows)):
        raise InvalidArgumentError("rows must be finite")
    return NormalizerState(rows.min(axis=0), rows.max(axis=0))


def apply_normalizer(
    state: NormalizerState, rows: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Rescale (..., width) rows to [0, 1]: out-of-range values clamp, constant columns map to 0.5.

    The result goes to ``out`` when given; passing ``rows`` itself
    normalizes in place.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 0 or rows.shape[-1] != state.width:
        raise InvalidArgumentError(
            f"row width {rows.shape} does not match normalizer width {state.width}"
        )
    degenerate = state.degenerate
    out = np.subtract(rows, state.mins, out=out)
    out /= np.where(degenerate, 1.0, state.maxs - state.mins)
    out[..., degenerate] = 0.5
    return np.clip(out, 0.0, 1.0, out=out)


# ---------------------------------------------------------------------------
# Feature sets and samples
# ---------------------------------------------------------------------------


def numeric_width(fs: frozenset[str]) -> int:
    return sum(BLOCK_WIDTHS[b] for b in NUMERIC_BLOCK_ORDER if b in fs)


#: The numeric blocks a split's tables hold, each under the name of its
#: table column; the other blocks are each sample's own columns.
TABLE_BLOCKS = ("market", "sentiment")


def numeric_layout(fs) -> tuple[tuple[str, int], ...]:
    """The numeric columns of the blocks ``fs`` flags, in order, as (source, width) runs.

    The source is the block's name for the blocks of ``TABLE_BLOCKS``, and
    "own" for those each sample holds itself.
    """
    return tuple(
        (b if b in TABLE_BLOCKS else "own", BLOCK_WIDTHS[b]) for b in NUMERIC_BLOCK_ORDER if b in fs
    )


@dataclass(frozen=True, eq=False)
class Sample:
    """One row of a ``Split`` as its own arrays: ``split[i]`` builds it.

    ``numeric`` is a (width,) vector for the default single-timestep build,
    or a (steps, width) matrix when a market lookback window is configured
    (oldest step first, the tweet's own day last; only the market block
    varies across steps). ``text`` is the (max_len, k) word-vector matrix,
    zero rows past the sentence end. A row view is read, never fed back:
    the model layer takes whole splits, and ``predict`` one row's arrays.
    """

    numeric: np.ndarray
    text: np.ndarray | None
    label: int
    ticker: str
    day: dt.date
    author: str

    @property
    def numeric_steps(self) -> int:
        return 1 if self.numeric.ndim == 1 else int(self.numeric.shape[0])


class Steps:
    """A (T, B, M) sequence that exists one step at a time.

    ``steps[t]`` calls ``fill(t)``, which writes step t's (B, M) rows into
    a buffer and returns it. A fill may reuse one buffer for every step,
    so a step stays valid only until the next one is indexed; ``stacked``
    copies every step out into one array.
    """

    ndim = 3

    def __init__(self, shape: tuple[int, int, int], fill) -> None:
        self.shape, self._fill = shape, fill

    def __getitem__(self, t: int) -> np.ndarray:
        return self._fill(t)

    def stacked(self) -> np.ndarray:
        """Every step in one batch-major (B, T, M) float64 array, oldest step first."""
        steps, n, width = self.shape
        out = np.empty((n, steps, width))
        for t in range(steps):
            out[:, t] = self[t]
        return out


@dataclass(eq=False)
class Split:
    """One split of a dataset, as three tables and row ids into them.

    A split is the one in-memory form of a dataset: ``train``,
    ``forward_split`` and ``samples_to_arrays`` take it, and its inputs
    reach the model as step sources (``numeric_steps``, ``text_steps``).
    ``split[i]`` is a ``Sample`` view of row i.

    - the day table, one row per trading day the split's windows cover,
      oldest first: ``day_ordinals`` (D,) int32, strictly increasing,
      ``day_labels`` (D,) 0/1, and with the market block ``market`` (D, 5)
      float64, each day's normalized market row (else None);
    - the text table, with the sentiment block or text: one row per
      distinct text the split uses, in text id order. ``sentiment`` (X, 3)
      float64 is the normalized sentiment block (None without it), and
      ``tokens`` (X, max_len) int32 rows of ``table``, a text's words first
      and id 0 padding after them (None without text);
    - per sample: ``own`` (N, width) float64, the normalized blocks no
      table holds (social and credibility); ``day_rows`` (N,) int32, the
      day row of the sample's own day, at least ``steps - 1``; ``text_rows``
      (N,) int32 with a text table, else None; ``author_ids`` (N,) indices
      into ``authors``, sorted and distinct;
    - ``layout``: the numeric columns in order as (source, width) runs;
      "market" and "sentiment" take theirs from the day and text tables,
      "own" from the sample's next own columns (see ``numeric_layout``);
    - ``steps``: numeric steps per sample, the market lookback + 1. Step s
      of sample i (oldest first) takes its market columns from day row
      ``day_rows[i] - steps + 1 + s`` and repeats its other columns, as
      ``numeric_steps`` fills it;
    - ``table``: with text, the (vocab+1, k) float64 word vectors, row 0
      zero, which both splits of a dataset share; else None.

    ``labels`` and ``days`` gather the day table per sample.
    """

    ticker: str
    own: np.ndarray
    day_rows: np.ndarray
    day_ordinals: np.ndarray
    day_labels: np.ndarray
    authors: list[str]
    author_ids: np.ndarray
    layout: tuple[tuple[str, int], ...]
    market: np.ndarray | None = None
    text_rows: np.ndarray | None = None
    sentiment: np.ndarray | None = None
    tokens: np.ndarray | None = None
    steps: int = 1
    table: np.ndarray | None = None

    def __len__(self) -> int:
        return self.day_rows.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> Sample:
        day = self.day_rows[i]
        numeric = self.numeric_steps([i]).stacked()[0]
        return Sample(
            numeric=numeric[0] if self.steps == 1 else numeric,
            text=None if self.tokens is None else self.text_steps([i]).stacked()[0],
            label=int(self.day_labels[day]),
            ticker=self.ticker,
            day=dt.date.fromordinal(int(self.day_ordinals[day])),
            author=self.authors[self.author_ids[i]],
        )

    @property
    def labels(self) -> np.ndarray:
        """(N,) each sample's label, its day's."""
        return self.day_labels[self.day_rows]

    @property
    def days(self) -> np.ndarray:
        """(N,) each sample's day ordinal."""
        return self.day_ordinals[self.day_rows]

    @property
    def width(self) -> int:
        """Numeric columns per step, every block included."""
        return sum(width for _, width in self.layout)

    def numeric_steps(self, rows, out: np.ndarray | None = None) -> Steps:
        """The numeric inputs of ``rows`` (a slice or indices) as (steps, n, width) ``Steps``.

        Every step is assembled in ``out``, a C-contiguous (n, width)
        float64 buffer when given, from the tables in ``layout`` order. The
        columns that repeat over the window, the sentiment from the
        sample's text row and the own columns from the sample's, are filled
        once; step s then writes the market columns of the window's day
        rows ``day_rows - steps + 1 + s``.
        """
        day_rows = self.day_rows[rows]
        own = self.own[rows]
        n = day_rows.shape[0]
        out = np.empty((n, self.width)) if out is None else out
        market = None
        col = own_col = 0
        for source, width in self.layout:
            cols = slice(col, col + width)
            if source == "market":
                market = cols
            elif source == "sentiment":
                out[:, cols] = self.sentiment[self.text_rows[rows]]
            else:
                out[:, cols] = own[:, own_col : own_col + width]
                own_col += width
            col += width
        first = day_rows - (self.steps - 1)

        def fill(step: int) -> np.ndarray:
            if market is not None:
                out[:, market] = self.market[first + step]
            return out

        return Steps((self.steps, n, self.width), fill)

    def text_steps(self, rows, out: np.ndarray | None = None) -> Steps:
        """The word vectors of ``rows`` as (max_len, n, k) ``Steps``, through their text rows.

        Step t gathers each row's t-th word vector into ``out``, a
        C-contiguous (n, k) float64 buffer when given.
        """
        ids = self.tokens[self.text_rows[rows]]
        n, max_len = ids.shape
        out = np.empty((n, self.table.shape[1])) if out is None else out

        def fill(step: int) -> np.ndarray:
            # mode="raise" would gather into a temporary first; the token ids
            # are ones the dataset reader bounds-checked
            return np.take(self.table, ids[:, step], axis=0, out=out, mode="clip")

        return Steps((max_len, n, self.table.shape[1]), fill)


@dataclass(eq=False)
class TweetColumns:
    """Tweets as columns, as the tweet file holds them.

    - ``timestamps``: (N,) int64 UTC microseconds since 1970-01-01;
    - ``counters``: (N, 5) int64, in ``inputs.COUNTER_FIELDS`` order;
    - ``ticker_ids``, ``author_ids``, ``text_ids``: (N,) int32 indices into
      ``tickers``, ``authors`` and ``texts``, each sorted and distinct.
    """

    timestamps: np.ndarray
    counters: np.ndarray
    ticker_ids: np.ndarray
    author_ids: np.ndarray
    text_ids: np.ndarray
    tickers: list[str]
    authors: list[str]
    texts: list[str]

    def __len__(self) -> int:
        return self.timestamps.shape[0]

    @classmethod
    def from_records(cls, records: Sequence[TweetRecord]) -> "TweetColumns":
        """The columns of parsed tweets, laid out as ingest writes them."""
        builder = TweetColumnBuilder()
        for t in records:
            counters = tuple(getattr(t, name) for name in COUNTER_FIELDS)
            if None in counters:
                raise AssemblyError(f"block 'social' has missing values: a counter of tweet {t.id}")
            builder.append((t.id, t.username, t.timestamp, t.text, t.ticker, counters, t.hashtags))
        tables, data = builder.finish()
        layout = tweet_layout({"count": builder.count})
        arrays = [np.frombuffer(col, dtype).reshape(shape) for col, (_, dtype, shape) in zip(data, layout)]
        return cls(*arrays, **tables)


# ---------------------------------------------------------------------------
# Dataset build
# ---------------------------------------------------------------------------


@dataclass
class BuildConfig:
    ticker: str
    feature_set: frozenset[str]
    label_field: str = "close"
    indicators: IndicatorConfig = field(default_factory=IndicatorConfig)
    sentiment_provider: SentimentProvider | None = None
    embedding: EmbeddingTable | None = None
    stopwords: frozenset[str] | None = None
    max_len_override: int | None = None
    #: > 0 turns each sample's numeric data into a (lookback+1, width)
    #: sequence whose market block walks the preceding trading days.
    market_lookback: int = 0

    def __post_init__(self) -> None:
        self.feature_set = normalize_feature_set(self.feature_set)
        if "text" in self.feature_set and self.embedding is None:
            raise InvalidArgumentError("text feature demands an embedding table")
        if self.market_lookback < 0:
            raise InvalidArgumentError("market_lookback must be >= 0")
        if self.market_lookback > 0 and "market" not in self.feature_set:
            raise InvalidArgumentError("market_lookback demands the market block")


@dataclass
class BuildResult:
    train: Split
    test: Split
    normalizer: NormalizerState
    max_len: int
    report: dict


#: Microseconds per day, and the ordinal of the day tweet timestamps count from.
_US_PER_DAY = 86_400_000_000
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()


def _token_ids(
    texts: list[str], text_id: np.ndarray, n_train: int, stopwords, cfg: BuildConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """The (X, max_len) token ids of the distinct texts, the table they index, and max_len.

    Each distinct text is tokenized once; ``text_id`` maps each sample to
    its entry of ``texts``. max_len is the longest training sentence unless
    overridden, and longer sentences are cut to it. The vocabulary is the
    sorted set of words the cut sentences use; word i of it has id i + 1
    and table row i + 1, and id 0 pads a sentence at its end.
    """
    tokens = [tokenize_clean(text, stopwords) for text in texts]
    max_len = cfg.max_len_override
    if max_len is None:
        lengths = np.array([len(t) for t in tokens], dtype=np.int64)
        max_len = int(lengths[text_id[:n_train]].max(initial=0)) or 1
    if max_len < 1:
        raise InvalidArgumentError("max_len must be >= 1")
    tokens = [t[:max_len] for t in tokens]
    vocab = sorted({word for t in tokens for word in t})
    index = {word: i for i, word in enumerate(vocab, start=1)}
    rows = np.zeros((len(tokens), max_len), dtype=np.int32)
    for row, words in zip(rows, tokens):
        row[: len(words)] = [index[word] for word in words]
    table = np.zeros((len(vocab) + 1, cfg.embedding.dim))
    for i, word in enumerate(vocab, start=1):
        cfg.embedding.lookup(word, out=table[i])
    return rows, table, max_len


def _used(ids: np.ndarray, size: int) -> np.ndarray:
    """The mask of the rows of a ``size``-row table that ``ids`` index."""
    mask = np.zeros(size, dtype=bool)
    mask[ids] = True
    return mask


#: Training rows per chunk of the leakage audit's hash.
_HASH_ROWS = 512


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """For each position of ``keys``, the index where its run of equal keys starts."""
    n = keys.shape[0]
    starts = np.ones(n, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return np.maximum.accumulate(np.where(starts, np.arange(n), 0))


def _author_history(
    author_id: np.ndarray, stamps: np.ndarray, hit: np.ndarray, credibility: np.ndarray | None
) -> np.ndarray:
    """Each sample's running author count, samples in time order; fills ``credibility``.

    The count includes the sample itself. ``credibility``, an (n, 4)
    float64 array or None for no credibility, receives each sample's
    vector [hits, misses, recommendation, representativeness]. It folds in
    only the author's samples with strictly earlier timestamps, so two
    samples of one author sharing a timestamp never see each other's
    score: the hit and miss counts are the exclusive cumulative counts at
    the first sample of the sample's (author, timestamp) run.
    """
    n = author_id.shape[0]
    by_author = np.argsort(author_id, kind="stable")  # each author's samples stay in time order
    first = _run_starts(author_id[by_author])
    # a run of equal timestamps within one author's samples
    run = np.maximum(first, _run_starts(stamps[by_author]))
    counts = np.empty(n, dtype=np.int64)
    counts[by_author] = np.arange(n) - first + 1
    if credibility is None:
        return counts
    hits_before = np.cumsum(hit[by_author], dtype=np.int64)
    hits_before -= hit[by_author]
    hits = hits_before[run] - hits_before[first]
    total = run - first
    rating = np.divide(hits, total, out=np.zeros(n), where=total > 0)
    distinct, inverse = np.unique(hits, return_inverse=True)
    # math.log10 per distinct count, as the per-author recommendation_score takes it
    recommendation = np.array([0.0 if h == 0 else 1.0 + math.log10(h) for h in distinct.tolist()])
    for col, values in enumerate(
        (hits, total - hits, recommendation[inverse], (rating + hits) / 2.0)
    ):
        credibility[by_author, col] = values
    return counts


def build_dataset(
    tweets: TweetColumns | Sequence[TweetRecord], bars: list[OhlcvBar], cfg: BuildConfig
) -> BuildResult:
    """Join tweets to market days, replay author histories, split, normalize.

    Tweets are processed in timestamp order (ties keep input order). Each
    joins to the most recent trading day at or before its UTC calendar day
    and takes that day's next-day label. Credibility sees only strictly
    earlier tweets. The 80/20 split is chronological by sample index; the
    normalizer and the text max-length come from the training split alone.
    The normalizer is fitted on the raw training rows, each with its own
    day's market block: per block, on the table rows or own columns those
    rows use. The leakage audit hashes the same rows, a chunk of at most
    ``_HASH_ROWS`` at a time, so no (N, width) matrix is built. Each split
    then stores each column once at its grain (see ``Split``): a day table
    of the trading days its lookback windows cover, with their labels and
    normalized market rows; a text table of the distinct texts it uses,
    with their normalized sentiment and token ids; and per sample its
    social and credibility blocks and its day and text rows. A list of
    records is first laid out as columns.
    """
    if not isinstance(tweets, TweetColumns):
        tweets = TweetColumns.from_records(tweets)
    fs = cfg.feature_set
    if len(bars) < 2:
        raise InvalidArgumentError("need at least 2 bars")

    labels_by_day = np.array([lb.label for lb in label_bars(bars, cfg.label_field)], dtype=np.uint8)
    bar_dates = [b.date for b in bars]
    bar_ordinals = np.array([d.toordinal() for d in bar_dates], dtype=np.int64)

    market_rows = None
    first_defined = 0
    if "market" in fs:
        market_rows, first_defined = market_feature_matrix(bars, cfg.indicators)

    provider = cfg.sentiment_provider or LexiconSentimentProvider.shipped()
    stopwords = cfg.stopwords if cfg.stopwords is not None else (
        load_stopwords() if "text" in fs else frozenset()
    )

    ticker = tweets.tickers.index(cfg.ticker) if cfg.ticker in tweets.tickers else -1
    rows = np.flatnonzero(tweets.ticker_ids == ticker)
    rows = rows[np.argsort(tweets.timestamps[rows], kind="stable")]
    ticker_mismatch = len(tweets) - rows.size

    stamps = tweets.timestamps[rows]
    day = np.searchsorted(bar_ordinals, stamps // _US_PER_DAY + _EPOCH_ORDINAL, side="right") - 1
    before = day < 0
    # joined to the final bar, whose next-day label does not exist yet
    unlabeled = day >= labels_by_day.size
    # every lookback step must be past the indicator warmup
    warmup = (day - cfg.market_lookback < first_defined) & ~before & ~unlabeled
    drops = {
        "before_first_trading_day": int(before.sum()),
        "no_label_for_day": int(unlabeled.sum()),
        "indicator_warmup": int(warmup.sum()),
    }
    kept = ~(before | unlabeled | warmup)
    rows, stamps, day_idx = rows[kept], stamps[kept], day[kept]
    if rows.size == 0:
        raise JoinError(
            f"no usable samples: tweets and bars for {cfg.ticker!r} share no labeled dates"
        )

    n = rows.size
    n_train = int(n * TRAIN_FRACTION)
    labels = labels_by_day[day_idx]
    author_id = tweets.author_ids[rows]

    # the distinct texts of the samples, each scored and tokenized once
    distinct, text_id = np.unique(tweets.text_ids[rows], return_inverse=True)
    texts = [tweets.texts[i] for i in distinct.tolist()]
    sentiments = [sentiment_vector(text, provider) for text in texts]
    sentiment_rows = np.array([s.as_array() for s in sentiments])

    tokens = table = None
    max_len = 0
    if "text" in fs:
        tokens, table, max_len = _token_ids(texts, text_id, n_train, stopwords, cfg)

    # the raw blocks each at its grain: market per trading day, sentiment per
    # distinct text, and social and credibility in each sample's own columns
    layout = numeric_layout(fs)
    width = numeric_width(fs)
    own_cols, col = {}, 0
    for name in NUMERIC_BLOCK_ORDER:
        if name in fs and name not in TABLE_BLOCKS:
            own_cols[name] = slice(col, col + BLOCK_WIDTHS[name])
            col += BLOCK_WIDTHS[name]
    own = np.empty((n, col))
    # a sentiment call hits when its direction class (negative 0, else 1) is the label
    said_up = np.array([s.label != -1 for s in sentiments])[text_id]
    author_count = _author_history(
        author_id, stamps, said_up == (labels == 1),
        own[:, own_cols["credibility"]] if "credibility" in fs else None,
    )
    if "social" in fs:
        social_matrix(tweets.counters[rows], author_count, out=own[:, own_cols["social"]])

    def block_rows(name: str, part: slice) -> np.ndarray:
        """The raw rows of block ``name`` that the samples ``part`` use."""
        if name == "market":
            return market_rows[_used(day_idx[part], len(bars))]
        if name == "sentiment":
            return sentiment_rows[_used(text_id[part], len(texts))]
        return own[part, own_cols[name]]

    for name in NUMERIC_BLOCK_ORDER:
        if name in fs and not np.all(np.isfinite(block_rows(name, slice(None)))):
            raise AssemblyError(f"block '{name}' has missing or non-finite values")

    if width > 0:
        if n_train == 0:
            raise InvalidArgumentError("train split is empty; need more samples")
        # fitted per block on the rows the training samples use, which have
        # the extrema of the training samples' whole rows
        fits = [
            fit_normalizer(block_rows(name, slice(0, n_train)))
            for name in NUMERIC_BLOCK_ORDER if name in fs
        ]
        normalizer = NormalizerState(
            np.concatenate([f.mins for f in fits]), np.concatenate([f.maxs for f in fits])
        )
    else:
        normalizer = NormalizerState(np.zeros(0), np.zeros(0))
    # the leakage audit hashes the raw training rows, each with its own day's
    # market block, assembled a chunk at a time into one buffer
    raw = Split(
        cfg.ticker, own, day_idx, bar_ordinals, labels_by_day, [], author_id, layout,
        market=market_rows, text_rows=text_id, sentiment=sentiment_rows,
    )
    train_hash = hashlib.sha256(struct.pack("<I", n_train))
    buffer = np.empty((min(n_train, _HASH_ROWS), width))
    for start in range(0, n_train, _HASH_ROWS):
        stop = min(start + _HASH_ROWS, n_train)
        step = raw.numeric_steps(slice(start, stop), buffer[: stop - start])[0]
        train_hash.update(step.astype("<f8", copy=False))

    # each table is normalized with the stats of its columns: normalization
    # is elementwise, so the inputs assembled from the tables are what
    # normalizing whole rows would give
    source = np.repeat(np.array([name for name, _ in layout], dtype=str), [w for _, w in layout])

    def normalized(name: str, values: np.ndarray) -> np.ndarray:
        cols = source == name
        return apply_normalizer(
            NormalizerState(normalizer.mins[cols], normalizer.maxs[cols]), values, out=values
        )

    normalized("own", own)
    sentiment = normalized("sentiment", sentiment_rows) if "sentiment" in fs else None
    lookback = cfg.market_lookback

    def split(part: slice) -> Split:
        present, ids = np.unique(author_id[part], return_inverse=True)
        # the trading days of the split's windows: a day is covered when it
        # or one of the next L days has a sample. Earlier steps are
        # normalized with the stats fitted on current-day rows and may clamp
        sampled = _used(day_idx[part], len(bars))
        covered = sampled.copy()
        for back in range(1, lookback + 1):
            covered[:-back] |= sampled[back:]
        covered = np.flatnonzero(covered)
        text_rows = used = None
        if _has_text_table(fs):
            used, text_rows = np.unique(text_id[part], return_inverse=True)
            text_rows = text_rows.astype(np.int32)
        return Split(
            ticker=cfg.ticker,
            own=own[part],
            day_rows=np.searchsorted(covered, day_idx[part]).astype(np.int32),
            day_ordinals=bar_ordinals[covered].astype(np.int32),
            day_labels=labels_by_day[covered],
            authors=[tweets.authors[i] for i in present.tolist()],
            author_ids=ids.astype(np.int32),
            layout=layout,
            market=normalized("market", market_rows[covered]) if "market" in fs else None,
            text_rows=text_rows,
            sentiment=None if sentiment is None else sentiment[used],
            tokens=None if tokens is None else tokens[used],
            steps=lookback + 1,
            table=table,
        )

    train, test = split(slice(0, n_train)), split(slice(n_train, n))

    report = {
        "schema_version": 1,
        "ticker": cfg.ticker,
        "label_field": cfg.label_field,
        "feature_flags": sorted(fs),
        "numeric_width": width,
        "numeric_steps": cfg.market_lookback + 1,
        "max_len": max_len,
        "embedding_dim": cfg.embedding.dim if cfg.embedding else 0,
        "tweets_in": len(tweets),
        "ticker_mismatch": ticker_mismatch,
        "samples": n,
        "train_samples": n_train,
        "test_samples": n - n_train,
        "dropped": drops,
        "first_sample_day": bar_dates[day_idx[0]].isoformat(),
        "last_sample_day": bar_dates[day_idx[-1]].isoformat(),
        "leakage_audit_hash": train_hash.hexdigest(),
    }
    return BuildResult(train, test, normalizer, max_len, report)


# ---------------------------------------------------------------------------
# Binary dataset artifact
# ---------------------------------------------------------------------------

_MAX_ORDINAL = dt.date.max.toordinal()
#: The tweet timestamps a datetime can hold, in UTC microseconds since 1970-01-01.
_MIN_US = (1 - _EPOCH_ORDINAL) * _US_PER_DAY
_MAX_US = (_MAX_ORDINAL + 1 - _EPOCH_ORDINAL) * _US_PER_DAY - 1

#: The JSON type of each key of a header; all of them are required.
_SPLIT_TYPES = {
    "schema_hash": (str,), "ticker": (str,), "label_field": (str,), "flags": (list,),
    "authors": (list,),
    **dict.fromkeys(
        ("numeric_width", "numeric_steps", "days", "texts", "max_len", "embedding_dim",
         "vocab_size", "count"),
        (int,),
    ),
}
_TABLE_TYPES = {"schema_hash": (str,), "rows": (int,), "embedding_dim": (int,)}
_TWEETS_TYPES = {
    "schema_hash": (str,), "source_sha256": (str,), "source_bytes": (int,), "count": (int,),
    **dict.fromkeys(TWEET_TABLES, (list,)),
}
#: Header facts the train and test files of one dataset share.
_SHARED_KEYS = ("flags", "numeric_width", "numeric_steps", "max_len", "embedding_dim", "vocab_size")
#: The columns a split file holds only for some flags.
_FLAGGED_COLUMNS = ("market", "sentiment", "token_id", "text_row")


def _has_text_table(flags) -> bool:
    return "sentiment" in flags or "text" in flags


def _split_layout(header: dict) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, dtype, shape) of each column of a split file, in file order.

    The f64 columns come first and the u8 one last, so that every column
    starts aligned.
    """
    count, days, texts, flags = header["count"], header["days"], header["texts"], header["flags"]
    table_width = sum(BLOCK_WIDTHS[b] for b in TABLE_BLOCKS if b in flags)
    layout = [("own", "<f8", (count, header["numeric_width"] - table_width))]
    if "market" in flags:
        layout.append(("market", "<f8", (days, BLOCK_WIDTHS["market"])))
    if "sentiment" in flags:
        layout.append(("sentiment", "<f8", (texts, BLOCK_WIDTHS["sentiment"])))
    layout.append(("day_ordinal", "<i4", (days,)))
    if "text" in flags:
        layout.append(("token_id", "<i4", (texts, header["max_len"])))
    layout.append(("day_row", "<i4", (count,)))
    if _has_text_table(flags):
        layout.append(("text_row", "<i4", (count,)))
    layout += [("author_id", "<i4", (count,)), ("label", "u1", (days,))]
    return layout


def _split_columns(split: Split) -> dict[str, np.ndarray | None]:
    """A split's arrays by the name of their file column."""
    return {
        "own": split.own, "market": split.market, "sentiment": split.sentiment,
        "day_ordinal": split.day_ordinals, "token_id": split.tokens, "day_row": split.day_rows,
        "text_row": split.text_rows, "author_id": split.author_ids, "label": split.day_labels,
    }


def _table_layout(header: dict) -> list[tuple[str, str, tuple[int, ...]]]:
    return [("table", "<f8", (header["rows"], header["embedding_dim"]))]


def _write_file(path: Path | str, header: dict, layout, arrays) -> None:
    """Write a TMDS file with one column per array of ``layout``.

    An array whose shape differs from its column's raises
    ``InvalidArgumentError`` and leaves the previous file at ``path``.
    """

    def columns():
        for (name, dtype, shape), arr in zip(layout, arrays, strict=True):
            if arr.shape != shape:
                raise InvalidArgumentError(f"{name} shape {arr.shape} != {shape}")
            yield np.ascontiguousarray(arr, dtype=dtype)  # no copy when it already is

    write_tmds(path, header, columns())


def write_split(path: Path | str, split: Split, fs: frozenset[str], label_field: str) -> None:
    """Write one split as a TMDS file; with text, its token ids index ``split.table``."""
    has_text = "text" in fs
    if has_text and split.table is None:
        raise InvalidArgumentError("text is flagged but the split has no embedding table")
    columns = _split_columns(split)
    text_table = split.sentiment if split.sentiment is not None else split.tokens
    header = {
        "schema_hash": schema_hash(),
        "ticker": split.ticker,
        "label_field": label_field,
        "flags": sorted(fs),
        "numeric_width": numeric_width(fs),
        "numeric_steps": split.steps,
        "days": split.day_ordinals.shape[0],
        "texts": 0 if text_table is None else text_table.shape[0],
        "max_len": split.tokens.shape[1] if has_text else 0,
        "embedding_dim": split.table.shape[1] if has_text else 0,
        "vocab_size": split.table.shape[0] - 1 if has_text else 0,
        "count": len(split),
        "authors": split.authors,
    }
    layout = _split_layout(header)
    names = {name for name, _, _ in layout}
    if split.layout != numeric_layout(fs) or any(
        (columns[k] is None) == (k in names) for k in _FLAGGED_COLUMNS
    ):
        raise InvalidArgumentError("the split's tables do not match the feature flags")
    _write_file(path, header, layout, [columns[name] for name, _, _ in layout])


def write_table(path: Path | str, table: np.ndarray) -> None:
    """Write a (rows, k) embedding table as a TMDS file."""
    header = {"schema_hash": schema_hash(), "rows": table.shape[0], "embedding_dim": table.shape[1]}
    _write_file(path, header, _table_layout(header), [table])


def _open(path: Path | str):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot be read: {exc.strerror}") from exc


def _read_header(
    path: Path | str, fh, size: int, types: dict, digest: str, stage: str
) -> tuple[dict, int]:
    """Check the preamble and parse the header; returns it and the offset of the first column.

    ``digest`` is the schema hash the header must carry, and ``stage`` the
    subcommand that writes the file, which a version mismatch says to rerun.
    """
    preamble = fh.read(PREAMBLE.size)
    if len(preamble) < PREAMBLE.size:
        raise SchemaError(f"{path}: {size}-byte file is shorter than the preamble")
    magic, version, header_len = PREAMBLE.unpack(preamble)
    if magic != DATASET_MAGIC:
        raise SchemaError(f"{path}: bad magic")
    if version != DATASET_FORMAT_VERSION:
        raise SchemaError(
            f"{path}: format version {version}, but this reader reads only version "
            f"{DATASET_FORMAT_VERSION}; rerun the {stage} subcommand to rewrite it"
        )
    offset = PREAMBLE.size + header_len
    if offset > size:
        raise SchemaError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = json.loads(fh.read(header_len))
    except ValueError as exc:
        raise SchemaError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema_hash") != digest:
        raise SchemaError(f"{path}: schema hash mismatch")
    checked_object(header, types, f"{path}: header", required=types)
    for key, value in header.items():
        if (type(value) is int and value < 0) or (
            type(value) is list and not all(type(v) is str for v in value)
        ):
            raise SchemaError(f"{path}: malformed header: {key} {value!r}")
    return header, offset


def _read_file(
    path: Path | str, types: dict, layout_of, digest: str | None = None, stage: str = "features"
) -> tuple[dict, dict[str, np.ndarray]]:
    """A whole TMDS file: its checked header and its columns by name, as ``layout_of(header)`` lays them out.

    The header must carry the schema hash ``digest``, the dataset files'
    by default; ``stage`` is as for ``_read_header``. The file must be
    exactly as long as the layout says and match its checksum. The columns
    are views of one buffer the file is read into.
    """
    with _open(path) as fh:
        size = os.fstat(fh.fileno()).st_size
        header, offset = _read_header(path, fh, size, types, digest or schema_hash(), stage)
        layout = layout_of(header)
        if any(d < 0 for _, _, shape in layout for d in shape):
            raise SchemaError(f"{path}: malformed header: it describes a column of negative size")
        lengths = [np.dtype(dtype).itemsize * math.prod(shape) for _, dtype, shape in layout]
        expected = offset + sum(lengths) + CRC.size
        if size != expected:
            raise SchemaError(f"{path}: {size} bytes, but its header describes {expected}")
        blob = np.empty(size, dtype=np.uint8)
        fh.seek(0)
        if fh.readinto(blob) != size:
            raise SchemaError(f"{path}: the file changed while it was read")
    (crc,) = CRC.unpack(blob[-CRC.size :].tobytes())
    if zlib.crc32(blob[: -CRC.size]) != crc:
        raise SchemaError(f"{path}: checksum mismatch; the file is corrupt")
    columns = {}
    for (name, dtype, shape), length in zip(layout, lengths):
        columns[name] = np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape)
        offset += length
    return header, columns


def _check_range(path: Path | str, name: str, values: np.ndarray, low: int, high: int) -> None:
    if values.size and (values.min() < low or values.max() > high):
        raise SchemaError(f"{path}: a {name} lies outside [{low}, {high}]")


def read_header(path: Path | str) -> dict:
    """The header of a split file, reading no columns."""
    with _open(path) as fh:
        size = os.fstat(fh.fileno()).st_size
        return _read_header(path, fh, size, _SPLIT_TYPES, schema_hash(), "features")[0]


def _sorted_distinct(values: list[str]) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def read_tweets(path: Path | str, source: Path | str) -> TweetColumns:
    """The tweet file ingest wrote, every id and value checked.

    ``source`` is the JSON-lines file the tweets were parsed from: when its
    size or SHA-256 differs from what the tweet file records, the tweets
    are stale and ``SchemaError`` says to rerun ingest.
    """
    header, columns = _read_file(path, _TWEETS_TYPES, tweet_layout, tweets_schema_hash(), "ingest")
    timestamps, counters, *ids = columns.values()
    tables = {name: header[name] for name in TWEET_TABLES}
    for (name, column), values in zip(TWEET_TABLES.items(), ids):
        if not _sorted_distinct(tables[name]):
            raise SchemaError(f"{path}: the {name} table is not sorted and distinct")
        _check_range(path, column, values, 0, len(tables[name]) - 1)
    _check_range(path, "timestamp", timestamps, _MIN_US, _MAX_US)
    _check_range(path, "counter", counters, 0, MAX_COUNTER)
    try:
        digest = source_digest(source)
    except OSError as exc:
        raise SchemaError(f"{source}: cannot be read: {exc.strerror}") from exc
    if any(header[key] != value for key, value in digest.items()):
        raise SchemaError(
            f"{path}: {source} has changed since ingest parsed it; rerun the ingest subcommand"
        )
    return TweetColumns(timestamps, counters, *ids, **tables)


def read_split(path: Path | str) -> tuple[Split, dict]:
    """A split file's tables and header, every row id checked against what it indexes.

    With text the split's ``table`` is still None; ``load_dataset`` reads
    the dataset's table and gives it to both splits.
    """
    header, columns = _read_file(path, _SPLIT_TYPES, _split_layout)
    authors, steps, flags = header["authors"], header["numeric_steps"], header["flags"]
    if not _sorted_distinct(authors):
        raise SchemaError(f"{path}: the author table is not sorted and distinct")
    if header["numeric_width"] != numeric_width(frozenset(flags)):
        raise SchemaError(f"{path}: numeric_width {header['numeric_width']} does not fit the flags")
    if steps < 1 or ("text" in flags and header["max_len"] < 1):
        raise SchemaError(f"{path}: numeric_steps and, with text, max_len must be >= 1")
    if steps > 1 and "market" not in flags:
        raise SchemaError(f"{path}: numeric_steps > 1 needs the market block")
    if header["texts"] > 0 and not _has_text_table(flags):
        raise SchemaError(f"{path}: texts > 0 needs the sentiment block or text")
    numeric = [columns.get(name) for name in ("own", "market", "sentiment")]
    if not all(np.all(np.isfinite(a)) for a in numeric if a is not None):
        raise SchemaError(f"{path}: a numeric column has non-finite values")
    ordinals = columns["day_ordinal"]
    _check_range(path, "day ordinal", ordinals, 1, _MAX_ORDINAL)
    if np.any(ordinals[1:] <= ordinals[:-1]):
        raise SchemaError(f"{path}: the day ordinals are not strictly increasing")
    _check_range(path, "label", columns["label"], 0, 1)
    _check_range(path, "day row", columns["day_row"], steps - 1, header["days"] - 1)
    _check_range(path, "author id", columns["author_id"], 0, len(authors) - 1)
    if "text_row" in columns:
        _check_range(path, "text row", columns["text_row"], 0, header["texts"] - 1)
    if "token_id" in columns:
        _check_range(path, "token id", columns["token_id"], 0, header["vocab_size"])
    split = Split(
        ticker=header["ticker"],
        own=columns["own"],
        day_rows=columns["day_row"],
        day_ordinals=ordinals,
        day_labels=columns["label"],
        authors=authors,
        author_ids=columns["author_id"],
        layout=numeric_layout(flags),
        market=columns.get("market"),
        text_rows=columns.get("text_row"),
        sentiment=columns.get("sentiment"),
        tokens=columns.get("token_id"),
        steps=steps,
    )
    return split, header


def read_table(path: Path | str) -> np.ndarray:
    """A dataset's (vocab+1, k) embedding table; row 0 must be the zero padding vector."""
    table = _read_file(path, _TABLE_TYPES, _table_layout)[1]["table"]
    if table.shape[0] < 1 or np.any(table[0] != 0.0) or not np.all(np.isfinite(table)):
        raise SchemaError(f"{path}: the table needs a zero row 0 and finite values")
    return table


def save_dataset(dirpath: Path | str, result: BuildResult, cfg: BuildConfig) -> None:
    """Write train.bin, test.bin, the embedding table with text, normalizer.json, build_report.json."""
    out = Path(dirpath)
    out.mkdir(parents=True, exist_ok=True)
    write_split(out / "train.bin", result.train, cfg.feature_set, cfg.label_field)
    write_split(out / "test.bin", result.test, cfg.feature_set, cfg.label_field)
    if "text" in cfg.feature_set:
        write_table(out / TABLE_NAME, result.train.table)
    else:
        # a table left by an earlier text build of this directory
        (out / TABLE_NAME).unlink(missing_ok=True)
    write_json(out / "normalizer.json", result.normalizer.to_json_dict())
    write_json(out / "build_report.json", result.report)


@dataclass
class LoadedDataset:
    train: Split
    test: Split
    header: dict


def load_dataset(dirpath: Path | str) -> LoadedDataset:
    """Both splits and the train header; ``normalizer.json`` and ``build_report.json`` are not read."""
    out = Path(dirpath)
    train, header = read_split(out / "train.bin")
    test, test_header = read_split(out / "test.bin")
    _attach_table(out, header, test_header, train, test)
    return LoadedDataset(train, test, header)


def load_test_split(dirpath: Path | str) -> tuple[Split, dict]:
    """The test split and its header; of train.bin only the header is read."""
    out = Path(dirpath)
    test, header = read_split(out / "test.bin")
    _attach_table(out, read_header(out / "train.bin"), header, test)
    return test, header


def _attach_table(out: Path, train_header: dict, test_header: dict, *splits: Split) -> None:
    """Check that the two headers agree, then give ``splits`` the table their ids index."""
    if any(train_header[k] != test_header[k] for k in _SHARED_KEYS):
        raise SchemaError(f"{out}: train/test headers disagree")
    if "text" not in train_header["flags"]:
        return
    table = read_table(out / TABLE_NAME)
    expected = (train_header["vocab_size"] + 1, train_header["embedding_dim"])
    if table.shape != expected:
        raise SchemaError(
            f"{out / TABLE_NAME}: a {table.shape} table, but the splits index a {expected} one"
        )
    for split in splits:
        split.table = table
