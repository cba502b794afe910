"""Sample assembly: normalization, feature fusion, dataset builds.

A sample is one tweet joined to its trading day's market features and the
next trading day's up/down label, with the numeric feature blocks min-max
normalized against the training split only. The build is columnar: one
chronological pass joins tweets to days and collects per-sample columns
(day index, running author count, sentiment scored once per distinct text,
credibility replayed from strictly-earlier tweets). Then the raw (N, width)
matrix is filled block by block, widened to (N, steps, width) under a
market lookback, and normalized once in place; each sample's numeric data
is a row view into it. The 80/20 split keeps sample order.

Artifacts are written to a directory as two binary sample files plus the
normalizer and a build report, all byte-stable for a fixed config.
"""

from __future__ import annotations

import bisect
import datetime as dt
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import atomic_write, canonical_json, write_json
from .config import FEATURE_FLAGS, IndicatorConfig, normalize_feature_set
from .errors import AssemblyError, InvalidArgumentError, JoinError, SchemaError
from .indicators import market_feature_matrix
from .inputs import OhlcvBar, TweetRecord, label_bars
from .social import (
    LexiconSentimentProvider,
    SentimentProvider,
    SentimentVector,
    UserHistoryStore,
    sentiment_vector,
    social_matrix,
    tweet_score,
)
from .text import EmbeddingTable, embed_sequence, load_stopwords, tokenize_clean

#: Numeric feature blocks in concatenation order, with their widths.
BLOCK_WIDTHS = {"market": 5, "social": 6, "sentiment": 3, "credibility": 4}
NUMERIC_BLOCK_ORDER = FEATURE_FLAGS[:-1]

TRAIN_FRACTION = 0.8

DATASET_MAGIC = b"TMDS"
DATASET_FORMAT_VERSION = 1

#: Canonical description of the record layout; its digest ships in headers so
#: readers can detect incompatible writers.
SCHEMA_DESCRIPTOR = (
    "tmds-v2: magic 'TMDS'; u32le format_version; u32le header_len; "
    "canonical-json header {schema_hash, ticker, label_field, flags, "
    "numeric_width, numeric_steps, max_len, embedding_dim, count}; records = "
    "u8 label, u32le day_ordinal, u16le author_len, author_utf8, "
    "numeric_steps*numeric_width f64le (row-major, oldest step first), "
    "[max_len*embedding_dim f64le when text flagged]"
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


@dataclass(frozen=True, eq=False)
class Sample:
    """One training/test row: normalized numeric blocks, optional text matrix.

    ``numeric`` is a (width,) vector for the default single-timestep build,
    or a (steps, width) matrix when a market lookback window is configured
    (oldest step first, the tweet's own day last; only the market block
    varies across steps).
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
    train_fraction: float = TRAIN_FRACTION
    max_len_override: int | None = None
    #: > 0 turns each sample's numeric data into a (lookback+1, width)
    #: sequence whose market block walks the preceding trading days.
    market_lookback: int = 0

    def __post_init__(self) -> None:
        self.feature_set = normalize_feature_set(self.feature_set)
        if not (0.0 < self.train_fraction < 1.0):
            raise InvalidArgumentError("train_fraction must be in (0, 1)")
        if "text" in self.feature_set and self.embedding is None:
            raise InvalidArgumentError("text feature demands an embedding table")
        if self.market_lookback < 0:
            raise InvalidArgumentError("market_lookback must be >= 0")
        if self.market_lookback > 0 and "market" not in self.feature_set:
            raise InvalidArgumentError("market_lookback demands the market block")


@dataclass
class BuildResult:
    train: list[Sample]
    test: list[Sample]
    normalizer: NormalizerState
    max_len: int
    report: dict


def _join_day(bar_dates: list[dt.date], day: dt.date) -> int | None:
    """Index of the most recent trading day at or before the calendar day."""
    idx = bisect.bisect_right(bar_dates, day) - 1
    return idx if idx >= 0 else None


def build_dataset(
    tweets: list[TweetRecord], bars: list[OhlcvBar], cfg: BuildConfig
) -> BuildResult:
    """Join tweets to market days, replay author histories, split, normalize.

    Tweets are processed in timestamp order (ties keep input order). Each
    joins to the most recent trading day at or before its calendar day and
    takes that day's next-day label. Credibility sees only strictly earlier
    tweets. The 80/20 split is chronological by sample index; the normalizer
    and the text max-length come from the training split alone.
    """
    fs = cfg.feature_set
    if len(bars) < 2:
        raise InvalidArgumentError("need at least 2 bars")

    labeled = label_bars(bars, cfg.label_field)
    bar_dates = [b.date for b in bars]
    label_by_idx = [lb.label for lb in labeled]

    market_rows = None
    first_defined = 0
    if "market" in fs:
        market_rows, first_defined = market_feature_matrix(bars, cfg.indicators)

    provider = cfg.sentiment_provider or LexiconSentimentProvider.shipped()
    stopwords = cfg.stopwords if cfg.stopwords is not None else (
        load_stopwords() if "text" in fs else frozenset()
    )

    ordered = sorted(
        (t for t in tweets if t.ticker == cfg.ticker),
        key=lambda t: t.timestamp,
    )
    ticker_mismatch = len(tweets) - len(ordered)

    store = UserHistoryStore()
    author_counts: dict[str, int] = {}
    sentiment_ids: dict[str, int] = {}  # text -> index into `sentiments`
    sentiments: list[SentimentVector] = []
    drops = {"before_first_trading_day": 0, "no_label_for_day": 0, "indicator_warmup": 0}

    # the join collects one column entry per sample; blocks are built after it
    kept: list[TweetRecord] = []
    day_idx: list[int] = []
    author_count: list[int] = []
    sentiment_id: list[int] = []
    credibility = (
        np.empty((len(ordered), BLOCK_WIDTHS["credibility"])) if "credibility" in fs else None
    )

    for tweet in ordered:
        day = _join_day(bar_dates, tweet.timestamp.date())
        if day is None:
            drops["before_first_trading_day"] += 1
            continue
        if day >= len(label_by_idx):
            # joined to the final bar, whose next-day label does not exist yet
            drops["no_label_for_day"] += 1
            continue
        if "market" in fs and day - cfg.market_lookback < first_defined:
            # every lookback step must be past the indicator warmup
            drops["indicator_warmup"] += 1
            continue

        k = sentiment_ids.get(tweet.text)
        if k is None:
            k = sentiment_ids[tweet.text] = len(sentiments)
            sentiments.append(sentiment_vector(tweet.text, provider))
        if credibility is not None:
            credibility[len(kept)] = store.observe(tweet.username, tweet.timestamp)
            store.record(
                tweet.username, tweet.timestamp, tweet_score(sentiments[k].label, label_by_idx[day])
            )
        author_counts[tweet.username] = author_counts.get(tweet.username, 0) + 1

        kept.append(tweet)
        day_idx.append(day)
        author_count.append(author_counts[tweet.username])
        sentiment_id.append(k)

    if not kept:
        raise JoinError(
            f"no usable samples: tweets and bars for {cfg.ticker!r} share no labeled dates"
        )

    n = len(kept)
    n_train = int(n * cfg.train_fraction)
    day_idx = np.array(day_idx)

    tokens = None
    max_len = 0
    if "text" in fs:
        tokens = [tokenize_clean(t.text, stopwords) for t in kept]
        max_len = max((len(t) for t in tokens[:n_train]), default=0) or 1
        if cfg.max_len_override is not None:
            max_len = cfg.max_len_override

    blocks = {
        "market": lambda: market_rows[day_idx],
        "social": lambda: social_matrix(kept, author_count),
        "sentiment": lambda: np.array([s.as_array() for s in sentiments])[sentiment_id],
        "credibility": lambda: credibility[:n],
    }
    width = numeric_width(fs)
    numeric = np.empty((n, width))  # raw rows until normalized in place below
    col = 0
    for name in NUMERIC_BLOCK_ORDER:
        if name not in fs:
            continue
        block = blocks[name]()
        if not np.all(np.isfinite(block)):
            raise AssemblyError(f"block '{name}' has missing or non-finite values")
        numeric[:, col : col + BLOCK_WIDTHS[name]] = block
        col += BLOCK_WIDTHS[name]

    if width > 0:
        if n_train == 0:
            raise InvalidArgumentError("train split is empty; need more samples")
        normalizer = fit_normalizer(numeric[:n_train])
    else:
        normalizer = NormalizerState(np.zeros(0), np.zeros(0))
    train_hash = hashlib.sha256(
        struct.pack("<I", n_train) + numeric[:n_train].astype("<f8").tobytes()
    ).hexdigest()

    if cfg.market_lookback > 0:
        # prior steps substitute earlier days' market block; the normalizer
        # fitted on current-day rows may clamp them
        back = np.arange(cfg.market_lookback, -1, -1)
        numeric = np.repeat(numeric[:, None, :], back.size, axis=1)
        numeric[:, :, : BLOCK_WIDTHS["market"]] = market_rows[day_idx[:, None] - back]
    apply_normalizer(normalizer, numeric, out=numeric)

    samples = [
        Sample(
            numeric=numeric[i],
            text=embed_sequence(tokens[i], cfg.embedding, max_len) if tokens is not None else None,
            label=label_by_idx[day],
            ticker=tweet.ticker,
            day=bar_dates[day],
            author=tweet.username,
        )
        for i, (tweet, day) in enumerate(zip(kept, day_idx.tolist()))
    ]
    train, test = samples[:n_train], samples[n_train:]

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
        "first_sample_day": samples[0].day.isoformat(),
        "last_sample_day": samples[-1].day.isoformat(),
        "leakage_audit_hash": train_hash,
    }
    return BuildResult(train, test, normalizer, max_len, report)


# ---------------------------------------------------------------------------
# Binary dataset artifact
# ---------------------------------------------------------------------------


def write_samples(
    path: Path | str,
    samples: list[Sample],
    fs: frozenset[str],
    ticker: str,
    label_field: str,
    max_len: int,
    embedding_dim: int,
    numeric_steps: int = 1,
) -> None:
    width = numeric_width(fs)
    header = {
        "schema_hash": schema_hash(),
        "ticker": ticker,
        "label_field": label_field,
        "flags": sorted(fs),
        "numeric_width": width,
        "numeric_steps": numeric_steps,
        "max_len": max_len,
        "embedding_dim": embedding_dim,
        "count": len(samples),
    }
    expected_shape = (width,) if numeric_steps == 1 else (numeric_steps, width)
    header_bytes = canonical_json(header).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<I", DATASET_FORMAT_VERSION))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for s in samples:
            author = s.author.encode("utf-8")
            fh.write(struct.pack("<BIH", s.label, s.day.toordinal(), len(author)))
            fh.write(author)
            if s.numeric.shape != expected_shape:
                raise InvalidArgumentError(
                    f"sample numeric shape {s.numeric.shape} != {expected_shape}"
                )
            fh.write(s.numeric.astype("<f8").tobytes())
            if "text" in fs:
                if s.text is None or s.text.shape != (max_len, embedding_dim):
                    raise InvalidArgumentError("sample text matrix missing or misshaped")
                fh.write(s.text.astype("<f8").tobytes())


#: magic, u32le format version, u32le header length
_PREAMBLE = struct.Struct("<4sII")
_RECORD_HEAD = struct.Struct("<BIH")
_HEADER_COUNTS = ("numeric_width", "numeric_steps", "max_len", "embedding_dim", "count")


def _read_header(path: Path | str, fh) -> dict:
    """Check the preamble and parse the header, leaving ``fh`` at the first record."""
    size = os.fstat(fh.fileno()).st_size
    preamble = fh.read(_PREAMBLE.size)
    if len(preamble) < _PREAMBLE.size:
        raise SchemaError(f"{path}: {size}-byte file is shorter than the preamble")
    magic, version, header_len = _PREAMBLE.unpack(preamble)
    if magic != DATASET_MAGIC:
        raise SchemaError(f"{path}: bad magic")
    if version != DATASET_FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported format version {version}")
    if _PREAMBLE.size + header_len > size:
        raise SchemaError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = json.loads(fh.read(header_len))
    except ValueError as exc:
        raise SchemaError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema_hash") != schema_hash():
        raise SchemaError(f"{path}: schema hash mismatch")
    if not (
        all(type(header.get(k)) is int and header[k] >= 0 for k in _HEADER_COUNTS)
        and isinstance(header.get("flags"), list)
        and isinstance(header.get("ticker"), str)
    ):
        raise SchemaError(f"{path}: malformed header")
    return header


def read_header(path: Path | str) -> dict:
    """The header of a dataset file, reading no records."""
    with open(path, "rb") as fh:
        return _read_header(path, fh)


def read_samples(path: Path | str) -> tuple[list[Sample], dict]:
    with open(path, "rb") as fh:
        header = _read_header(path, fh)
        blob = fh.read()

    width, steps, max_len, dim, count = (header[k] for k in _HEADER_COUNTS)
    has_text = "text" in header["flags"]
    text_len = max_len * dim if has_text else 0
    offset = 0
    samples = []
    for i in range(count):
        if offset + _RECORD_HEAD.size > len(blob):
            raise SchemaError(f"{path}: file ends inside record {i} of {count}")
        label, day_ord, author_len = _RECORD_HEAD.unpack_from(blob, offset)
        offset += _RECORD_HEAD.size
        end = offset + author_len + 8 * (steps * width + text_len)
        if end > len(blob):
            raise SchemaError(f"{path}: file ends inside record {i} of {count}")
        try:
            author = blob[offset : offset + author_len].decode("utf-8")
            day = dt.date.fromordinal(day_ord)
        except ValueError as exc:
            raise SchemaError(f"{path}: record {i}: {exc}") from exc
        offset += author_len
        numeric = np.frombuffer(
            blob, dtype="<f8", count=steps * width, offset=offset
        ).copy()
        if steps > 1:
            numeric = numeric.reshape(steps, width)
        offset += 8 * steps * width
        text = None
        if has_text:
            text = (
                np.frombuffer(blob, dtype="<f8", count=text_len, offset=offset)
                .reshape(max_len, dim)
                .copy()
            )
        offset = end
        samples.append(
            Sample(
                numeric=numeric,
                text=text,
                label=int(label),
                ticker=header["ticker"],
                day=day,
                author=author,
            )
        )
    if offset != len(blob):
        raise SchemaError(
            f"{path}: {len(blob) - offset} bytes after the {count} records the header counts"
        )
    return samples, header


def save_dataset(dirpath: Path | str, result: BuildResult, cfg: BuildConfig) -> None:
    """Write train.bin, test.bin, normalizer.json, build_report.json."""
    out = Path(dirpath)
    out.mkdir(parents=True, exist_ok=True)
    meta = dict(
        fs=cfg.feature_set,
        ticker=cfg.ticker,
        label_field=cfg.label_field,
        max_len=result.max_len,
        embedding_dim=cfg.embedding.dim if cfg.embedding else 0,
        numeric_steps=cfg.market_lookback + 1,
    )
    write_samples(out / "train.bin", result.train, **meta)
    write_samples(out / "test.bin", result.test, **meta)
    write_json(out / "normalizer.json", result.normalizer.to_json_dict())
    write_json(out / "build_report.json", result.report)


@dataclass
class LoadedDataset:
    train: list[Sample]
    test: list[Sample]
    header: dict


def load_dataset(dirpath: Path | str) -> LoadedDataset:
    """Both splits and their header; ``normalizer.json`` and ``build_report.json`` are not read."""
    out = Path(dirpath)
    train, header = read_samples(out / "train.bin")
    test, _ = load_test_samples(out)
    return LoadedDataset(train, test, header)


def load_test_samples(dirpath: Path | str) -> tuple[list[Sample], dict]:
    """The test samples and their header; of train.bin only the header is read."""
    out = Path(dirpath)
    test, header = read_samples(out / "test.bin")
    train_header = read_header(out / "train.bin")
    shared = ("flags", "numeric_width", "numeric_steps", "max_len", "embedding_dim")
    if {k: train_header[k] for k in shared} != {k: header[k] for k in shared}:
        raise SchemaError(f"{dirpath}: train/test headers disagree")
    return test, header
