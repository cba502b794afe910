"""Seeded input generator: writes a workload's OHLCV CSV, tweets JSONL and run config.

    python3 bench/generate.py <workload> <seed> <directory>

The program sees nothing but these three files. The same (workload, seed)
pair always writes the same bytes. Prints one JSON line of facts about the
inputs.

Tweet sentiment agrees with the next-day label with probability
``SENTIMENT_AGREEMENT``, so a working pipeline reaches a tweet accuracy well
above chance and a broken one shows up as an accuracy drop, not as a fast run.
"""

from __future__ import annotations

import datetime as dt
import json
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload

TICKER = "AAPL"
SENTIMENT_AGREEMENT = 0.75

#: Tweets fall on trading days from this index on, well past the longest
#: indicator warmup plus the largest lookback, and never on the last day
#: (which has no label). So every tweet becomes a sample and none is dropped.
FIRST_TWEET_DAY = 60

# Sentiment words of the shipped lexicon, by sign.
POSITIVE_WORDS = (
    "gain gains rally rallied surge surged soar soared strong bullish beat beats "
    "boom breakout confident good great growth higher improved optimistic "
    "outperform positive profit profitable profits rebound record recovery "
    "upgrade upgraded win winner winners"
).split()
NEGATIVE_WORDS = (
    "bad bankruptcy bearish bubble crash crashed decline declined downgrade "
    "downgraded fear fraud lawsuit loss losses lower miss missed negative panic "
    "plunge plunged recession risky sell selloff slump slumped tumble tumbled "
    "underperform volatile warning weak"
).split()

# Filler words are consonant-vowel pseudo-words of two or three syllables
# over letters that spell no stop-word and no lexicon word.
_CONSONANTS = "bdgkptvz"
_VOWELS = "aeiou"


def _trading_days(n: int) -> list[dt.date]:
    day = dt.date(2015, 1, 5)  # a Monday
    out = []
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def _bars(rng: np.random.Generator, n: int) -> tuple[list[str], list[int]]:
    """CSV rows of a geometric random walk, and the next-day labels the CLI derives.

    Prices are rounded before labeling, so the labels follow the exact values
    the CLI parses.
    """
    closes = np.round(100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.012, n))), 4)
    opens = np.round(closes * np.exp(rng.normal(0.0, 0.004, n)), 4)
    highs = np.round(np.maximum(opens, closes) * (1.0 + rng.uniform(0.0, 0.01, n)), 4)
    lows = np.round(np.minimum(opens, closes) * (1.0 - rng.uniform(0.0, 0.01, n)), 4)
    rows = ["Date,Open,High,Low,Close,Adj Close"]
    for day, o, h, l, c in zip(_trading_days(n), opens, highs, lows, closes):
        rows.append(f"{day.isoformat()},{o:.4f},{h:.4f},{l:.4f},{c:.4f},{c:.4f}")
    labels = [0 if closes[i] > closes[i + 1] else 1 for i in range(n - 1)]
    return rows, labels


def _filler_vocab(rng: np.random.Generator, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        syllables = int(rng.integers(2, 4))
        words.add("".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))] + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(syllables)
        ))
    return sorted(words)


def _short_text(rng: np.random.Generator, filler: list[str], lexicon: list[str]) -> str:
    words = [filler[int(i)] for i in rng.integers(0, len(filler), int(rng.integers(2, 5)))]
    for w in rng.choice(lexicon, int(rng.integers(1, 3)), replace=False):
        words.insert(int(rng.integers(0, len(words) + 1)), str(w))
    return " ".join(words)


def _long_text(rng: np.random.Generator, filler: list[str], zipf: np.ndarray,
               lexicon: list[str]) -> str:
    n = int(rng.integers(20, 31))
    n_sentiment = int(rng.integers(1, 4))
    words = [filler[int(i)] for i in rng.choice(len(filler), n - n_sentiment, p=zipf)]
    for w in rng.choice(lexicon, n_sentiment, replace=False):
        words.insert(int(rng.integers(0, len(words) + 1)), str(w))
    return " ".join(words)


def _text_source(w: Workload, rng: np.random.Generator):
    """A function up -> text whose sentiment sign is ``up``, drawing from ``rng``."""
    if w.texts == "pool":
        filler = _filler_vocab(rng, 40)
        half = max(w.text_pool // 2, 1)
        pools = {
            True: [_short_text(rng, filler, POSITIVE_WORDS) for _ in range(half)],
            False: [_short_text(rng, filler, NEGATIVE_WORDS) for _ in range(half)],
        }
        return lambda up: pools[up][int(rng.integers(half))]

    filler = _filler_vocab(rng, w.text_pool)
    ranks = np.arange(1, len(filler) + 1, dtype=np.float64)
    zipf = (1.0 / ranks) / np.sum(1.0 / ranks)
    seen: set[str] = set()

    def distinct(up: bool) -> str:
        while True:
            text = _long_text(rng, filler, zipf, POSITIVE_WORDS if up else NEGATIVE_WORDS)
            if text not in seen:
                seen.add(text)
                return text

    return distinct


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write bars.csv, tweets.jsonl and run.json into ``out``; return facts about them."""
    rng = np.random.default_rng([seed, sum(w.name.encode("utf-8"))])
    out.mkdir(parents=True, exist_ok=True)
    bar_rows, labels = _bars(rng, w.days)
    (out / "bars.csv").write_text("\n".join(bar_rows) + "\n", encoding="utf-8")

    days = _trading_days(w.days)
    text_for = _text_source(w, rng)
    # timestamps in time order: trading day, then seconds into that day (UTC)
    when = np.sort(
        rng.integers(FIRST_TWEET_DAY, w.days - 1, w.tweets) * 86_400
        + rng.integers(13 * 3600, 21 * 3600, w.tweets)
    )
    texts = set()
    lines = []
    for i in range(w.tweets):
        d, second = divmod(int(when[i]), 86_400)
        agree = rng.random() < SENTIMENT_AGREEMENT
        text = text_for((labels[d] == 1) == agree)
        texts.add(text)
        stamp = dt.datetime.combine(days[d], dt.time()) + dt.timedelta(seconds=second)
        lines.append(json.dumps({
            "id": str(i + 1),
            "username": f"user{int(rng.integers(w.authors)):05d}",
            "timestamp": stamp.isoformat() + "Z",
            "text": text,
            "ticker": TICKER,
            "retweets": int(rng.integers(0, 50)),
            "favorites": int(rng.integers(0, 200)),
            "replies": int(rng.integers(0, 20)),
            "follower_count": int(rng.lognormal(6.0, 1.5)),
            "friends_count": int(rng.integers(0, 2000)),
            "hashtags": [TICKER],
        }, separators=(",", ":")))
    (out / "tweets.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    config = {
        "ticker": TICKER,
        "paths": {"ohlcv_csv": "bars.csv", "tweets_jsonl": "tweets.jsonl",
                  "embedding": None, "lexicon": None, "stopwords": None},
        "feature_set": list(w.feature_set),
        "label_field": "close",
        "cell": w.cell,
        "hyperparams": {"epochs": w.epochs, "layers": w.layers, "hidden_units": 14,
                        "learning_rate": w.learning_rate, "recurrent_dropout": 0.5,
                        "dropout": 0.5, "l2": 0.0001, "batch_size": w.batch_size,
                        "momentum": 0.9},
        "embedding_dim": 50,
        "market_lookback": w.market_lookback,
        "seed": seed,
        "out_dir": "out",
    }
    (out / "run.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
    return {"tweets": w.tweets, "unique_texts": len(texts)}


if __name__ == "__main__":
    name, seed, out = sys.argv[1:]
    print(json.dumps(generate(WORKLOADS[name], int(seed), Path(out))))
