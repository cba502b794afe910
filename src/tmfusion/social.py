"""Tweet-derived features: sentiment, social-activity counters, user credibility.

Three feature families live here. The sentiment vector scores a tweet's text
through a pluggable provider (the shipped static lexicon by default, so runs
are hermetic); its label is the polarity's sign, 0 when the polarity's
magnitude is below ``NEUTRAL_THRESHOLD``. The social vector copies the raw
activity counters off the tweet plus a running per-author tweet count. The
credibility vector tracks how often an author's sentiment has historically
agreed with the next day's actual price direction, via per-author hit/miss
counters and three derived scores.

Vector extraction is pure. ``UserHistoryStore`` replays per-author history
one tweet at a time, in timestamp order per author; it is the reference the
dataset build's array replay (``dataset._author_history``) is tested
against, and the benchmark's credibility probe times it. ``load_tweets_jsonl``
is re-exported from ``inputs`` for the benchmark, which imports it from here.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import math
import re
from collections import deque
from dataclasses import dataclass
from importlib import resources
from typing import Protocol, Sequence

import numpy as np

from .artifacts import read_text
from .errors import InvalidArgumentError, OrderingError, SchemaError
from .inputs import load_tweets_jsonl  # noqa: F401  (bench/traced.py imports it from here)

#: |polarity| below this is treated as neutral.
NEUTRAL_THRESHOLD = 0.05

#: Names of the social vector's slots, in order.
SOCIAL_FEATURE_NAMES = (
    "follower_count",
    "friends_count",
    "replies",
    "retweets",
    "favorites",
    "author_tweet_count",
)

_WORD_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class SentimentVector:
    """Polarity in [-1, 1], subjectivity in [0, 1], and the thresholded label."""

    polarity: float
    subjectivity: float
    label: int

    def as_array(self) -> np.ndarray:
        # Slot order: label, subjectivity, polarity.
        return np.array([float(self.label), self.subjectivity, self.polarity])


def polarity_label(polarity: float) -> int:
    if abs(polarity) < NEUTRAL_THRESHOLD:
        return 0
    return 1 if polarity > 0 else -1


class SentimentProvider(Protocol):
    def score(self, text: str) -> SentimentVector: ...


class LexiconSentimentProvider:
    """Averages per-word polarity/subjectivity over the words a lexicon knows.

    Tokens are lowercase ASCII alphanumeric runs; anything the lexicon does
    not list (stop-words included) simply contributes nothing.
    """

    def __init__(self, lexicon: dict[str, tuple[float, float]]):
        self._lexicon = dict(lexicon)

    @classmethod
    def from_file(cls, path: str) -> "LexiconSentimentProvider":
        try:
            raw = json.loads(read_text(path))
        except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
        return cls(_parse_lexicon(raw, source=path))

    @classmethod
    def shipped(cls) -> "LexiconSentimentProvider":
        raw = json.loads(
            resources.files("tmfusion.resources").joinpath("lexicon.json").read_text("utf-8")
        )
        return cls(_parse_lexicon(raw, source="shipped lexicon"))

    def score(self, text: str) -> SentimentVector:
        matched = [
            self._lexicon[tok]
            for tok in _WORD_RE.findall(text.lower())
            if tok in self._lexicon
        ]
        if not matched:
            return SentimentVector(0.0, 0.0, 0)
        polarity = sum(m[0] for m in matched) / len(matched)
        subjectivity = sum(m[1] for m in matched) / len(matched)
        return SentimentVector(polarity, subjectivity, polarity_label(polarity))


def _parse_lexicon(raw: object, source: str) -> dict[str, tuple[float, float]]:
    if not isinstance(raw, dict):
        raise SchemaError(f"{source}: lexicon must be a JSON object")
    lexicon: dict[str, tuple[float, float]] = {}
    for word, entry in raw.items():
        try:
            pol = float(entry["polarity"])
            subj = float(entry["subjectivity"])
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{source}: bad entry for {word!r}: {exc}") from exc
        if not (-1.0 <= pol <= 1.0 and 0.0 <= subj <= 1.0):
            raise SchemaError(f"{source}: {word!r} scores out of range")
        lexicon[word.lower()] = (pol, subj)
    return lexicon


def sentiment_vector(text: str, provider: SentimentProvider) -> SentimentVector:
    """Score a tweet's text; empty text is neutral by convention."""
    if not text:
        return SentimentVector(0.0, 0.0, 0)
    return provider.score(text)


def social_matrix(
    counters: np.ndarray, author_tweet_counts: Sequence[int], out: np.ndarray | None = None
) -> np.ndarray:
    """The social vectors of many tweets as one (n, 6) float64 array.

    ``counters`` is the tweets' (n, 5) counter column, in the order of the
    first five ``SOCIAL_FEATURE_NAMES``; the running author counts fill the
    last slot. The vectors go to ``out``, an (n, 6) float64 array, when
    given.
    """
    if out is None:
        out = np.empty((counters.shape[0], len(SOCIAL_FEATURE_NAMES)))
    out[:, :-1] = counters
    out[:, -1] = author_tweet_counts
    return out


def tweet_score(predicted_label: int, actual_label: int) -> int:
    """+1 when the sentiment called the day's direction, -1 otherwise.

    Neutral sentiment counts as a rise call: labels -1/0/+1 map to direction
    classes 0/1/1 before comparing against the actual 0/1 movement.
    """
    if predicted_label not in (-1, 0, 1):
        raise InvalidArgumentError("predicted_label must be -1, 0, or 1")
    if actual_label not in (0, 1):
        raise InvalidArgumentError("actual_label must be 0 or 1")
    predicted_class = 0 if predicted_label == -1 else 1
    return 1 if predicted_class == actual_label else -1


@dataclass(frozen=True)
class UserHistory:
    """Monotone hit/miss counters for one author's scored tweets."""

    username: str
    hits: int = 0
    misses: int = 0
    total: int = 0
    last_updated: dt.datetime | None = None

    def __post_init__(self) -> None:
        if self.hits < 0 or self.misses < 0 or self.hits + self.misses != self.total:
            raise InvalidArgumentError("history counters must satisfy hits + misses = total")


def update_user_history(hist: UserHistory, score: int, at: dt.datetime) -> UserHistory:
    """Fold one tweet score into the author's history; rejects time regressions."""
    if score not in (1, -1):
        raise InvalidArgumentError("score must be +1 or -1")
    if hist.last_updated is not None and at < hist.last_updated:
        raise OrderingError(
            f"{hist.username}: update at {at} precedes last update {hist.last_updated}"
        )
    return dataclasses.replace(
        hist,
        hits=hist.hits + (1 if score == 1 else 0),
        misses=hist.misses + (1 if score == -1 else 0),
        total=hist.total + 1,
        last_updated=at,
    )


def author_rating(hist: UserHistory) -> float:
    """Hit ratio in [0, 1]; an unscored author rates 0."""
    if hist.total == 0:
        return 0.0
    return hist.hits / hist.total


def recommendation_score(hist: UserHistory) -> float:
    """0 for a zero-rated author, otherwise 1 + log10 of the hit count."""
    if author_rating(hist) == 0.0:
        return 0.0
    return 1.0 + math.log10(hist.hits)


def representativeness(hist: UserHistory) -> float:
    """Plain average of the hit ratio and the raw hit count."""
    return (author_rating(hist) + hist.hits) / 2.0


def user_history_vector(hist: UserHistory) -> np.ndarray:
    """[hits, misses, recommendation, representativeness] for one author."""
    return np.array(
        [
            float(hist.hits),
            float(hist.misses),
            recommendation_score(hist),
            representativeness(hist),
        ]
    )


class UserHistoryStore:
    """Per-author history replay with strictly-prior visibility.

    ``observe(author, at)`` returns the credibility vector a sample at time
    ``at`` may legally see: only scores recorded with strictly earlier
    timestamps are folded in, so two tweets sharing a timestamp never see
    each other. ``record`` queues the observed tweet's own score for future
    observations. Timestamps must be non-decreasing per author.
    """

    def __init__(self) -> None:
        self._states: dict[str, UserHistory] = {}
        self._pending: dict[str, deque[tuple[dt.datetime, int]]] = {}

    def _flush(self, username: str, before: dt.datetime) -> UserHistory:
        state = self._states.get(username) or UserHistory(username=username)
        queue = self._pending.get(username)
        while queue and queue[0][0] < before:
            at, score = queue.popleft()
            state = update_user_history(state, score, at)
        self._states[username] = state
        return state

    def observe(self, username: str, at: dt.datetime) -> np.ndarray:
        return user_history_vector(self._flush(username, at))

    def record(self, username: str, at: dt.datetime, score: int) -> None:
        queue = self._pending.setdefault(username, deque())
        if queue:
            last = queue[-1][0]
        else:
            state = self._states.get(username)
            last = state.last_updated if state else None
        if last is not None and at < last:
            raise OrderingError(f"{username}: score at {at} precedes {last}")
        queue.append((at, score))

    def final_state(self, username: str) -> UserHistory:
        """The history with every recorded score applied."""
        return self._flush(username, dt.datetime.max.replace(tzinfo=dt.timezone.utc))
