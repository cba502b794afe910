from __future__ import annotations

import datetime as dt
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfusion.artifacts import source_digest
from tmfusion.dataset import TweetColumns, read_tweets
from tmfusion.errors import InvalidArgumentError, OrderingError, SchemaError, TmfusionError
from tmfusion.inputs import (
    TweetRecord,
    ingest_tweets,
    load_tweets_jsonl,
    parse_timestamp,
    write_tweets,
)
from tmfusion.social import (
    LexiconSentimentProvider,
    SentimentVector,
    UserHistory,
    UserHistoryStore,
    author_rating,
    recommendation_score,
    representativeness,
    sentiment_vector,
    tweet_score,
    update_user_history,
    user_history_vector,
)

from .conftest import DATA_DIR, assert_same_columns
from .oracles import credibility_oracle, social_vector, user_history_oracle

UTC = dt.timezone.utc


def ts(hour: int, minute: int = 0, day: int = 1) -> dt.datetime:
    return dt.datetime(2021, 10, day, hour, minute, tzinfo=UTC)


def make_tweet(**kwargs) -> TweetRecord:
    defaults = dict(
        id="1",
        username="trader",
        timestamp=ts(9),
        text="hello",
        ticker="AAPL",
    )
    defaults.update(kwargs)
    return TweetRecord(**defaults)


class TestSentiment:
    provider = LexiconSentimentProvider.shipped()

    def test_empty_text_neutral(self):
        assert sentiment_vector("", self.provider) == SentimentVector(0.0, 0.0, 0)

    def test_stopwords_only_neutral(self):
        assert sentiment_vector("the and of is a", self.provider) == SentimentVector(0.0, 0.0, 0)

    def test_fixture_agreement(self):
        fixture = json.loads((DATA_DIR / "sentiment_fixture.json").read_text())
        assert len(fixture) == 20
        agreed = sum(
            1
            for case in fixture
            if sentiment_vector(case["text"], self.provider).label == case["label"]
        )
        assert agreed >= 18

    def test_deterministic(self):
        text = "Strong rally but bearish analysts warn of losses"
        assert self.provider.score(text) == self.provider.score(text)

    def test_ranges(self):
        fixture = json.loads((DATA_DIR / "sentiment_fixture.json").read_text())
        for case in fixture:
            sv = self.provider.score(case["text"])
            assert -1.0 <= sv.polarity <= 1.0
            assert 0.0 <= sv.subjectivity <= 1.0
            assert sv.label in (-1, 0, 1)

    def test_as_array_order(self):
        arr = SentimentVector(0.6, 0.4, 1).as_array()
        np.testing.assert_allclose(arr, [1.0, 0.4, 0.6])


class TestSocialVector:
    def test_first_tweet_zero_counters(self):
        vec = social_vector(make_tweet(), author_tweet_count=1)
        np.testing.assert_allclose(vec, [0, 0, 0, 0, 0, 1])

    def test_field_copy(self):
        tweet = make_tweet(follower_count=10, friends_count=2, replies=1, retweets=3, favorites=4)
        np.testing.assert_allclose(social_vector(tweet, 2), [10, 2, 1, 3, 4, 2])

    def test_running_count_matches_tally(self, rng):
        authors = [f"user{i}" for i in range(7)]
        sequence = [authors[rng.integers(0, len(authors))] for _ in range(300)]
        counts: dict[str, int] = {}
        for name in sequence:
            counts[name] = counts.get(name, 0) + 1
            vec = social_vector(make_tweet(username=name), counts[name])
            assert vec[5] == counts[name]

    def test_count_must_include_current(self):
        with pytest.raises(InvalidArgumentError):
            social_vector(make_tweet(), 0)


class TestTweetScore:
    @pytest.mark.parametrize(
        "predicted,actual,expected",
        [
            (1, 1, 1),
            (-1, 1, -1),
            (0, 1, 1),
            (-1, 0, 1),
            (1, 0, -1),
            (0, 0, -1),
        ],
    )
    def test_mapping(self, predicted, actual, expected):
        assert tweet_score(predicted, actual) == expected

    def test_total_on_domain(self):
        for predicted in (-1, 0, 1):
            for actual in (0, 1):
                assert tweet_score(predicted, actual) in (1, -1)

    def test_rejects_out_of_domain(self):
        with pytest.raises(InvalidArgumentError):
            tweet_score(2, 1)
        with pytest.raises(InvalidArgumentError):
            tweet_score(1, -1)


class TestUserHistory:
    def test_first_hit(self):
        hist = update_user_history(UserHistory("a"), 1, ts(9))
        assert (hist.hits, hist.misses, hist.total) == (1, 0, 1)

    def test_first_miss(self):
        hist = update_user_history(UserHistory("a"), -1, ts(9))
        assert (hist.hits, hist.misses, hist.total) == (0, 1, 1)

    def test_replay_matches_tally_oracle(self, rng):
        scores = [1 if rng.random() < 0.6 else -1 for _ in range(500)]
        hist = UserHistory("a")
        for i, score in enumerate(scores):
            hist = update_user_history(hist, score, ts(9) + dt.timedelta(minutes=i))
            assert hist.hits + hist.misses == hist.total
        assert (hist.hits, hist.misses, hist.total) == user_history_oracle(scores)

    def test_replay_deterministic(self):
        scores = [1, -1, 1, 1, -1]
        runs = []
        for _ in range(2):
            hist = UserHistory("a")
            for i, score in enumerate(scores):
                hist = update_user_history(hist, score, ts(9) + dt.timedelta(minutes=i))
            runs.append(hist)
        assert runs[0] == runs[1]

    def test_rejects_time_regression(self):
        hist = update_user_history(UserHistory("a"), 1, ts(10))
        with pytest.raises(OrderingError):
            update_user_history(hist, 1, ts(9))

    def test_equal_timestamp_allowed(self):
        hist = update_user_history(UserHistory("a"), 1, ts(10))
        hist = update_user_history(hist, -1, ts(10))
        assert hist.total == 2

    def test_counter_invariant_enforced(self):
        with pytest.raises(InvalidArgumentError):
            UserHistory("a", hits=2, misses=1, total=2)


class TestDerivedScores:
    def test_author_rating(self):
        assert author_rating(UserHistory("a", 3, 1, 4)) == 0.75
        assert author_rating(UserHistory("a")) == 0.0
        for k in (1, 5, 17):
            assert author_rating(UserHistory("a", k, 0, k)) == 1.0

    def test_rating_bounds_and_perfect_condition(self, rng):
        for _ in range(200):
            hits = int(rng.integers(0, 30))
            misses = int(rng.integers(0, 30))
            hist = UserHistory("a", hits, misses, hits + misses)
            r = author_rating(hist)
            assert 0.0 <= r <= 1.0
            assert (r == 1.0) == (misses == 0 and hist.total > 0)

    def test_recommendation_score(self):
        assert recommendation_score(UserHistory("a")) == 0.0
        assert recommendation_score(UserHistory("a", 0, 4, 4)) == 0.0
        assert recommendation_score(UserHistory("a", 1, 1, 2)) == 1.0
        assert recommendation_score(UserHistory("a", 10, 0, 10)) == 2.0

    def test_representativeness(self):
        assert representativeness(UserHistory("a", 3, 1, 4)) == (0.75 + 3) / 2
        assert representativeness(UserHistory("a")) == 0.0
        assert representativeness(UserHistory("a", 1, 0, 1)) == 1.0

    def test_vector_composition(self, rng):
        assert np.array_equal(user_history_vector(UserHistory("a")), np.zeros(4))
        vec = user_history_vector(UserHistory("a", 3, 1, 4))
        np.testing.assert_allclose(vec, [3, 1, 1 + math.log10(3), 1.875])
        for _ in range(100):
            hits = int(rng.integers(0, 20))
            misses = int(rng.integers(0, 20))
            hist = UserHistory("a", hits, misses, hits + misses)
            np.testing.assert_array_equal(
                user_history_vector(hist), np.array(credibility_oracle(hits, misses))
            )


class TestUserHistoryStore:
    def test_observe_excludes_same_timestamp(self):
        store = UserHistoryStore()
        first = store.observe("a", ts(9))
        store.record("a", ts(9), 1)
        second = store.observe("a", ts(9))  # same instant: still sees nothing
        third = store.observe("a", ts(10))  # later: sees the recorded hit
        np.testing.assert_array_equal(first, np.zeros(4))
        np.testing.assert_array_equal(second, np.zeros(4))
        np.testing.assert_allclose(third, [1, 0, 1.0, 1.0])

    def test_strictly_prior_replay(self, rng):
        store = UserHistoryStore()
        events = []
        for i in range(200):
            at = ts(9) + dt.timedelta(minutes=int(rng.integers(0, 500)))
            events.append((at, 1 if rng.random() < 0.5 else -1))
        events.sort(key=lambda e: e[0])
        for at, score in events:
            seen = store.observe("a", at)
            # independent truncated tally: all strictly earlier events
            strict = [s for t, s in events if t < at]
            hits, misses, _ = user_history_oracle(strict)
            np.testing.assert_array_equal(seen, np.array(credibility_oracle(hits, misses)))
            store.record("a", at, score)
        final = store.final_state("a")
        hits, misses, total = user_history_oracle([s for _, s in events])
        assert (final.hits, final.misses, final.total) == (hits, misses, total)

    def test_record_rejects_regression(self):
        store = UserHistoryStore()
        store.record("a", ts(10), 1)
        with pytest.raises(OrderingError):
            store.record("a", ts(9), 1)


class TestTweetIngestion:
    def write_jsonl(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def valid_line(self, **kwargs):
        obj = dict(
            id="42",
            username="trader",
            timestamp="2021-09-22T14:30:00Z",
            text="Shares rallied",
            ticker="AAPL",
            retweets=3,
            favorites=5,
            replies=1,
            follower_count=100,
            friends_count=50,
            hashtags=["AAPL"],
        )
        obj.update(kwargs)
        return json.dumps(obj)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        self.write_jsonl(p, [self.valid_line()])
        tweets, diags = load_tweets_jsonl(str(p))
        assert not diags
        t = tweets[0]
        assert t.id == "42"
        assert t.timestamp == dt.datetime(2021, 9, 22, 14, 30, tzinfo=UTC)
        assert t.retweets == 3
        assert t.hashtags == ("AAPL",)

    def test_unknown_fields_ignored(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        line = json.loads(self.valid_line())
        line["permalink"] = "https://example.com/42"
        line["geo"] = None
        self.write_jsonl(p, [json.dumps(line)])
        tweets, _ = load_tweets_jsonl(str(p))
        assert len(tweets) == 1

    def test_counters_default_to_zero(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        obj = {
            "id": "1",
            "username": "u",
            "timestamp": "2021-09-22T00:00:00Z",
            "text": "x",
            "ticker": "AAPL",
        }
        self.write_jsonl(p, [json.dumps(obj)])
        tweets, _ = load_tweets_jsonl(str(p))
        assert tweets[0].follower_count == 0

    def test_malformed_fatal_by_default(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        self.write_jsonl(p, [self.valid_line(), "not json"])
        with pytest.raises(SchemaError, match="line 2"):
            load_tweets_jsonl(str(p))

    def test_malformed_skipped_when_lenient(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        self.write_jsonl(
            p,
            [
                self.valid_line(),
                "{broken",
                self.valid_line(id="43", retweets=-1),
                self.valid_line(id="44"),
            ],
        )
        tweets, diags = load_tweets_jsonl(str(p), lenient=True)
        assert [t.id for t in tweets] == ["42", "44"]
        assert [d.line for d in diags] == [2, 3]

    @pytest.mark.parametrize("raw", [
        "Infinity", "-Infinity", "NaN", "1e400", "2.9", "3.0", "true", "false", '"5"', "null",
        "[1]", "-1", pytest.param("1" + "0" * 400, id="10**400"),
    ])
    def test_counter_must_be_a_json_integer(self, tmp_path, raw):
        p = tmp_path / "tweets.jsonl"
        bad = self.valid_line(id="43", favorites="X").replace('"X"', raw)
        self.write_jsonl(p, [bad])
        with pytest.raises(SchemaError, match="line 1: favorites"):
            load_tweets_jsonl(str(p))
        self.write_jsonl(p, [self.valid_line(), bad])
        tweets, diags = load_tweets_jsonl(str(p), lenient=True)
        assert [t.id for t in tweets] == ["42"]
        assert [d.line for d in diags] == [2]
        assert "favorites" in diags[0].message

    def test_invalid_utf8_line_rejected(self, tmp_path):
        p = tmp_path / "tweets.jsonl"
        p.write_bytes(self.valid_line().encode() + b"\n" + b'{"id": "\xff"}\n')
        with pytest.raises(SchemaError, match="line 2"):
            load_tweets_jsonl(str(p))
        tweets, diags = load_tweets_jsonl(str(p), lenient=True)
        assert len(tweets) == 1 and [d.line for d in diags] == [2]

    @settings(max_examples=300, deadline=None)
    @given(line=st.one_of(
        st.binary(max_size=60).filter(lambda b: b"\n" not in b),
        st.builds(
            lambda obj, ascii_only: json.dumps(obj, ensure_ascii=ascii_only).encode(),
            st.dictionaries(
                st.sampled_from([
                    "id", "username", "timestamp", "text", "ticker", "retweets", "favorites",
                    "replies", "follower_count", "friends_count", "hashtags",
                ]),
                st.one_of(
                    st.sampled_from([
                        "2021-09-22T14:30:00Z", "0001-01-01T00:00:00+01:00",
                        "9999-12-31T23:59:59-01:00", "2021-02-30T00:00:00",
                    ]),
                    st.recursive(
                        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                        lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                        max_leaves=6,
                    ),
                ),
            ),
            st.booleans(),
        ),
    ))
    def test_any_line_parses_or_raises_tmfusion_error(self, line):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "tweets.jsonl"
            p.write_bytes(line + b"\n")
            try:
                load_tweets_jsonl(str(p))
            except TmfusionError:
                pass
            tweets, diags = load_tweets_jsonl(str(p), lenient=True)
            assert len(tweets) + len(diags) <= 1
            # a tweet that parses survives the tweet file whole
            columns, _ = ingest_tweets(str(p), lenient=True)
            write_tweets(Path(tmp) / "tweets.bin", columns, source_digest(p))
            got = read_tweets(Path(tmp) / "tweets.bin", p)
            assert_same_columns(got, TweetColumns.from_records(tweets))

    def test_timestamp_offsets_normalised(self):
        t = parse_timestamp("2021-09-22T16:30:00+02:00")
        assert t == dt.datetime(2021, 9, 22, 14, 30, tzinfo=UTC)
        naive = parse_timestamp("2021-09-22T14:30:00")
        assert naive.tzinfo == UTC
