from __future__ import annotations

import bisect
import dataclasses
import datetime as dt
import hashlib
import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tmfusion.dataset as dataset_module
from tmfusion.config import IndicatorConfig
from tmfusion.dataset import (
    BuildConfig,
    NormalizerState,
    Split,
    apply_normalizer,
    build_dataset,
    fit_normalizer,
    load_dataset,
    numeric_width,
    read_header,
    read_split,
    read_table,
    save_dataset,
    schema_hash,
    write_split,
)
from tmfusion.errors import (
    AssemblyError,
    InvalidArgumentError,
    JoinError,
    SchemaError,
)
from tmfusion.indicators import market_feature_matrix
from tmfusion.inputs import OhlcvBar, TweetRecord, compare_file_labels, label_bars, load_ohlcv_csv
from tmfusion.social import (
    LexiconSentimentProvider,
    UserHistoryStore,
    sentiment_vector,
    tweet_score,
)
from tmfusion.text import EmbeddingTable, embed_sequence, load_stopwords, tokenize_clean

from .conftest import DATA_DIR, random_bars, synthetic_tweets, weekday_bars, write_v1_split
from .oracles import (
    credibility_oracle,
    lookback_reference,
    minmax_oracle,
    raw_matrix_reference,
    sample_numeric_oracle,
    sample_text_oracle,
    whole_numeric_gather,
    whole_text_gather,
)

UTC = dt.timezone.utc

#: Small indicator periods so tests need few bars of warmup.
SMALL_IND = IndicatorConfig(
    ma_period=3, rsi_period=3, macd_fast=2, macd_slow=4, cci_period=3, bb_period=3
)


def flat_bar(day: dt.date, price: float) -> OhlcvBar:
    return OhlcvBar(day, price, price, price, price, price)


def bars_from_closes(closes, start=dt.date(2021, 9, 1)):
    return [flat_bar(start + dt.timedelta(days=i), c) for i, c in enumerate(closes)]


class TestLabelBars:
    def test_drop_then_rise(self):
        labeled = label_bars(bars_from_closes([175.35, 175.33]))
        assert [lb.label for lb in labeled] == [0]
        labeled = label_bars(bars_from_closes([99.80, 100.0]))
        assert [lb.label for lb in labeled] == [1]

    def test_equal_prices_label_one(self):
        labeled = label_bars(bars_from_closes([100.0, 100.0]))
        assert labeled[0].label == 1

    def test_length_is_one_less(self, rng):
        bars = random_bars(rng, 50)
        assert len(label_bars(bars)) == 49

    def test_alternate_fields(self):
        bars = [
            OhlcvBar(dt.date(2021, 9, 1), 10.0, 12.0, 9.0, 11.0, 11.5),
            OhlcvBar(dt.date(2021, 9, 2), 9.0, 12.0, 8.0, 11.5, 11.0),
        ]
        assert label_bars(bars, "open")[0].label == 0
        assert label_bars(bars, "close")[0].label == 1
        assert label_bars(bars, "adj_close")[0].label == 0

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            label_bars(bars_from_closes([1.0]))

    def test_table_fixture_mismatches_flagged(self):
        result = load_ohlcv_csv(str(DATA_DIR / "table2_ohlcv.csv"))
        labeled = label_bars(result.bars)
        assert labeled[0].label == 0  # 175.35 -> 175.33
        assert labeled[4].label == 0  # 177.09 -> 176.19
        mismatches = compare_file_labels(labeled, result.file_labels)
        assert mismatches == ["2020-05-03", "2020-05-04", "2020-05-06"]


class TestNormalizer:
    def test_extrema(self):
        state = fit_normalizer(np.array([[2.0], [4.0], [6.0]]))
        assert state.mins[0] == 2.0 and state.maxs[0] == 6.0
        assert not state.degenerate[0]

    def test_degenerate_column_flagged(self):
        state = fit_normalizer(np.array([[3.0, 1.0], [3.0, 2.0]]))
        assert state.degenerate[0] and not state.degenerate[1]

    def test_matches_scan_oracle(self, rng):
        rows = rng.normal(0, 10, size=(50, 7))
        state = fit_normalizer(rows)
        mins, maxs = minmax_oracle([list(r) for r in rows])
        np.testing.assert_array_equal(state.mins, mins)
        np.testing.assert_array_equal(state.maxs, maxs)

    def test_midpoint(self):
        state = NormalizerState(np.array([2.0]), np.array([6.0]))
        assert apply_normalizer(state, np.array([4.0]))[0] == 0.5

    def test_endpoints_exact(self, rng):
        rows = rng.normal(0, 5, size=(20, 3))
        state = fit_normalizer(rows)
        np.testing.assert_array_equal(apply_normalizer(state, state.mins), np.zeros(3))
        np.testing.assert_array_equal(apply_normalizer(state, state.maxs), np.ones(3))

    def test_clamping(self):
        state = NormalizerState(np.array([2.0]), np.array([6.0]))
        assert apply_normalizer(state, np.array([8.0]))[0] == 1.0
        assert apply_normalizer(state, np.array([-1.0]))[0] == 0.0

    def test_degenerate_maps_to_half(self):
        state = NormalizerState(np.array([3.0]), np.array([3.0]))
        assert apply_normalizer(state, np.array([3.0]))[0] == 0.5
        assert apply_normalizer(state, np.array([99.0]))[0] == 0.5

    def test_width_mismatch(self):
        state = NormalizerState(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(InvalidArgumentError):
            apply_normalizer(state, np.array([1.0]))

    def test_affine_invariance(self, rng):
        rows = rng.normal(0, 3, size=(40, 4))
        a = rng.uniform(0.5, 5.0, size=4)
        b = rng.normal(0, 10, size=4)
        state = fit_normalizer(rows)
        state_t = fit_normalizer(rows * a + b)
        for _ in range(20):
            row = rng.normal(0, 3, size=4)
            np.testing.assert_allclose(
                apply_normalizer(state_t, row * a + b),
                apply_normalizer(state, row),
                atol=1e-9,
            )

    def test_output_in_unit_interval(self, rng):
        rows = rng.normal(0, 3, size=(30, 5))
        state = fit_normalizer(rows)
        for _ in range(50):
            out = apply_normalizer(state, rng.normal(0, 10, size=5))
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fit_normalizer(np.zeros((0, 3)))

    def test_accepts_any_leading_shape(self):
        state = NormalizerState(np.array([2.0, 3.0]), np.array([6.0, 3.0]))
        out = apply_normalizer(state, np.full((2, 3, 2), 4.0))
        np.testing.assert_array_equal(out, np.broadcast_to([0.5, 0.5], (2, 3, 2)))
        with pytest.raises(InvalidArgumentError):
            apply_normalizer(state, np.zeros((3, 1)))
        with pytest.raises(InvalidArgumentError):
            apply_normalizer(state, np.float64(1.0))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_in_place_matches_per_row(self, data):
        n, steps, width, fit_rows = (data.draw(st.integers(1, 5)) for _ in range(4))
        fit = data.draw(arrays(np.float64, (fit_rows, width), elements=st.floats(-1e3, 1e3)))
        constant = data.draw(arrays(np.bool_, width))
        fit[:, constant] = fit[0, constant]
        state = fit_normalizer(fit)
        # values reach well past the fitted range so clamping is exercised
        rows = data.draw(arrays(np.float64, (n, steps, width), elements=st.floats(-1e4, 1e4)))
        expected = np.array([[apply_normalizer(state, row) for row in sample] for sample in rows])
        returned = apply_normalizer(state, rows, out=rows)
        assert returned is rows
        assert rows.tobytes() == expected.tobytes()

    def test_json_round_trip(self, rng, tmp_path):
        """``save_dataset``'s normalizer.json holds the fitted extrema exactly."""
        state = fit_normalizer(rng.normal(0, 2, size=(10, 3)))
        cfg = BuildConfig(ticker="AAPL", feature_set=frozenset({"sentiment"}))
        result = dataclasses.replace(build_dataset(*small_corpus(rng), cfg), normalizer=state)
        save_dataset(tmp_path, result, cfg)
        saved = json.loads((tmp_path / "normalizer.json").read_text())
        np.testing.assert_array_equal(np.array(saved["mins"]), state.mins)
        np.testing.assert_array_equal(np.array(saved["maxs"]), state.maxs)


FULL_NUMERIC = frozenset({"market", "social", "sentiment", "credibility"})


def small_corpus(rng, n_tweets=60, n_bars=30):
    bars = weekday_bars(rng, n_bars)
    dates = [bars[0].date + dt.timedelta(days=i)
             for i in range((bars[-1].date - bars[0].date).days + 1)]
    return synthetic_tweets(rng, dates, n_tweets), bars


def reference_samples(tweets, bars, fs, lookback: int = 0) -> list[tuple]:
    """(tweet, trading day index, raw numeric row) of each sample of a build,
    one tweet at a time through the per-tweet feature functions, its row's
    blocks concatenated in the documented order."""
    provider = LexiconSentimentProvider.shipped()
    market_rows, first_defined = market_feature_matrix(bars, SMALL_IND)
    labels = [lb.label for lb in label_bars(bars)]
    dates = [b.date for b in bars]
    store = UserHistoryStore()
    counts: dict[str, int] = {}
    samples = []
    for t in sorted((t for t in tweets if t.ticker == "AAPL"), key=lambda t: t.timestamp):
        day = bisect.bisect_right(dates, t.timestamp.date()) - 1
        if day < 0 or day >= len(labels) or ("market" in fs and day - lookback < first_defined):
            continue
        se = sentiment_vector(t.text, provider)
        counts[t.username] = counts.get(t.username, 0) + 1
        blocks = {
            "market": market_rows[day],
            "social": np.array([t.follower_count, t.friends_count, t.replies,
                                t.retweets, t.favorites, counts[t.username]], dtype=float),
            "sentiment": se.as_array(),
            "credibility": store.observe(t.username, t.timestamp),
        }
        store.record(t.username, t.timestamp, tweet_score(se.label, labels[day]))
        order = ("market", "social", "sentiment", "credibility")
        row = np.concatenate([np.zeros(0)] + [blocks[b] for b in order if b in fs])
        samples.append((t, day, row))
    return samples


def reference_raw_rows(tweets, bars, fs) -> np.ndarray:
    """Raw numeric rows of a build, as ``reference_samples`` makes them."""
    return np.array([row for _, _, row in reference_samples(tweets, bars, fs)])


class TestAssemble:
    """How build_dataset assembles each sample: block order, widths, block checks."""

    def build(self, tweets, bars, fs, **kwargs):
        cfg = BuildConfig(ticker="AAPL", feature_set=fs, indicators=SMALL_IND, **kwargs)
        return build_dataset(tweets, bars, cfg)

    def test_market_only(self, rng):
        result = self.build(*small_corpus(rng), frozenset({"market"}))
        for s in [*result.train, *result.test]:
            assert s.numeric.shape == (5,)
            assert s.text is None

    def test_full_feature_width(self, rng):
        result = self.build(
            *small_corpus(rng), FULL_NUMERIC | {"text"},
            embedding=EmbeddingTable.hashed(dim=4, seed=0), max_len_override=6,
        )
        for s in [*result.train, *result.test]:
            assert s.numeric.shape == (18,)
            assert s.text is not None and s.text.shape == (6, 4)

    def test_text_only(self, rng):
        result = self.build(
            *small_corpus(rng), frozenset({"text"}),
            embedding=EmbeddingTable.hashed(dim=4, seed=0), max_len_override=3,
        )
        assert result.normalizer.width == 0
        for s in [*result.train, *result.test]:
            assert s.numeric.shape == (0,)
            assert s.text.shape == (3, 4)

    def test_missing_block_named(self, rng):
        tweets, bars = small_corpus(rng)
        tweets = [dataclasses.replace(t, replies=None) if i % 2 else t for i, t in enumerate(tweets)]
        with pytest.raises(AssemblyError, match="social"):
            self.build(tweets, bars, frozenset({"social", "sentiment"}))

    def test_warmup_market_rejected(self, rng, monkeypatch):
        real = dataset_module.market_feature_matrix

        def undefined_past_warmup(bars, cfg):
            rows, first_defined = real(bars, cfg)
            rows[first_defined:, 0] = np.nan
            return rows, first_defined

        monkeypatch.setattr(dataset_module, "market_feature_matrix", undefined_past_warmup)
        with pytest.raises(AssemblyError, match="market"):
            self.build(*small_corpus(rng), frozenset({"market"}))

    def test_fixed_block_order(self, rng):
        tweets, bars = small_corpus(rng, n_tweets=120)
        result = self.build(tweets, bars, FULL_NUMERIC)
        raw = reference_raw_rows(tweets, bars, FULL_NUMERIC)
        samples = [*result.train, *result.test]
        assert len(samples) == len(raw)
        n_train = len(result.train)
        expected_hash = hashlib.sha256(
            struct.pack("<I", n_train) + raw[:n_train].astype("<f8").tobytes()
        ).hexdigest()
        assert result.report["leakage_audit_hash"] == expected_hash
        np.testing.assert_array_equal(result.normalizer.mins, raw[:n_train].min(axis=0))
        np.testing.assert_array_equal(result.normalizer.maxs, raw[:n_train].max(axis=0))
        for s, row in zip(samples, raw):
            np.testing.assert_array_equal(s.numeric, apply_normalizer(result.normalizer, row))

    @pytest.mark.parametrize("max_len", [None, 2])
    def test_text_matches_per_sample_embedding(self, rng, max_len):
        """Each sample's text, gathered from the table by token id, is bit for
        bit the matrix the per-sample lookup builds: same vectors, same end
        padding, same cut."""
        tweets, bars = small_corpus(rng)
        table = EmbeddingTable.hashed(dim=4, seed=0)
        result = self.build(
            tweets, bars, frozenset({"text"}), embedding=table, max_len_override=max_len
        )
        dates = [b.date for b in bars]
        kept = [
            t for t in sorted(tweets, key=lambda t: t.timestamp)
            if 0 <= bisect.bisect_right(dates, t.timestamp.date()) - 1 < len(bars) - 1
        ]
        samples = [*result.train, *result.test]
        assert len(samples) == len(kept)
        assert result.train.table.shape[0] - 1 < len(samples) * result.max_len
        stopwords = load_stopwords()
        for s, t in zip(samples, kept):
            expected = embed_sequence(tokenize_clean(t.text, stopwords), table, result.max_len)
            assert s.text.tobytes() == expected.tobytes()

    def test_deterministic(self, rng):
        tweets, bars = small_corpus(rng)
        kwargs = dict(embedding=EmbeddingTable.hashed(dim=4, seed=0))
        a = self.build(tweets, bars, FULL_NUMERIC | {"text"}, **kwargs)
        b = self.build(tweets, bars, FULL_NUMERIC | {"text"}, **kwargs)
        assert a.report == b.report
        for x, y in zip([*a.train, *a.test], [*b.train, *b.test]):
            np.testing.assert_array_equal(x.numeric, y.numeric)
            np.testing.assert_array_equal(x.text, y.text)


MSE = frozenset({"market", "social", "sentiment"})


class TestBuildDataset:
    def build(self, rng, n_tweets=60, n_bars=30, fs=MSE, **cfg_kwargs):
        bars = weekday_bars(rng, n_bars)
        dates = [bars[0].date + dt.timedelta(days=i)
                 for i in range((bars[-1].date - bars[0].date).days + 1)]
        tweets = synthetic_tweets(rng, dates, n_tweets)
        cfg = BuildConfig(
            ticker="AAPL", feature_set=fs, indicators=SMALL_IND, **cfg_kwargs
        )
        return tweets, bars, build_dataset(tweets, bars, cfg)

    def test_split_80_20(self, rng):
        _, _, result = self.build(rng)
        n = len(result.train) + len(result.test)
        assert len(result.train) == int(n * 0.8)
        assert result.report["samples"] == n

    def test_ten_samples_split(self):
        bars = bars_from_closes([10.0 + i for i in range(10)])
        tweets = []
        for i in range(10):
            day = bars[4].date
            tweets.append(
                TweetRecord(
                    id=str(i), username="u", ticker="AAPL",
                    timestamp=dt.datetime(day.year, day.month, day.day, 8 + i, tzinfo=UTC),
                    text="flat text",
                )
            )
        cfg = BuildConfig(ticker="AAPL", feature_set=frozenset({"sentiment"}))
        result = build_dataset(tweets, bars, cfg)
        assert len(result.train) == 8 and len(result.test) == 2

    def test_chronological_order_preserved(self, rng):
        _, _, result = self.build(rng)
        days = [s.day for s in [*result.train, *result.test]]
        assert days == sorted(days)

    def test_weekend_tweets_join_prior_trading_day(self, rng):
        bars = weekday_bars(rng, 10)
        saturday = next(
            bars[i].date + dt.timedelta(days=(5 - bars[i].date.weekday()))
            for i in range(len(bars))
            if bars[i].date.weekday() == 4 and bars[i].date < bars[-1].date
        )
        friday = saturday - dt.timedelta(days=1)
        tweets = [
            TweetRecord(
                id=str(i), username="u", ticker="AAPL",
                timestamp=dt.datetime(friday.year, friday.month, friday.day, 9 + i, tzinfo=UTC),
                text="weekday tweet",
            )
            for i in range(4)
        ]
        tweets.append(
            TweetRecord(
                id="5", username="u", ticker="AAPL",
                timestamp=dt.datetime(saturday.year, saturday.month, saturday.day, 10, tzinfo=UTC),
                text="weekend tweet",
            )
        )
        cfg = BuildConfig(ticker="AAPL", feature_set=frozenset({"sentiment"}))
        result = build_dataset(tweets, bars, cfg)
        weekend_sample = result.test[-1]  # latest timestamp lands in the test tail
        assert weekend_sample.day == friday

    def test_credibility_matches_truncated_replay_oracle(self, rng):
        tweets, bars, result = self.build(
            rng, n_tweets=200, fs=frozenset({"sentiment", "credibility"})
        )
        provider = LexiconSentimentProvider.shipped()
        labeled = label_bars(bars)
        bar_dates = [lb.bar.date for lb in labeled]
        label_by_date = {lb.bar.date: lb.label for lb in labeled}

        # independent join + scoring of every tweet that became a sample
        all_dates = [b.date for b in bars]
        joined = []
        for t in sorted((t for t in tweets if t.ticker == "AAPL"), key=lambda t: t.timestamp):
            prior = [d for d in all_dates if d <= t.timestamp.date()]
            if not prior or prior[-1] not in label_by_date:
                continue  # before history, or joined to the unlabeled final bar
            score = tweet_score(provider.score(t.text).label, label_by_date[prior[-1]])
            joined.append((t, score))
        samples = [*result.train, *result.test]
        assert len(samples) == len(joined)
        for i, sample in enumerate(samples):
            tweet, _ = joined[i]
            strict = [
                s for (t, s) in joined
                if t.username == tweet.username and t.timestamp < tweet.timestamp
            ]
            hits = sum(1 for s in strict if s == 1)
            misses = len(strict) - hits
            oracle_raw = np.concatenate(
                [provider.score(tweet.text).as_array(),
                 np.array(credibility_oracle(hits, misses))]
            )
            expected = apply_normalizer(result.normalizer, oracle_raw)
            np.testing.assert_array_equal(sample.numeric, expected)

    def test_normalizer_fit_on_train_only(self, rng):
        _, _, result = self.build(rng, n_tweets=120)
        train_matrix = np.array([s.numeric for s in result.train])
        assert np.all(train_matrix >= 0.0) and np.all(train_matrix <= 1.0)
        # every non-degenerate column of the train split touches 0 and 1
        degenerate = result.normalizer.degenerate
        for j in range(train_matrix.shape[1]):
            if not degenerate[j]:
                assert train_matrix[:, j].min() == 0.0
                assert train_matrix[:, j].max() == 1.0
        # test rows stay inside [0, 1] too: out-of-range raw values clamp
        test_matrix = np.array([s.numeric for s in result.test])
        assert np.all(test_matrix >= 0.0) and np.all(test_matrix <= 1.0)

    def test_deterministic_rebuild(self, rng):
        tweets, bars, first = self.build(rng)
        cfg = BuildConfig(ticker="AAPL", feature_set=MSE, indicators=SMALL_IND)
        second = build_dataset(tweets, bars, cfg)
        assert first.report == second.report
        for a, b in zip([*first.train, *first.test], [*second.train, *second.test]):
            np.testing.assert_array_equal(a.numeric, b.numeric)

    def test_empty_join_raises(self):
        bars = bars_from_closes([10.0, 11.0, 12.0])
        before = bars[0].date - dt.timedelta(days=30)
        tweets = [
            TweetRecord(
                id="1", username="u", ticker="AAPL",
                timestamp=dt.datetime(before.year, before.month, before.day, tzinfo=UTC),
                text="too early",
            )
        ]
        cfg = BuildConfig(ticker="AAPL", feature_set=frozenset({"sentiment"}))
        with pytest.raises(JoinError):
            build_dataset(tweets, bars, cfg)

    def test_final_day_tweets_dropped_as_unlabeled(self, rng):
        bars = bars_from_closes([10.0 + i for i in range(8)])
        last = bars[-1].date
        mid = bars[3].date
        tweets = []
        for i in range(5):
            tweets.append(
                TweetRecord(
                    id=str(i), username="u", ticker="AAPL",
                    timestamp=dt.datetime(mid.year, mid.month, mid.day, 8 + i, tzinfo=UTC),
                    text="mid-series tweet",
                )
            )
        tweets.append(
            TweetRecord(
                id="last", username="u", ticker="AAPL",
                timestamp=dt.datetime(last.year, last.month, last.day, 9, tzinfo=UTC),
                text="movement into today is already known",
            )
        )
        cfg = BuildConfig(ticker="AAPL", feature_set=frozenset({"sentiment"}))
        result = build_dataset(tweets, bars, cfg)
        assert result.report["samples"] == 5
        assert result.report["dropped"]["no_label_for_day"] == 1

    def test_max_len_from_train_split(self, rng):
        bars = weekday_bars(rng, 12)
        dates = [b.date for b in bars]
        tweets = synthetic_tweets(rng, dates, 40)
        cfg = BuildConfig(
            ticker="AAPL",
            feature_set=frozenset({"text"}),
            embedding=EmbeddingTable.hashed(dim=3, seed=0),
        )
        result = build_dataset(tweets, bars, cfg)
        assert result.max_len >= 1
        for s in [*result.train, *result.test]:
            assert s.text.shape == (result.max_len, 3)

    def test_text_flag_requires_embedding(self):
        with pytest.raises(InvalidArgumentError):
            BuildConfig(ticker="AAPL", feature_set=frozenset({"text"}))

    def test_max_len_override_truncates(self, rng):
        bars = weekday_bars(rng, 12)
        tweets = synthetic_tweets(rng, [b.date for b in bars], 40)
        cfg = BuildConfig(
            ticker="AAPL",
            feature_set=frozenset({"text"}),
            embedding=EmbeddingTable.hashed(dim=3, seed=0),
            max_len_override=2,
        )
        result = build_dataset(tweets, bars, cfg)
        assert result.max_len == 2
        for s in [*result.train, *result.test]:
            assert s.text.shape == (2, 3)

    def test_empty_feature_set_rejected(self):
        with pytest.raises(InvalidArgumentError):
            BuildConfig(ticker="AAPL", feature_set=frozenset())
        with pytest.raises(InvalidArgumentError):
            BuildConfig(ticker="AAPL", feature_set=frozenset({"velocity"}))

    def test_market_lookback_builds_step_sequences(self, rng):
        tweets, bars, baseline = self.build(rng, n_tweets=80)
        cfg = BuildConfig(
            ticker="AAPL", feature_set=MSE, indicators=SMALL_IND, market_lookback=2,
        )
        result = build_dataset(tweets, bars, cfg)
        assert result.report["numeric_steps"] == 3
        from tmfusion.indicators import market_feature_matrix

        market_rows, _ = market_feature_matrix(bars, SMALL_IND)
        date_to_idx = {b.date: i for i, b in enumerate(bars)}
        for s in [*result.train, *result.test]:
            assert s.numeric.shape == (3, 14)
            assert s.numeric_steps == 3
            # the final step must match the current day's market block
            day_idx = date_to_idx[s.day]
            expected_last = apply_normalizer(
                result.normalizer,
                np.concatenate([market_rows[day_idx], np.zeros(9)]),
            )[:5]
            np.testing.assert_array_equal(s.numeric[-1, :5], expected_last)
            # earlier steps walk strictly earlier days' market blocks
            for back in (1, 2):
                expected = apply_normalizer(
                    result.normalizer,
                    np.concatenate([market_rows[day_idx - back], np.zeros(9)]),
                )[:5]
                np.testing.assert_array_equal(s.numeric[-1 - back, :5], expected)
        # the lookback build keeps at least as many warmup drops as the default
        assert (
            result.report["dropped"]["indicator_warmup"]
            >= baseline.report["dropped"]["indicator_warmup"]
        )

    def test_market_lookback_demands_market_block(self):
        with pytest.raises(InvalidArgumentError):
            BuildConfig(
                ticker="AAPL", feature_set=frozenset({"sentiment"}), market_lookback=1,
            )


def _identity(state, rows, out=None):
    return rows


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lookback=st.integers(0, 5), data=st.data())
def test_assembled_rows_equal_the_repeat_reference(seed, lookback, data):
    """Any subset of a split's rows assembles, bit for bit, to the rows that
    repeating each raw row over its window, overwriting the market block
    day by day and normalizing the whole array give: over lookbacks 0-5
    and trading days with random calendar gaps between them."""
    rng = np.random.default_rng(seed)
    n_bars = data.draw(st.integers(15, 40), label="bars")
    gaps = np.cumsum(data.draw(st.lists(st.integers(1, 4), min_size=n_bars, max_size=n_bars)))
    bars = [dataclasses.replace(b, date=dt.date(2021, 1, 1) + dt.timedelta(days=int(g)))
            for b, g in zip(random_bars(rng, n_bars), gaps)]
    dates = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(int(gaps[-1]) + 3)]
    tweets = synthetic_tweets(rng, dates, data.draw(st.integers(20, 80), label="tweets"))
    cfg = BuildConfig(ticker="AAPL", feature_set=FULL_NUMERIC, indicators=SMALL_IND,
                      market_lookback=lookback)
    try:
        result = build_dataset(tweets, bars, cfg)
    except (JoinError, InvalidArgumentError):
        return  # no sample past the warmup, or none in the training split
    with mock.patch.object(dataset_module, "apply_normalizer", _identity):
        raw_result = build_dataset(tweets, bars, cfg)
    splits = (result.train, result.test)
    width, steps = numeric_width(FULL_NUMERIC), lookback + 1
    # with the normalizer a no-op, each sample's last step is its raw row
    raw = np.concatenate([s.numeric_steps(slice(None)).stacked()[:, -1]
                          for s in (raw_result.train, raw_result.test)])
    market_rows, _ = market_feature_matrix(bars, SMALL_IND)
    index = {b.date.toordinal(): i for i, b in enumerate(bars)}
    day_idx = [index[d] for s in splits for d in s.days.tolist()]
    reference = apply_normalizer(
        result.normalizer, lookback_reference(raw, market_rows, day_idx, lookback)
    )
    offset = 0
    for split in splits:
        rows = np.array(data.draw(st.lists(st.integers(0, len(split) - 1), max_size=12)),
                        dtype=np.intp)
        expected = reference[offset + rows].reshape(rows.size, steps, width)
        offset += len(split)
        assert split.numeric_steps(rows).stacked().tobytes() == expected.tobytes()


def gapped_corpus(rng, data):
    """Tweets over 12-30 trading days with random calendar gaps between them."""
    n_bars = data.draw(st.integers(12, 30), label="bars")
    gaps = np.cumsum(data.draw(st.lists(st.integers(1, 4), min_size=n_bars, max_size=n_bars)))
    bars = [dataclasses.replace(b, date=dt.date(2021, 1, 1) + dt.timedelta(days=int(g)))
            for b, g in zip(random_bars(rng, n_bars), gaps)]
    dates = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(int(gaps[-1]) + 3)]
    return synthetic_tweets(rng, dates, data.draw(st.integers(10, 60), label="tweets")), bars


BUILD_FLAGS = st.sets(st.sampled_from(sorted(FULL_NUMERIC | {"text"})), min_size=1)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    flags=BUILD_FLAGS,
    lookback=st.integers(0, 5),
    max_len=st.sampled_from([None, 1, 3]),
    data=st.data(),
)
def test_table_gathers_equal_the_per_sample_oracle(seed, flags, lookback, max_len, data):
    """Any subset of a split's rows assembles its numeric inputs from the
    day table, the text table and its own columns, and gathers its word
    vectors through its text rows, bit for bit as one sample at a time
    gives them from its own raw values (``sample_numeric_oracle``,
    ``sample_text_oracle``); its labels and days are its trading day's.
    Over flag sets with and without market, sentiment and text, lookbacks
    0-5, and texts that repeat."""
    fs = frozenset(flags)
    lookback = lookback if "market" in fs else 0
    tweets, bars = gapped_corpus(np.random.default_rng(seed), data)
    embedding = EmbeddingTable.hashed(dim=2, seed=3)
    cfg = BuildConfig(ticker="AAPL", feature_set=fs, indicators=SMALL_IND, embedding=embedding,
                      max_len_override=max_len, market_lookback=lookback)
    try:
        result = build_dataset(tweets, bars, cfg)
    except (JoinError, InvalidArgumentError):
        return  # no sample past the warmup, or none in the training split
    samples = reference_samples(tweets, bars, fs, lookback)
    assert len(samples) == result.report["samples"]
    raw = [row.tolist() for _, _, row in samples]
    width = numeric_width(fs)
    mins, maxs = minmax_oracle(raw[: result.report["train_samples"]]) if width else ([], [])
    market_rows, _ = market_feature_matrix(bars, SMALL_IND)
    labels = [lb.label for lb in label_bars(bars)]
    stopwords = load_stopwords()
    offset = 0
    for split in (result.train, result.test):
        rows = np.array(data.draw(st.lists(st.integers(0, len(split) - 1), max_size=12)),
                        dtype=np.intp)
        picked = [samples[offset + i] for i in rows.tolist()]
        offset += len(split)
        numeric = [
            sample_numeric_oracle(
                raw[offset - len(split) + i],
                [market_rows[d].tolist() for d in range(day - lookback, day + 1)]
                if "market" in fs else [],
                mins, maxs,
            )
            for i, (_, day, _) in zip(rows.tolist(), picked)
        ]
        expected = np.array(numeric, dtype=np.float64).reshape(rows.size, split.steps, width)
        assert split.numeric_steps(rows).stacked().tobytes() == expected.tobytes()
        assert split.labels[rows].tolist() == [labels[day] for _, day, _ in picked]
        assert split.days[rows].tolist() == [bars[day].date.toordinal() for _, day, _ in picked]
        if "text" not in fs:
            assert split.tokens is None
            continue
        text = [
            sample_text_oracle(
                [embedding.lookup(w).tolist() for w in tokenize_clean(t.text, stopwords)],
                result.max_len, 2,
            )
            for t, _, _ in picked
        ]
        expected = np.array(text, dtype=np.float64).reshape(rows.size, result.max_len, 2)
        assert split.text_steps(rows).stacked().tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    flags=BUILD_FLAGS,
    lookback=st.integers(0, 5),
    data=st.data(),
)
def test_step_sources_equal_the_whole_sequence_gathers(seed, flags, lookback, data):
    """Each step of ``numeric_steps`` and ``text_steps`` over any subset of
    a split's rows is, bit for bit, that step of the whole-sequence gather,
    read in any order and in one reused buffer; ``Steps.stacked``, their
    stack, equals the whole gather, with and without a buffer. Over flag
    sets with and without text and lookbacks 0-5."""
    fs = frozenset(flags)
    lookback = lookback if "market" in fs else 0
    tweets, bars = gapped_corpus(np.random.default_rng(seed), data)
    cfg = BuildConfig(ticker="AAPL", feature_set=fs, indicators=SMALL_IND,
                      embedding=EmbeddingTable.hashed(dim=2, seed=3), market_lookback=lookback)
    try:
        result = build_dataset(tweets, bars, cfg)
    except (JoinError, InvalidArgumentError):
        return  # no sample past the warmup, or none in the training split
    for split in (result.train, result.test):
        rows = np.array(data.draw(st.lists(st.integers(0, len(split) - 1), max_size=12)),
                        dtype=np.intp)
        sources = [(split.numeric_steps, whole_numeric_gather(split, rows))]
        if "text" in fs:
            sources.append((split.text_steps, whole_text_gather(split, rows)))
        for steps_of, whole in sources:
            n, t_len, width = whole.shape
            buffer = np.full((n, width), np.nan)
            steps = steps_of(rows, buffer)
            assert steps.shape == (t_len, n, width)
            order = data.draw(st.permutations(range(t_len)), label="order")
            for t in [*order, *reversed(order)]:
                step = steps[t]
                assert step is buffer
                assert step.tobytes() == np.ascontiguousarray(whole[:, t]).tobytes()
            for stacked in (steps.stacked(), steps_of(rows).stacked()):
                assert stacked.shape == whole.shape
                assert stacked.tobytes() == whole.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    flags=BUILD_FLAGS,
    lookback=st.integers(0, 5),
    data=st.data(),
)
def test_fit_hash_and_tables_equal_the_raw_matrix_reference(seed, flags, lookback, data):
    """The normalizer fitted per block on its table's rows, the leakage-audit
    hash streamed over row chunks, and each split's normalized tables equal,
    bit for bit, what the raw (N, width) matrix of every sample's row gives
    (``raw_matrix_reference``). Over flag sets and lookbacks 0-5; the raw
    blocks are the tables a build writes with its normalizer a no-op."""
    fs = frozenset(flags)
    lookback = lookback if "market" in fs else 0
    tweets, bars = gapped_corpus(np.random.default_rng(seed), data)
    cfg = BuildConfig(ticker="AAPL", feature_set=fs, indicators=SMALL_IND,
                      embedding=EmbeddingTable.hashed(dim=2, seed=3), market_lookback=lookback)
    try:
        result = build_dataset(tweets, bars, cfg)
    except (JoinError, InvalidArgumentError):
        return  # no sample past the warmup, or none in the training split
    with mock.patch.object(dataset_module, "apply_normalizer", _identity):
        raw_result = build_dataset(tweets, bars, cfg)
    raw_splits = (raw_result.train, raw_result.test)
    blocks, own_col = [], 0
    for source, width in dataset_module.numeric_layout(fs):
        if source == "market":
            blocks.append(np.concatenate([s.market[s.day_rows] for s in raw_splits]))
        elif source == "sentiment":
            blocks.append(np.concatenate([s.sentiment[s.text_rows] for s in raw_splits]))
        else:
            blocks.append(np.concatenate([s.own[:, own_col : own_col + width] for s in raw_splits]))
            own_col += width
    n, n_train = result.report["samples"], result.report["train_samples"]
    _, mins, maxs, digest = raw_matrix_reference(blocks, n, n_train)
    assert result.normalizer.mins.tobytes() == mins.tobytes()
    assert result.normalizer.maxs.tobytes() == maxs.tobytes()
    assert result.report["leakage_audit_hash"] == digest
    source = np.repeat([name for name, _ in result.train.layout],
                       [width for _, width in result.train.layout])
    for split, raw_split in zip((result.train, result.test), raw_splits):
        for name in ("own", "market", "sentiment"):
            cols = source == name
            if getattr(raw_split, name) is None:
                assert getattr(split, name) is None
                continue
            stats = NormalizerState(result.normalizer.mins[cols], result.normalizer.maxs[cols])
            expected = apply_normalizer(stats, getattr(raw_split, name))
            assert getattr(split, name).tobytes() == expected.tobytes()


class TestArtifacts:
    def build_small(self, rng, fs=MSE, with_text=False):
        bars = weekday_bars(rng, 20)
        dates = [b.date for b in bars]
        tweets = synthetic_tweets(rng, dates, 40)
        flags = set(fs)
        kwargs = {}
        if with_text:
            flags.add("text")
            kwargs["embedding"] = EmbeddingTable.hashed(dim=3, seed=1)
        cfg = BuildConfig(
            ticker="AAPL", feature_set=frozenset(flags), indicators=SMALL_IND, **kwargs
        )
        return cfg, build_dataset(tweets, bars, cfg)

    def test_round_trip(self, rng, tmp_path):
        cfg, result = self.build_small(rng, with_text=True)
        save_dataset(tmp_path / "ds", result, cfg)
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded.train) == len(result.train)
        assert len(loaded.test) == len(result.test)
        for a, b in zip(loaded.train, result.train):
            np.testing.assert_array_equal(a.numeric, b.numeric)
            np.testing.assert_array_equal(a.text, b.text)
            assert (a.label, a.day, a.author, a.ticker) == (b.label, b.day, b.author, b.ticker)
        saved = json.loads((tmp_path / "ds" / "normalizer.json").read_text())
        np.testing.assert_array_equal(np.array(saved["mins"]), result.normalizer.mins)
        assert json.loads((tmp_path / "ds" / "build_report.json").read_text()) == result.report

    def test_rebuild_byte_identical(self, rng, tmp_path):
        cfg, result = self.build_small(rng)
        save_dataset(tmp_path / "a", result, cfg)
        save_dataset(tmp_path / "b", result, cfg)
        for name in ("train.bin", "test.bin", "normalizer.json", "build_report.json"):
            a = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
            b = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
            assert a == b, name

    def test_v1_file_names_its_version(self, tmp_path):
        p = tmp_path / "train.bin"
        write_v1_split(p)
        with pytest.raises(SchemaError, match="train.bin: format version 1"):
            read_split(p)
        with pytest.raises(SchemaError, match="format version 1"):
            read_header(p)

    @pytest.mark.parametrize("column, value", [
        ("labels", 2), ("days", 0), ("author_ids", -1), ("author_ids", "len"),
        ("token_ids", -1), ("token_ids", "len"), ("day_rows", -1), ("day_rows", "len"),
        ("text_rows", -1), ("text_rows", "len"),
    ])
    def test_out_of_range_id_rejected(self, rng, tmp_path, column, value):
        """A checksum-valid file whose ids point outside what they index is
        refused, so no gather ever clamps one. The labels and days are the
        day table's, the token ids the text table's."""
        cfg, result = self.build_small(rng, with_text=True)
        split = result.test
        bound = {"author_ids": len(split.authors), "token_ids": split.table.shape[0],
                 "day_rows": split.day_ordinals.shape[0], "text_rows": split.tokens.shape[0]}
        field = {"labels": "day_labels", "days": "day_ordinals", "token_ids": "tokens"}.get(
            column, column)
        bad = getattr(split, field).copy()
        bad.flat[-1] = bound[column] if value == "len" else value
        p = tmp_path / "test.bin"
        write_split(p, dataclasses.replace(split, **{field: bad}), cfg.feature_set, "close")
        with pytest.raises(SchemaError, match="test.bin: a .* lies outside"):
            read_split(p)

    def test_day_ordinals_must_increase(self, rng, tmp_path):
        cfg, result = self.build_small(rng)
        split = result.test
        assert split.day_ordinals.size >= 2
        p = tmp_path / "test.bin"
        for ordinals in (split.day_ordinals[::-1], np.repeat(split.day_ordinals[:1], 2)):
            days = ordinals.size
            changed = dataclasses.replace(
                split, day_ordinals=ordinals.copy(), day_labels=split.day_labels[:days],
                market=split.market[:days], day_rows=np.minimum(split.day_rows, days - 1),
            )
            write_split(p, changed, cfg.feature_set, "close")
            with pytest.raises(SchemaError, match="test.bin: the day ordinals are not strictly"):
                read_split(p)

    def test_format_3_file_names_its_version_and_stage(self, rng, tmp_path):
        """A split file of the previous format, one row per sample for every
        column, is refused with the stage that rewrites it."""
        cfg, result = self.build_small(rng, with_text=True)
        save_dataset(tmp_path / "ds", result, cfg)
        for name in ("train.bin", "test.bin", dataset_module.TABLE_NAME):
            p = tmp_path / "ds" / name
            blob = bytearray(p.read_bytes())
            blob[4:8] = struct.pack("<I", 3)
            p.write_bytes(bytes(blob))
            reader = read_table if name == dataset_module.TABLE_NAME else read_split
            with pytest.raises(SchemaError, match=(
                rf"{name}: format version 3, but this reader reads only version 4; "
                "rerun the features subcommand"
            )):
                reader(p)

    def test_table_must_match_the_splits(self, rng, tmp_path):
        cfg, result = self.build_small(rng, with_text=True)
        save_dataset(tmp_path / "ds", result, cfg)
        table_path = tmp_path / "ds" / dataset_module.TABLE_NAME
        dataset_module.write_table(table_path, result.train.table[:-1])
        with pytest.raises(SchemaError, match=dataset_module.TABLE_NAME):
            load_dataset(tmp_path / "ds")
        table_path.unlink()
        with pytest.raises(SchemaError, match="cannot be read"):
            load_dataset(tmp_path / "ds")

    def test_splits_share_one_table(self, rng, tmp_path):
        cfg, result = self.build_small(rng, with_text=True)
        save_dataset(tmp_path / "ds", result, cfg)
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.train.table is loaded.test.table
        np.testing.assert_array_equal(loaded.train.table, result.train.table)
        assert not loaded.train.table[0].any()
        # numeric-only datasets write no table
        cfg, result = self.build_small(rng)
        save_dataset(tmp_path / "ds", result, cfg)
        assert not (tmp_path / "ds" / dataset_module.TABLE_NAME).exists()
        assert load_dataset(tmp_path / "ds").test.table is None

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "train.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(SchemaError):
            read_split(p)

    def test_every_truncation_rejected(self, rng, tmp_path):
        cfg, result = self.build_small(rng, with_text=True)
        save_dataset(tmp_path / "ds", result, cfg)
        blob = (tmp_path / "ds" / "test.bin").read_bytes()
        header_end = 12 + int.from_bytes(blob[8:12], "little")
        cut = tmp_path / "cut.bin"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(SchemaError, match="cut.bin"):
                read_split(cut)
            if size < header_end:
                with pytest.raises(SchemaError, match="cut.bin"):
                    read_header(cut)
        cut.write_bytes(blob)
        split, header = read_split(cut)
        assert len(split) == header["count"] == len(result.test)
        assert read_header(cut) == header

    def test_header_read_skips_records(self, rng, tmp_path):
        cfg, result = self.build_small(rng)
        save_dataset(tmp_path / "ds", result, cfg)
        p = tmp_path / "ds" / "train.bin"
        _, header = read_split(p)
        blob = p.read_bytes()
        p.write_bytes(blob[: 12 + int.from_bytes(blob[8:12], "little")])
        assert read_header(p) == header

    def test_malformed_header_rejected(self, tmp_path):
        p = tmp_path / "train.bin"
        counts_wrong = {"schema_hash": schema_hash(), "flags": [], "ticker": "AAPL",
                        "label_field": "close", "numeric_width": -1, "numeric_steps": 1,
                        "days": 0, "texts": 0, "max_len": 0, "embedding_dim": 0, "vocab_size": 0,
                        "count": 0, "authors": []}
        narrower_than_market = {**counts_wrong, "flags": ["market"], "numeric_width": 3}
        version = dataset_module.DATASET_FORMAT_VERSION
        for header in (b"not json", b'{"schema_hash": "0"}', b"[]",
                       json.dumps(counts_wrong).encode(), json.dumps(narrower_than_market).encode()):
            p.write_bytes(b"TMDS" + struct.pack("<II", version, len(header)) + header)
            with pytest.raises(SchemaError, match="train.bin"):
                read_split(p)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        cfg, result = self.build_small(rng)
        save_dataset(tmp_path / "ds", result, cfg)
        p = tmp_path / "ds" / "train.bin"
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(SchemaError):
            read_split(p)

    def test_numeric_width_helper(self):
        assert numeric_width(frozenset({"market"})) == 5
        assert numeric_width(MSE) == 14
        assert numeric_width(frozenset({"market", "social", "sentiment", "credibility"})) == 18
        assert numeric_width(frozenset({"text"})) == 0

    def test_lookback_round_trip(self, rng, tmp_path):
        bars = weekday_bars(rng, 20)
        tweets = synthetic_tweets(rng, [b.date for b in bars], 40)
        cfg = BuildConfig(
            ticker="AAPL", feature_set=MSE, indicators=SMALL_IND, market_lookback=2,
        )
        result = build_dataset(tweets, bars, cfg)
        save_dataset(tmp_path / "ds", result, cfg)
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.header["numeric_steps"] == 3
        for a, b in zip([*loaded.train, *loaded.test], [*result.train, *result.test]):
            assert a.numeric.shape == (3, 14)
            np.testing.assert_array_equal(a.numeric, b.numeric)


#: The files of the two tiny datasets: one with text, one with a market lookback.
DATASET_FILES = (
    "text/train.bin", "text/test.bin", f"text/{dataset_module.TABLE_NAME}",
    "lookback/train.bin", "lookback/test.bin",
)


def file_arrays(path: Path) -> list:
    """Everything a reader returns for one dataset file, for comparison."""
    if path.name == dataset_module.TABLE_NAME:
        return [read_table(path)]
    split, header = read_split(path)
    return [split.own, split.market, split.sentiment, split.day_ordinals, split.day_labels,
            split.tokens, split.day_rows, split.text_rows, split.author_ids, split.steps,
            split.authors, header]


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory) -> dict:
    """The bytes and the read-back arrays of each file of two small datasets."""
    rng = np.random.default_rng(5)
    bars = weekday_bars(rng, 8)
    tweets = synthetic_tweets(rng, [b.date for b in bars], 8, n_authors=3)
    text_cfg = BuildConfig(
        ticker="AAPL", feature_set=frozenset({"sentiment", "text"}),
        embedding=EmbeddingTable.hashed(dim=2, seed=0), max_len_override=3,
    )
    bars = weekday_bars(rng, 16)
    lookback_cfg = BuildConfig(
        ticker="AAPL", feature_set=frozenset({"market", "sentiment"}),
        indicators=SMALL_IND, market_lookback=2,
    )
    out = tmp_path_factory.mktemp("tiny")
    for name, cfg, tweets in (
        ("text", text_cfg, tweets),
        ("lookback", lookback_cfg, synthetic_tweets(rng, [b.date for b in bars], 12)),
    ):
        save_dataset(out / name, build_dataset(tweets, bars, cfg), cfg)
    return {name: ((out / name).read_bytes(), file_arrays(out / name)) for name in DATASET_FILES}


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(DATASET_FILES), data=st.data())
def test_damaged_file_reads_back_or_is_rejected(tiny_dataset, name, data):
    """Any truncation or single-byte change of a split or table file either
    reads back the very same arrays or raises SchemaError naming the file;
    never another exception, and never an id outside what it indexes."""
    blob, expected = tiny_dataset[name]
    name = Path(name).name
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[: data.draw(st.integers(0, len(blob) - 1), label="size")]
    else:
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
        damaged = blob[:pos] + bytes([byte]) + blob[pos + 1 :]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(damaged)
        try:
            got = file_arrays(path)
        except SchemaError as exc:
            assert name in str(exc)
            return
    for a, b in zip(got, expected):
        if isinstance(a, np.ndarray):
            assert a.tobytes() == b.tobytes()
        else:
            assert a == b


@pytest.fixture(scope="module")
def lookback_split() -> tuple[Split, frozenset]:
    rng = np.random.default_rng(8)
    bars = weekday_bars(rng, 16)
    cfg = BuildConfig(ticker="AAPL", feature_set=frozenset({"market", "sentiment"}),
                      indicators=SMALL_IND, market_lookback=2)
    return build_dataset(synthetic_tweets(rng, [b.date for b in bars], 12), bars, cfg).test, cfg.feature_set


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rewritten_market_columns_read_back_in_range_or_are_rejected(lookback_split, data):
    """A checksum-valid split file with any day table (market values, day
    ordinals) and any day rows either reads back the same columns, every
    window inside the day table, every value finite and the days strictly
    increasing, or raises SchemaError naming the file."""
    split, fs = lookback_split
    days = data.draw(st.integers(0, 6), label="days")
    market = data.draw(arrays(np.float64, (days, 5), elements=st.floats(width=64)), label="market")
    ordinals = data.draw(arrays(np.int32, days, elements=st.integers(1, 8)), label="ordinals")
    day_rows = data.draw(arrays(np.int32, len(split), elements=st.integers(-2, days + 2)),
                         label="day rows")
    changed = dataclasses.replace(split, market=market, day_rows=day_rows, day_ordinals=ordinals,
                                  day_labels=np.zeros(days, dtype=np.uint8))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "test.bin"
        write_split(path, changed, fs, "close")
        try:
            got, header = read_split(path)
        except SchemaError as exc:
            assert "test.bin" in str(exc)
            assert not (np.all(np.isfinite(market)) and np.all(day_rows >= split.steps - 1)
                        and np.all(day_rows < days) and np.all(np.diff(ordinals) > 0))
            return
    assert header["days"] == days and got.steps == split.steps == 3
    assert np.all(np.isfinite(got.market)) and np.all(np.diff(got.day_ordinals) > 0)
    assert got.day_rows.min() >= got.steps - 1 and got.day_rows.max() < days
    assert (got.numeric_steps(slice(None)).stacked().tobytes()
            == changed.numeric_steps(slice(None)).stacked().tobytes())


@pytest.fixture(scope="module")
def text_split() -> tuple[Split, frozenset]:
    rng = np.random.default_rng(9)
    bars = weekday_bars(rng, 10)
    cfg = BuildConfig(ticker="AAPL", feature_set=frozenset({"sentiment", "text"}),
                      embedding=EmbeddingTable.hashed(dim=2, seed=0))
    return build_dataset(synthetic_tweets(rng, [b.date for b in bars], 12), bars, cfg).test, cfg.feature_set


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rewritten_text_columns_read_back_in_range_or_are_rejected(text_split, data):
    """A checksum-valid split file with any text table (sentiment values,
    token ids) and any text rows either reads back the same columns, every
    text row inside the text table, every token id inside the embedding
    table and every value finite, or raises SchemaError naming the file."""
    split, fs = text_split
    texts = data.draw(st.integers(0, 5), label="texts")
    max_len, vocab = split.tokens.shape[1], split.table.shape[0] - 1
    sentiment = data.draw(arrays(np.float64, (texts, 3), elements=st.floats(width=64)),
                          label="sentiment")
    tokens = data.draw(arrays(np.int32, (texts, max_len), elements=st.integers(-2, vocab + 2)),
                       label="tokens")
    text_rows = data.draw(arrays(np.int32, len(split), elements=st.integers(-2, texts + 2)),
                          label="text rows")
    changed = dataclasses.replace(split, sentiment=sentiment, tokens=tokens, text_rows=text_rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "test.bin"
        write_split(path, changed, fs, "close")
        try:
            got, header = read_split(path)
        except SchemaError as exc:
            assert "test.bin" in str(exc)
            assert not (np.all(np.isfinite(sentiment)) and np.all(text_rows >= 0)
                        and np.all(text_rows < texts) and np.all(tokens >= 0)
                        and np.all(tokens <= vocab))
            return
    got.table = split.table
    assert header["texts"] == texts
    assert got.text_rows.min() >= 0 and got.text_rows.max() < texts
    for steps in ("numeric_steps", "text_steps"):
        assert (getattr(got, steps)(slice(None)).stacked().tobytes()
                == getattr(changed, steps)(slice(None)).stacked().tobytes())
