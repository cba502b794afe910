from __future__ import annotations

import datetime as dt
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmfusion.config import IndicatorConfig
from tmfusion.errors import InvalidArgumentError, NotReadyError, SchemaError, TmfusionError
from tmfusion.indicators import (
    IndicatorSeries,
    bollinger,
    cci,
    ema,
    macd,
    market_feature_matrix,
    rsi,
    sma,
)
from tmfusion.inputs import OhlcvBar, _parse_date, load_ohlcv_csv

from .conftest import DATA_DIR, constant_bars, random_bars, random_walk
from .oracles import (
    bollinger_oracle,
    cci_oracle,
    ema_oracle,
    macd_oracle,
    market_feature_vector,
    rsi_oracle,
    sma_oracle,
    strptime_date_reference,
)


def assert_matches_oracle(series: IndicatorSeries, oracle: list[float | None], atol=1e-9):
    assert len(series) == len(oracle)
    for i, expected in enumerate(oracle):
        if expected is None:
            assert np.isnan(series.values[i]), f"index {i} should be undefined"
        else:
            assert series.values[i] == pytest.approx(expected, abs=atol)


class TestSma:
    def test_three_points(self):
        s = sma([1.0, 2.0, 3.0], 3)
        assert s.warmup_len == 2
        assert np.isnan(s.values[0]) and np.isnan(s.values[1])
        assert s.values[2] == 2.0

    def test_constant_series(self):
        s = sma([7.5] * 30, 4)
        assert np.all(s.values[3:] == 7.5)

    def test_matches_windowed_sum_oracle(self, rng):
        xs = random_walk(rng, 1000)
        assert_matches_oracle(sma(xs, 10), sma_oracle(list(xs), 10))

    def test_rejects_degenerate_input(self):
        with pytest.raises(InvalidArgumentError):
            sma([1.0, 2.0], 0)
        with pytest.raises(InvalidArgumentError):
            sma([], 3)


class TestEma:
    def test_hand_computed(self):
        s = ema([1.0, 1.0, 3.0], 2)
        assert np.isnan(s.values[0])
        assert s.values[1] == 1.0
        assert s.values[2] == pytest.approx(7.0 / 3.0, abs=1e-12)

    def test_constant_fixed_point(self):
        s = ema([4.2] * 25, 6)
        assert np.all(np.abs(s.values[5:] - 4.2) < 1e-12)

    def test_matches_recursive_oracle(self, rng):
        xs = random_walk(rng, 500)
        assert_matches_oracle(ema(xs, 5), ema_oracle(list(xs), 5))

    def test_convex_combination_bounds(self, rng):
        xs = rng.uniform(10, 20, size=200)
        s = ema(xs, 5)
        for t in range(5 - 1, 200):
            prefix = xs[: t + 1]
            assert prefix.min() - 1e-12 <= s.values[t] <= prefix.max() + 1e-12

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            ema([1.0, 2.0], 3)


class TestRsi:
    def test_strictly_increasing_saturates_high(self):
        closes = [100.0 + i for i in range(30)]
        s = rsi(closes, 27)
        assert s.values[-1] == pytest.approx(100.0, abs=1e-9)

    def test_strictly_decreasing_saturates_low(self):
        closes = [100.0 - 0.5 * i for i in range(30)]
        s = rsi(closes, 27)
        assert s.values[-1] == pytest.approx(0.0, abs=1e-9)

    def test_flat_is_neutral(self):
        s = rsi([55.0] * 30, 27)
        assert np.all(s.values[27:] == 50.0)

    def test_matches_stepwise_oracle(self, rng):
        xs = random_walk(rng, 1000)
        assert_matches_oracle(rsi(xs, 14), rsi_oracle(list(xs), 14))

    def test_bounded(self, rng):
        for _ in range(5):
            xs = random_walk(rng, 200)
            vals = rsi(xs, 14).values
            defined = vals[~np.isnan(vals)]
            assert np.all(defined >= 0.0) and np.all(defined <= 100.0)

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            rsi([1.0] * 15, 14)


class TestMacd:
    def test_constant_is_zero(self):
        s = macd([9.0] * 40, 12, 26)
        assert np.all(np.abs(s.values[25:]) < 1e-12)

    def test_equals_ema_difference(self, rng):
        xs = random_walk(rng, 300)
        s = macd(xs, 12, 26)
        fast = ema(xs, 12).values
        slow = ema(xs, 26).values
        np.testing.assert_allclose(s.values[25:], (fast - slow)[25:], atol=1e-12)
        assert_matches_oracle(s, macd_oracle(list(xs), 12, 26))

    def test_positive_on_rising_ramp(self):
        xs = [float(t) + 1.0 for t in range(60)]
        s = macd(xs, 12, 26)
        assert np.all(s.values[25:] > 0)
        assert_matches_oracle(s, macd_oracle(xs, 12, 26))

    def test_rejects_bad_periods(self):
        with pytest.raises(InvalidArgumentError):
            macd([1.0] * 40, 26, 12)
        with pytest.raises(InvalidArgumentError):
            macd([1.0] * 40, 12, 12)


class TestCci:
    def test_constant_bars_zero(self):
        s = cci(constant_bars(30), 5)
        assert np.all(s.values[4:] == 0.0)

    def test_matches_windowed_oracle(self, rng):
        bars = random_bars(rng, 300)
        s = cci(bars, 20)
        oracle = cci_oracle(
            [b.high for b in bars], [b.low for b in bars], [b.close for b in bars], 20
        )
        assert_matches_oracle(s, oracle)

    def test_spike_above_flat_history(self):
        bars = constant_bars(20, price=100.0)
        spike = OhlcvBar(
            bars[-1].date + dt.timedelta(days=1), 100.0, 112.0, 100.0, 110.0, 110.0
        )
        series = cci(bars + [spike], 20)
        oracle = cci_oracle(
            [b.high for b in bars] + [spike.high],
            [b.low for b in bars] + [spike.low],
            [b.close for b in bars] + [spike.close],
            20,
        )
        assert series.values[-1] > 100.0
        assert series.values[-1] == pytest.approx(oracle[-1], abs=1e-9)


class TestBollinger:
    def test_constant_collapses(self):
        ub, mb, lb = bollinger([3.0] * 25, 20, 2.0)
        assert np.all(ub.values[19:] == 3.0)
        assert np.all(mb.values[19:] == 3.0)
        assert np.all(lb.values[19:] == 3.0)

    def test_symmetric_envelope(self, rng):
        xs = random_walk(rng, 200)
        ub, mb, lb = bollinger(xs, 20, 2.0)
        np.testing.assert_allclose(
            ub.values[19:] - mb.values[19:], mb.values[19:] - lb.values[19:], atol=1e-9
        )
        assert np.all(lb.values[19:] <= mb.values[19:] + 1e-12)
        assert np.all(mb.values[19:] <= ub.values[19:] + 1e-12)

    def test_hand_computed_two_points(self):
        ub, mb, lb = bollinger([1.0, 3.0], 2, 1.0)
        assert mb.values[1] == 2.0
        assert ub.values[1] == 3.0
        assert lb.values[1] == 1.0

    def test_matches_oracle(self, rng):
        xs = random_walk(rng, 250)
        ub, mb, lb = bollinger(xs, 20, 2.0)
        ou, om, ol = bollinger_oracle(list(xs), 20, 2.0)
        assert_matches_oracle(ub, ou)
        assert_matches_oracle(mb, om)
        assert_matches_oracle(lb, ol)


class TestShiftInvariance:
    """Adding a constant to all prices must not move difference-based indicators."""

    def test_rsi_and_cci_shift_invariant(self, rng):
        xs = random_walk(rng, 120)
        shift = 250.0
        np.testing.assert_allclose(
            rsi(xs, 14).values[14:], rsi(xs + shift, 14).values[14:], atol=1e-9
        )
        bars = random_bars(rng, 120)
        shifted = [
            OhlcvBar(b.date, b.open + shift, b.high + shift, b.low + shift,
                     b.close + shift, b.adj_close + shift)
            for b in bars
        ]
        np.testing.assert_allclose(
            cci(bars, 20).values[19:], cci(shifted, 20).values[19:], atol=1e-9
        )

    def test_averages_shift_by_constant(self, rng):
        xs = random_walk(rng, 120)
        shift = 250.0
        np.testing.assert_allclose(
            sma(xs + shift, 10).values[9:], sma(xs, 10).values[9:] + shift, atol=1e-9
        )
        np.testing.assert_allclose(
            ema(xs + shift, 10).values[9:], ema(xs, 10).values[9:] + shift, atol=1e-9
        )
        ub, mb, lb = bollinger(xs, 20, 2.0)
        ub2, mb2, lb2 = bollinger(xs + shift, 20, 2.0)
        np.testing.assert_allclose(ub2.values[19:], ub.values[19:] + shift, atol=1e-9)
        np.testing.assert_allclose(mb2.values[19:], mb.values[19:] + shift, atol=1e-9)
        np.testing.assert_allclose(lb2.values[19:], lb.values[19:] + shift, atol=1e-9)


class TestMarketFeatureVector:
    CFG = IndicatorConfig()

    def test_not_ready_inside_warmup(self, rng):
        bars = random_bars(rng, 60)
        with pytest.raises(NotReadyError):
            market_feature_vector(bars, bars[0].date, self.CFG)

    def test_constant_history_conventions(self):
        bars = constant_bars(40, price=12.0)
        vec = market_feature_vector(bars, bars[-1].date, self.CFG)
        np.testing.assert_allclose(vec, [50.0, 0.0, 0.0, 0.5, 12.0], atol=1e-12)

    def test_slots_equal_standalone_ops(self, rng):
        bars = random_bars(rng, 80)
        closes = np.array([b.close for b in bars])
        t = bars[-1].date
        vec = market_feature_vector(bars, t, self.CFG)
        assert vec[0] == pytest.approx(rsi(closes, 27).values[-1], abs=1e-12)
        assert vec[1] == pytest.approx(macd(closes, 12, 26).values[-1], abs=1e-12)
        assert vec[2] == pytest.approx(cci(bars, 20).values[-1], abs=1e-12)
        ub, mb, lb = bollinger(closes, 20, 2.0)
        expected_bb = (closes[-1] - lb.values[-1]) / (ub.values[-1] - lb.values[-1])
        assert vec[3] == pytest.approx(expected_bb, abs=1e-12)
        assert vec[4] == pytest.approx(sma(closes, 10).values[-1], abs=1e-12)

    def test_unknown_date(self, rng):
        bars = random_bars(rng, 60)
        with pytest.raises(InvalidArgumentError):
            market_feature_vector(bars, dt.date(1999, 1, 1), self.CFG)

    def test_error_names_offending_indicator(self, rng):
        bars = random_bars(rng, 60)
        # index 20 is past the bb/cci/ma warmups but inside rsi's (27)
        with pytest.raises(NotReadyError, match="rsi"):
            market_feature_vector(bars, bars[20].date, self.CFG)

    def test_bb_scalar_modes(self, rng):
        """Every row, in every mode, is the per-bar composition of the
        standalone indicators, bit for bit, across a flat stretch where the
        Bollinger bands meet."""
        bars = random_bars(rng, 80)
        # 25 bars at one price: the 20-bar bands meet on the last 6 of them
        bars[40:65] = [OhlcvBar(b.date, 50.0, 50.0, 50.0, 50.0, 50.0) for b in bars[40:65]]
        closes = np.array([b.close for b in bars])
        ub, mb, lb = (s.values for s in bollinger(closes, 20, 2.0))
        rsi_v, macd_v, cci_v, ma_v = (
            rsi(closes, 27).values, macd(closes, 12, 26).values, cci(bars, 20).values,
            sma(closes, 10).values,
        )
        assert np.sum(ub[27:] == lb[27:]) == 6
        rules = {
            "percent_b": lambda i: 0.5 if ub[i] == lb[i] else (closes[i] - lb[i]) / (ub[i] - lb[i]),
            "bandwidth": lambda i: (ub[i] - lb[i]) / mb[i],
            "middle": lambda i: mb[i],
        }
        for mode, bb in rules.items():
            with np.errstate(all="raise"):
                matrix, first = market_feature_matrix(bars, IndicatorConfig(bb_scalar_mode=mode))
            expected = np.full((80, 5), np.nan)
            for i in range(first, 80):
                expected[i] = [rsi_v[i], macd_v[i], cci_v[i], bb(i), ma_v[i]]
            assert first == 27 and matrix.tobytes() == expected.tobytes(), mode


class TestIndicatorConfig:
    def test_defaults_valid(self):
        cfg = IndicatorConfig()
        assert (cfg.rsi_period, cfg.macd_fast, cfg.macd_slow) == (27, 12, 26)
        assert cfg.warmup == 27

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ma_period": 0},
            {"rsi_period": 1},
            {"macd_fast": 26, "macd_slow": 26},
            {"macd_fast": 30, "macd_slow": 26},
            {"cci_period": 1},
            {"bb_period": 1},
            {"bb_sigma_mult": 0.0},
            {"bb_scalar_mode": "nonsense"},
            {"bb_sigma_mult": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            IndicatorConfig(**kwargs)

    def test_single_period_averages(self):
        s = sma([3.0, 7.0], 1)
        assert s.warmup_len == 0
        np.testing.assert_array_equal(s.values, [3.0, 7.0])
        e = ema([3.0, 7.0], 1)
        np.testing.assert_array_equal(e.values, [3.0, 7.0])


class TestIndicatorSeriesInvariants:
    def test_rejects_defined_warmup(self):
        with pytest.raises(InvalidArgumentError):
            IndicatorSeries(np.array([1.0, 2.0]), warmup_len=1)

    def test_rejects_nan_after_warmup(self):
        with pytest.raises(InvalidArgumentError):
            IndicatorSeries(np.array([np.nan, np.nan, 1.0, np.nan]), warmup_len=2)


class TestOhlcvCsv:
    def test_table_fixture_parses(self):
        result = load_ohlcv_csv(str(DATA_DIR / "table2_ohlcv.csv"))
        assert len(result.bars) == 6
        assert result.bars[0].date == dt.date(2020, 5, 2)
        assert result.bars[-1].date == dt.date(2020, 5, 7)
        assert result.bars[0].close == 175.35
        assert result.file_labels[dt.date(2020, 5, 2)] == 0
        assert not result.diagnostics

    def test_iso_dates_accepted(self, tmp_path):
        p = tmp_path / "bars.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Adj Close\n"
            "2021-09-22,10,11,9,10.5,10.5\n"
            "2021-09-23,10.5,12,10,11,11\n"
        )
        result = load_ohlcv_csv(str(p))
        assert [b.date.isoformat() for b in result.bars] == ["2021-09-22", "2021-09-23"]

    def test_out_of_order_fatal_by_default(self, tmp_path):
        p = tmp_path / "bars.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Adj Close\n"
            "2021-09-23,10,11,9,10.5,10.5\n"
            "2021-09-22,10.5,12,10,11,11\n"
        )
        with pytest.raises(SchemaError):
            load_ohlcv_csv(str(p))
        result = load_ohlcv_csv(str(p), lenient=True)
        assert len(result.bars) == 1
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].line == 3

    def test_malformed_row_lenient(self, tmp_path):
        p = tmp_path / "bars.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Adj Close\n"
            "2021-09-22,10,11,9,10.5,10.5\n"
            "2021-09-23,not-a-price,12,10,11,11\n"
            "2021-09-24,10.5,12,10,11,11\n"
        )
        with pytest.raises(SchemaError):
            load_ohlcv_csv(str(p))
        result = load_ohlcv_csv(str(p), lenient=True)
        assert len(result.bars) == 2
        assert result.diagnostics[0].line == 3

    def test_missing_column_always_fatal(self, tmp_path):
        p = tmp_path / "bars.csv"
        p.write_text("Date,Open,High,Low,Close\n2021-09-22,10,11,9,10.5\n")
        with pytest.raises(SchemaError):
            load_ohlcv_csv(str(p), lenient=True)

    def test_price_invariant_violation_rejected(self, tmp_path):
        p = tmp_path / "bars.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Adj Close\n"
            "2021-09-22,10,9.5,9,10.5,10.5\n"  # high below open/close
        )
        result = load_ohlcv_csv(str(p), lenient=True)
        assert not result.bars
        assert "high" in result.diagnostics[0].message

    def test_byte_order_mark_accepted(self, tmp_path):
        p = tmp_path / "bars.csv"
        p.write_bytes(b"\xef\xbb\xbfDate,Open,High,Low,Close,Adj Close\n2021-09-22,10,11,9,10.5,10.5\n")
        assert len(load_ohlcv_csv(str(p)).bars) == 1

    def test_oversized_field_names_its_line(self, tmp_path):
        p = tmp_path / "bars.csv"
        p.write_text(
            "Date,Open,High,Low,Close,Adj Close\n"
            "2021-09-22,10,11,9,10.5,10.5\n"
            f'2021-09-23,"{"1" * 200_000}",11,9,10.5,10.5\n'
        )
        for lenient in (False, True):
            with pytest.raises(SchemaError, match="bars.csv: line 3: field larger"):
                load_ohlcv_csv(str(p), lenient=lenient)


_CSV_HEAD = b"Date,Open,High,Low,Close,Adj Close,Label\n"


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(
    st.binary(max_size=200),
    st.lists(st.sampled_from([
        b"2021-09-22", b"22/09/2021", b"10", b"-1", b"1e400", b"nan", b"", b'"', b'"a,b"',
        b"\xff", b"\xef\xbb\xbf", b"\x00", b",", b"\r", b"\n", b"2021-02-30", b"1",
    ]), max_size=40).map(lambda parts: _CSV_HEAD + b"".join(parts)),
))
def test_any_csv_bytes_parse_or_raise_tmfusion_error(blob):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "bars.csv"
        p.write_bytes(blob)
        for lenient in (False, True):
            try:
                load_ohlcv_csv(str(p), lenient=lenient)
            except TmfusionError:
                pass


def _date_text(parts) -> str:
    year, month, day, sep, pad = parts
    return f"{pad}{year:04d}{sep}{month:02d}{sep}{day:02d}{pad}"


@settings(max_examples=500, deadline=None)
@given(raw=st.one_of(
    st.tuples(
        st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32),
        st.sampled_from(["-", "/", "--"]), st.sampled_from(["", " ", "\t", "\n"]),
    ).map(_date_text),
    st.dates().map(lambda d: d.strftime("%d/%m/%Y")),
    st.sampled_from(["\uff12\uff10\uff12\uff10-01-05", "2020-0\u0661-05", "\u0662020-01-05"]),
    st.text(alphabet="0123456789-/ \u0662\uff10x", max_size=12),
    st.text(max_size=12),
))
def test_bar_dates_parse_as_strptime_alone_parses_them(raw):
    """The canonical YYYY-MM-DD path accepts exactly the dates, and rejects
    with exactly the messages, of the strptime loop alone: over dates in and
    out of range, both separators, padding, Unicode digits and any text."""
    try:
        expected = strptime_date_reference(raw)
    except ValueError as exc:
        with pytest.raises(ValueError) as excinfo:
            _parse_date(raw)
        assert str(excinfo.value) == str(exc)
    else:
        assert _parse_date(raw) == expected
