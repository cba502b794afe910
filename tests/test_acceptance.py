"""Acceptance suite: ten numbered criteria, one test each.

Every test prints a single pass line (visible with -s) after its assertions;
pytest -v lists each criterion's outcome by test name. Tolerances are pinned
in the assertions, not configurable.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import time

import numpy as np

from tmfusion.config import Hyperparams
from tmfusion.dataset import apply_normalizer, fit_normalizer
from tmfusion.evaluate import confusion, daily_aggregate, metrics
from tmfusion.indicators import bollinger, cci, ema, macd, rsi, sma
from tmfusion.inputs import compare_file_labels, label_bars, load_ohlcv_csv
from tmfusion.rnn import (
    backward_arrays,
    build_model,
    save_checkpoint,
    train,
)
from tmfusion.rnn.cells import forward as cell_forward
from tmfusion.rnn.cells import block_shapes
from tmfusion.social import UserHistory, UserHistoryStore, update_user_history, user_history_vector
from tmfusion.social import author_rating, recommendation_score, representativeness

from .conftest import DATA_DIR, cell_with_blocks, linear_rule_samples, random_walk
from .oracles import (
    bollinger_oracle,
    cci_oracle,
    confusion_oracle,
    credibility_oracle,
    ema_oracle,
    loss_reference,
    macd_oracle,
    metrics_oracle,
    rsi_oracle,
    sma_oracle,
    user_history_oracle,
)
from .test_cli import prepare_dataset, run_cli, write_config, write_corpus

UTC = dt.timezone.utc


def report(n: int, message: str) -> None:
    print(f"[criterion {n:02d}] PASS: {message}")


def assert_series_close(series, oracle, atol=1e-9):
    for i, expected in enumerate(oracle):
        if expected is None:
            assert np.isnan(series.values[i])
        else:
            assert abs(series.values[i] - expected) <= atol, f"index {i}"


def test_criterion_01_indicator_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for walk in range(100):
        closes = random_walk(rng, 1000)
        xs = list(closes)
        assert_series_close(sma(closes, 10), sma_oracle(xs, 10))
        assert_series_close(ema(closes, 5), ema_oracle(xs, 5))
        assert_series_close(rsi(closes, 14), rsi_oracle(xs, 14))
        assert_series_close(macd(closes, 12, 26), macd_oracle(xs, 12, 26))
        highs = list(closes + rng.uniform(0.0, 1.0, size=1000))
        lows = list(closes - rng.uniform(0.0, 1.0, size=1000))
        bars_cci = cci_from_series(highs, lows, xs)
        assert_series_close(bars_cci, cci_oracle(highs, lows, xs, 20))
        ub, mb, lb = bollinger(closes, 20, 2.0)
        ou, om, ol = bollinger_oracle(xs, 20, 2.0)
        assert_series_close(ub, ou)
        assert_series_close(mb, om)
        assert_series_close(lb, ol)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"six indicators match scalar oracles on 100x1000 walks within 1e-9 ({elapsed:.1f}s)")


def cci_from_series(highs, lows, closes):
    from tmfusion.inputs import OhlcvBar

    day0 = dt.date(2021, 1, 1)
    bars = []
    for i, (h, l, c) in enumerate(zip(highs, lows, closes)):
        lo = min(l, c)
        hi = max(h, c)
        bars.append(OhlcvBar(day0 + dt.timedelta(days=i), c, hi, lo, c, c))
    return cci(bars, 20)


def test_criterion_02_rsi_boundary_suite():
    increasing = [100.0 + i for i in range(30)]
    decreasing = [100.0 - 0.5 * i for i in range(30)]
    flat = [100.0] * 30
    assert abs(rsi(increasing, 27).values[-1] - 100.0) <= 1e-9
    assert abs(rsi(decreasing, 27).values[-1] - 0.0) <= 1e-9
    flat_vals = rsi(flat, 27).values[27:]
    assert np.all(flat_vals == 50.0)
    report(2, "rsi saturates to 100/0 on monotone series and is exactly 50 when flat")


def test_criterion_03_gradient_checks():
    # moderate input magnitudes keep the finite-difference truncation error
    # (third-derivative term) well inside the tolerance
    rng = np.random.default_rng(909)
    hyper = Hyperparams(
        epochs=1, layers=2, hidden_units=4, recurrent_dropout=0.0, dropout=0.0,
        l2=0.0001, batch_size=3, seed=17,
    )
    start = time.monotonic()
    worst = 0.0
    for kind in ("indrnn", "lstm", "gru"):
        for architecture in ("text_only", "numeric_only", "fused"):
            kwargs = {}
            numeric = text = None
            if architecture in ("numeric_only", "fused"):
                kwargs["numeric_dim"] = 4
                numeric = rng.uniform(0.2, 0.8, size=(3, 4)) * 0.4
            if architecture in ("text_only", "fused"):
                kwargs["text_dim"] = 3
                text = rng.normal(0.0, 0.2, size=(3, 5, 3))  # sequence length 5
            model = build_model(architecture, kind, hyper, **kwargs)
            labels = np.array([1.0, 0.0, 1.0])
            backward_arrays(model, numeric, text, labels)
            grads = dict(model.grads())
            eps = 1e-5
            for path, arr in model.params():
                flat = arr.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + eps
                    up = loss_reference(model, numeric, text, labels)
                    flat[idx] = orig - eps
                    down = loss_reference(model, numeric, text, labels)
                    flat[idx] = orig
                    fd = (up - down) / (2 * eps)
                    an = grads[path].reshape(-1)[idx]
                    rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                    worst = max(worst, rel)
                    assert rel < 1e-4, f"{kind}/{architecture}/{path}[{idx}]: {rel}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(3, f"analytic gradients within 1e-4 of central differences "
              f"(worst {worst:.2e}, 3 cells x 3 architectures, {elapsed:.1f}s)")


def test_criterion_04_indrnn_independence():
    rng = np.random.default_rng(404)
    for trial in range(100):
        n, m, t_len = 6, 3, 7
        blocks = {
            name: rng.uniform(-1.0, 1.0, shape)
            for name, shape in block_shapes("indrnn", m, n).items()
        }
        cell = cell_with_blocks("indrnn", m, n, blocks)
        xs = rng.normal(0, 1, size=(t_len, 1, m))
        h0 = rng.normal(0, 1, size=(1, n))
        base, _ = cell_forward(cell, xs, h0=h0)
        j = int(rng.integers(0, n))
        bumped = h0.copy()
        bumped[0, j] += rng.uniform(0.1, 2.0)
        out, _ = cell_forward(cell, xs, h0=bumped)
        diff = out - base
        mask = np.ones(n, dtype=bool)
        mask[j] = False
        assert np.all(diff[:, :, mask] == 0.0), "cross-neuron leakage"
        assert np.any(diff[:, :, j] != 0.0)
    report(4, "hidden perturbations stay confined to their own neuron in 100 random cells")


def test_criterion_05_user_history_replay():
    rng = np.random.default_rng(505)
    users = [f"user{i}" for i in range(50)]
    base = dt.datetime(2021, 9, 22, tzinfo=UTC)
    events = []
    for i in range(10_000):
        events.append(
            (
                users[int(rng.integers(0, len(users)))],
                base + dt.timedelta(minutes=i),
                1 if rng.random() < 0.55 else -1,
            )
        )

    # step-by-step invariant on live states
    states = {u: UserHistory(u) for u in users}
    per_user_scores: dict[str, list[int]] = {u: [] for u in users}
    for username, at, score in events:
        states[username] = update_user_history(states[username], score, at)
        per_user_scores[username].append(score)
        s = states[username]
        assert s.hits + s.misses == s.total

    # final vectors equal an independent tally, exactly
    store = UserHistoryStore()
    for username, at, score in events:
        store.record(username, at, score)
    for username in users:
        hits, misses, total = user_history_oracle(per_user_scores[username])
        final = store.final_state(username)
        assert (final.hits, final.misses, final.total) == (hits, misses, total)
        np.testing.assert_array_equal(
            user_history_vector(final), np.array(credibility_oracle(hits, misses))
        )

    # derived-score branches over 1,000 random histories
    for _ in range(1_000):
        hits = int(rng.integers(0, 40))
        misses = int(rng.integers(0, 40))
        hist = UserHistory("u", hits, misses, hits + misses)
        if author_rating(hist) == 0.0:
            assert recommendation_score(hist) == 0.0
        assert representativeness(hist) == (author_rating(hist) + hits) / 2.0
    report(5, "10k-event replay holds hits+misses=total, matches the tally oracle exactly, "
              "and the derived-score branches check out on 1k histories")


def test_criterion_06_labeling_fixture():
    result = load_ohlcv_csv(str(DATA_DIR / "table2_ohlcv.csv"))
    labeled = label_bars(result.bars, "close")
    by_date = {lb.bar.date: lb.label for lb in labeled}
    assert by_date[dt.date(2020, 5, 2)] == 0  # 175.35 -> 175.33
    assert by_date[dt.date(2020, 5, 6)] == 0  # 177.09 -> 176.19

    from tmfusion.inputs import OhlcvBar

    pair = [
        OhlcvBar(dt.date(2020, 5, 2), 99.80, 100.0, 99.5, 99.80, 99.80),
        OhlcvBar(dt.date(2020, 5, 3), 100.0, 100.5, 99.8, 100.0, 100.0),
    ]
    assert label_bars(pair, "close")[0].label == 1  # 99.80 -> 100 is a rise

    mismatches = compare_file_labels(labeled, result.file_labels)
    assert mismatches == ["2020-05-03", "2020-05-04", "2020-05-06"]
    report(6, "labeling rule reproduces the fixture pairs; the fixture's three "
              "inconsistent rows are flagged, not matched")


def test_criterion_07_metric_identities():
    rng = np.random.default_rng(707)
    degenerate_hits = 0
    for v in range(10_000):
        length = int(rng.integers(1, 21))
        mode = v % 5
        if mode == 0:
            preds = [0] * length  # no positive predictions
            labels = list(rng.integers(0, 2, size=length))
        elif mode == 1:
            preds = list(rng.integers(0, 2, size=length))
            labels = [0] * length  # no positive labels
        elif mode == 2:
            preds = [0] * length
            labels = [0] * length
        else:
            preds = list(rng.integers(0, 2, size=length))
            labels = list(rng.integers(0, 2, size=length))
        c = confusion(preds, labels)
        assert (c.tp, c.tn, c.fp, c.fn) == confusion_oracle(preds, labels)
        got = metrics(c)
        acc, prec, rec, f1 = metrics_oracle(c.tp, c.tn, c.fp, c.fn)
        assert (got.accuracy, got.precision, got.recall, got.f1) == (acc, prec, rec, f1)
        if (c.tp + c.fp) == 0 or (c.tp + c.fn) == 0:
            degenerate_hits += 1
            if (c.tp + c.fp) == 0:
                assert got.precision == 0.0
            if (c.tp + c.fn) == 0:
                assert got.recall == 0.0
            if got.precision + got.recall == 0.0:
                assert got.f1 == 0.0
    assert degenerate_hits >= 2000  # the 0/0 conventions were genuinely exercised

    day = dt.date(2021, 10, 1)
    ties = 0
    for _ in range(10_000):
        n_pos = int(rng.integers(0, 8))
        n_neg = int(rng.integers(0, 8))
        votes = [(day, 1)] * n_pos + [(day, 0)] * n_neg
        decision = daily_aggregate(votes, {day: 1})[0].decision
        assert decision == ("pos" if n_pos > n_neg else "neg")
        if n_pos == n_neg:
            ties += 1
            assert decision == "neg"
    assert ties >= 500
    report(7, f"metric identities exact on 10k vectors ({degenerate_hits} degenerate); "
              f"daily rule matches brute-force counts on 10k multisets ({ties} ties -> neg)")


def test_criterion_08_end_to_end_learnability(tmp_path):
    rng = np.random.default_rng(808)
    tr, te = linear_rule_samples(rng, n=2000, width=14)  # [market, social, sentiment] width
    start = time.monotonic()
    hashes = []
    final_acc = None
    for run in range(2):
        hyper = Hyperparams(seed=6)  # table defaults: 2x14, lr 0.001, 100 epochs, batch 128
        assert (hyper.layers, hyper.hidden_units) == (2, 14)
        assert (hyper.learning_rate, hyper.epochs, hyper.batch_size) == (0.001, 100, 128)
        model = build_model("numeric_only", "indrnn", hyper, numeric_dim=14)
        ckpt = train(model, tr, te)
        final_acc = ckpt.training_log[-1]["valid_accuracy"]
        path = tmp_path / f"run{run}.json"
        save_checkpoint(ckpt, path)
        hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
    elapsed = time.monotonic() - start
    assert final_acc >= 0.90, f"test accuracy {final_acc}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    assert hashes[0] == hashes[1], "same seed must give identical checkpoints"
    report(8, f"2k-sample synthetic corpus reaches test accuracy {final_acc:.3f} "
              f"in {elapsed:.1f}s with identical checkpoint hashes across reruns")


def test_criterion_09_batch_sweep_harness(tmp_path, rng):
    write_corpus(tmp_path, rng, n_tweets=700, n_bars=40)
    cfg = write_config(tmp_path, hyperparams={"epochs": 2, "layers": 1, "hidden_units": 3})
    prepare_dataset(tmp_path)
    assert run_cli("train", "--config", str(cfg), "--sweep-batch") == 0
    with open(tmp_path / "out" / "batch_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["batch_size"]) for r in rows] == [128, 256, 512, 1024, 2048, 4096]
    steps = [int(r["steps_per_epoch"]) for r in rows]
    assert all(a >= b for a, b in zip(steps, steps[1:])), steps
    assert steps[0] > steps[-1]  # the corpus is big enough to make the sweep non-trivial
    report(9, f"sweep wrote exactly six rows with steps-per-epoch {steps}")


def test_criterion_10_normalization_properties():
    rng = np.random.default_rng(1010)
    for _ in range(50):
        rows = rng.normal(0, 5, size=(40, 6))
        state = fit_normalizer(rows)
        # train extrema map exactly to 0 and 1
        np.testing.assert_array_equal(apply_normalizer(state, state.mins), np.zeros(6))
        np.testing.assert_array_equal(apply_normalizer(state, state.maxs), np.ones(6))
        # affine invariance
        a = rng.uniform(0.5, 4.0, size=6)
        b = rng.normal(0, 10, size=6)
        state_t = fit_normalizer(rows * a + b)
        for _case in range(10):
            row = rng.normal(0, 8, size=6)
            np.testing.assert_allclose(
                apply_normalizer(state_t, row * a + b),
                apply_normalizer(state, row),
                atol=1e-9,
            )
            out = apply_normalizer(state, row)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
    report(10, "min-max fit/apply pins train extrema to {0,1}, survives positive affine "
               "transforms, and never leaves [0,1]")
