"""Independent scalar-loop re-implementations used as test oracles.

Everything here recomputes results definition-by-definition with plain
Python loops and floats, deliberately sharing no code with the library.
Undefined (warmup) entries are returned as None. Three references are
built on the library instead, to check how it assembles its batch
results: ``loss_reference``, the scalar loss the gradient checks
difference, over the dropout-free forward; ``market_feature_vector``, one
trading day's row of ``market_feature_matrix``; and ``social_vector``, one
tweet's row of ``social_matrix`` over its columns from ``TweetColumns.from_records``.
``lookback_reference`` is numpy's whole-array repeat of every row over its
lookback window, the construction the per-day market table replaced.
``sample_numeric_oracle`` and ``sample_text_oracle`` build one sample's
model inputs from its own raw values, the per-sample construction the
day and text tables replaced. ``raw_matrix_reference`` is the raw
(N, width) matrix that the dataset build once filled to fit its
normalizer and hash its training rows. ``whole_numeric_gather`` and
``whole_text_gather`` are a split's whole-sequence gathers, which the
step sources replaced, and ``strptime_date_reference`` is the bar-date
parse without its fast path.
"""

from __future__ import annotations

import math


def sma_oracle(xs: list[float], n: int) -> list[float | None]:
    out: list[float | None] = []
    for t in range(len(xs)):
        if t < n - 1:
            out.append(None)
        else:
            total = 0.0
            for i in range(t - n + 1, t + 1):
                total += xs[i]
            out.append(total / n)
    return out


def ema_oracle(xs: list[float], n: int) -> list[float | None]:
    a = 2.0 / (n + 1)
    out: list[float | None] = [None] * len(xs)
    seed = 0.0
    for i in range(n):
        seed += xs[i]
    out[n - 1] = seed / n
    for t in range(n, len(xs)):
        out[t] = a * xs[t] + (1.0 - a) * out[t - 1]
    return out


def rsi_oracle(closes: list[float], n: int) -> list[float | None]:
    ups: list[float] = []
    downs: list[float] = []
    for t in range(1, len(closes)):
        change = closes[t] - closes[t - 1]
        ups.append(change if change > 0 else 0.0)
        downs.append(-change if change < 0 else 0.0)
    ema_up = ema_oracle(ups, n)
    ema_down = ema_oracle(downs, n)
    out: list[float | None] = [None] * len(closes)
    for i in range(n - 1, len(ups)):
        eu, ed = ema_up[i], ema_down[i]
        if eu == 0.0 and ed == 0.0:
            val = 50.0
        elif ed == 0.0:
            val = 100.0
        else:
            val = 100.0 - 100.0 / (1.0 + eu / ed)
        out[i + 1] = val
    return out


def macd_oracle(closes: list[float], fast: int, slow: int) -> list[float | None]:
    ef = ema_oracle(closes, fast)
    es = ema_oracle(closes, slow)
    out: list[float | None] = []
    for f, s in zip(ef, es):
        out.append(None if (f is None or s is None) else f - s)
    return out


def cci_oracle(
    highs: list[float], lows: list[float], closes: list[float], p: int
) -> list[float | None]:
    tps = [(h + l + c) / 3.0 for h, l, c in zip(highs, lows, closes)]
    out: list[float | None] = []
    for t in range(len(tps)):
        if t < p - 1:
            out.append(None)
            continue
        window = tps[t - p + 1 : t + 1]
        mean = sum(window) / p
        dev = sum(abs(v - mean) for v in window) / p
        if dev == 0.0:
            out.append(0.0)
        else:
            out.append((tps[t] - mean) / (0.015 * dev))
    return out


def bollinger_oracle(
    closes: list[float], n: int, m: float
) -> tuple[list[float | None], list[float | None], list[float | None]]:
    upper: list[float | None] = []
    middle: list[float | None] = []
    lower: list[float | None] = []
    for t in range(len(closes)):
        if t < n - 1:
            upper.append(None)
            middle.append(None)
            lower.append(None)
            continue
        window = closes[t - n + 1 : t + 1]
        mean = sum(window) / n
        var = sum((v - mean) ** 2 for v in window) / n
        sd = math.sqrt(var)
        middle.append(mean)
        upper.append(mean + m * sd)
        lower.append(mean - m * sd)
    return upper, middle, lower


def minmax_oracle(rows: list[list[float]]) -> tuple[list[float], list[float]]:
    width = len(rows[0])
    mins = [min(r[j] for r in rows) for j in range(width)]
    maxs = [max(r[j] for r in rows) for j in range(width)]
    return mins, maxs


def confusion_oracle(preds: list[int], labels: list[int]) -> tuple[int, int, int, int]:
    tp = tn = fp = fn = 0
    for p, y in zip(preds, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 0 and y == 0:
            tn += 1
        elif p == 1 and y == 0:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def metrics_oracle(tp: int, tn: int, fp: int, fn: int) -> tuple[float, float, float, float]:
    total = tp + tn + fp + fn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if (precision + recall) > 0
        else 0.0
    )
    return accuracy, precision, recall, f1


def user_history_oracle(scores: list[int]) -> tuple[int, int, int]:
    """Replay a per-author score log and tally (hits, misses, total)."""
    hits = sum(1 for s in scores if s == 1)
    misses = sum(1 for s in scores if s == -1)
    return hits, misses, hits + misses


def credibility_oracle(hits: int, misses: int) -> list[float]:
    """[hits, misses, recommendation, representativeness] from first principles."""
    total = hits + misses
    rating = hits / total if total > 0 else 0.0
    recommendation = 0.0 if rating == 0.0 else 1.0 + math.log10(hits)
    representativeness = (rating + hits) / 2.0
    return [float(hits), float(misses), recommendation, representativeness]


def _sig(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def indrnn_oracle(W, u, b, xs, h0=None) -> list[list[float]]:
    """Per-neuron scalar recurrence of the independently recurrent cell."""
    n = len(u)
    m = len(xs[0])
    h_prev = list(h0) if h0 is not None else [0.0] * n
    out = []
    for x in xs:
        h = []
        for j in range(n):
            pre = sum(W[j][k] * x[k] for k in range(m)) + u[j] * h_prev[j]
            h.append(_sig(pre + b[j]))
        out.append(h)
        h_prev = h
    return out


def lstm_oracle(blocks, xs, h0=None, q0=None) -> tuple[list[list[float]], list[list[float]]]:
    """Gate-by-gate scalar recurrence of the long short-term memory cell."""
    n = len(blocks["b_f"])
    m = len(xs[0])
    h_prev = list(h0) if h0 is not None else [0.0] * n
    q_prev = list(q0) if q0 is not None else [0.0] * n
    hs, qs = [], []

    def gate(wk, uk, bk, x, act):
        vals = []
        for j in range(n):
            pre = (
                sum(blocks[wk][j][k] * x[k] for k in range(m))
                + sum(blocks[uk][j][k] * h_prev[k] for k in range(n))
                + blocks[bk][j]
            )
            vals.append(act(pre))
        return vals

    for x in xs:
        f = gate("W_f", "U_f", "b_f", x, _sig)
        i = gate("W_i", "U_i", "b_i", x, _sig)
        g = gate("W_g", "U_g", "b_g", x, math.tanh)
        o = gate("W_o", "U_o", "b_o", x, _sig)
        q = [f[j] * q_prev[j] + i[j] * g[j] for j in range(n)]
        h = [o[j] * math.tanh(q[j]) for j in range(n)]
        hs.append(h)
        qs.append(q)
        h_prev, q_prev = h, q
    return hs, qs


def gru_oracle(blocks, xs, h0=None) -> list[list[float]]:
    """Scalar recurrence of the gated-update cell (tanh candidate)."""
    n = len(blocks["b_z"])
    m = len(xs[0])
    h_prev = list(h0) if h0 is not None else [0.0] * n
    out = []
    for x in xs:
        z, r = [], []
        for j in range(n):
            az = (
                sum(blocks["W_z"][j][k] * x[k] for k in range(m))
                + sum(blocks["U_z"][j][k] * h_prev[k] for k in range(n))
                + blocks["b_z"][j]
            )
            ar = (
                sum(blocks["W_r"][j][k] * x[k] for k in range(m))
                + sum(blocks["U_r"][j][k] * h_prev[k] for k in range(n))
                + blocks["b_r"][j]
            )
            z.append(_sig(az))
            r.append(_sig(ar))
        h = []
        for j in range(n):
            ac = (
                sum(blocks["W_h"][j][k] * x[k] for k in range(m))
                + sum(blocks["U_h"][j][k] * r[k] * h_prev[k] for k in range(n))
                + blocks["b_h"][j]
            )
            h.append((1.0 - z[j]) * h_prev[j] + z[j] * math.tanh(ac))
        out.append(h)
        h_prev = h
    return out


def market_feature_vector(bars, t, cfg):
    """The [rsi, macd, cci, bb, ma] vector for the trading day ``t``.

    Raises NotReadyError naming the offending indicator when t falls inside
    any warmup window.
    """
    from tmfusion.errors import InvalidArgumentError, NotReadyError
    from tmfusion.indicators import market_feature_matrix

    dates = [b.date for b in bars]
    if t not in dates:
        raise InvalidArgumentError(f"date {t} not present in bar history")
    idx = dates.index(t)
    warmups = {
        "rsi": cfg.rsi_period,
        "macd": cfg.macd_slow - 1,
        "cci": cfg.cci_period - 1,
        "bb": cfg.bb_period - 1,
        "ma": cfg.ma_period - 1,
    }
    for name, w in warmups.items():
        if idx < w:
            raise NotReadyError(
                f"indicator '{name}' is undefined at {t}: needs {w} prior bars, have {idx}"
            )
    matrix, _ = market_feature_matrix(bars, cfg)
    return matrix[idx]


def social_vector(tweet, author_tweet_count: int):
    """Activity counters plus the author's running tweet count (this tweet included)."""
    from tmfusion.dataset import TweetColumns
    from tmfusion.errors import InvalidArgumentError
    from tmfusion.social import social_matrix

    if author_tweet_count < 1:
        raise InvalidArgumentError("author_tweet_count includes the current tweet, so >= 1")
    return social_matrix(TweetColumns.from_records([tweet]).counters, [author_tweet_count])[0]


def loss_reference(model, numeric, text, labels) -> float:
    """Mean binary cross-entropy plus the L2 penalty, without dropout."""
    import numpy as np

    from tmfusion.rnn.model import EPS, forward_arrays

    probs = forward_arrays(model, numeric, text)
    p = np.clip(probs, EPS, 1.0 - EPS)
    data = -np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    reg = 0.5 * model.hyper.l2 * sum(float(np.sum(arr * arr)) for _, arr in model.params())
    return float(data + reg)


def lookback_reference(rows, market_rows, day_idx, lookback: int):
    """The (N, lookback+1, width) lookback inputs of raw (N, width) ``rows``.

    Each row is repeated over the steps, oldest first, and step s's leading
    market block is replaced by ``market_rows[day_idx - lookback + s]``,
    the market row of the trading day that many days before the sample's.
    """
    import numpy as np

    back = np.arange(lookback, -1, -1)
    out = np.repeat(rows[:, None, :], back.size, axis=1)
    out[:, :, : market_rows.shape[1]] = market_rows[np.asarray(day_idx)[:, None] - back]
    return out


def normalize_oracle(values: list[float], mins: list[float], maxs: list[float]) -> list[float]:
    """One row min-max scaled: clamped to [0, 1], constant columns 0.5."""
    return [
        0.5 if lo == hi else min(1.0, max(0.0, (v - lo) / (hi - lo)))
        for v, lo, hi in zip(values, mins, maxs)
    ]


def sample_numeric_oracle(
    raw_row: list[float], window: list[list[float]], mins: list[float], maxs: list[float]
) -> list[list[float]]:
    """One sample's normalized numeric steps, oldest first.

    ``window`` holds the raw market rows of the sample's lookback days,
    oldest first and its own day last; step s is window row s followed by
    ``raw_row`` past its market block. Without a market block ``window`` is
    empty and the one step is ``raw_row``.
    """
    m = len(window[0]) if window else 0
    steps = [list(market) + list(raw_row[m:]) for market in window] or [list(raw_row)]
    return [normalize_oracle(step, mins, maxs) for step in steps]


def sample_text_oracle(vectors: list[list[float]], max_len: int, dim: int) -> list[list[float]]:
    """One sample's (max_len, dim) text input from its words' vectors in
    sentence order: cut to max_len, then zero rows."""
    rows = [list(v) for v in vectors[:max_len]]
    return rows + [[0.0] * dim for _ in range(max_len - len(rows))]


def raw_matrix_reference(blocks, n: int, n_train: int):
    """The raw (n, width) matrix of per-sample ``blocks``, and what a build derives from it.

    ``blocks`` are (n, w) arrays of the samples' raw values, in column
    order. The matrix is filled block by block, as the dataset build did
    before it kept each block at its grain. Returns the matrix, the
    columnwise minima and maxima of its first ``n_train`` rows, and the
    leakage-audit hash: the SHA-256 of ``n_train`` as u32le followed by
    those rows as f64le.
    """
    import hashlib
    import struct

    import numpy as np

    raw = np.empty((n, sum(b.shape[1] for b in blocks)))
    col = 0
    for block in blocks:
        raw[:, col : col + block.shape[1]] = block
        col += block.shape[1]
    train = raw[:n_train]
    digest = hashlib.sha256(struct.pack("<I", n_train) + train.astype("<f8").tobytes())
    return raw, train.min(axis=0), train.max(axis=0), digest.hexdigest()


def whole_numeric_gather(split, rows):
    """The (n, steps, width) numeric inputs of ``split``'s ``rows`` in one gather per block.

    Step s of sample i takes its market columns from day row
    ``day_rows[i] - steps + 1 + s`` and repeats its sentiment and own
    columns.
    """
    import numpy as np

    day_rows = split.day_rows[rows]
    out = np.empty((day_rows.shape[0], split.steps, split.width))
    col = own_col = 0
    for source, width in split.layout:
        block = out[:, :, col : col + width]
        if source == "market":
            block[...] = split.market[day_rows[:, None] + np.arange(1 - split.steps, 1)]
        elif source == "sentiment":
            block[...] = split.sentiment[split.text_rows[rows]][:, None, :]
        else:
            block[...] = split.own[rows][:, None, own_col : own_col + width]
            own_col += width
        col += width
    return out


def whole_text_gather(split, rows):
    """The (n, max_len, k) word vectors of ``split``'s ``rows`` in one gather."""
    return split.table[split.tokens[split.text_rows[rows]]]


def strptime_date_reference(raw: str):
    """A bar date as ``strptime`` alone parses it: YYYY-MM-DD, then DD/MM/YYYY."""
    import datetime as dt

    for fmt in ("%Y-%m-%d", "%d/%m/%Y"):
        try:
            return dt.datetime.strptime(raw.strip(), fmt).date()
        except ValueError:
            continue
    raise ValueError(f"unparseable date {raw!r} (expected YYYY-MM-DD or DD/MM/YYYY)")
