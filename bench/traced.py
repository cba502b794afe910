"""Traced in-process replay of the CLI pipeline, and the per-layer probes.

    python3 bench/traced.py <run config> <output directory> <trace id>

The replay calls the public functions each CLI stage calls, in the order the
CLI calls them, with a span around each call. The probes then time the work
``build_dataset`` and ``train`` do internally, by calling the same public
functions they call (sentiment scoring, tokenizing, embedding, credibility
replay, cell forward/backward, one training step). Spans stay in memory; the
last line of standard output is one JSON object with the metrics, the absent
metrics and the spans.

Every step runs under a guard: when a function it needs is renamed or
removed, the step's metrics are reported as absent, with the reason, and the
rest of the replay goes on. The library, numpy included, is imported only
inside the guarded steps, so ``run.py`` can import the metric table alone.
"""

from __future__ import annotations

import bisect
import json
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

#: Per-layer metrics and their units, grouped by the step of the traced run
#: that measures them.
GROUPS = {
    "features": {
        "indicators.load_ohlcv_csv_s": "s", "social.load_tweets_jsonl_s": "s",
        "dataset.build_s": "s", "dataset.build_us_per_tweet": "us",
        "dataset.samples": "count", "dataset.train_samples": "count",
        "dataset.test_samples": "count", "dataset.drop_share": "fraction",
        "dataset.save_s": "s", "dataset.bytes_per_sample": "bytes", "text.max_len": "count",
    },
    "train": {
        "dataset.load_s": "s", "rnn.training.epoch_s": "s",
        "rnn.training.steps_per_epoch": "count", "rnn.checkpoint.save_s": "s",
        "rnn.checkpoint.bytes": "bytes",
    },
    "evaluate": {
        "rnn.checkpoint.load_s": "s", "rnn.checkpoint.predict_us_per_sample": "us",
        "evaluate.metrics_s": "s",
    },
    "stages": {"trace.stage_total_s": "s"},
    "indicators": {"indicators.market_feature_matrix_s": "s"},
    "social": {
        "social.sentiment_s": "s", "social.unique_text_share": "fraction",
        "social.credibility_replay_s": "s",
    },
    "text": {
        "text.tokenize_s": "s", "text.embed_s": "s", "text.tokens_per_tweet": "count",
        "text.padded_share": "fraction",
    },
    "cells": {
        f"rnn.cells.{branch}{layer}.{phase}_ms": "ms"
        for branch in ("text", "numeric") for layer in (0, 1) for phase in ("forward", "backward")
    },
    "model": {
        "rnn.model.samples_to_arrays_s": "s", "rnn.model.step_ms_p50": "ms",
        "rnn.model.step_ms_p90": "ms", "rnn.model.steps_timed": "count",
        "rnn.model.forward_test_s": "s", "rnn.training.overhead_share": "fraction",
    },
}

STAGES = ("ingest", "features", "train", "evaluate", "report")

#: Timed forward/backward calls per cell layer; the median is reported.
CELL_REPEATS = 9
#: Training steps timed at least, over whole epochs, so that p90 has ten samples beyond it.
MIN_TIMED_STEPS = 100


class Tracer:
    """Spans with name, start, end, own id, parent id and trace id, kept in memory."""

    def __init__(self, trace_id: int) -> None:
        self.spans: list[dict] = []
        self.trace_id = trace_id
        self._stack: list[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"trace": self.trace_id, "id": span_id, "parent": parent,
                               "name": name, "start": start, "end": end})

    def seconds(self, name: str) -> float:
        """Duration of the most recent span with this name."""
        for s in reversed(self.spans):
            if s["name"] == name:
                return s["end"] - s["start"]
        raise KeyError(name)


def with_self_times(spans: list[dict]) -> list[dict]:
    """The spans, each with its self time: duration minus the time its children cover.

    Children of one span run one after another, so their durations add up
    to the part of the parent's interval they cover.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [
        dict(s, self_s=s["end"] - s["start"] - covered.get(s["id"], 0.0))
        for s in sorted(spans, key=lambda s: s["start"])
    ]


def dir_bytes(path: Path) -> int:
    """Bytes of the files under a directory."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _architecture(flags, numeric_width) -> str:
    # the CLI's choice of architecture from the dataset's feature flags
    has_text = "text" in flags
    if has_text and numeric_width > 0:
        return "fused"
    return "text_only" if has_text else "numeric_only"


class Replay:
    """One traced pass: the CLI stages in order, then the per-layer probes."""

    def __init__(self, config: Path, out: Path, tracer: Tracer) -> None:
        self.config = config
        self.out = out
        self.tr = tracer
        self.metrics: dict[str, float] = {}
        self.absent: dict[str, str] = {}
        self.errors: dict[str, str] = {}

    def run(self) -> None:
        from tmfusion import cli

        self.cfg = cli.load_run_config(str(self.config), out_override=str(self.out))
        self.out.mkdir(parents=True, exist_ok=True)
        for step in ("ingest", "features", "train", "evaluate", "report", "stages",
                     "indicators", "social", "text", "cells", "model"):
            self._guard(step)

    def _guard(self, step: str) -> None:
        try:
            getattr(self, step)()
        except Exception:  # a layer function renamed, removed or changed: report, go on
            reason = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            self.errors[step] = reason
            for name in GROUPS.get(step, ()):
                self.metrics.pop(name, None)
                self.absent[name] = reason

    # -- the CLI stages --------------------------------------------------------

    def ingest(self) -> None:
        from tmfusion.indicators import load_ohlcv_csv
        from tmfusion.social import load_tweets_jsonl

        with self.tr.span("stage.ingest"):
            with self.tr.span("indicators.load_ohlcv_csv"):
                load_ohlcv_csv(str(self.cfg.ohlcv_csv))
            with self.tr.span("social.load_tweets_jsonl"):
                load_tweets_jsonl(str(self.cfg.tweets_jsonl))

    def features(self) -> None:
        from tmfusion.dataset import BuildConfig, build_dataset, save_dataset
        from tmfusion.indicators import load_ohlcv_csv
        from tmfusion.social import LexiconSentimentProvider, load_tweets_jsonl
        from tmfusion.text import EmbeddingTable, load_stopwords

        cfg, tr, m = self.cfg, self.tr, self.metrics
        with tr.span("stage.features"):
            with tr.span("indicators.load_ohlcv_csv"):
                self.bars = load_ohlcv_csv(str(cfg.ohlcv_csv)).bars
            with tr.span("social.load_tweets_jsonl"):
                self.tweets, _ = load_tweets_jsonl(str(cfg.tweets_jsonl))
            with tr.span("cli.build_config"):
                build_cfg = BuildConfig(
                    ticker=cfg.ticker,
                    feature_set=cfg.feature_set,
                    label_field=cfg.label_field,
                    indicators=cfg.indicators,
                    sentiment_provider=LexiconSentimentProvider.shipped(),
                    embedding=(EmbeddingTable.hashed(cfg.embedding_dim, seed=cfg.seed)
                               if "text" in cfg.feature_set else None),
                    stopwords=load_stopwords(None),
                    market_lookback=cfg.market_lookback,
                )
            with tr.span("dataset.build"):
                result = build_dataset(self.tweets, self.bars, build_cfg)
            result.report["config"] = cfg.echo()
            with tr.span("dataset.save"):
                save_dataset(self.out / "dataset", result, build_cfg)
        report = result.report
        self.max_len = report["max_len"]
        m["indicators.load_ohlcv_csv_s"] = tr.seconds("indicators.load_ohlcv_csv")
        m["social.load_tweets_jsonl_s"] = tr.seconds("social.load_tweets_jsonl")
        m["dataset.build_s"] = tr.seconds("dataset.build")
        m["dataset.build_us_per_tweet"] = 1e6 * m["dataset.build_s"] / report["tweets_in"]
        m["dataset.samples"] = report["samples"]
        m["dataset.train_samples"] = report["train_samples"]
        m["dataset.test_samples"] = report["test_samples"]
        m["dataset.drop_share"] = sum(report["dropped"].values()) / report["tweets_in"]
        m["dataset.save_s"] = tr.seconds("dataset.save")
        m["dataset.bytes_per_sample"] = dir_bytes(self.out / "dataset") / report["samples"]
        m["text.max_len"] = self.max_len

    def train(self) -> None:
        from tmfusion.dataset import load_dataset
        from tmfusion.rnn import save_checkpoint, steps_per_epoch, train

        cfg, tr, m = self.cfg, self.tr, self.metrics
        with tr.span("stage.train"):
            with tr.span("dataset.load"):
                self.ds = ds = load_dataset(self.out / "dataset")
            header = ds.header
            meta = {
                "ticker": cfg.ticker,
                "feature_flags": header["flags"],
                "numeric_width": header["numeric_width"],
                "max_len": header["max_len"],
                "embedding_dim": header["embedding_dim"],
                "config": cfg.echo(),
            }
            with tr.span("rnn.model.build_model"):
                model = self._fresh_model()
            with tr.span("rnn.training.train"):
                ckpt = train(model, ds.train, ds.test, meta=meta)
            with tr.span("rnn.checkpoint.save"):
                save_checkpoint(ckpt, self.out / "checkpoint.json")
        m["dataset.load_s"] = tr.seconds("dataset.load")
        m["rnn.training.epoch_s"] = tr.seconds("rnn.training.train") / cfg.hyperparams.epochs
        m["rnn.training.steps_per_epoch"] = steps_per_epoch(
            len(ds.train), cfg.hyperparams.batch_size
        )
        m["rnn.checkpoint.save_s"] = tr.seconds("rnn.checkpoint.save")
        m["rnn.checkpoint.bytes"] = (self.out / "checkpoint.json").stat().st_size

    def _fresh_model(self):
        from tmfusion.rnn import build_model

        header = self.ds.header
        return build_model(
            _architecture(header["flags"], header["numeric_width"]),
            self.cfg.cell,
            self.cfg.hyperparams,
            numeric_dim=header["numeric_width"],
            text_dim=header["embedding_dim"] if "text" in header["flags"] else 0,
        )

    def evaluate(self) -> None:
        from tmfusion import evaluate as ev
        from tmfusion.dataset import load_dataset
        from tmfusion.rnn import load_checkpoint, predict

        cfg, tr, m = self.cfg, self.tr, self.metrics
        with tr.span("stage.evaluate"):
            with tr.span("rnn.checkpoint.load"):
                ckpt = load_checkpoint(self.out / "checkpoint.json")
            with tr.span("dataset.load"):
                ds = load_dataset(self.out / "dataset")
            with tr.span("rnn.checkpoint.predict_loop"):
                preds = [predict(ckpt, sample)[0] for sample in ds.test]
            with tr.span("evaluate.metrics"):
                labels = [s.label for s in ds.test]
                tweet_report = ev.metrics(ev.confusion(preds, labels))
                actual_by_day = {s.day: s.label for s in ds.test}
                daily_table = ev.daily_aggregate(
                    [(s.day, p) for s, p in zip(ds.test, preds)], actual_by_day
                )
                daily_report = ev.daily_metrics(daily_table)
                ev.write_report_json(
                    self.out / "report.json", cfg.ticker, tweet_report, daily_report,
                    daily_table, extra={"config": cfg.echo()},
                )
                ev.write_confusion_csv(
                    self.out / f"confusion_{cfg.ticker}.csv",
                    [("tweet", tweet_report), ("daily", daily_report)],
                )
        m["rnn.checkpoint.load_s"] = tr.seconds("rnn.checkpoint.load")
        m["rnn.checkpoint.predict_us_per_sample"] = (
            1e6 * tr.seconds("rnn.checkpoint.predict_loop") / len(ds.test)
        )
        m["evaluate.metrics_s"] = tr.seconds("evaluate.metrics")

    def report(self) -> None:
        with self.tr.span("stage.report"):
            json.loads((self.out / "report.json").read_text(encoding="utf-8"))

    def stages(self) -> None:
        self.metrics["trace.stage_total_s"] = sum(
            self.tr.seconds(f"stage.{stage}") for stage in STAGES
        )

    # -- probes of the work inside build_dataset and train ---------------------

    def indicators(self) -> None:
        from tmfusion.indicators import market_feature_matrix

        seconds = 0.0
        if "market" in self.cfg.feature_set:
            with self.tr.span("indicators.market_feature_matrix"):
                market_feature_matrix(self.bars, self.cfg.indicators)
            seconds = self.tr.seconds("indicators.market_feature_matrix")
        self.metrics["indicators.market_feature_matrix_s"] = seconds

    def social(self) -> None:
        from tmfusion.dataset import label_bars
        from tmfusion.social import (
            LexiconSentimentProvider, UserHistoryStore, sentiment_vector, tweet_score,
        )

        cfg, tr, m = self.cfg, self.tr, self.metrics
        ordered = sorted((t for t in self.tweets if t.ticker == cfg.ticker),
                         key=lambda t: t.timestamp)
        provider = LexiconSentimentProvider.shipped()
        with tr.span("social.sentiment"):
            sentiment = [sentiment_vector(t.text, provider).label for t in ordered]
        m["social.sentiment_s"] = tr.seconds("social.sentiment")
        m["social.unique_text_share"] = len({t.text for t in ordered}) / len(ordered)

        m["social.credibility_replay_s"] = 0.0
        if "credibility" in cfg.feature_set:
            # each tweet joins the latest trading day at or before its date
            labels = [lb.label for lb in label_bars(self.bars, cfg.label_field)]
            dates = [b.date for b in self.bars]
            store = UserHistoryStore()
            with tr.span("social.credibility_replay"):
                for tweet, said in zip(ordered, sentiment):
                    day = bisect.bisect_right(dates, tweet.timestamp.date()) - 1
                    if not 0 <= day < len(labels):
                        continue
                    store.observe(tweet.username, tweet.timestamp)
                    store.record(tweet.username, tweet.timestamp, tweet_score(said, labels[day]))
            m["social.credibility_replay_s"] = tr.seconds("social.credibility_replay")

    def text(self) -> None:
        import numpy as np
        from tmfusion.text import EmbeddingTable, embed_sequence, load_stopwords, tokenize_clean

        cfg, tr, m = self.cfg, self.tr, self.metrics
        for name in GROUPS["text"]:
            m[name] = 0.0
        if "text" not in cfg.feature_set:
            return
        stopwords = load_stopwords(None)
        with tr.span("text.tokenize"):
            tokens = [tokenize_clean(t.text, stopwords) for t in self.tweets]
        table = EmbeddingTable.hashed(cfg.embedding_dim, seed=cfg.seed)
        with tr.span("text.embed"):
            for toks in tokens:
                embed_sequence(toks, table, self.max_len)
        lengths = np.array([len(t) for t in tokens])
        m["text.tokenize_s"] = tr.seconds("text.tokenize")
        m["text.embed_s"] = tr.seconds("text.embed")
        m["text.tokens_per_tweet"] = float(lengths.mean())
        m["text.padded_share"] = float(
            np.sum(self.max_len - np.minimum(lengths, self.max_len)) / (len(tokens) * self.max_len)
        )

    def cells(self) -> None:
        import numpy as np
        from tmfusion.rnn.cells import backward, forward

        model = self._fresh_model()
        hyper = self.cfg.hyperparams
        rng = np.random.default_rng(0)
        header = self.ds.header
        steps = {"text": header["max_len"], "numeric": header["numeric_steps"]}
        for name in GROUPS["cells"]:
            self.metrics[name] = 0.0
        for branch, layers in (("text", model.text_layers), ("numeric", model.numeric_layers)):
            for i, layer in enumerate(layers):
                shape = (steps[branch], hyper.batch_size, layer.input_dim)
                xs = rng.uniform(0.0, 1.0, shape)
                keep = 1.0 - hyper.recurrent_dropout
                mask = (rng.random((hyper.batch_size, layer.hidden_dim)) < keep) / keep
                d_hs = rng.normal(0.0, 0.01, (shape[0], shape[1], layer.hidden_dim))
                fwd, bwd = [], []
                for _ in range(CELL_REPEATS):
                    with self.tr.span(f"rnn.cells.{branch}{i}.forward"):
                        _, cache = forward(layer, xs, rec_mask=mask)
                    fwd.append(self.tr.seconds(f"rnn.cells.{branch}{i}.forward"))
                    with self.tr.span(f"rnn.cells.{branch}{i}.backward"):
                        backward(layer, cache, d_hs)
                    bwd.append(self.tr.seconds(f"rnn.cells.{branch}{i}.backward"))
                self.metrics[f"rnn.cells.{branch}{i}.forward_ms"] = 1e3 * statistics.median(fwd)
                self.metrics[f"rnn.cells.{branch}{i}.backward_ms"] = 1e3 * statistics.median(bwd)

    def model(self) -> None:
        from tmfusion.rnn import backward_arrays, forward_arrays, rng_streams, samples_to_arrays

        tr, m = self.tr, self.metrics
        hyper = self.cfg.hyperparams
        model = self._fresh_model()
        with tr.span("rnn.model.samples_to_arrays"):
            numeric, text, labels = samples_to_arrays(model, self.ds.train)
        _, rng = rng_streams(hyper.seed)
        step_ms = []
        epochs = 0
        while len(step_ms) < MIN_TIMED_STEPS:
            epochs += 1
            order = rng.permutation(labels.shape[0])
            for start in range(0, labels.shape[0], hyper.batch_size):
                idx = order[start : start + hyper.batch_size]
                with tr.span("rnn.model.step"):
                    backward_arrays(
                        model,
                        numeric[idx] if numeric is not None else None,
                        text[idx] if text is not None else None,
                        labels[idx],
                        rng=rng,
                    )
                step_ms.append(1e3 * tr.seconds("rnn.model.step"))
        test_numeric, test_text, _ = samples_to_arrays(model, self.ds.test)
        with tr.span("rnn.model.forward_test"):
            forward_arrays(model, test_numeric, test_text)
        m["rnn.model.samples_to_arrays_s"] = tr.seconds("rnn.model.samples_to_arrays")
        m["rnn.model.step_ms_p50"] = statistics.median(step_ms)
        m["rnn.model.step_ms_p90"] = statistics.quantiles(step_ms, n=10)[-1]
        m["rnn.model.steps_timed"] = len(step_ms)
        m["rnn.model.forward_test_s"] = tr.seconds("rnn.model.forward_test")
        # the share of a training epoch spent outside forward/backward:
        # shuffle, batch gather, weight update and validation
        m["rnn.training.overhead_share"] = 1.0 - (
            sum(step_ms) / epochs / 1e3 / m["rnn.training.epoch_s"]
        )


if __name__ == "__main__":
    config, out, trace_id = sys.argv[1:]
    tracer = Tracer(int(trace_id))
    replay = Replay(Path(config), Path(out), tracer)
    replay.run()
    print(json.dumps({"metrics": replay.metrics, "absent": replay.absent,
                      "errors": replay.errors, "spans": with_self_times(tracer.spans)}))
