"""Command-line pipeline: ingest -> features -> train -> evaluate -> report.

One JSON config file is the single source of truth for a run; flags select
subcommand behavior, and the only value-overriding flags (--seed, --out) are
echoed into every manifest they affect. Outputs carry no timestamps, so a
rerun with the same config and seed is byte-identical.

Subcommands hold an exclusive ``flock`` on a lock file inside the output
directory while they run; concurrent writers to one directory are refused,
and a run killed mid-stage leaves no lock behind.

The tweets are parsed once: ``ingest`` writes them as columns to
``tweets.bin``, and ``features`` reads that file and never the JSON lines.

Only numpy-free modules are imported at the top; each subcommand imports
the numeric modules it runs. So ``ingest``, ``report``, ``--help`` and a
config error never load numpy, and ``features`` never loads the model.
``main`` caps BLAS at one thread before any of them loads numpy, unless
the environment already says otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime as dt
import fcntl
import json
import logging
import os
import sys
from pathlib import Path

from .artifacts import atomic_write, read_text, source_digest, write_json
from .config import BATCH_SWEEP_SIZES, Hyperparams, RunConfig, load_run_config
from .errors import InvalidArgumentError, SchemaError, TmfusionError, checked_object
from .inputs import (
    TWEETS_NAME,
    compare_file_labels,
    ingest_tweets,
    label_bars,
    load_ohlcv_csv,
    write_tweets,
)

logger = logging.getLogger("tmfusion.cli")

MANIFEST_NAME = "ingest_manifest.json"
DATASET_DIR = "dataset"
CHECKPOINT_NAME = "checkpoint.json"
REPORT_NAME = "report.json"
SWEEP_NAME = "batch_sweep.csv"


@contextlib.contextmanager
def output_lock(out_dir: Path):
    """Exclusive advisory lock; refuses concurrent writers to one directory.

    The lock is an ``flock`` held on an open descriptor of ``.tmfusion.lock``,
    so it ends with the process that holds it, however that process ends. The
    file itself stays in place: a file left by a dead run blocks nothing, and
    unlinking it on release would let two runs lock two different inodes.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".tmfusion.lock"
    with open(lock, "ab") as fh:
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise TmfusionError(f"output directory {out_dir} is locked by another run") from None
        yield


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> int:
    ohlcv = load_ohlcv_csv(str(cfg.ohlcv_csv), lenient=args.lenient)
    tweets, tweet_diags = ingest_tweets(str(cfg.tweets_jsonl), lenient=args.lenient)
    write_tweets(cfg.out_dir / TWEETS_NAME, tweets, source_digest(cfg.tweets_jsonl))

    label_mismatches: list[str] = []
    if ohlcv.file_labels and len(ohlcv.bars) >= 2:
        label_mismatches = compare_file_labels(
            label_bars(ohlcv.bars, cfg.label_field), ohlcv.file_labels
        )

    ticker_tweets = tweets.ticker_count(cfg.ticker)
    manifest = {
        "schema_version": 1,
        "config": cfg.echo(),
        "bars": {
            "count": len(ohlcv.bars),
            "first_date": ohlcv.bars[0].date.isoformat() if ohlcv.bars else None,
            "last_date": ohlcv.bars[-1].date.isoformat() if ohlcv.bars else None,
            "rejected": [{"line": d.line, "reason": d.message} for d in ohlcv.diagnostics],
            "label_mismatches": label_mismatches,
        },
        "tweets": {
            "count": tweets.count,
            "ticker_count": ticker_tweets,
            "rejected": [{"line": d.line, "reason": d.message} for d in tweet_diags],
        },
    }
    write_json(cfg.out_dir / MANIFEST_NAME, manifest)
    for d in ohlcv.diagnostics + tweet_diags:
        logger.warning("skipped %s", d)
    if label_mismatches:
        logger.warning("label column disagrees with the labeling rule on %s", label_mismatches)
    if not tweets.count:
        logger.warning("tweet file %s produced no records", cfg.tweets_jsonl)
    print(
        f"ingest: {len(ohlcv.bars)} bars, {tweets.count} tweets "
        f"({ticker_tweets} for {cfg.ticker}), "
        f"{len(ohlcv.diagnostics) + len(tweet_diags)} rejected lines"
    )
    return 0


def _build_config(cfg: RunConfig):
    from .dataset import BuildConfig
    from .social import LexiconSentimentProvider
    from .text import EmbeddingTable, load_stopwords

    provider = (
        LexiconSentimentProvider.from_file(str(cfg.lexicon_path))
        if cfg.lexicon_path
        else LexiconSentimentProvider.shipped()
    )
    embedding = None
    if "text" in cfg.feature_set:
        if cfg.embedding_path:
            embedding = EmbeddingTable.from_text_file(str(cfg.embedding_path), seed=cfg.seed)
        else:
            embedding = EmbeddingTable.hashed(cfg.embedding_dim, seed=cfg.seed)
    stopwords = load_stopwords(str(cfg.stopwords_path) if cfg.stopwords_path else None)
    return BuildConfig(
        ticker=cfg.ticker,
        feature_set=cfg.feature_set,
        label_field=cfg.label_field,
        indicators=cfg.indicators,
        sentiment_provider=provider,
        embedding=embedding,
        stopwords=stopwords,
        market_lookback=cfg.market_lookback,
    )


def cmd_features(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .dataset import build_dataset, read_tweets, save_dataset

    for name in (MANIFEST_NAME, TWEETS_NAME):
        if not (cfg.out_dir / name).exists():
            raise InvalidArgumentError(
                f"no {name} in {cfg.out_dir}; run the ingest subcommand first"
            )
    ohlcv = load_ohlcv_csv(str(cfg.ohlcv_csv), lenient=args.lenient)
    # the tweets as ingest parsed them; --lenient here covers the CSV only
    tweets = read_tweets(cfg.out_dir / TWEETS_NAME, cfg.tweets_jsonl)
    build_cfg = _build_config(cfg)
    result = build_dataset(tweets, ohlcv.bars, build_cfg)
    result.report["config"] = cfg.echo()
    save_dataset(cfg.out_dir / DATASET_DIR, result, build_cfg)
    print(
        f"features: {result.report['samples']} samples "
        f"({result.report['train_samples']} train / {result.report['test_samples']} test), "
        f"numeric width {result.report['numeric_width']}, max_len {result.report['max_len']}"
    )
    return 0


def _architecture(header: dict) -> str:
    has_text = "text" in header["flags"]
    has_numeric = header["numeric_width"] > 0
    if has_text and has_numeric:
        return "fused"
    if has_text:
        return "text_only"
    return "numeric_only"


def _fresh_model(cfg: RunConfig, header: dict, hyper: Hyperparams):
    from .rnn import build_model

    return build_model(
        _architecture(header),
        cfg.cell,
        hyper,
        numeric_dim=header["numeric_width"],
        text_dim=header["embedding_dim"] if "text" in header["flags"] else 0,
    )


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .dataset import load_dataset
    from .rnn import save_checkpoint, steps_per_epoch, train

    ds = load_dataset(cfg.out_dir / DATASET_DIR)
    meta = {
        "ticker": cfg.ticker,
        "feature_flags": ds.header["flags"],
        "numeric_width": ds.header["numeric_width"],
        "max_len": ds.header["max_len"],
        "embedding_dim": ds.header["embedding_dim"],
        "config": cfg.echo(),
    }

    if args.sweep_batch:
        rows = []
        for size in BATCH_SWEEP_SIZES:
            hyper = dataclasses.replace(cfg.hyperparams, batch_size=size)
            model = _fresh_model(cfg, ds.header, hyper)
            ckpt = train(model, ds.train, ds.test, meta=meta)
            last = ckpt.training_log[-1]
            rows.append(
                {
                    "batch_size": size,
                    "steps_per_epoch": steps_per_epoch(len(ds.train), size),
                    "epochs": hyper.epochs,
                    "final_loss": last["loss"],
                    "train_accuracy": last["accuracy"],
                    "test_accuracy": last["valid_accuracy"],
                }
            )
            print(
                f"sweep batch={size}: steps/epoch {rows[-1]['steps_per_epoch']}, "
                f"test accuracy {last['valid_accuracy']:.4f}"
            )
        sweep_path = cfg.out_dir / SWEEP_NAME
        with atomic_write(sweep_path) as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"sweep: wrote {len(rows)} rows to {sweep_path}")
        return 0

    model = _fresh_model(cfg, ds.header, cfg.hyperparams)
    ckpt = train(model, ds.train, ds.test, meta=meta)
    save_checkpoint(ckpt, cfg.out_dir / CHECKPOINT_NAME)
    last = ckpt.training_log[-1]
    print(
        f"train: {len(ckpt.training_log)} epochs, final loss {last['loss']:.4f}, "
        f"test accuracy {last['valid_accuracy']:.4f}"
    )
    return 0


#: Dataset facts a checkpoint's metadata records, as named in the TMDS header.
_CHECKPOINT_DATASET_KEYS = {
    "feature_flags": "flags",
    "numeric_width": "numeric_width",
    "max_len": "max_len",
    "embedding_dim": "embedding_dim",
}


def cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> int:
    from . import evaluate as ev
    from .dataset import load_test_split
    from .rnn import forward_split, load_checkpoint

    ckpt_path = Path(args.checkpoint) if args.checkpoint else cfg.out_dir / CHECKPOINT_NAME
    if not ckpt_path.exists():
        raise InvalidArgumentError(f"checkpoint {ckpt_path} does not exist; train first")
    ckpt = load_checkpoint(ckpt_path)
    test, header = load_test_split(cfg.out_dir / DATASET_DIR)
    if not test:
        raise InvalidArgumentError("dataset has no test samples")
    for meta_key, header_key in _CHECKPOINT_DATASET_KEYS.items():
        # a batched forward accepts any text length, so a max_len mismatch
        # would otherwise evaluate silently
        if meta_key in ckpt.meta and ckpt.meta[meta_key] != header[header_key]:
            raise SchemaError(
                f"checkpoint {ckpt_path} was trained on {meta_key} {ckpt.meta[meta_key]!r}, "
                f"but the dataset has {header[header_key]!r}"
            )
    # each lookback step is one more input step of the numeric branch, which
    # a recurrent forward accepts however many there are
    config = ckpt.meta.get("config")
    lookback = config.get("market_lookback") if isinstance(config, dict) else None
    if type(lookback) is int and lookback + 1 != header["numeric_steps"]:
        raise SchemaError(
            f"checkpoint {ckpt_path} was trained on market_lookback {lookback}, "
            f"but the dataset has {header['numeric_steps']} numeric steps"
        )

    probs = forward_split(ckpt.model, test, ckpt.model.hyper.batch_size)
    preds = [1 if p >= 0.5 else 0 for p in probs.tolist()]
    # each sample's day and label, read through its row of the day table
    days = [dt.date.fromordinal(d) for d in test.days.tolist()]
    labels = test.labels.tolist()
    tweet_report = ev.metrics(ev.confusion(preds, labels))
    daily_table = ev.daily_aggregate(zip(days, preds), dict(zip(days, labels)))
    daily_report = ev.daily_metrics(daily_table)

    ev.write_report_json(
        cfg.out_dir / REPORT_NAME,
        cfg.ticker,
        tweet_report,
        daily_report,
        daily_table,
        extra={"config": cfg.echo()},
    )
    ev.write_confusion_csv(
        cfg.out_dir / f"confusion_{cfg.ticker}.csv",
        [("tweet", tweet_report), ("daily", daily_report)],
    )
    print(
        f"evaluate: tweet accuracy {tweet_report.accuracy:.4f}, "
        f"daily accuracy {daily_report.accuracy:.4f} over {len(daily_table)} days"
    )
    return 0


#: The JSON types of report.json's keys (all required), of one level's
#: metrics and of its confusion counts.
_REPORT_TYPES = {
    "schema_version": (int,),
    "ticker": (str,),
    "tweet_level": (dict,),
    "daily_level": (dict, type(None)),
    "daily_table": (list,),
    "config": (dict,),
}
_LEVEL_TYPES = {
    **dict.fromkeys(("accuracy", "precision", "recall", "f1"), (int, float)),
    "counts": (dict,),
}
_COUNTS_TYPES = dict.fromkeys(("tp", "tn", "fp", "fn"), (int,))


def cmd_report(cfg: RunConfig, args: argparse.Namespace) -> int:
    report_path = cfg.out_dir / REPORT_NAME
    if not report_path.exists():
        raise InvalidArgumentError(f"no report at {report_path}; run the evaluate subcommand first")
    try:
        obj = json.loads(read_text(report_path))
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise SchemaError(f"{report_path}: not valid JSON: {exc}") from exc
    checked_object(obj, _REPORT_TYPES, f"{report_path}: ", required=_REPORT_TYPES)
    print(f"ticker: {obj['ticker']}")
    for level in ("tweet_level", "daily_level"):
        block = obj[level]
        if block is None:
            continue
        where = f"{report_path}: {level}."
        checked_object(block, _LEVEL_TYPES, where, required=_LEVEL_TYPES)
        c = checked_object(block["counts"], _COUNTS_TYPES, f"{where}counts.",
                           required=_COUNTS_TYPES)
        print(
            f"{level}: accuracy {block['accuracy']:.4f} precision {block['precision']:.4f} "
            f"recall {block['recall']:.4f} f1 {block['f1']:.4f} "
            f"(tp {c['tp']} tn {c['tn']} fp {c['fp']} fn {c['fn']})"
        )
    sweep_path = cfg.out_dir / SWEEP_NAME
    if sweep_path.exists():
        print(read_text(sweep_path).strip())
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "features": cmd_features,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="path to the run config JSON")
    shared.add_argument("--seed", type=int, default=None, help="override the config seed")
    shared.add_argument("--out", default=None, help="override the config output directory")
    shared.add_argument(
        "--lenient", action="store_true",
        help="skip malformed input lines with a diagnostic instead of failing",
    )
    shared.add_argument(
        "--sweep-batch", action="store_true",
        help="train once per batch size in {128,256,512,1024,2048,4096} and "
             "write batch_sweep.csv (train subcommand only)",
    )

    parser = argparse.ArgumentParser(
        prog="tmfusion",
        description="Tweet + market feature fusion pipeline for stock movement classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[shared], help="validate and inventory the raw inputs")
    sub.add_parser("features", parents=[shared], help="build the train/test dataset artifact")
    sub.add_parser("train", parents=[shared], help="train a model on the dataset artifact")
    eval_p = sub.add_parser("evaluate", parents=[shared], help="evaluate a checkpoint on the test split")
    eval_p.add_argument("--checkpoint", default=None, help="checkpoint path (default: <out>/checkpoint.json)")
    sub.add_parser("report", parents=[shared], help="print the evaluation summary")
    return parser


#: BLAS thread variables set to one before numpy loads, unless already set.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    # The stages' matrices are small: a second BLAS thread buys little wall
    # time, burns a second core and slows down badly when that core is busy.
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    level_name = os.environ.get("TMF_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level_name, logging.WARNING),
        format="[%(levelname)s] %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "checkpoint"):
        args.checkpoint = None
    try:
        cfg = load_run_config(args.config, seed_override=args.seed, out_override=args.out)
        with output_lock(cfg.out_dir):
            return COMMANDS[args.command](cfg, args)
    except TmfusionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
