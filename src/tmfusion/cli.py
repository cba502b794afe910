"""Command-line pipeline: ingest -> features -> train -> evaluate -> report.

One JSON config file is the single source of truth for a run; flags select
subcommand behavior, and the only value-overriding flags (--seed, --out) are
echoed into every manifest they affect. Outputs carry no timestamps, so a
rerun with the same config and seed is byte-identical.

Subcommands hold an exclusive ``flock`` on a lock file inside the output
directory while they run; concurrent writers to one directory are refused,
and a run killed mid-stage leaves no lock behind.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import fcntl
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path


from . import evaluate as ev
from .dataset import (
    BuildConfig,
    build_dataset,
    compare_file_labels,
    label_bars,
    load_dataset,
    load_test_samples,
    numeric_width,
    normalize_feature_set,
    save_dataset,
)
from .errors import (
    InvalidArgumentError,
    SchemaError,
    TmfusionError,
    checked_object,
    field_types,
)
from .indicators import IndicatorConfig, load_ohlcv_csv
from .rnn import (
    BATCH_SWEEP_SIZES,
    Hyperparams,
    build_model,
    forward_arrays,
    load_checkpoint,
    samples_to_arrays,
    save_checkpoint,
    steps_per_epoch,
    train,
)
from .social import LexiconSentimentProvider, load_tweets_jsonl
from .text import EmbeddingTable, load_stopwords

logger = logging.getLogger("tmfusion.cli")

CELL_CHOICES = ("indrnn", "lstm", "gru", "simple")

MANIFEST_NAME = "ingest_manifest.json"
DATASET_DIR = "dataset"
CHECKPOINT_NAME = "checkpoint.json"
REPORT_NAME = "report.json"
SWEEP_NAME = "batch_sweep.csv"


@dataclass
class RunConfig:
    ticker: str
    ohlcv_csv: Path
    tweets_jsonl: Path
    out_dir: Path
    feature_set: frozenset[str]
    label_field: str = "close"
    cell: str = "indrnn"
    embedding_path: Path | None = None
    lexicon_path: Path | None = None
    stopwords_path: Path | None = None
    embedding_dim: int = 50
    market_lookback: int = 0
    indicators: IndicatorConfig = field(default_factory=IndicatorConfig)
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    seed: int = 0
    overrides: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """The config as recorded in manifests."""
        return {
            "ticker": self.ticker,
            "feature_set": sorted(self.feature_set),
            "label_field": self.label_field,
            "cell": self.cell,
            "embedding_dim": self.embedding_dim,
            "market_lookback": self.market_lookback,
            "seed": self.seed,
            "indicators": dataclasses.asdict(self.indicators),
            "hyperparams": dataclasses.asdict(self.hyperparams),
            "overrides": self.overrides,
        }


#: The JSON types each config value may take, key by key; no other key is accepted.
_CONFIG_TYPES = {
    "ticker": (str,),
    "paths": (dict,),
    "out_dir": (str,),
    "feature_set": (list,),
    "label_field": (str,),
    "cell": (str,),
    "embedding_dim": (int,),
    "market_lookback": (int,),
    "seed": (int,),
    "indicators": (dict,),
    "hyperparams": (dict,),
}
_PATH_TYPES = {
    key: (str, type(None))
    for key in ("ohlcv_csv", "tweets_jsonl", "embedding", "lexicon", "stopwords")
}
def load_run_config(path: str, seed_override: int | None = None,
                    out_override: str | None = None) -> RunConfig:
    """Parse and validate the run config; referenced input paths must exist.

    Unknown keys and mistyped values at any level raise ``SchemaError``.
    Relative paths resolve against the config file's directory.
    """
    cfg_path = Path(path)
    try:
        obj = json.loads(cfg_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidArgumentError(f"config file {path} does not exist")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc

    base = cfg_path.parent

    def resolve(p: str | None) -> Path | None:
        if p is None:
            return None
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    checked_object(obj, _CONFIG_TYPES, str(path))
    paths = checked_object(obj.get("paths", {}), _PATH_TYPES, f"{path}: paths")
    try:
        ticker = obj["ticker"]
        ohlcv = resolve(paths["ohlcv_csv"])
        tweets = resolve(paths["tweets_jsonl"])
    except KeyError as exc:
        raise SchemaError(f"{path}: missing required config key {exc}") from exc

    overrides: dict = {}
    seed = obj.get("seed", 0)
    if seed_override is not None:
        overrides["seed"] = seed_override
        seed = seed_override
    out_dir = resolve(obj.get("out_dir", "out"))
    if out_override is not None:
        overrides["out"] = out_override
        out_dir = Path(out_override)

    hyper_kwargs = dict(
        checked_object(obj.get("hyperparams", {}), field_types(Hyperparams), f"{path}: hyperparams")
    )
    if "seed" in hyper_kwargs:
        raise SchemaError(f"{path}: hyperparams.seed is not accepted; set the top-level seed")
    hyper_kwargs["seed"] = seed
    indicator_kwargs = checked_object(
        obj.get("indicators", {}), field_types(IndicatorConfig), f"{path}: indicators"
    )
    cell = obj.get("cell", "indrnn")
    if cell not in CELL_CHOICES:
        raise SchemaError(f"{path}: cell must be one of {CELL_CHOICES}")
    feature_set = obj.get("feature_set", ["market", "social", "sentiment"])
    if not all(isinstance(flag, str) for flag in feature_set):
        raise SchemaError(f"{path}: feature_set must be a list of strings")

    cfg = RunConfig(
        ticker=ticker,
        ohlcv_csv=ohlcv,
        tweets_jsonl=tweets,
        out_dir=out_dir,
        feature_set=normalize_feature_set(feature_set),
        label_field=obj.get("label_field", "close"),
        cell=cell,
        embedding_path=resolve(paths.get("embedding")),
        lexicon_path=resolve(paths.get("lexicon")),
        stopwords_path=resolve(paths.get("stopwords")),
        embedding_dim=obj.get("embedding_dim", 50),
        market_lookback=obj.get("market_lookback", 0),
        indicators=IndicatorConfig(**indicator_kwargs),
        hyperparams=Hyperparams(**hyper_kwargs),
        seed=seed,
        overrides=overrides,
    )

    for name, p in (
        ("ohlcv_csv", cfg.ohlcv_csv),
        ("tweets_jsonl", cfg.tweets_jsonl),
        ("embedding", cfg.embedding_path),
        ("lexicon", cfg.lexicon_path),
        ("stopwords", cfg.stopwords_path),
    ):
        if p is not None and not p.exists():
            raise InvalidArgumentError(f"configured {name} path {p} does not exist")
    return cfg


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


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")), encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(cfg: RunConfig, args: argparse.Namespace) -> int:
    ohlcv = load_ohlcv_csv(str(cfg.ohlcv_csv), lenient=args.lenient)
    tweets, tweet_diags = load_tweets_jsonl(str(cfg.tweets_jsonl), lenient=args.lenient)

    label_mismatches: list[str] = []
    if ohlcv.file_labels and len(ohlcv.bars) >= 2:
        label_mismatches = compare_file_labels(
            label_bars(ohlcv.bars, cfg.label_field), ohlcv.file_labels
        )

    ticker_tweets = sum(1 for t in tweets if t.ticker == cfg.ticker)
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
            "count": len(tweets),
            "ticker_count": ticker_tweets,
            "rejected": [{"line": d.line, "reason": d.message} for d in tweet_diags],
        },
    }
    _write_json(cfg.out_dir / MANIFEST_NAME, manifest)
    for d in ohlcv.diagnostics + tweet_diags:
        logger.warning("skipped %s", d)
    if label_mismatches:
        logger.warning("label column disagrees with the labeling rule on %s", label_mismatches)
    if not tweets:
        logger.warning("tweet file %s produced no records", cfg.tweets_jsonl)
    print(
        f"ingest: {len(ohlcv.bars)} bars, {len(tweets)} tweets "
        f"({ticker_tweets} for {cfg.ticker}), "
        f"{len(ohlcv.diagnostics) + len(tweet_diags)} rejected lines"
    )
    return 0


def _build_config(cfg: RunConfig) -> BuildConfig:
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
    if not (cfg.out_dir / MANIFEST_NAME).exists():
        raise InvalidArgumentError(
            f"no ingest manifest in {cfg.out_dir}; run the ingest subcommand first"
        )
    ohlcv = load_ohlcv_csv(str(cfg.ohlcv_csv), lenient=args.lenient)
    tweets, _ = load_tweets_jsonl(str(cfg.tweets_jsonl), lenient=args.lenient)
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


def _architecture(flags: frozenset[str]) -> str:
    has_text = "text" in flags
    has_numeric = numeric_width(flags) > 0
    if has_text and has_numeric:
        return "fused"
    if has_text:
        return "text_only"
    return "numeric_only"


def _fresh_model(cfg: RunConfig, header: dict, hyper: Hyperparams, literal: bool):
    return build_model(
        _architecture(frozenset(header["flags"])),
        cfg.cell,
        hyper,
        numeric_dim=header["numeric_width"],
        text_dim=header["embedding_dim"] if "text" in header["flags"] else 0,
        literal_forms=literal,
    )


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
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
            model = _fresh_model(cfg, ds.header, hyper, args.paper_literal)
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
        with open(sweep_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"sweep: wrote {len(rows)} rows to {sweep_path}")
        return 0

    model = _fresh_model(cfg, ds.header, cfg.hyperparams, args.paper_literal)
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
    ckpt_path = Path(args.checkpoint) if args.checkpoint else cfg.out_dir / CHECKPOINT_NAME
    if not ckpt_path.exists():
        raise InvalidArgumentError(f"checkpoint {ckpt_path} does not exist; train first")
    ckpt = load_checkpoint(ckpt_path)
    test, header = load_test_samples(cfg.out_dir / DATASET_DIR)
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

    numeric, text, _ = samples_to_arrays(ckpt.model, test)
    probs = forward_arrays(ckpt.model, numeric, text)
    preds = [1 if p >= 0.5 else 0 for p in probs.tolist()]
    per_day = [(s.day, cls) for s, cls in zip(test, preds)]
    labels = [s.label for s in test]
    tweet_report = ev.metrics(ev.confusion(preds, labels))

    actual_by_day = {}
    for s in test:
        if actual_by_day.setdefault(s.day, s.label) != s.label:
            raise SchemaError(f"inconsistent labels for day {s.day} in test artifact")
    daily_table = ev.daily_aggregate(per_day, actual_by_day)
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
        obj = json.loads(report_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{report_path}: not valid JSON: {exc}") from exc
    checked_object(obj, _REPORT_TYPES, str(report_path), required=_REPORT_TYPES)
    print(f"ticker: {obj['ticker']}")
    for level in ("tweet_level", "daily_level"):
        block = obj[level]
        if block is None:
            continue
        where = f"{report_path}: {level}"
        checked_object(block, _LEVEL_TYPES, where, required=_LEVEL_TYPES)
        c = checked_object(block["counts"], _COUNTS_TYPES, f"{where}.counts",
                           required=_COUNTS_TYPES)
        print(
            f"{level}: accuracy {block['accuracy']:.4f} precision {block['precision']:.4f} "
            f"recall {block['recall']:.4f} f1 {block['f1']:.4f} "
            f"(tp {c['tp']} tn {c['tn']} fp {c['fp']} fn {c['fn']})"
        )
    sweep_path = cfg.out_dir / SWEEP_NAME
    if sweep_path.exists():
        print(sweep_path.read_text(encoding="utf-8").strip())
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
        "--paper-literal", action="store_true",
        help="use the alternate literal cell forms (bias added outside the "
             "activation, sigmoid candidate in the gated-update cell)",
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


def main(argv: list[str] | None = None) -> int:
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
        logger.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
