"""The run config: its schema, its validated form and the parameter records it holds.

Nothing here imports numpy, so a stage that only reads files, and a config
error, start and finish without it. The records here (indicator periods,
network hyperparameters, feature flags) are the ones the numeric modules
take as arguments; they validate their own ranges on construction.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .artifacts import read_text
from .errors import InvalidArgumentError, SchemaError, checked_object, field_types

CELL_CHOICES = ("indrnn", "lstm", "gru", "simple")

#: Numeric feature blocks in concatenation order, then the text matrix.
FEATURE_FLAGS = ("market", "social", "sentiment", "credibility", "text")

BB_SCALAR_MODES = ("percent_b", "bandwidth", "middle")

BATCH_SWEEP_SIZES = (128, 256, 512, 1024, 2048, 4096)


def normalize_feature_set(flags) -> frozenset[str]:
    fs = frozenset(flags)
    if not fs:
        raise InvalidArgumentError("feature set must be nonempty")
    unknown = fs - set(FEATURE_FLAGS)
    if unknown:
        raise InvalidArgumentError(f"unknown feature flags {sorted(unknown)}")
    return fs


@dataclass(frozen=True)
class IndicatorConfig:
    """Periods and modes for the market feature block."""

    ma_period: int = 10
    rsi_period: int = 27
    macd_fast: int = 12
    macd_slow: int = 26
    cci_period: int = 20
    bb_period: int = 20
    bb_sigma_mult: float = 2.0
    bb_scalar_mode: str = "percent_b"

    def __post_init__(self) -> None:
        if self.ma_period < 1:
            raise InvalidArgumentError("ma_period must be >= 1")
        if self.rsi_period < 2:
            raise InvalidArgumentError("rsi_period must be >= 2")
        if self.macd_fast < 1 or self.macd_fast >= self.macd_slow:
            raise InvalidArgumentError("macd_fast must satisfy 1 <= fast < slow")
        if self.cci_period < 2:
            raise InvalidArgumentError("cci_period must be >= 2")
        if self.bb_period < 2:
            raise InvalidArgumentError("bb_period must be >= 2")
        if not self.bb_sigma_mult > 0:
            raise InvalidArgumentError("bb_sigma_mult must be > 0")
        if self.bb_scalar_mode not in BB_SCALAR_MODES:
            raise InvalidArgumentError(f"bb_scalar_mode must be one of {BB_SCALAR_MODES}")

    @property
    def warmup(self) -> int:
        """Bars needed before every indicator in the block is defined."""
        return max(
            self.ma_period - 1,
            self.rsi_period,
            self.macd_slow - 1,
            self.cci_period - 1,
            self.bb_period - 1,
        )


@dataclass(frozen=True)
class Hyperparams:
    epochs: int = 100
    layers: int = 2
    hidden_units: int = 14
    learning_rate: float = 0.001
    activation: str = "sigmoid"
    recurrent_dropout: float = 0.5
    dropout: float = 0.5
    l2: float = 0.0001
    batch_size: int = 128
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.layers < 1 or self.hidden_units < 1:
            raise InvalidArgumentError("epochs, layers, hidden_units must be >= 1")
        # NaN fails every comparison, so the range test refuses it too
        if not all(0 <= v < float("inf") for v in (self.learning_rate, self.l2)):
            raise InvalidArgumentError("learning_rate and l2 must be finite and >= 0")
        if not (0.0 <= self.dropout < 1.0 and 0.0 <= self.recurrent_dropout < 1.0):
            raise InvalidArgumentError("dropout rates must be in [0, 1)")
        if self.batch_size < 1:
            raise InvalidArgumentError("batch_size must be >= 1")
        if not (0.0 <= self.momentum < 1.0):
            raise InvalidArgumentError("momentum must be in [0, 1)")
        if self.activation != "sigmoid":
            raise InvalidArgumentError("only the sigmoid activation is supported")


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

    Unknown keys, mistyped values at any level and the non-standard JSON
    constants ``NaN``, ``Infinity`` and ``-Infinity`` raise ``SchemaError``.
    Relative paths resolve against the config file's directory.
    """
    cfg_path = Path(path)

    def refuse(constant: str):
        raise SchemaError(f"{path}: {constant} is not a JSON number; values must be finite")

    try:
        obj = json.loads(read_text(cfg_path), parse_constant=refuse)
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
