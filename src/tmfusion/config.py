"""The run config: its schema, its validated form and the parameter records it holds.

``CONFIG_KEYS`` is the one place to add a config key: its JSON types and
allowed values, written once. The loader, the records here (indicator
periods, network hyperparameters), the checkpoint reader and the library's
argument checks all check values against it. Nothing here imports numpy, so
a stage that only reads files, and a config error, start and finish without it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .artifacts import read_text
from .errors import InvalidArgumentError, Rule, SchemaError, TmfusionError, checked_object

#: Numeric feature blocks in concatenation order, then the text matrix.
FEATURE_FLAGS = ("market", "social", "sentiment", "credibility", "text")

#: The recurrent cell kinds, for the config, the kernels and the checkpoint reader.
CELL_KINDS = ("indrnn", "lstm", "gru")

BATCH_SWEEP_SIZES = (128, 256, 512, 1024, 2048, 4096)


def _ints(low: int, high: int = 2**63 - 1) -> Rule:
    return Rule((int,), f"an integer in [{low}, {high}]", lambda v: low <= v <= high)


def one_of(choices: tuple[str, ...]) -> Rule:
    return Rule((str,), f"one of {choices}", lambda v: v in choices)


# NaN fails every comparison, so each number test refuses it too
_FINITE_NON_NEGATIVE = Rule((int, float), "a finite number >= 0", lambda v: 0 <= v < float("inf"))
_FRACTION = Rule((int, float), "a number in [0, 1)", lambda v: 0 <= v < 1)
_SEED = _ints(0)
_PATH = (str, type(None))

#: Every config key: its JSON types and allowed values, or a section's table.
#: README.md's "Config file" table lists the same facts with the defaults.
#: The keys that size arrays have upper bounds, so that a config within them
#: asks only for arrays numpy can address (not that they fit in memory).
CONFIG_KEYS = {
    "ticker": (str,),
    "paths": {"ohlcv_csv": (str,), "tweets_jsonl": (str,),
              "embedding": _PATH, "lexicon": _PATH, "stopwords": _PATH},
    "out_dir": (str,),
    "feature_set": Rule((list,), f"a nonempty list of names from {FEATURE_FLAGS}",
                        lambda v: bool(v) and all(flag in FEATURE_FLAGS for flag in v)),
    # the bar price a label compares from one day to the next
    "label_field": one_of(("close", "open", "adj_close")),
    "cell": one_of(CELL_KINDS),
    "embedding_dim": _ints(1, 1024),
    "market_lookback": _ints(0, 1024),
    "seed": _SEED,
    "indicators": {
        "ma_period": _ints(1),
        "rsi_period": _ints(2),
        "macd_fast": _ints(1),
        "macd_slow": _ints(2),
        "cci_period": _ints(2),
        "bb_period": _ints(2),
        "bb_sigma_mult": Rule((int, float), "a finite number > 0", lambda v: 0 < v < float("inf")),
        "bb_scalar_mode": one_of(("percent_b", "bandwidth", "middle")),
    },
    "hyperparams": {
        "epochs": _ints(1),
        "layers": _ints(1, 8),
        "hidden_units": _ints(1, 1024),
        "learning_rate": _FINITE_NON_NEGATIVE,
        "activation": one_of(("sigmoid",)),
        "recurrent_dropout": _FRACTION,
        "dropout": _FRACTION,
        "l2": _FINITE_NON_NEGATIVE,
        "batch_size": _ints(1),
        "momentum": _FRACTION,
        # a checkpoint records the seed here; a config sets it at the top level
        "seed": _SEED,
    },
}


def checked_value(key: str, value):
    """``value`` once top-level config key ``key`` allows it, else ``InvalidArgumentError``."""
    return checked_object({key: value}, {key: CONFIG_KEYS[key]}, "", error=InvalidArgumentError)[key]


def feature_blocks(flags, market_lookback: int, embedding_dim: int) -> frozenset[str]:
    """The flags as a set, once each block they turn on can be built: a market
    lookback needs the market block, and the text block an embedding."""
    fs = frozenset(checked_value("feature_set", list(flags)))
    if market_lookback > 0 and "market" not in fs:
        raise InvalidArgumentError("market_lookback above 0 needs the market block")
    if "text" in fs and embedding_dim < 1:
        raise InvalidArgumentError("the text block needs an embedding of embedding_dim >= 1")
    return fs


def _check_record(record, section: str) -> None:
    """Check a frozen record's fields against ``CONFIG_KEYS[section]``, storing each as converted."""
    fields = checked_object(vars(record), CONFIG_KEYS[section], f"{section}.",
                            error=InvalidArgumentError)
    for key, value in fields.items():
        object.__setattr__(record, key, value)


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
        _check_record(self, "indicators")
        if self.macd_fast >= self.macd_slow:
            raise InvalidArgumentError("indicators.macd_fast must be below indicators.macd_slow")

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
        _check_record(self, "hyperparams")


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


def load_run_config(path: str, seed_override: int | None = None,
                    out_override: str | None = None) -> RunConfig:
    """Parse and validate the run config; referenced input paths must be files.

    Each value must pass its entry of ``CONFIG_KEYS``, and ``--seed`` the
    ``seed`` entry; ``NaN``, ``Infinity`` and numbers past the float64 range
    are refused at parsing. A failure names the file and the dotted key.
    Relative paths resolve against the config file's directory.
    """
    cfg_path = Path(path)
    base = cfg_path.parent

    def finite(number: str) -> float:
        value = float(number)
        if not -float("inf") < value < float("inf"):
            raise SchemaError(f"{path}: {number} is not a finite JSON number; values must be finite")
        return value

    try:
        obj = json.loads(read_text(cfg_path), parse_constant=finite, parse_float=finite)
    except FileNotFoundError:
        raise InvalidArgumentError(f"config file {path} does not exist")
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if seed_override is not None:
        checked_object({"seed": seed_override}, {"seed": _SEED}, "--", error=InvalidArgumentError)

    try:
        obj = checked_object(obj, CONFIG_KEYS, "", required=("ticker", "paths"))
        # joined to an absolute path, the config's directory drops out
        files = {name: base / p for name, p in obj["paths"].items() if p is not None}
        if not {"ohlcv_csv", "tweets_jsonl"} <= files.keys():
            raise SchemaError("paths.ohlcv_csv and paths.tweets_jsonl are required")
        if "seed" in obj.get("hyperparams", {}):
            raise SchemaError("hyperparams.seed is not accepted; set the top-level seed")
        seed = obj.get("seed", 0) if seed_override is None else seed_override
        out_dir = base / obj.get("out_dir", "out") if out_override is None else Path(out_override)
        scalars = {key: obj[key] for key in ("label_field", "cell", "embedding_dim",
                                             "market_lookback") if key in obj}
        cfg = RunConfig(
            ticker=obj["ticker"],
            ohlcv_csv=files["ohlcv_csv"],
            tweets_jsonl=files["tweets_jsonl"],
            out_dir=out_dir,
            feature_set=frozenset(obj.get("feature_set", ["market", "social", "sentiment"])),
            embedding_path=files.get("embedding"),
            lexicon_path=files.get("lexicon"),
            stopwords_path=files.get("stopwords"),
            indicators=IndicatorConfig(**obj.get("indicators", {})),
            hyperparams=Hyperparams(**obj.get("hyperparams", {}), seed=seed),
            seed=seed,
            overrides={key: value for key, value in (("seed", seed_override), ("out", out_override))
                       if value is not None},
            **scalars,
        )
        feature_blocks(cfg.feature_set, cfg.market_lookback, cfg.embedding_dim)
    except TmfusionError as exc:
        raise SchemaError(f"{path}: {exc}") from exc

    for name, p in files.items():
        if not p.is_file():
            raise InvalidArgumentError(f"configured {name} path {p} does not exist or is not a file")
    return cfg
