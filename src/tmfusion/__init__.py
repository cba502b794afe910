"""Tweet and market-indicator feature fusion for stock movement classification.

The package covers the full pipeline: OHLCV ingestion and technical
indicators (`indicators`), tweet ingestion with sentiment, social, and
author-credibility features (`social`), text cleanup and embedding
(`text`), labeling/normalization/sample assembly (`dataset`), from-scratch
recurrent models with training and checkpoints (`rnn`), evaluation
(`evaluate`), and the command-line orchestration (`cli`).
"""

from .dataset import (
    BuildConfig,
    BuildResult,
    NormalizerState,
    Sample,
    apply_normalizer,
    build_dataset,
    fit_normalizer,
    label_bars,
    load_dataset,
    save_dataset,
)
from .errors import (
    AssemblyError,
    Diagnostic,
    DivergedError,
    InvalidArgumentError,
    JoinError,
    NotReadyError,
    OrderingError,
    SchemaError,
    TmfusionError,
)
from .evaluate import (
    ConfusionCounts,
    DailyPrediction,
    MetricReport,
    confusion,
    daily_aggregate,
    daily_metrics,
    metrics,
)
from .indicators import (
    IndicatorConfig,
    IndicatorSeries,
    OhlcvBar,
    bollinger,
    cci,
    ema,
    load_ohlcv_csv,
    macd,
    market_feature_vector,
    rsi,
    sma,
)
from .rnn import (
    CellParams,
    Checkpoint,
    Hyperparams,
    ModelSpec,
    backward,
    build_model,
    forward_model,
    gru_forward,
    indrnn_forward,
    load_checkpoint,
    lstm_forward,
    predict,
    save_checkpoint,
    train,
)
from .social import (
    LexiconSentimentProvider,
    SentimentVector,
    TweetRecord,
    UserHistory,
    UserHistoryStore,
    author_rating,
    load_tweets_jsonl,
    recommendation_score,
    representativeness,
    sentiment_vector,
    social_vector,
    tweet_score,
    update_user_history,
    user_history_vector,
)
from .text import EmbeddingTable, embed_sequence, load_stopwords, tokenize_clean

__version__ = "0.1.0"
