"""Tweet and market-indicator feature fusion for stock movement classification.

The package covers the full pipeline: OHLCV ingestion and technical
indicators (`indicators`), tweet ingestion with sentiment, social, and
author-credibility features (`social`), text cleanup and embedding
(`text`), labeling/normalization/sample assembly (`dataset`), from-scratch
recurrent models with training and checkpoints (`rnn`), evaluation
(`evaluate`), and the command-line orchestration (`cli`).
"""

__version__ = "0.1.0"
