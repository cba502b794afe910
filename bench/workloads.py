"""The benchmark's workloads: sizes, feature blocks and model settings.

``generate.py`` turns a workload and a seed into the input files.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    tweets: int
    days: int
    authors: int
    #: "pool" draws each tweet from ``text_pool`` short texts; "long" writes
    #: a distinct 20-30 token text per tweet over a ``text_pool``-word vocabulary.
    texts: str
    text_pool: int
    feature_set: tuple[str, ...]
    cell: str
    batch_size: int
    epochs: int
    learning_rate: float
    layers: int = 2
    market_lookback: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # JSONL parse and the per-row dataset build dominate; cell compute is
        # negligible (IndRNN, T=1), and texts repeat almost completely. The
        # only workload with credibility replay.
        Workload(
            name="numeric_many_tweets",
            tweets=12_000, days=400, authors=1_000, texts="pool", text_pool=10,
            feature_set=("market", "social", "sentiment", "credibility"),
            cell="indrnn", batch_size=128, epochs=4, learning_rate=0.005,
        ),
        # LSTM forward/backward at T=30, M=50 dominates training, the
        # per-sample predict loop dominates evaluate, and text matrices
        # dominate artifact bytes and RSS. Texts never repeat, so a per-text
        # cache has nothing to hit. One layer: with two, the model did not
        # learn on 1.2k training samples for about one seed in five.
        Workload(
            name="fused_lstm_longtext",
            tweets=1_500, days=300, authors=400, texts="long", text_pool=3_000,
            feature_set=("text", "market", "social", "sentiment"),
            cell="lstm", batch_size=128, epochs=4, learning_rate=0.005, layers=1,
        ),
        # The lookback path of the dataset build (per-step normalization) and
        # GRU cells at narrow input (M=14), T=11 and a large batch, where the
        # recurrent GEMMs and gate elementwise work matter, not the input
        # projection.
        Workload(
            name="gru_lookback_bigbatch",
            tweets=5_000, days=300, authors=300, texts="pool", text_pool=200,
            feature_set=("market", "social", "sentiment"),
            cell="gru", batch_size=1024, epochs=8, learning_rate=0.001,
            market_lookback=10,
        ),
    )
}
