from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from tmfusion.artifacts import atomic_write, source_digest, write_json
from tmfusion.config import IndicatorConfig
from tmfusion.dataset import BuildConfig, build_dataset, save_dataset, write_split
from tmfusion.errors import InvalidArgumentError

from .conftest import synthetic_tweets, weekday_bars


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": [1, 2.5], "a": None})
    assert path.read_bytes() == b'{"a":null,"b":[1,2.5]}'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


@pytest.mark.parametrize("mode, payload", [("w", "partial"), ("wb", b"partial")])
def test_failed_write_keeps_previous_artifact(tmp_path, mode, payload):
    path = tmp_path / "artifact"
    write_json(path, {"good": True})
    previous = path.read_bytes()
    with pytest.raises(RuntimeError):
        with atomic_write(path, mode) as fh:
            fh.write(payload)
            fh.flush()
            raise RuntimeError("killed mid-write")
    assert path.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_failed_write_creates_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "new.csv") as fh:
            fh.write("level,tp\n")
            raise RuntimeError("killed mid-write")
    assert list(tmp_path.iterdir()) == []


def test_write_samples_failing_mid_file_keeps_previous_split(tmp_path, rng):
    bars = weekday_bars(rng, 40)
    dates = [b.date for b in bars]
    cfg = BuildConfig(
        ticker="AAPL",
        feature_set=frozenset({"market", "social", "sentiment"}),
        indicators=IndicatorConfig(ma_period=3, rsi_period=3, macd_fast=2, macd_slow=4,
                                   cci_period=3, bb_period=3),
    )
    result = build_dataset(synthetic_tweets(rng, dates, 60), bars, cfg)
    save_dataset(tmp_path, result, cfg)
    train_bin = tmp_path / "train.bin"
    previous = train_bin.read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())

    # a misshaped column after the header has been written makes the writer raise
    misshaped = dataclasses.replace(result.train, author_ids=np.zeros(3, dtype=np.int32))
    with pytest.raises(InvalidArgumentError, match="author_id shape"):
        write_split(train_bin, misshaped, cfg.feature_set, cfg.label_field)
    assert train_bin.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == names


@pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 7])
def test_source_digest_is_the_file_sha256(tmp_path, size):
    """The digest read through one 64 KiB buffer is the whole file's SHA-256,
    at and around the buffer's size."""
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(data)
    assert source_digest(path) == {
        "source_bytes": size, "source_sha256": hashlib.sha256(data).hexdigest()
    }
