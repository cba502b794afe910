"""Fuzz tests for "never a traceback": a bad config or a damaged artifact ends
each CLI stage with exit 0, or exit 1 through a ``TmfusionError``.

The runs are in-process on ``write_corpus``'s tiny corpus. Hypothesis is
derandomized, so every run of the suite draws the same examples.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .test_cli import BIG_INT, run_cli, write_config, write_corpus

STAGES = ("ingest", "features", "train", "evaluate")

#: What a leaf of the config is replaced with: an integer past int64 and
#: float64, a huge, zero or negative number, the bare literal NaN, a
#: string, a list and null.
LEAF_VALUES = (BIG_INT, 1e300, 0, 0.0, -1, math.nan, "x", [1], None)

#: The stages that read each artifact, in order.
READERS = {
    "tweets.bin": ("features", "train", "evaluate"),
    "dataset/train.bin": ("train", "evaluate"),
    "dataset/test.bin": ("train", "evaluate"),
    "checkpoint.json": ("evaluate",),
}

FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)


def run_stages(cfg: Path, stages) -> list[int]:
    """The exit code of each stage, stopping after the first that fails.

    A stage that raises anything, rather than returning 0 or 1, fails the test.
    """
    codes = []
    for stage in stages:
        codes.append(run_cli(stage, "--config", str(cfg)))
        assert codes[-1] in (0, 1)
        if codes[-1]:
            break
    return codes


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    write_corpus(directory, np.random.default_rng(11))
    return directory


@pytest.fixture(scope="module")
def finished_run(corpus, tmp_path_factory) -> Path:
    """A directory holding the corpus, its config and every stage's output."""
    directory = tmp_path_factory.mktemp("run")
    for name in ("bars.csv", "tweets.jsonl"):
        shutil.copy(corpus / name, directory / name)
    assert run_stages(write_config(directory), STAGES) == [0, 0, 0, 0]
    return directory


def leaves(node, path=()):
    """The path of every scalar of a JSON tree, list items included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


def sections(node, path=()):
    """The path of every JSON object of a tree, the root included."""
    yield path
    for key, value in node.items():
        if isinstance(value, dict):
            yield from sections(value, path + (key,))


def at(node, path):
    for key in path:
        node = node[key]
    return node


@FUZZ
@given(data=st.data())
def test_any_one_config_change_exits_0_or_1(corpus, data):
    """One leaf replaced, one key dropped or one key added: every stage
    returns 0, or 1 through a TmfusionError."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("bars.csv", "tweets.jsonl"):
            shutil.copy(corpus / name, tmp / name)
        cfg_path = write_config(tmp)
        cfg = json.loads(cfg_path.read_text())
        kind = data.draw(st.sampled_from(["replace", "drop", "add"]), label="kind")
        if kind == "add":
            path = data.draw(st.sampled_from(list(sections(cfg))), label="section")
            at(cfg, path)["extra"] = data.draw(st.sampled_from(LEAF_VALUES), label="value")
        else:
            path = data.draw(st.sampled_from(list(leaves(cfg))), label="leaf")
            if kind == "drop":
                del at(cfg, path[:-1])[path[-1]]
            else:
                at(cfg, path[:-1])[path[-1]] = data.draw(st.sampled_from(LEAF_VALUES), label="value")
        cfg_path.write_text(json.dumps(cfg))
        run_stages(cfg_path, STAGES)


@FUZZ
@given(
    name=st.sampled_from(sorted(READERS)),
    kind=st.sampled_from(["truncate", "flip"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    bit=st.integers(0, 7),
)
def test_any_truncated_or_bit_flipped_artifact_exits_0_or_1(finished_run, name, kind, where, bit):
    """A truncated artifact, or one with one bit flipped, ends each stage
    that reads it with exit 0, or 1 through a TmfusionError."""
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(finished_run, run)
        target = run / "out" / name
        blob = bytearray(target.read_bytes())
        pos = int(where * len(blob))
        if kind == "truncate":
            del blob[pos:]
        else:
            blob[pos] ^= 1 << bit
        target.write_bytes(bytes(blob))
        run_stages(run / "config.json", READERS[name])


@pytest.mark.parametrize("key, value", [("learning_rate", BIG_INT), ("seed", -1)])
def test_checkpoint_hyperparams_outside_the_table_exit_1(finished_run, tmp_path, capsys,
                                                         key, value):
    """A checkpoint whose hyperparams break their config rule is refused by
    evaluate with a SchemaError naming the file and the key."""
    run = tmp_path / "run"
    shutil.copytree(finished_run, run)
    ckpt = run / "out" / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    blob["hyperparams"][key] = value
    ckpt.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run_cli("evaluate", "--config", str(run / "config.json")) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"hyperparams.{key}" in err and "Traceback" not in err
