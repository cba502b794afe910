"""Checkpoints written by an earlier version still load, predict and re-save
unchanged: the file format is pinned by golden files, not by a round trip
through the current code alone (see ``data/make_golden_checkpoints.py``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from tmfusion.rnn import forward_arrays, load_checkpoint, save_checkpoint
from tmfusion.rnn.cells import CELL_KINDS

from .conftest import DATA_DIR


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_golden_checkpoint_loads_predicts_and_resaves(kind, tmp_path):
    golden = DATA_DIR / f"golden_checkpoint_{kind}.json"
    expected = json.loads((DATA_DIR / "golden_checkpoint_probs.json").read_text())
    ckpt = load_checkpoint(golden)
    probs = forward_arrays(
        ckpt.model, np.array(expected["numeric"]), np.array(expected["text"])
    )
    assert probs.tolist() == expected["probs"][kind]
    resaved = tmp_path / "resaved.json"
    save_checkpoint(ckpt, resaved)
    assert resaved.read_bytes() == golden.read_bytes()
