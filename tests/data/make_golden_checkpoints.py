"""Write the golden checkpoints that pin the checkpoint file format.

For each cell kind this trains a tiny fused model (2 layers of 3 units,
2 epochs on 16 random samples) and writes ``golden_checkpoint_<kind>.json``,
then records the inputs of a 6-sample test set and every model's
probabilities on it in ``golden_checkpoint_probs.json``.
``tests/test_golden_checkpoint.py`` loads these files with the current code.

The committed files were written by the code of checkpoint format version 1
as it stood before the parameters moved into one flat vector. Rerunning
this script overwrites them with what the current code writes. Run it from
the repository root:

    PYTHONPATH=src:. python3 tests/data/make_golden_checkpoints.py

The CI workflow (``.github/workflows/tests.yml``, step "Training reproduces
the golden checkpoints") runs it and fails on any diff under ``tests/data``,
so it pins training, not only loading, for every cell kind. A rerun
without a diff is what a deliberate format change breaks: only then commit
the rewritten files, since the golden test then compares the code with
itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from tests.conftest import one_step_split
from tmfusion.config import Hyperparams
from tmfusion.dataset import Split
from tmfusion.rnn import (
    build_model,
    forward_arrays,
    samples_to_arrays,
    save_checkpoint,
    train,
)
from tmfusion.rnn.cells import CELL_KINDS

HERE = Path(__file__).resolve().parent
NUMERIC_DIM, TEXT_SHAPE = 4, (5, 3)


def samples(rng: np.random.Generator, n: int) -> Split:
    """A one-step split of ``n`` random rows, each drawn as numeric, text, label."""
    rows = [
        (rng.uniform(0.0, 1.0, NUMERIC_DIM), rng.normal(0.0, 0.5, TEXT_SHAPE), rng.integers(0, 2))
        for _ in range(n)
    ]
    numeric, text, labels = (np.stack(column) for column in zip(*rows))
    return one_step_split(numeric, labels, text)


def main() -> None:
    rng = np.random.default_rng(2024)
    train_set, test_set = samples(rng, 16), samples(rng, 6)
    hyper = Hyperparams(epochs=2, layers=2, hidden_units=3, learning_rate=0.05,
                        batch_size=4, seed=5)
    probs = {}
    for kind in CELL_KINDS:
        model = build_model("fused", kind, hyper, numeric_dim=NUMERIC_DIM,
                            text_dim=TEXT_SHAPE[1])
        ckpt = train(model, train_set, test_set, meta={"ticker": "AAPL"})
        save_checkpoint(ckpt, HERE / f"golden_checkpoint_{kind}.json")
        numeric, text, _ = samples_to_arrays(model, test_set)
        probs[kind] = forward_arrays(model, numeric, text).tolist()
    numeric, text, _ = samples_to_arrays(model, test_set)
    blob = {"numeric": numeric.tolist(), "text": text.tolist(), "probs": probs}
    (HERE / "golden_checkpoint_probs.json").write_text(
        json.dumps(blob, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
