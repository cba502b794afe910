"""Mini-batch gradient-descent training loop with a fixed learning rate.

The update is the classical momentum form over the batch-accumulated
(summed) gradient: ``v <- momentum * v - lr * batch_size * g_mean`` and
``theta <- theta + v``. Summing per-sample gradients rather than averaging
keeps one epoch's total step independent of the batch size, which is what
lets the stated learning rate train anything in 100 epochs and keeps the
batch-size sweep comparable across sizes.

Each epoch shuffles the training set with the seeded training stream, walks
it in batches, and updates in place. Per-epoch mean loss, training accuracy
(from the same train-mode forward passes), and validation accuracy are
logged into the checkpoint. A non-finite loss aborts with the epoch number.

Each step runs its batch in consecutive chunks of at most ``CHUNK_ROWS``
rows and accumulates the exact gradient of the batch's mean loss over them
(see ``model.backward_batch``); the per-epoch validation forward runs in
chunks of at most ``min(batch_size, CHUNK_ROWS)`` rows. A run allocates its
working memory once: the chunk gathers and the cell caches reuse the
buffers of one workspace (see ``backward_arrays``), so they are sized by
the chunk, not by the batch, and the memory of a run stops growing with
``batch_size`` past ``CHUNK_ROWS``. Only the dropout masks and the
probabilities of a step are the whole batch's. A batch of at most
``CHUNK_ROWS`` rows is one chunk. The first layer of each branch reads its
input one time step at a time from a step source over the split's tables
(``Split.numeric_steps``, ``Split.text_steps``), which fills one (rows,
width) buffer per step, so no (rows, steps, width) or (rows, max_len, k)
gather is built, of a chunk or of a split. The top layer's backward gets
its gradient on the final step alone. Inference keeps no gate caches:
each layer holds its hidden sequence and one step of gate buffers (see
``cells.forward``).
"""

from __future__ import annotations

import math

import numpy as np

from ..dataset import Sample, Split
from ..errors import DivergedError, InvalidArgumentError
from .checkpoint import Checkpoint
from .cells import workspace_array
from .model import ModelSpec, backward_batch, forward_steps, model_split, rng_streams

#: Rows per forward/backward chunk: a training step runs its batch in
#: chunks of at most this many rows, and inference in chunks of at most
#: ``min(batch_size, CHUNK_ROWS)``, so cell caches and gathers stay bounded.
CHUNK_ROWS = 512


def steps_per_epoch(n_samples: int, batch_size: int) -> int:
    return math.ceil(n_samples / batch_size)


def _correct(probs: np.ndarray, labels: np.ndarray) -> int:
    return int(np.sum((probs >= 0.5).astype(np.float64) == labels))


def _inputs(model: ModelSpec, split: Split, rows, n: int, ws: dict) -> dict:
    """The step sources of ``split``'s ``n`` rows ``rows`` for each branch ``model`` has.

    Each fills one (n, width) buffer of ``ws`` per step (see
    ``Split.numeric_steps`` and ``Split.text_steps``).
    """
    inputs = {}
    if model.text_layers:
        inputs["text"] = split.text_steps(
            rows, workspace_array(ws, "text", (n, split.table.shape[1]))
        )
    if model.numeric_layers:
        inputs["numeric"] = split.numeric_steps(
            rows, workspace_array(ws, "numeric", (n, split.width))
        )
    return inputs


def forward_split(
    model: ModelSpec,
    samples: Split | list[Sample],
    batch_size: int,
    workspace: dict | None = None,
) -> np.ndarray:
    """Dropout-free probabilities of every row of ``samples``.

    Each forward runs ``min(batch_size, CHUNK_ROWS)`` rows. ``workspace``
    is as for ``backward_arrays``; without one, the chunks share a fresh
    one.
    """
    split = model_split(model, samples)
    workspace = {} if workspace is None else workspace
    batch_ws = workspace.setdefault("batch", {})
    chunk = min(batch_size, CHUNK_ROWS)
    n = len(split)
    probs = np.empty(n)
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        size = min(chunk, n - start)
        probs[rows] = forward_steps(model, _inputs(model, split, rows, size, batch_ws), workspace)
    return probs


def train_step(
    model: ModelSpec,
    split: Split,
    idx: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    workspace: dict,
) -> tuple[float, np.ndarray]:
    """One training forward/backward over ``split``'s rows ``idx``, labelled ``labels``.

    The batch runs in chunks of at most ``CHUNK_ROWS`` rows, each gathered
    into ``workspace`` (see ``backward_arrays``). Returns the batch's
    regularized loss and probabilities and leaves the exact gradient of
    that loss in ``model.grad``, as ``backward_arrays`` does.
    """
    batch_ws = workspace.setdefault("batch", {})

    def chunk_inputs(rows: slice) -> dict:
        chunk = idx[rows]
        return _inputs(model, split, chunk, len(chunk), batch_ws)

    return backward_batch(model, labels, chunk_inputs, CHUNK_ROWS, rng, workspace)


def train(
    model: ModelSpec,
    train_samples: Split | list[Sample],
    valid_samples: Split | list[Sample],
    meta: dict | None = None,
) -> Checkpoint:
    """Train ``model`` in place and return a checkpoint wrapping it.

    Each ``train_step`` leaves its batch's gradient in ``model.grad``; the
    momentum update is three whole-vector operations on ``model.theta`` and
    one velocity vector of the same layout. The validation accuracy logged
    each epoch comes from ``forward_split`` over ``valid_samples``.
    """
    if not train_samples or not valid_samples:
        raise InvalidArgumentError("train and validation sets must be non-empty")
    hyper = model.hyper
    _, train_rng = rng_streams(hyper.seed)

    train_split = model_split(model, train_samples)
    valid_split = model_split(model, valid_samples)
    labels = train_split.labels.astype(np.float64)
    valid_labels = valid_split.labels.astype(np.float64)
    n = labels.shape[0]
    velocity = np.zeros_like(model.theta)
    workspace: dict = {}

    log: list[dict] = []
    for epoch in range(1, hyper.epochs + 1):
        order = train_rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            loss, probs = train_step(model, train_split, idx, labels[idx], train_rng, workspace)
            if not math.isfinite(loss):
                raise DivergedError(epoch)
            step = hyper.learning_rate * len(idx)
            velocity *= hyper.momentum
            velocity -= step * model.grad
            model.theta += velocity
            losses.append(loss)
            correct += _correct(probs, labels[idx])
        valid_probs = forward_split(model, valid_split, hyper.batch_size, workspace)
        log.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(losses)),
                "accuracy": correct / n,
                "valid_accuracy": _correct(valid_probs, valid_labels) / len(valid_split),
            }
        )
    return Checkpoint(model=model, training_log=log, meta=dict(meta or {}))
