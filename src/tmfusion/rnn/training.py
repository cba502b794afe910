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

A run allocates its working memory once: the batch gathers, the cell caches
and the per-epoch validation forward (in chunks of at most ``batch_size``
rows) all reuse the buffers of one workspace (see ``backward_arrays``).
"""

from __future__ import annotations

import math

import numpy as np

from ..dataset import Sample
from ..errors import DivergedError, InvalidArgumentError
from .checkpoint import Checkpoint
from .cells import workspace_array
from .model import ModelSpec, backward_arrays, forward_arrays, rng_streams, samples_to_arrays


def steps_per_epoch(n_samples: int, batch_size: int) -> int:
    return math.ceil(n_samples / batch_size)


def _correct(probs: np.ndarray, labels: np.ndarray) -> int:
    return int(np.sum((probs >= 0.5).astype(np.float64) == labels))


def _accuracy(model, numeric, text, labels, chunk: int, workspace: dict | None) -> float:
    """Accuracy of dropout-free forwards over chunks of at most ``chunk`` rows."""
    correct = 0
    for start in range(0, labels.shape[0], chunk):
        rows = slice(start, start + chunk)
        probs = forward_arrays(
            model,
            numeric[rows] if numeric is not None else None,
            text[rows] if text is not None else None,
            workspace=workspace,
        )
        correct += _correct(probs, labels[rows])
    return correct / labels.shape[0]


def _gather(arr: np.ndarray | None, idx: np.ndarray, ws: dict, name: str) -> np.ndarray | None:
    """Rows ``idx`` of ``arr``, copied into the workspace buffer ``name``."""
    if arr is None:
        return None
    out = workspace_array(ws, name, (len(idx),) + arr.shape[1:])
    # mode="raise" would gather into a temporary first; idx is a permutation slice
    return np.take(arr, idx, axis=0, out=out, mode="clip")


def train(
    model: ModelSpec,
    train_samples: list[Sample],
    valid_samples: list[Sample],
    meta: dict | None = None,
) -> Checkpoint:
    """Train ``model`` in place and return a checkpoint wrapping it.

    The samples are stacked into arrays once. Each step's ``backward_arrays``
    leaves the gradient in ``model.grad``, and the momentum update is three
    whole-vector operations on ``model.theta`` and one velocity vector of
    the same layout. The validation accuracy logged each epoch comes from
    dropout-free forwards over ``valid_samples`` in chunks of at most
    ``batch_size`` rows.
    """
    if not train_samples or not valid_samples:
        raise InvalidArgumentError("train and validation sets must be non-empty")
    hyper = model.hyper
    _, train_rng = rng_streams(hyper.seed)

    numeric, text, labels = samples_to_arrays(model, train_samples)
    valid = samples_to_arrays(model, valid_samples)
    n = labels.shape[0]
    velocity = np.zeros_like(model.theta)
    workspace: dict = {}
    batch_ws = workspace.setdefault("batch", {})

    log: list[dict] = []
    for epoch in range(1, hyper.epochs + 1):
        order = train_rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, hyper.batch_size):
            idx = order[start : start + hyper.batch_size]
            loss, probs = backward_arrays(
                model,
                _gather(numeric, idx, batch_ws, "numeric"),
                _gather(text, idx, batch_ws, "text"),
                labels[idx],
                rng=train_rng,
                workspace=workspace,
            )
            if not math.isfinite(loss):
                raise DivergedError(epoch)
            step = hyper.learning_rate * len(idx)
            velocity *= hyper.momentum
            velocity -= step * model.grad
            model.theta += velocity
            losses.append(loss)
            correct += _correct(probs, labels[idx])
        log.append(
            {
                "epoch": epoch,
                "loss": float(np.mean(losses)),
                "accuracy": correct / n,
                "valid_accuracy": _accuracy(model, *valid, hyper.batch_size, workspace),
            }
        )
    return Checkpoint(model=model, training_log=log, meta=dict(meta or {}))
