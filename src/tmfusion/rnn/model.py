"""Fusion model: stacked recurrent branches feeding one sigmoid output unit.

Three layouts share the machinery: a text branch that consumes word-vector
rows as timesteps, a numeric branch that consumes the numeric feature
vector as a single timestep, or both in parallel with their final hidden
states concatenated into the dense head.

Training-mode forward passes draw inverted-dropout masks from the supplied
generator in a fixed order (text branch recurrent masks layer by layer,
then numeric branch, then one feedforward mask per branch output), which is
what makes whole runs bit-reproducible from a single seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataset import Sample
from ..errors import InvalidArgumentError
from .cells import (
    CellParams,
    backward as cell_backward,
    forward as cell_forward,
    sigmoid,
    workspace_array,
)

ARCHITECTURES = ("text_only", "numeric_only", "fused")

#: Probabilities are clipped to [EPS, 1-EPS] inside the cross-entropy.
EPS = 1e-12

BATCH_SWEEP_SIZES = (128, 256, 512, 1024, 2048, 4096)


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
        if self.epochs < 1 or self.layers < 1 or self.hidden_units < 1:
            raise InvalidArgumentError("epochs, layers, hidden_units must be >= 1")
        if self.learning_rate < 0 or self.l2 < 0:
            raise InvalidArgumentError("learning_rate and l2 must be >= 0")
        if not (0.0 <= self.dropout < 1.0 and 0.0 <= self.recurrent_dropout < 1.0):
            raise InvalidArgumentError("dropout rates must be in [0, 1)")
        if self.batch_size < 1:
            raise InvalidArgumentError("batch_size must be >= 1")
        if not (0.0 <= self.momentum < 1.0):
            raise InvalidArgumentError("momentum must be in [0, 1)")
        if self.activation != "sigmoid":
            raise InvalidArgumentError("only the sigmoid activation is supported")


def rng_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two independent deterministic streams: (initialization, training)."""
    children = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.PCG64(children[0])),
        np.random.Generator(np.random.PCG64(children[1])),
    )


@dataclass
class ModelSpec:
    architecture: str
    cell_kind: str
    text_layers: list[CellParams]
    numeric_layers: list[CellParams]
    head_w: np.ndarray
    head_b: np.ndarray
    hyper: Hyperparams
    literal_forms: bool = False

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise InvalidArgumentError(f"architecture must be one of {ARCHITECTURES}")
        if self.architecture in ("text_only", "fused") and not self.text_layers:
            raise InvalidArgumentError(f"{self.architecture} model needs a text branch")
        if self.architecture in ("numeric_only", "fused") and not self.numeric_layers:
            raise InvalidArgumentError(f"{self.architecture} model needs a numeric branch")
        if self.architecture == "text_only" and self.numeric_layers:
            raise InvalidArgumentError("text_only model must not carry a numeric branch")
        if self.architecture == "numeric_only" and self.text_layers:
            raise InvalidArgumentError("numeric_only model must not carry a text branch")
        head_width = sum(l.hidden_dim for l in self.active_branches_final_dims())
        if self.head_w.shape != (head_width,) or self.head_b.shape != (1,):
            raise InvalidArgumentError(
                f"head must be ({head_width},) weights and (1,) bias, got "
                f"{self.head_w.shape} / {self.head_b.shape}"
            )

    def active_branches_final_dims(self) -> list[CellParams]:
        out = []
        if self.text_layers:
            out.append(self.text_layers[-1])
        if self.numeric_layers:
            out.append(self.numeric_layers[-1])
        return out

    @property
    def text_dim(self) -> int:
        return self.text_layers[0].input_dim if self.text_layers else 0

    @property
    def numeric_dim(self) -> int:
        return self.numeric_layers[0].input_dim if self.numeric_layers else 0

    def params(self):
        """Yield (path, array) for every trainable block, in a fixed order."""
        for branch, layers in (("text", self.text_layers), ("numeric", self.numeric_layers)):
            for i, layer in enumerate(layers):
                for name, arr in layer.blocks.items():
                    yield f"{branch}.{i}.{name}", arr
        yield "head.w", self.head_w
        yield "head.b", self.head_b

    def get_param(self, path: str) -> np.ndarray:
        for p, arr in self.params():
            if p == path:
                return arr
        raise KeyError(path)


def build_model(
    architecture: str,
    cell_kind: str,
    hyper: Hyperparams,
    numeric_dim: int = 0,
    text_dim: int = 0,
    literal_forms: bool = False,
) -> ModelSpec:
    """Freshly initialized model; identical seeds give identical weights."""
    init_rng, _ = rng_streams(hyper.seed)

    def make_branch(input_dim: int) -> list[CellParams]:
        layers = []
        dim = input_dim
        for _ in range(hyper.layers):
            layers.append(
                CellParams.init(cell_kind, dim, hyper.hidden_units, init_rng, literal_forms)
            )
            dim = hyper.hidden_units
        return layers

    text_layers: list[CellParams] = []
    numeric_layers: list[CellParams] = []
    if architecture in ("text_only", "fused"):
        if text_dim < 1:
            raise InvalidArgumentError(f"{architecture} model needs text_dim >= 1")
        text_layers = make_branch(text_dim)
    if architecture in ("numeric_only", "fused"):
        if numeric_dim < 1:
            raise InvalidArgumentError(f"{architecture} model needs numeric_dim >= 1")
        numeric_layers = make_branch(numeric_dim)

    head_width = (hyper.hidden_units if text_layers else 0) + (
        hyper.hidden_units if numeric_layers else 0
    )
    s = math.sqrt(6.0 / (head_width + 1))
    head_w = init_rng.uniform(-s, s, head_width)
    head_b = np.zeros(1)
    return ModelSpec(
        architecture, cell_kind, text_layers, numeric_layers, head_w, head_b,
        hyper, literal_forms,
    )


# ---------------------------------------------------------------------------
# Batched forward/backward
# ---------------------------------------------------------------------------


def _draw_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray | None:
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def _layer_ws(workspace: dict | None, branch: str, i: int) -> dict | None:
    """Layer ``i`` of ``branch``'s own buffers in ``workspace``, so layers never share one."""
    return None if workspace is None else workspace.setdefault(f"{branch}.{i}", {})


def _forward_branch(layers, xs, train_mode, rng, rec_rate, workspace, branch):
    caches = []
    current = xs
    for i, layer in enumerate(layers):
        rec_mask = None
        if train_mode:
            rec_mask = _draw_mask(rng, (xs.shape[1], layer.hidden_dim), rec_rate)
        current, cache = cell_forward(
            layer, current, rec_mask=rec_mask, ws=_layer_ws(workspace, branch, i)
        )
        caches.append(cache)
    return current[-1], caches  # final hidden state (B, N)


def _forward_arrays(model, numeric, text, train_mode, rng, workspace=None):
    """Shared forward path. Returns probabilities plus a full cache bundle."""
    if train_mode and rng is None:
        raise InvalidArgumentError("train_mode forward needs a random generator")
    hyper = model.hyper
    parts = []
    bundle = {"branches": [], "ff_masks": [], "E": None}
    batch = None

    if model.text_layers:
        if text is None:
            raise InvalidArgumentError("model expects a text matrix per sample")
        batch = text.shape[0]
        final, caches = _forward_branch(
            model.text_layers, text.transpose(1, 0, 2), train_mode, rng,
            hyper.recurrent_dropout, workspace, "text",
        )
        parts.append(final)
        bundle["branches"].append(caches)
    if model.numeric_layers:
        if numeric is None:
            raise InvalidArgumentError("model expects a numeric vector per sample")
        if batch is not None and numeric.shape[0] != batch:
            raise InvalidArgumentError("text/numeric batch sizes disagree")
        batch = numeric.shape[0]
        if numeric.ndim == 2:
            xs = numeric[None, :, :]  # single timestep
        else:
            xs = numeric.transpose(1, 0, 2)  # lookback steps
        final, caches = _forward_branch(
            model.numeric_layers, xs, train_mode, rng, hyper.recurrent_dropout,
            workspace, "numeric",
        )
        parts.append(final)
        bundle["branches"].append(caches)

    if train_mode:
        dropped = []
        for part in parts:
            mask = _draw_mask(rng, part.shape, hyper.dropout)
            bundle["ff_masks"].append(mask)
            dropped.append(part if mask is None else part * mask)
        parts = dropped
    else:
        bundle["ff_masks"] = [None] * len(parts)

    E = np.concatenate(parts, axis=1)
    bundle["E"] = E
    logits = E @ model.head_w + model.head_b[0]
    return sigmoid(logits), bundle


def _check_sample_shapes(model: ModelSpec, numeric, text) -> None:
    if model.numeric_layers:
        if (
            numeric is None
            or numeric.ndim not in (2, 3)
            or numeric.shape[-1] != model.numeric_dim
        ):
            raise InvalidArgumentError(
                f"model expects numeric rows of width {model.numeric_dim}"
            )
    elif numeric is not None and numeric.size:
        raise InvalidArgumentError("model has no numeric branch but numeric data given")
    if model.text_layers:
        if text is None or text.ndim != 3 or text.shape[2] != model.text_dim:
            raise InvalidArgumentError(
                f"model expects text matrices with {model.text_dim} columns"
            )
    elif text is not None:
        raise InvalidArgumentError("model has no text branch but text data given")


def forward_arrays(
    model: ModelSpec,
    numeric: np.ndarray | None,
    text: np.ndarray | None,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    workspace: dict | None = None,
) -> np.ndarray:
    """Probabilities for a batch given (B, n) numeric and/or (B, T, k) text.

    ``workspace`` is as for ``backward_arrays``.
    """
    _check_sample_shapes(model, numeric, text)
    probs, _ = _forward_arrays(model, numeric, text, train_mode, rng, workspace)
    return probs


def loss_arrays(
    model: ModelSpec,
    numeric: np.ndarray | None,
    text: np.ndarray | None,
    labels: np.ndarray,
) -> float:
    """Mean binary cross-entropy plus the L2 penalty, without dropout."""
    probs = forward_arrays(model, numeric, text)
    p = np.clip(probs, EPS, 1.0 - EPS)
    data = -np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    reg = 0.5 * model.hyper.l2 * sum(float(np.sum(arr * arr)) for _, arr in model.params())
    return float(data + reg)


def backward_arrays(
    model: ModelSpec,
    numeric: np.ndarray | None,
    text: np.ndarray | None,
    labels: np.ndarray,
    rng: np.random.Generator | None = None,
    workspace: dict | None = None,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """One forward/backward over a batch.

    Dropout is active exactly when a generator is passed. Returns the
    regularized mean cross-entropy, exact gradients for every block, and the
    batch probabilities.

    ``workspace`` is a dict that a caller passes unchanged to every call of
    a run, starting empty. It holds one dict of reused flat buffers per
    layer (see ``cells.workspace_array``), which the cell caches live in
    instead of fresh arrays; the results are bit-identical either way.
    """
    _check_sample_shapes(model, numeric, text)
    labels = np.asarray(labels, dtype=np.float64)
    train_mode = rng is not None
    probs, bundle = _forward_arrays(model, numeric, text, train_mode, rng, workspace)
    batch = labels.shape[0]

    p = np.clip(probs, EPS, 1.0 - EPS)
    data_loss = -np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    reg = 0.5 * model.hyper.l2 * sum(float(np.sum(arr * arr)) for _, arr in model.params())
    loss = float(data_loss + reg)

    dlogit = (probs - labels) / batch  # (B,)
    E = bundle["E"]
    grads: dict[str, np.ndarray] = {
        "head.w": E.T @ dlogit,
        "head.b": np.array([dlogit.sum()]),
    }
    dE = np.outer(dlogit, model.head_w)  # (B, H)

    offset = 0
    branch_layers = []
    if model.text_layers:
        branch_layers.append(("text", model.text_layers))
    if model.numeric_layers:
        branch_layers.append(("numeric", model.numeric_layers))

    for b_idx, (branch_name, layers) in enumerate(branch_layers):
        width = layers[-1].hidden_dim
        de = dE[:, offset : offset + width]
        offset += width
        ff_mask = bundle["ff_masks"][b_idx]
        if ff_mask is not None:
            de = de * ff_mask
        caches = bundle["branches"][b_idx]
        # seed the top layer with gradient only on its final timestep, in
        # the cells' feature-major layout
        t_len = caches[-1]["xs"].shape[0]
        seed = workspace_array(
            _layer_ws(workspace, branch_name, len(layers) - 1), "d_top", (t_len, width, batch)
        )
        seed[:-1] = 0.0
        seed[-1] = de.T
        d_hs = seed.transpose(0, 2, 1)
        for i in range(len(layers) - 1, -1, -1):
            d_xs, layer_grads = cell_backward(
                layers[i], caches[i], d_hs, ws=_layer_ws(workspace, branch_name, i)
            )
            for name, g in layer_grads.items():
                grads[f"{branch_name}.{i}.{name}"] = g
            d_hs = d_xs

    for path, arr in model.params():
        grads[path] = grads[path] + model.hyper.l2 * arr
    return loss, grads, probs


# ---------------------------------------------------------------------------
# Sample-level interface
# ---------------------------------------------------------------------------


def samples_to_arrays(
    model: ModelSpec, samples: list[Sample]
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray]:
    if not samples:
        raise InvalidArgumentError("need at least one sample")
    numeric = None
    text = None
    if model.numeric_layers:
        numeric = np.stack([s.numeric for s in samples])
    if model.text_layers:
        if any(s.text is None for s in samples):
            raise InvalidArgumentError("model expects text matrices but samples lack them")
        text = np.stack([s.text for s in samples])
    labels = np.array([s.label for s in samples], dtype=np.float64)
    return numeric, text, labels


def forward_model(
    model: ModelSpec,
    sample: Sample,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> float:
    """Probability of class 1 (price up) for one sample."""
    numeric, text, _ = samples_to_arrays(model, [sample])
    return float(forward_arrays(model, numeric, text, train_mode, rng)[0])


def backward(
    model: ModelSpec,
    batch: list[Sample],
    rng: np.random.Generator | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients for a list of samples."""
    numeric, text, labels = samples_to_arrays(model, batch)
    loss, grads, _ = backward_arrays(model, numeric, text, labels, rng)
    return loss, grads
