"""Fusion model: stacked recurrent branches feeding one sigmoid output unit.

Three layouts share the machinery: a text branch that consumes word-vector
rows as timesteps, a numeric branch that consumes the numeric feature
vector as one timestep (L+1 timesteps under a market lookback of L), or
both in parallel with their final hidden states concatenated into the
dense head.

Training-mode forward passes draw inverted-dropout masks from the supplied
generator in a fixed order (text branch recurrent masks layer by layer,
then numeric branch, then one feedforward mask per branch output), which is
what makes whole runs bit-reproducible from a single seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import Hyperparams
from ..errors import InvalidArgumentError
from .cells import (
    CellParams,
    backward as cell_backward,
    carve,
    forward as cell_forward,
    param_size,
    sigmoid,
)

ARCHITECTURES = ("text_only", "numeric_only", "fused")

#: Probabilities are clipped to [EPS, 1-EPS] inside the cross-entropy.
EPS = 1e-12


def rng_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two independent deterministic streams: (initialization, training)."""
    children = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.PCG64(children[0])),
        np.random.Generator(np.random.PCG64(children[1])),
    )


def _branch_inputs(architecture: str, text_dim: int, numeric_dim: int) -> dict[str, int]:
    """The input width of each branch ``architecture`` has, text first."""
    if architecture not in ARCHITECTURES:
        raise InvalidArgumentError(f"architecture must be one of {ARCHITECTURES}")
    inputs = {}
    for branch, dim, absent in (
        ("text", text_dim, "numeric_only"), ("numeric", numeric_dim, "text_only")
    ):
        if architecture == absent:
            continue
        if dim < 1:
            raise InvalidArgumentError(f"{architecture} model needs {branch}_dim >= 1")
        inputs[branch] = dim
    return inputs


def param_count(
    architecture: str, cell_kind: str, hyper: Hyperparams, text_dim: int = 0, numeric_dim: int = 0
) -> int:
    """Length of ``theta`` for a model of this shape, worked out without building it."""
    inputs = _branch_inputs(architecture, text_dim, numeric_dim)
    hidden = hyper.hidden_units
    deep = param_size(cell_kind, hidden, hidden)
    return sum(
        param_size(cell_kind, m, hidden) + (hyper.layers - 1) * deep for m in inputs.values()
    ) + hidden * len(inputs) + 1


@dataclass(eq=False)
class ModelSpec:
    """A fusion model: its shape, and its weights in one flat vector.

    Every trainable number lives in ``theta``, one contiguous float64
    vector, and ``backward_arrays`` writes the matching gradient into its
    twin ``grad``. Laid out in order are the text layers, the numeric
    layers, ``head.w`` and ``head.b``. ``text_layers`` and
    ``numeric_layers`` hold one ``CellParams`` per layer over its slices of
    both vectors, and ``head_w``/``head_b`` and ``head_dw``/``head_db`` are
    views as well. A branch the architecture lacks has no layers and a
    ``*_dim`` of 0; each present branch has ``hyper.layers`` layers of
    ``hyper.hidden_units`` units. The weights start at zero; see
    ``build_model``.
    """

    architecture: str
    cell_kind: str
    hyper: Hyperparams
    text_dim: int = 0
    numeric_dim: int = 0

    def __post_init__(self) -> None:
        inputs = _branch_inputs(self.architecture, self.text_dim, self.numeric_dim)
        self.text_dim, self.numeric_dim = inputs.get("text", 0), inputs.get("numeric", 0)
        hidden = self.hyper.hidden_units
        self.theta = np.zeros(param_count(
            self.architecture, self.cell_kind, self.hyper, self.text_dim, self.numeric_dim
        ))
        self.grad = np.zeros(self.theta.size)
        layers: dict[str, list[CellParams]] = {"text": [], "numeric": []}
        offset = 0
        for branch, m in inputs.items():
            for _ in range(self.hyper.layers):
                span = slice(offset, offset + param_size(self.cell_kind, m, hidden))
                layers[branch].append(CellParams(
                    self.cell_kind, m, hidden, self.theta[span], self.grad[span]
                ))
                offset, m = span.stop, hidden
        self.text_layers, self.numeric_layers = layers["text"], layers["numeric"]
        head = ((hidden * len(inputs),), (1,))
        self.head_w, self.head_b = carve(self.theta[offset:], head)
        self.head_dw, self.head_db = carve(self.grad[offset:], head)

    def branches(self) -> list[tuple[str, list[CellParams]]]:
        """(name, layers) of each branch the model has, text first."""
        return [
            (name, layers)
            for name, layers in (("text", self.text_layers), ("numeric", self.numeric_layers))
            if layers
        ]

    def params(self):
        """Yield (path, view of ``theta``) for every named block, in layout order."""
        return self._named("blocks", self.head_w, self.head_b)

    def grads(self):
        """Yield (path, view of ``grad``), paths and order as ``params``."""
        return self._named("grads", self.head_dw, self.head_db)

    def _named(self, attr: str, head_w: np.ndarray, head_b: np.ndarray):
        for branch, layers in self.branches():
            for i, layer in enumerate(layers):
                for name, arr in getattr(layer, attr).items():
                    yield f"{branch}.{i}.{name}", arr
        yield "head.w", head_w
        yield "head.b", head_b


def build_model(
    architecture: str,
    cell_kind: str,
    hyper: Hyperparams,
    numeric_dim: int = 0,
    text_dim: int = 0,
) -> ModelSpec:
    """Freshly initialized model; identical seeds give identical weights.

    The draws run layer by layer (text branch first, each layer's blocks in
    canonical order), then the head's weights; the head bias starts at 0.
    """
    model = ModelSpec(architecture, cell_kind, hyper, text_dim=text_dim, numeric_dim=numeric_dim)
    init_rng, _ = rng_streams(hyper.seed)
    for _, layers in model.branches():
        for layer in layers:
            layer.initialize(init_rng)
    s = math.sqrt(6.0 / (model.head_w.size + 1))
    model.head_w[...] = init_rng.uniform(-s, s, model.head_w.size)
    return model


# ---------------------------------------------------------------------------
# Batched forward/backward
# ---------------------------------------------------------------------------


def _draw_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray | None:
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    mask = rng.random(shape)
    np.less(mask, keep, out=mask)  # 1.0 where kept, 0.0 where dropped
    mask /= keep
    return mask


def _draw_masks(
    model: ModelSpec, batch: int, rng: np.random.Generator | None
) -> dict[str, list[np.ndarray | None]] | None:
    """The dropout masks of one ``batch``-row training pass, or None without a generator.

    Per branch name, one (batch, N) recurrent mask per layer; under "ff",
    one (batch, N) mask per branch output. They are drawn in a fixed order:
    the text branch's recurrent masks layer by layer, then the numeric
    branch's, then the output masks, text first. A rate of 0 draws nothing
    and gives None.
    """
    if rng is None:
        return None
    rec, ff = model.hyper.recurrent_dropout, model.hyper.dropout
    masks = {
        name: [_draw_mask(rng, (batch, layer.hidden_dim), rec) for layer in layers]
        for name, layers in model.branches()
    }
    masks["ff"] = [
        _draw_mask(rng, (batch, layers[-1].hidden_dim), ff) for _, layers in model.branches()
    ]
    return masks


def _mask_rows(masks: dict | None, rows: slice) -> dict | None:
    """``masks`` cut to the batch rows ``rows``."""
    if masks is None:
        return None
    return {key: [m if m is None else m[rows] for m in ms] for key, ms in masks.items()}


def _layer_ws(workspace: dict | None, branch: str, i: int) -> dict | None:
    """Layer ``i`` of ``branch``'s own buffers in ``workspace``, so layers never share one."""
    return None if workspace is None else workspace.setdefault(f"{branch}.{i}", {})


def _forward_branch(layers, xs, rec_masks, workspace, branch, keep_gates):
    caches = []
    current = xs
    for i, layer in enumerate(layers):
        current, cache = cell_forward(
            layer, current, rec_mask=rec_masks[i], ws=_layer_ws(workspace, branch, i),
            keep_gates=keep_gates,
        )
        caches.append(cache)
    return current[-1], caches  # final hidden state (B, N)


def _time_major(model: ModelSpec, numeric, text) -> dict:
    """The (T, B, M) input of each branch ``model`` has, from batch-major arrays.

    The text is (B, T, k); the numeric input is (B, n) for one step or
    (B, steps, n) for the lookback steps. The results are views.
    """
    _check_sample_shapes(model, numeric, text)
    inputs = {}
    if model.text_layers:
        inputs["text"] = text.transpose(1, 0, 2)
    if model.numeric_layers:
        if text is not None and numeric.shape[0] != text.shape[0]:
            raise InvalidArgumentError("text/numeric batch sizes disagree")
        inputs["numeric"] = numeric[None, :, :] if numeric.ndim == 2 else numeric.transpose(1, 0, 2)
    return inputs


def _forward_steps(model, inputs, masks, workspace=None, keep_gates=True):
    """Shared forward path, with dropout exactly when ``masks`` (see ``_draw_masks``) are given.

    ``inputs`` holds each branch's (T, B, M) input by branch name, an
    array or a step source (see ``cells``). Returns probabilities plus a
    cache bundle, which a backward can read only when ``keep_gates`` (see
    ``cells.forward``).
    """
    parts = []
    bundle = {"branches": [], "ff_masks": [], "E": None}
    for b_idx, (name, layers) in enumerate(model.branches()):
        rec_masks = [None] * len(layers) if masks is None else masks[name]
        final, caches = _forward_branch(
            layers, inputs[name], rec_masks, workspace, name, keep_gates
        )
        mask = None if masks is None else masks["ff"][b_idx]
        parts.append(final if mask is None else final * mask)
        bundle["branches"].append(caches)
        bundle["ff_masks"].append(mask)

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
    workspace: dict | None = None,
) -> np.ndarray:
    """Dropout-free probabilities for a batch given batch-major arrays.

    The numeric input is (B, n) or (B, steps, n), the text (B, T, k).
    ``workspace`` is as for ``backward_arrays``. No backward follows, so
    the layers keep no gate caches (see ``cells.forward``).
    """
    return forward_steps(model, _time_major(model, numeric, text), workspace)


def forward_steps(model: ModelSpec, inputs: dict, workspace: dict | None = None) -> np.ndarray:
    """Dropout-free probabilities of a batch given each branch's (T, B, M) input.

    ``inputs`` is as for ``_forward_steps``: arrays or step sources, by
    branch name. Like ``forward_arrays``, it keeps no gate caches.
    """
    probs, _ = _forward_steps(model, inputs, None, workspace, keep_gates=False)
    return probs


def _accumulate_chunk(model, inputs, labels, masks, batch, workspace) -> np.ndarray:
    """Forward/backward over some rows of a ``batch``-row batch; returns their probabilities.

    ``inputs`` is as for ``_forward_steps``. Adds those rows' share of the
    gradient of the batch's mean cross-entropy to ``model.grad``.
    """
    probs, bundle = _forward_steps(model, inputs, masks, workspace)

    dlogit = (probs - labels) / batch  # (rows,)
    model.head_dw += bundle["E"].T @ dlogit
    model.head_db[0] += dlogit.sum()
    dE = np.outer(dlogit, model.head_w)  # (rows, H)

    offset = 0
    for b_idx, (branch_name, layers) in enumerate(model.branches()):
        width = layers[-1].hidden_dim
        de = dE[:, offset : offset + width]
        offset += width
        ff_mask = bundle["ff_masks"][b_idx]
        if ff_mask is not None:
            de = de * ff_mask
        caches = bundle["branches"][b_idx]
        d_hs = de  # the top layer's gradient, on its final step only
        for i in range(len(layers) - 1, -1, -1):
            d_hs = cell_backward(
                layers[i], caches[i], d_hs, ws=_layer_ws(workspace, branch_name, i),
                input_grad=i > 0,
            )
    return probs


def backward_batch(
    model: ModelSpec,
    labels: np.ndarray,
    chunk_inputs,
    chunk_rows: int,
    rng: np.random.Generator | None = None,
    workspace: dict | None = None,
) -> tuple[float, np.ndarray]:
    """One forward/backward over a batch, in consecutive chunks of at most ``chunk_rows`` rows.

    ``chunk_inputs(rows)`` returns the inputs of the batch's rows
    ``rows``, a slice, as ``_forward_steps`` takes them. Dropout is active
    exactly when a generator is passed: the masks of the whole batch are
    drawn once, in ``_draw_masks`` order, and each chunk uses its rows of
    them, so the generator advances as for one unchunked pass. Returns the
    regularized mean cross-entropy and the batch's probabilities, and
    overwrites ``model.grad`` with the exact gradient of that loss: the
    chunks add their shares of the data gradient and the L2 term is added
    once.
    Only the chunks' buffers scale with ``chunk_rows``; the masks and the
    probabilities are the batch's.
    """
    labels = np.asarray(labels, dtype=np.float64)
    batch = labels.shape[0]
    masks = _draw_masks(model, batch, rng)
    model.grad.fill(0.0)
    probs = np.empty(batch)
    for start in range(0, batch, chunk_rows):
        rows = slice(start, start + chunk_rows)
        probs[rows] = _accumulate_chunk(
            model, chunk_inputs(rows), labels[rows], _mask_rows(masks, rows), batch, workspace
        )

    p = np.clip(probs, EPS, 1.0 - EPS)
    data_loss = -np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
    reg = 0.5 * model.hyper.l2 * float(model.theta @ model.theta)
    model.grad += model.hyper.l2 * model.theta
    return float(data_loss + reg), probs


def backward_arrays(
    model: ModelSpec,
    numeric: np.ndarray | None,
    text: np.ndarray | None,
    labels: np.ndarray,
    rng: np.random.Generator | None = None,
    workspace: dict | None = None,
) -> tuple[float, np.ndarray]:
    """``backward_batch`` over given arrays of the whole batch, in one chunk.

    ``workspace`` is a dict that a caller passes unchanged to every call of
    a run, starting empty. It holds one dict of reused flat buffers per
    layer (see ``cells.workspace_array``), which the cell caches live in
    instead of fresh arrays; the results are bit-identical either way.
    """
    inputs = _time_major(model, numeric, text)
    return backward_batch(model, labels, lambda rows: inputs, max(1, len(labels)), rng, workspace)
