"""Checkpoint file format: a versioned JSON envelope with base64 weights.

Weights serialize as little-endian 64-bit floats so any reader can decode
them regardless of platform. The JSON itself is canonical (sorted keys,
compact separators), which makes save -> load -> save byte-identical and
lets runs be compared by file hash. Loading checks every field, so a
missing, mistyped or undecodable one raises ``SchemaError`` naming it.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..dataset import Sample
from ..errors import InvalidArgumentError, SchemaError, checked_object, field_types
from .cells import CellParams, block_shapes
from .model import Hyperparams, ModelSpec, forward_model

CHECKPOINT_VERSION = 1

#: The JSON type of each top-level checkpoint key; all of them are required.
_CHECKPOINT_TYPES = {
    "schema_version": (int,),
    "architecture": (str,),
    "cell_kind": (str,),
    "literal_forms": (bool,),
    "hyperparams": (dict,),
    "dims": (dict,),
    "weights": (dict,),
    "training_log": (list,),
    "meta": (dict,),
}
_DIMS_TYPES = dict.fromkeys(("text_dim", "numeric_dim", "text_layers", "numeric_layers"), (int,))
_ARRAY_TYPES = {"shape": (list,), "data": (str,)}


def _encode_array(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.astype("<f8").tobytes()).decode("ascii"),
    }


def _decode_array(weights: dict, name: str, where: str) -> np.ndarray:
    where = f"{where}: weights.{name}"
    if name not in weights:
        raise SchemaError(f"{where} is missing")
    obj = checked_object(weights[name], _ARRAY_TYPES, where, required=_ARRAY_TYPES)
    try:
        raw = base64.b64decode(obj["data"], validate=True)
        return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()
    except (ValueError, TypeError) as exc:  # bad base64, length or shape
        raise SchemaError(f"{where} does not decode: {exc}") from exc


@dataclass
class Checkpoint:
    """Trained weights plus the run's training log and caller metadata."""

    model: ModelSpec
    training_log: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": CHECKPOINT_VERSION,
            "architecture": self.model.architecture,
            "cell_kind": self.model.cell_kind,
            "literal_forms": self.model.literal_forms,
            "hyperparams": dataclasses.asdict(self.model.hyper),
            "dims": {
                "text_dim": self.model.text_dim,
                "numeric_dim": self.model.numeric_dim,
                "text_layers": len(self.model.text_layers),
                "numeric_layers": len(self.model.numeric_layers),
            },
            "weights": {path: _encode_array(arr) for path, arr in self.model.params()},
            "training_log": self.training_log,
            "meta": self.meta,
        }


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    blob = json.dumps(ckpt.to_json_dict(), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(blob, encoding="utf-8")


def _rebuild_branch(
    obj: dict, hyper: Hyperparams, branch: str, where: str
) -> list[CellParams]:
    """The branch's layers, shaped as ``build_model`` shapes them."""
    kind, dims = obj["cell_kind"], obj["dims"]
    layers = []
    input_dim = dims[f"{branch}_dim"]
    for i in range(dims[f"{branch}_layers"]):
        blocks = {
            name: _decode_array(obj["weights"], f"{branch}.{i}.{name}", where)
            for name in block_shapes(kind, input_dim, hyper.hidden_units)
        }
        layers.append(
            CellParams(kind, input_dim, hyper.hidden_units, blocks, obj["literal_forms"])
        )
        input_dim = hyper.hidden_units
    return layers


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    version = obj.get("schema_version") if isinstance(obj, dict) else None
    if version != CHECKPOINT_VERSION:
        raise SchemaError(f"{path}: unsupported checkpoint schema_version {version!r}")
    where = str(path)
    checked_object(obj, _CHECKPOINT_TYPES, where, required=_CHECKPOINT_TYPES)
    checked_object(obj["dims"], _DIMS_TYPES, f"{where}: dims", required=_DIMS_TYPES)
    hyper = Hyperparams(
        **checked_object(obj["hyperparams"], field_types(Hyperparams), f"{where}: hyperparams")
    )
    model = ModelSpec(
        architecture=obj["architecture"],
        cell_kind=obj["cell_kind"],
        text_layers=_rebuild_branch(obj, hyper, "text", where),
        numeric_layers=_rebuild_branch(obj, hyper, "numeric", where),
        head_w=_decode_array(obj["weights"], "head.w", where),
        head_b=_decode_array(obj["weights"], "head.b", where),
        hyper=hyper,
        literal_forms=obj["literal_forms"],
    )
    unknown = sorted(set(obj["weights"]) - {name for name, _ in model.params()})
    if unknown:
        raise SchemaError(f"{where}: weights: unknown blocks {unknown}")
    return Checkpoint(model=model, training_log=obj["training_log"], meta=obj["meta"])


def predict(ckpt: Checkpoint, sample: Sample) -> tuple[int, float]:
    """(class, probability) with dropout disabled; class 1 iff probability >= 0.5."""
    model = ckpt.model
    if model.numeric_layers and sample.numeric.shape[-1] != model.numeric_dim:
        raise InvalidArgumentError(
            f"sample numeric shape {sample.numeric.shape} does not match model "
            f"width {model.numeric_dim}"
        )
    if model.text_layers:
        if sample.text is None or sample.text.ndim != 2 or sample.text.shape[1] != model.text_dim:
            raise InvalidArgumentError("sample text matrix does not match model text branch")
    prob = forward_model(model, sample)
    return (1 if prob >= 0.5 else 0), prob
