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

from ..artifacts import read_text, write_json
from ..config import Hyperparams
from ..dataset import Sample
from ..errors import SchemaError, checked_object, field_types
from .model import ModelSpec, forward_arrays, param_count

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


def _decode_into(view: np.ndarray, weights: dict, name: str, where: str) -> None:
    """Decode block ``name`` of ``weights`` into ``view``, which has its shape."""
    where = f"{where}: weights.{name}"
    if name not in weights:
        raise SchemaError(f"{where} is missing")
    obj = checked_object(weights[name], _ARRAY_TYPES, where, required=_ARRAY_TYPES)
    if obj["shape"] != list(view.shape):
        raise SchemaError(f"{where} has shape {obj['shape']}, expected {list(view.shape)}")
    try:
        raw = base64.b64decode(obj["data"], validate=True)
        view[...] = np.frombuffer(raw, dtype="<f8").reshape(view.shape)
    except (ValueError, TypeError) as exc:  # bad base64 or length
        raise SchemaError(f"{where} does not decode: {exc}") from exc
    if not np.all(np.isfinite(view)):
        raise SchemaError(f"{where} contains non-finite values")


def _dims(model: ModelSpec) -> dict:
    return {
        "text_dim": model.text_dim,
        "numeric_dim": model.numeric_dim,
        "text_layers": len(model.text_layers),
        "numeric_layers": len(model.numeric_layers),
    }


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
            "dims": _dims(self.model),
            "weights": {path: _encode_array(arr) for path, arr in self.model.params()},
            "training_log": self.training_log,
            "meta": self.meta,
        }


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    write_json(path, ckpt.to_json_dict())


def load_checkpoint(path: str | Path) -> Checkpoint:
    text = read_text(path)
    try:
        obj = json.loads(text)
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
    dims = obj["dims"]
    shape = (obj["architecture"], obj["cell_kind"], hyper, dims["text_dim"], dims["numeric_dim"])
    # every weight takes more than 8 bytes of base64, so this bounds what
    # the model allocates by the size of the file
    if 8 * param_count(*shape) > len(text):
        raise SchemaError(
            f"{where}: dims {dims} and hyperparams describe {param_count(*shape)} weights, "
            f"more than the file holds"
        )
    model = ModelSpec(*shape, literal_forms=obj["literal_forms"])
    if _dims(model) != dims:
        raise SchemaError(
            f"{where}: dims {dims} do not match a {model.architecture} model, "
            f"which has {_dims(model)}"
        )
    for name, view in model.params():
        _decode_into(view, obj["weights"], name, where)
    unknown = sorted(set(obj["weights"]) - {name for name, _ in model.params()})
    if unknown:
        raise SchemaError(f"{where}: weights: unknown blocks {unknown}")
    return Checkpoint(model=model, training_log=obj["training_log"], meta=obj["meta"])


def predict(ckpt: Checkpoint, sample: Sample) -> tuple[int, float]:
    """(class, probability) of one row; class 1 iff probability >= 0.5.

    A one-row dropout-free ``forward_arrays`` over the row's own arrays,
    those of the branches the model has.
    """
    model = ckpt.model
    numeric = sample.numeric[None] if model.numeric_layers else None
    text = sample.text[None] if model.text_layers and sample.text is not None else None
    prob = float(forward_arrays(model, numeric, text)[0])
    return (1 if prob >= 0.5 else 0), prob
