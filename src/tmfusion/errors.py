"""Exception types, line-level ingest diagnostics and the JSON-object check
shared across the package."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


class TmfusionError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(TmfusionError, ValueError):
    """An argument violates an operation's documented precondition."""


class NotReadyError(TmfusionError):
    """An indicator was requested inside its warmup window."""


class OrderingError(TmfusionError):
    """A timestamp or date sequence regressed where ascending order is required."""


class AssemblyError(TmfusionError):
    """A feature block demanded by the active feature set is missing or unusable."""


class JoinError(TmfusionError):
    """Tweet and market data share no usable dates."""


class SchemaError(TmfusionError):
    """An input or artifact file violates its documented format."""


class DivergedError(TmfusionError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"training diverged at epoch {epoch}")


@dataclass(frozen=True)
class Diagnostic:
    """One rejected input line: where it was and why it was rejected."""

    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message}"


#: JSON types for the annotated field types of the config dataclasses.
_FIELD_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def field_types(cls) -> dict[str, tuple[type, ...]]:
    """The JSON types each field of dataclass ``cls`` may take, keyed by field name."""
    return {f.name: _FIELD_JSON_TYPES[f.type] for f in dataclasses.fields(cls)}


def checked_object(obj, types: dict, where: str, required=()) -> dict:
    """``obj`` itself, once it is a JSON object with known, well-typed keys.

    Every key must appear in ``types`` with a value of one of its types (a
    bool passes only where ``bool`` is listed), and every key in
    ``required`` must be present; otherwise ``SchemaError`` names the key.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise SchemaError(f"{where}: missing keys {missing}")
    for key, value in obj.items():
        allowed = types[key]
        if (isinstance(value, bool) and bool not in allowed) or not isinstance(value, allowed):
            raise SchemaError(
                f"{where}: {key} must be {' or '.join(t.__name__ for t in allowed)}, "
                f"got {value!r}"
            )
    return obj
