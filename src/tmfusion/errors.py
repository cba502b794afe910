"""Exception types, line-level ingest diagnostics and the JSON-object check
shared across the package, with the ``Rule`` a checked key may carry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple


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


class Rule(NamedTuple):
    """A key's JSON types, and the values it allows: those ``test`` holds for, as ``allowed`` says."""

    types: tuple[type, ...]
    allowed: str
    test: Callable[[object], bool]


def checked_object(obj, table: dict, where: str, required=(), error=SchemaError) -> dict:
    """A copy of ``obj`` once it is a JSON object with known keys, each allowed by ``table``.

    An entry of ``table`` is a key's tuple of JSON types, a ``Rule`` or, for
    a nested object, its table. A bool passes only where ``bool`` is listed.
    An integer must fit in int64, or if ``float`` is listed, converts to a
    float. Keys in ``required`` must be present. ``where`` prefixes a key in
    a message (``"hyperparams."``, ``"<file>: "`` or ``""``), and ``error``
    is raised.
    """
    scope = where.rstrip(".: ")
    at = f"{scope}: " if scope else ""
    if not isinstance(obj, dict):
        raise error(f"{at}not a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(table))
    if unknown:
        raise error(f"{at}unknown keys {unknown}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise error(f"{at}missing keys {missing}")
    checked = {}
    for key, value in obj.items():
        rule = table[key]
        if isinstance(rule, dict):
            checked[key] = checked_object(value, rule, f"{where}{key}.", error=error)
            continue
        types, allowed, test = (
            rule if isinstance(rule, Rule) else (rule, " or ".join(t.__name__ for t in rule), None)
        )
        ok = isinstance(value, types) and (bool in types or not isinstance(value, bool))
        if ok and type(value) is int:
            if float in types:
                try:
                    value = float(value)
                except OverflowError:
                    ok = False
            else:
                ok = -(2**63) <= value < 2**63
        if not ok or (test is not None and not test(value)):
            raise error(f"{where}{key} must be {allowed}, got {obj[key]!r}")
        checked[key] = value
    return checked
