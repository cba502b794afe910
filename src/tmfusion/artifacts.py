"""Atomic artifact writes: a file is replaced whole or not at all.

Every artifact is written to a temporary file beside its final path and
renamed over it with ``os.replace`` once complete, so a run that fails or
is killed mid-write leaves the previous artifact intact and no partial
file under the artifact's name. Nothing is fsynced: a rename survives a
killed process, not necessarily a power loss.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """Open a temporary file for writing that replaces ``path`` when the block ends.

    ``mode`` is ``"w"`` (UTF-8 text, no newline translation) or ``"wb"``.
    If the block raises, the temporary file is removed and ``path`` keeps
    its previous content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text_args = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text_args) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def canonical_json(obj) -> str:
    """``obj`` as JSON with sorted keys and no whitespace, so equal objects give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` atomically as canonical JSON."""
    with atomic_write(path) as fh:
        fh.write(canonical_json(obj))
