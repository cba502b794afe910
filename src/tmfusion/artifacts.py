"""Artifact I/O: atomic writes, the TMDS binary framing and strict text reads.

Every artifact is written to a temporary file beside its final path and
renamed over it with ``os.replace`` once complete, so a run that fails or
is killed mid-write leaves the previous artifact intact and no partial
file under the artifact's name. Nothing is fsynced: a rename survives a
killed process, not necessarily a power loss.

Nothing here imports numpy: ``tmfusion ingest`` writes its TMDS file and
reads its text inputs without it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable

from .errors import SchemaError

DATASET_MAGIC = b"TMDS"
DATASET_FORMAT_VERSION = 4
#: magic, u32le format version, u32le header length
PREAMBLE = struct.Struct("<4sII")
#: the trailing u32le crc32 of every byte before it
CRC = struct.Struct("<I")


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


def write_tmds(path: str | Path, header: dict, columns: Iterable) -> None:
    """Write a TMDS file atomically: preamble, header, columns, checksum.

    The header is canonical JSON, padded with spaces so that the columns
    start 8-byte aligned. Each column is a little-endian, C-contiguous
    buffer, written end to end after the header. The file ends with the
    CRC-32 of every byte before it. If ``columns`` raises, the previous
    file at ``path`` stays.
    """
    head = canonical_json(header).encode("utf-8")
    head += b" " * (-(PREAMBLE.size + len(head)) % 8)
    with atomic_write(path, "wb") as fh:
        data = PREAMBLE.pack(DATASET_MAGIC, DATASET_FORMAT_VERSION, len(head)) + head
        fh.write(data)
        crc = zlib.crc32(data)
        for column in columns:
            fh.write(column)
            crc = zlib.crc32(column, crc)
        fh.write(CRC.pack(crc))


def source_digest(path: str | Path) -> dict:
    """The byte size and SHA-256 of a file, as a TMDS header records its source.

    The file is read through one reused 64 KiB buffer.
    """
    digest = hashlib.sha256()
    buffer = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        while read := fh.readinto(buffer):
            digest.update(buffer[:read])
    return {"source_bytes": size, "source_sha256": digest.hexdigest()}


def read_text(path: str | Path) -> str:
    """A text file's contents decoded as UTF-8, a leading byte-order mark dropped.

    Bytes that are not UTF-8 raise ``SchemaError`` naming the file and the
    line they are on.
    """
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path}: line {line}: not valid UTF-8 ({exc.reason})") from exc
