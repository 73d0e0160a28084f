"""Checksum-framed files written atomically: one on-disk discipline.

The construction cache's disk tier and the run store both keep one file
per content address, in the same frame::

    magic + SHA-256(payload) + payload

``magic`` names the format and its version.  :func:`write_framed` writes
the frame to a temp file beside the target and ``os.replace``\\ s it onto
the target, so a reader sees the old file or the new one, never a mix.
A writer killed before the rename leaves only a ``*.tmp`` file, which no
reader looks at; of two writers racing on one target, the last rename
wins.  :func:`read_framed` checks the magic and the checksum over the
raw bytes before it hands back the payload, so a truncated, bit-flipped,
foreign or older-format file can never decode into a wrong value.

Nothing here calls ``fsync``.  The frame survives a killed process; a
file torn by a power loss fails its checksum like any other corruption.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from pathlib import Path

#: Suffix of the temp file a write goes through.
TEMP_SUFFIX = ".tmp"

_DIGEST_SIZE = hashlib.sha256().digest_size


def read_framed(path: Path, magic: bytes) -> bytes | None:
    """The payload of the framed file at ``path``; None if the frame fails.

    A missing or unreadable file raises ``OSError``: the caller decides
    whether that is a miss.
    """
    blob = path.read_bytes()
    header = len(magic) + _DIGEST_SIZE
    if len(blob) < header or not blob.startswith(magic):
        return None
    payload = blob[header:]
    if hashlib.sha256(payload).digest() != blob[len(magic) : header]:
        return None
    return payload


def write_framed(path: Path, magic: bytes, payload: bytes) -> int:
    """Frame ``payload`` and atomically replace ``path``; bytes written.

    On any failure the temp file is removed and the error propagates,
    and ``path`` keeps what it held before.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    # Unlike ``tempfile.mkstemp`` (mode 0600), this honours the umask, so
    # a shared root stays readable the way plainly created files are.
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}{TEMP_SUFFIX}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(magic)
            fh.write(hashlib.sha256(payload).digest())
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return len(magic) + _DIGEST_SIZE + len(payload)
