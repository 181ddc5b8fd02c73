"""Atomic on-disk serialization for the content-addressed store.

The store (`repro.store.checkpoint`) obeys three rules, implemented
here:

- **Writes are atomic.**  Every file lands via a temp file in the target
  directory followed by :func:`os.replace`, so a concurrent reader (or a
  crashed writer) can never observe a torn entry.
- **Corruption is a miss, not an error.**  A persistence layer must
  never fail a run: unreadable, truncated, or garbage entries degrade to
  re-computation.  :func:`warn_once` surfaces the first such entry per
  (category, path) on stderr so silent bit-rot is still visible.
- **Keys are content hashes.**  :func:`stable_payload` renders config
  objects (dataclasses, enums, containers) into JSON-stable primitives
  so two processes derive byte-identical key material for equal inputs.

This module is stdlib-only and import-cycle-free.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import sys
import tempfile
import threading
from pathlib import Path


def stable_payload(value):
    """Recursively convert a config object into JSON-stable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: stable_payload(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.value]
    if isinstance(value, (list, tuple)):
        return [stable_payload(item) for item in value]
    if isinstance(value, dict):
        return {str(key): stable_payload(item)
                for key, item in sorted(value.items())}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def digest_key(payload: dict) -> str:
    """sha256 hex digest of a :func:`stable_payload`-rendered mapping."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def blob_digest(data: bytes) -> str:
    """Content digest of one serialized value (manifest cross-check)."""
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# atomic writes
# ---------------------------------------------------------------------------


def atomic_write_bytes(path, data: bytes) -> int:
    """Write `data` to `path` atomically; returns the byte count.

    The temp file lives in the destination directory so the final
    :func:`os.replace` is a same-filesystem rename — atomic on POSIX —
    and is unlinked on any failure, leaving no droppings behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return len(data)


def atomic_write_json(path, payload: dict) -> int:
    """Atomically write `payload` as pretty JSON; returns the byte count."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# safe reads
# ---------------------------------------------------------------------------


def read_json(path) -> "dict | None":
    """Parsed JSON mapping, or None when missing, unreadable or not a
    mapping (the caller decides whether that is worth a warning)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, OSError):
        return None
    return payload if isinstance(payload, dict) else None


# ---------------------------------------------------------------------------
# warn-once registry
# ---------------------------------------------------------------------------

_WARNED: set = set()
_WARNED_LOCK = threading.Lock()


def warn_once(category: str, key: str, message: str) -> bool:
    """Print `message` to stderr the first time (`category`, `key`) is
    seen in this process; returns True when the warning fired."""
    with _WARNED_LOCK:
        if (category, key) in _WARNED:
            return False
        _WARNED.add((category, key))
    print(message, file=sys.stderr, flush=True)
    return True


def reset_warnings() -> None:
    """Forget warn-once state (test isolation)."""
    with _WARNED_LOCK:
        _WARNED.clear()
