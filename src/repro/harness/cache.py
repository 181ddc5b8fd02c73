"""Content-addressed on-disk cache for experiment results.

The evaluation grid is expensive but perfectly reproducible: every cell
is a pure function of (workload, scale, simulator configuration, warm-up
method, simulator code).  This module derives a stable key from exactly
those inputs and memoises :class:`~..sampling.TrueRunResult` /
:class:`~..sampling.SampledRunResult` pickles on disk, so re-running a
figure bench after an unrelated edit (docs, benches, analysis scripts)
is a cache hit while any edit under ``src/repro`` invalidates everything
automatically via the code-version component of the key.

Control knob: the ``REPRO_RESULT_CACHE`` environment variable.

- ``off`` / ``0`` / ``none`` / ``false`` / empty — caching disabled;
- ``on`` / ``auto`` / ``1`` — enabled at the default directory
  (``$XDG_CACHE_HOME/repro/results`` or ``~/.cache/repro/results``);
- any other value — treated as the cache directory path.

Writes are atomic (temp file + :func:`os.replace` in the same
directory), so concurrent workers and concurrent processes can share one
cache without torn entries.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from ..store.serialization import (
    atomic_write_pickle,
    directory_stats,
    evict_lru,
    safe_read_pickle,
    stable_payload,
    warn_once,
)

#: Environment variable controlling the default cache location.
CACHE_ENV_VAR = "REPRO_RESULT_CACHE"

_OFF_VALUES = {"off", "0", "none", "no", "false", "disabled", ""}
_ON_VALUES = {"on", "auto", "1", "default", "yes", "true"}

#: An entry file.  A writer's temp file (``.tmp-*.pkl``, in flight or
#: left by a killed writer) sits beside the entries but is not one.
_ENTRY_GLOB = "*/[!.]*.pkl"


def default_cache_dir() -> Path:
    """The XDG-style default location for the on-disk result cache."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "results"


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``repro`` source file (the cache's code key).

    Any edit under ``src/repro`` changes this digest and therefore every
    cache key, guaranteeing stale results are never served after a
    simulator change; edits outside the package (benches, docs, tests)
    leave it untouched, which is what makes warm re-runs cheap.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


#: Canonical JSON-stable rendering now lives with the shared
#: serialization helpers (`repro.store.serialization.stable_payload`);
#: the historical private name stays importable for in-package callers.
_stable = stable_payload


def cache_key(
    kind: str,
    workload_name: str,
    scale,
    configs,
    method_name: str = "",
) -> str:
    """Stable content hash identifying one experiment result.

    `kind` distinguishes result families sharing the same inputs
    (``"true"`` for full-trace baselines, ``"cell"`` for sampled runs);
    `scale` and `configs` are serialised field-by-field so any change to
    regimen sizing, seeds, or microarchitecture produces a new key.
    """
    payload = json.dumps(
        {
            "kind": kind,
            "workload": workload_name,
            "scale": _stable(scale),
            "configs": _stable(configs),
            "method": method_name,
            "code": code_version(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def __str__(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.writes} writes"


@dataclass
class ResultCache:
    """A directory of pickled experiment results addressed by key.

    Entries live at ``<root>/<key[:2]>/<key>.pkl``; the two-character
    fan-out keeps directories small for full-scale grids.  Unreadable or
    corrupt entries are treated as misses and failed writes are
    skipped, never errors.
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str, validate=None):
        """The cached value for `key`, or None on a miss.

        A cache must never fail a run: a missing entry is a silent
        miss, and an unreadable or truncated one degrades to a miss
        with a warn-once stderr note (shared helper, same discipline as
        the checkpoint store).  `validate` (optional) inspects the
        unpickled value and returns None to accept it or a description
        of the problem; a rejected value is a warned miss too.
        """
        path = self._path(key)
        value, _ = safe_read_pickle(path, category="result-cache entry")
        problem = (validate(value)
                   if value is not None and validate is not None else None)
        if problem is not None:
            warn_once("result-cache entry", str(path),
                      f"warning: unusable result-cache entry at {path} "
                      f"treated as a miss ({problem})")
            value = None
        if value is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Atomically persist `value` under `key` (temp file + rename).

        A write that fails (a full disk, a root that is not a
        directory, a ``gc`` that removed the temp file before its
        rename) warns once per cache root and leaves the run to go on
        without the entry.
        """
        path = self._path(key)
        try:
            atomic_write_pickle(path, value)
        except OSError as exc:
            warn_once("result-cache write", str(self.root),
                      f"warning: cannot write result-cache entry at {path}; "
                      f"continuing without the cache ({exc})")
            return
        self.stats.writes += 1

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def entry_count(self) -> int:
        return sum(1 for _ in self.root.glob(_ENTRY_GLOB))

    def total_bytes(self) -> int:
        """Bytes on disk across every entry."""
        return directory_stats(self.root, _ENTRY_GLOB)[1]

    def gc(self, max_bytes: int) -> list[Path]:
        """Evict oldest-mtime entries until the cache fits `max_bytes`;
        returns the removed paths."""
        return evict_lru(self.root, max_bytes, "*/*.pkl")

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def resolve_cache(
    setting: "str | Path | ResultCache | None" = None,
    *,
    default: "str | None" = None,
) -> ResultCache | None:
    """Turn a cache setting into a :class:`ResultCache` (or None).

    Precedence: an explicit `setting` wins; otherwise the
    ``REPRO_RESULT_CACHE`` environment variable; otherwise `default`.
    Recognised values are documented in the module docstring.
    """
    if isinstance(setting, ResultCache):
        return setting
    if isinstance(setting, Path):
        return ResultCache(setting)
    if setting is None:
        setting = os.environ.get(CACHE_ENV_VAR)
    if setting is None:
        setting = default
    if setting is None:
        return None
    lowered = str(setting).strip().lower()
    if lowered in _OFF_VALUES:
        return None
    if lowered in _ON_VALUES:
        return ResultCache(default_cache_dir())
    return ResultCache(Path(setting))
