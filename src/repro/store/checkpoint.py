"""The one content-addressed on-disk store: results, shards, live-points.

The paper's central economy — pay for each computation once and reuse
it — dies with the process in a plain run.  The :class:`CheckpointStore`
persists three kinds of entry under a content-derived key, so a later
run whose inputs match reads the entry instead of recomputing it:

- ``results`` — experiment results: grid cells, true-IPC baselines,
  service payloads, audit reference trajectories
  (:func:`result_store_key`, and ``RunRequest.cache_key`` for service
  payloads);
- ``shards`` — the per-cluster Phase A
  :class:`~repro.sampling.pipeline.ClusterShard`\\ s (functional
  checkpoint + detached skip log) of one run (:func:`shard_store_key`);
- ``livepoints`` — a warmed live-point library
  (:func:`livepoint_store_key`).

Every key is a sha256 over the JSON-stable rendering of exactly the
inputs the entry depends on, plus a digest of the code that computes it
(:func:`code_version`).  The digest is the kind's whole difference:
results digest the whole package, since any edit can change a result;
shards and live-points digest only :data:`PHASE_A_PACKAGES`, so edits to
timing, harness, telemetry or service code keep stored cold scans
serving core-parameter sweeps.  Shard and live-point keys leave the core
config out for the same reason: Phase A is timing-independent.

Each entry is a blob at ``<root>/<kind>/<key[:2]>/<key>.pkl`` with a
JSON manifest (byte count, content digest, caller metadata) beside it.
Both land via temp file + atomic rename; loads cross-check the blob
against the manifest before unpickling, so a truncated or bit-rotted
entry degrades to a recomputation instead of corrupting a run.  A store
never fails a run: every read fault is a miss and every write fault a
warning.  Each write of a Phase A kind (``shards``, ``livepoints``) also
appends to a per-run provenance file (``<root>/runs/<run_id>.jsonl``);
result writes record none, since nothing ever removes those files.

A run resolves two roots with one function, :func:`resolve_store`: the
result cache (``REPRO_RESULT_CACHE`` / ``--cache``, the ``results``
layer) and the checkpoint store (``REPRO_CHECKPOINT_STORE`` /
``--store``, the ``checkpoints`` layer).  The two may share a directory:
each layer's maintenance (``entry_count``, ``total_bytes``, ``gc``)
touches only its own kinds.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from .serialization import (
    atomic_write_bytes,
    atomic_write_json,
    blob_digest,
    digest_key,
    read_json,
    stable_payload,
    warn_once,
)

#: Environment variables naming the two roots a run resolves.
CACHE_ENV_VAR = "REPRO_RESULT_CACHE"
STORE_ENV_VAR = "REPRO_CHECKPOINT_STORE"

_OFF_VALUES = {"off", "0", "none", "no", "false", "disabled", ""}
_ON_VALUES = {"on", "auto", "1", "default", "yes", "true"}

#: Subpackages whose source a Phase A cold scan executes.  Edits outside
#: this set (timing core, harness, telemetry, service, analysis, CLI)
#: cannot change what the scan produces, so they do not invalidate
#: stored shards or live-points.
PHASE_A_PACKAGES = (
    "functional", "isa", "workloads", "core",
    "sampling", "warmup", "branch", "cache",
)

#: Each kind of entry and the code its keys digest (``None``: the whole
#: package).
KINDS = {
    "results": None,
    "shards": PHASE_A_PACKAGES,
    "livepoints": PHASE_A_PACKAGES,
}

_ALL_KINDS = tuple(KINDS)

#: Each layer a run resolves: its environment variable and its kinds.
LAYERS = {
    "results": (CACHE_ENV_VAR, ("results",)),
    "checkpoints": (STORE_ENV_VAR, ("shards", "livepoints")),
}

#: A writer's temp file (``.tmp-*``) younger than this many seconds may
#: belong to a write in flight, so :meth:`CheckpointStore.gc` leaves it
#: alone; an older one is a killed writer's orphan and is removed.
TEMP_FILE_GRACE_S = 15 * 60


@contextlib.contextmanager
def _dir_lock(directory: Path, operation: int):
    """Hold ``flock`` `operation` on `directory` for the block.

    A put writes an entry's manifest and blob under ``LOCK_EX`` and a
    get reads them under ``LOCK_SH``, so a reader never pairs one
    writer's manifest with another's blob.
    """
    handle = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(handle, operation)
        yield
    finally:
        os.close(handle)


def default_store_dir() -> Path:
    """The XDG-style default root of both layers."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro"


@lru_cache(maxsize=None)
def code_version(packages: "tuple[str, ...] | None" = None) -> str:
    """Digest of the ``repro`` source under `packages` (``None``: all).

    Any edit to a digested file changes this digest and therefore every
    key that carries it; edits elsewhere (benches, docs, tests, or
    outside `packages`) leave it untouched, which is what makes warm
    re-runs cheap.
    """
    package_root = Path(__file__).resolve().parent.parent
    roots = ([package_root] if packages is None
             else [package_root / name for name in packages])
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


def workload_fingerprint(workload) -> dict:
    """JSON-stable identity of one generated workload."""
    return {
        "name": workload.name,
        "parameters": stable_payload(workload.parameters),
        "instructions": len(workload.program),
        "memory_words": workload.memory.footprint_words(),
    }


def result_store_key(kind: str, workload_name: str, scale, configs,
                     method_name: str = "") -> str:
    """Content hash addressing one experiment result.

    `kind` distinguishes result families sharing the same inputs
    (``"true"`` for full-trace baselines, ``"cell"`` for sampled runs,
    ``"audit-ref"`` for audit references); `scale` and `configs` are
    rendered field by field, so any change to regimen sizing, seeds or
    microarchitecture produces a new key.
    """
    return digest_key({
        "kind": kind,
        "workload": workload_name,
        "scale": stable_payload(scale),
        "configs": stable_payload(configs),
        "method": method_name,
        "code": code_version(),
    })


def shard_store_key(workload, regimen, configs, *, warmup_prefix: int,
                    detail_ramp: int, method_identity: dict) -> str:
    """Content hash addressing one run's Phase A shard set.

    `method_identity` comes from
    :meth:`~repro.warmup.base.WarmupMethod.store_identity`;
    ``configs.core`` is deliberately excluded (see the module
    docstring).
    """
    return digest_key({
        "kind": "shards",
        "workload": workload_fingerprint(workload),
        "regimen": stable_payload(regimen),
        "warmup_prefix": warmup_prefix,
        "detail_ramp": detail_ramp,
        "hierarchy": stable_payload(configs.hierarchy),
        "predictor": stable_payload(configs.predictor),
        "method": stable_payload(method_identity),
        "code": code_version(PHASE_A_PACKAGES),
    })


def livepoint_store_key(workload, regimen, configs, *, warmup_prefix: int,
                        method_identity: dict) -> str:
    """Content hash addressing one warmed live-point library."""
    return digest_key({
        "kind": "livepoints",
        "workload": workload_fingerprint(workload),
        "regimen": stable_payload(regimen),
        "warmup_prefix": warmup_prefix,
        "hierarchy": stable_payload(configs.hierarchy),
        "predictor": stable_payload(configs.predictor),
        "method": stable_payload(method_identity),
        "code": code_version(PHASE_A_PACKAGES),
    })


def expect_instance(expected: type):
    """A `validate` for :meth:`CheckpointStore.get` that accepts only
    `expected` values."""
    return lambda value: (None if isinstance(value, expected)
                          else f"not a {expected.__name__}")


@dataclass
class StoreStats:
    """Hit/miss/byte accounting for store traffic."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def __str__(self) -> str:
        return (f"{self.hits} hits, {self.misses} misses, "
                f"{self.writes} writes, {self.corrupt} corrupt")


#: Process-wide totals of checkpoint traffic (shards and live-points,
#: not results) across every store instance — the service folds deltas
#: of this into its ``/metrics`` counters after each job.
GLOBAL_STORE_STATS = StoreStats()


def global_store_stats() -> StoreStats:
    """The process-wide :class:`StoreStats` accumulator."""
    return GLOBAL_STORE_STATS


def _check(payload: bytes, manifest: "dict | None",
           expect: "dict | None") -> "str | None":
    """None when `manifest` vouches for `payload`, else why not."""
    if manifest is None:
        return "manifest missing or unreadable"
    if manifest.get("digest") != blob_digest(payload):
        return "content digest mismatch"
    for name, value in (expect or {}).items():
        if manifest.get(name) != value:
            return (f"manifest field {name!r} is {manifest.get(name)!r}, "
                    f"expected {value!r}")
    return None


def _label(kind: str) -> str:
    """How warnings name the layer an entry of `kind` belongs to."""
    return "result-cache" if kind == "results" else "checkpoint-store"


@dataclass
class CheckpointStore:
    """A directory of entries addressed by kind and content key.

    Blobs live at ``<root>/<kind>/<key[:2]>/<key>.pkl`` with a JSON
    manifest at ``<key>.json`` beside each; `kind` is one of
    :data:`KINDS`.  All failure modes degrade to a miss or a skipped
    write (with a warn-once stderr note) — the store must never fail a
    run.
    """

    root: Path
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _blob_path(self, key: str, kind: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.pkl"

    def _manifest_path(self, key: str, kind: str) -> Path:
        return self.root / kind / key[:2] / f"{key}.json"

    def _count(self, kind: str, **deltas: int) -> None:
        targets = [self.stats]
        if kind in LAYERS["checkpoints"][1]:
            targets.append(GLOBAL_STORE_STATS)
        for target in targets:
            for name, delta in deltas.items():
                setattr(target, name, getattr(target, name) + delta)

    # -- read path ---------------------------------------------------------

    def get(self, key: str, kind: str, *, expect: "dict | None" = None,
            validate=None):
        """The stored value for `key`, or None on a miss.

        The blob's sha256 must match the manifest's recorded digest, and
        every item of `expect` must equal the manifest's metadata — the
        cross-check that proves the entry is what a live computation
        would produce before a single byte is unpickled.  `validate`
        (optional) inspects the unpickled value and returns None to
        accept it or a description of the problem; a rejected value is
        corruption, so it is counted and warned about like a bad
        digest, never as a hit.
        """
        blob_path = self._blob_path(key, kind)
        try:
            with _dir_lock(blob_path.parent, fcntl.LOCK_SH):
                payload = blob_path.read_bytes()
                manifest = read_json(self._manifest_path(key, kind))
        except FileNotFoundError:
            return self._miss(kind)
        except OSError as exc:
            if self.root.exists() and not self.root.is_dir():
                warn_once(f"{_label(kind)} root", str(self.root),
                          f"warning: {_label(kind)} root {self.root} is "
                          f"not a directory; every lookup is a miss")
                return self._miss(kind)
            return self._corrupt(blob_path, kind, exc)
        problem = _check(payload, manifest, expect)
        if problem is not None:
            return self._corrupt(blob_path, kind, problem)
        try:
            value = pickle.loads(payload)
        except Exception as exc:
            return self._corrupt(blob_path, kind, exc)
        problem = validate(value) if validate is not None else None
        if problem is not None:
            return self._corrupt(blob_path, kind, problem)
        self._count(kind, hits=1, bytes_read=len(payload))
        return value

    def _miss(self, kind: str):
        self._count(kind, misses=1)
        return None

    def _corrupt(self, path, kind: str, reason):
        """Warn once per path, count, and degrade to a miss."""
        warn_once(f"{_label(kind)} entry", str(path),
                  f"warning: corrupt {_label(kind)} entry at {path} "
                  f"treated as a miss ({reason})")
        self._count(kind, corrupt=1)
        return self._miss(kind)

    # -- write path --------------------------------------------------------

    def put(self, key: str, value, kind: str, *,
            meta: "dict | None" = None) -> int:
        """Atomically persist `value` under `key`; returns blob bytes.

        The manifest records the blob's size and content digest plus any
        caller-supplied `meta` (echoed for the read-side `expect`
        cross-check); both files land via temp file + atomic rename, and
        a Phase A entry is appended to the current run's provenance
        file.  A write that fails (a full disk, a root that is not a
        directory, a temp file removed before its rename) warns once per
        root and layer, returns 0 and leaves the run to go on without
        the entry.
        """
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        manifest = {
            **(meta or {}),
            "key": key,
            "kind": kind,
            "bytes": len(blob),
            "digest": blob_digest(blob),
            "code": code_version(KINDS[kind]),
        }
        blob_path = self._blob_path(key, kind)
        try:
            blob_path.parent.mkdir(parents=True, exist_ok=True)
            # Manifest first: the blob's rename commits the entry, so a
            # gc between the two renames finds no entry to evict.
            with _dir_lock(blob_path.parent, fcntl.LOCK_EX):
                atomic_write_json(self._manifest_path(key, kind), manifest)
                atomic_write_bytes(blob_path, blob)
        except OSError as exc:
            warn_once(f"{_label(kind)} write", str(self.root),
                      f"warning: cannot write {_label(kind)} entry at "
                      f"{blob_path}; continuing without it ({exc})")
            return 0
        self._count(kind, writes=1, bytes_written=len(blob))
        if kind in LAYERS["checkpoints"][1]:
            self._record_run_entry(manifest)
        return len(blob)

    def _record_run_entry(self, manifest: dict) -> None:
        """Append one line to the writing run's provenance manifest.

        Keyed by the ambient ``REPRO_RUN_ID``; runs without a
        correlation id (bare library calls) skip the provenance record.
        Appends of one short line are atomic enough on POSIX for the
        observability purpose this serves; failures never hurt the run.
        """
        from ..telemetry.runid import run_id_from_env

        run_id = run_id_from_env()
        if run_id is None:
            return
        line = json.dumps({"run_id": run_id, **manifest}, sort_keys=True)
        path = self.root / "runs" / f"{run_id}.jsonl"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a", encoding="utf-8") as stream:
                stream.write(line + "\n")
        except OSError:
            pass

    # -- accounting + maintenance ------------------------------------------

    def __contains__(self, key: str) -> bool:
        return any(self._blob_path(key, kind).exists() for kind in KINDS)

    def _files(self, kinds):
        """``(path, stat)`` of every file in `kinds`' fan-out directories,
        writers' temp files included."""
        for kind in kinds:
            for path in self.root.glob(f"{kind}/*/*"):
                try:
                    yield path, path.stat()
                except OSError:
                    continue

    def _blobs(self, kinds) -> list:
        return [(path, stat) for path, stat in self._files(kinds)
                if path.suffix == ".pkl" and not path.name.startswith(".")]

    def entry_count(self, kinds=_ALL_KINDS) -> int:
        """Entries stored, across `kinds` (default: every kind)."""
        return len(self._blobs(kinds))

    def total_bytes(self, kinds=_ALL_KINDS) -> int:
        """Blob bytes across `kinds` — the quantity :meth:`gc` budgets."""
        return sum(stat.st_size for _, stat in self._blobs(kinds))

    def gc(self, max_bytes: int, kinds=_ALL_KINDS) -> list[Path]:
        """Evict oldest-mtime entries of `kinds` until their blobs fit
        `max_bytes`; returns the removed blob paths.

        A blob's manifest is removed with it (the pair is useless
        apart).  Writers' temp files older than
        :data:`TEMP_FILE_GRACE_S` are removed as orphans; younger ones
        may belong to a write in flight and are left alone.  Run
        provenance files are never touched.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        horizon = time.time() - TEMP_FILE_GRACE_S
        entries = []
        for path, stat in self._files(kinds):
            if path.name.startswith(".tmp-"):
                if stat.st_mtime < horizon:
                    with contextlib.suppress(OSError):
                        path.unlink()
            elif path.suffix == ".pkl":
                entries.append((stat.st_mtime, str(path), path,
                                stat.st_size))
        entries.sort(key=lambda item: (item[0], item[1]))
        total = sum(item[3] for item in entries)
        removed: list[Path] = []
        for _, _, path, size in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed.append(path)
            with contextlib.suppress(OSError):
                path.with_suffix(".json").unlink()
        return removed

    def clear(self, kinds=_ALL_KINDS) -> int:
        """Delete every entry of `kinds`; returns the count."""
        return len(self.gc(0, kinds))


def resolve_store(
    setting: "str | Path | CheckpointStore | None" = None,
    *,
    layer: str = "checkpoints",
    default: "str | None" = None,
) -> "CheckpointStore | None":
    """Turn one layer's setting into a :class:`CheckpointStore` (or None).

    `layer` is ``"results"`` (the result cache) or ``"checkpoints"``
    (the checkpoint store).  Precedence: an explicit `setting` wins;
    otherwise the layer's environment variable (:data:`LAYERS`);
    otherwise `default`.  ``off``-family spellings disable the layer,
    ``on``-family ones select :func:`default_store_dir`, anything else
    is a directory path.
    """
    if isinstance(setting, CheckpointStore):
        return setting
    if isinstance(setting, Path):
        return CheckpointStore(setting)
    if setting is None:
        setting = os.environ.get(LAYERS[layer][0])
    if setting is None:
        setting = default
    if setting is None:
        return None
    lowered = str(setting).strip().lower()
    if lowered in _OFF_VALUES:
        return None
    if lowered in _ON_VALUES:
        return CheckpointStore(default_store_dir())
    return CheckpointStore(Path(setting))
