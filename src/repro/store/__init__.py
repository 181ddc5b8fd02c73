"""The content-addressed on-disk store (results, shards, live-points).

Public surface of the persistence subsystem: the one
:class:`CheckpointStore` (see :mod:`.checkpoint` for the kinds, the key
schema and invalidation rules), the key functions, and the
atomic-serialization helpers (:mod:`.serialization`).
"""

from .checkpoint import (
    CACHE_ENV_VAR,
    CheckpointStore,
    LAYERS,
    PHASE_A_PACKAGES,
    STORE_ENV_VAR,
    StoreStats,
    code_version,
    default_store_dir,
    expect_instance,
    global_store_stats,
    livepoint_store_key,
    resolve_store,
    result_store_key,
    shard_store_key,
    workload_fingerprint,
)
from .serialization import (
    atomic_write_bytes,
    atomic_write_json,
    blob_digest,
    digest_key,
    stable_payload,
    warn_once,
)

__all__ = [
    "CACHE_ENV_VAR",
    "CheckpointStore",
    "LAYERS",
    "PHASE_A_PACKAGES",
    "STORE_ENV_VAR",
    "StoreStats",
    "atomic_write_bytes",
    "atomic_write_json",
    "blob_digest",
    "code_version",
    "default_store_dir",
    "digest_key",
    "expect_instance",
    "global_store_stats",
    "livepoint_store_key",
    "resolve_store",
    "result_store_key",
    "shard_store_key",
    "stable_payload",
    "warn_once",
    "workload_fingerprint",
]
