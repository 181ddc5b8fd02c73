"""The one record file: its switch, its record types, and its append rule.

``REPRO_TRACE`` is the only recording switch.  Unset (or an off value)
it leaves every run on the null session; ``1``/``on`` collects in memory
only (snapshots in ``SampledRunResult.extra``, no file); any other value
is the path of one JSON-lines file that every record of the run goes to.
Records are told apart by ``type``:

- ``cluster`` — one sampled cluster: where it landed (start/gap/ramp),
  what reconstruction touched, how long each phase took, and its IPC;
- ``audit`` — one audited cluster (``REPRO_AUDIT``);
- ``span`` / ``counter`` — one completed span, one counter-track sample;
- ``run_start`` / ``run_end`` — one sampled run (workload x method);
- ``cell`` — one finished grid cell, with completed/total counts.

See docs/observability.md for the field schemas.

Every write is :func:`append_trace`: the batch is rendered first and
goes out as one ``os.write`` on an ``O_APPEND`` descriptor, so writers
running at the same time (a service's jobs, several CLI runs) interleave
whole lines, never fragments.
"""

from __future__ import annotations

import json
import os
import sys

#: Environment variable naming the run's records: off, ``1`` (in
#: memory) or a JSON-lines path.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Environment variable enabling the accuracy audit: at every cluster
#: boundary the controller diffs reconstructed state against a cached
#: perfectly-warmed reference trajectory and emits per-cluster bias
#: records.  Implies in-memory collection — audit data rides the normal
#: snapshot/merge machinery.
AUDIT_ENV_VAR = "REPRO_AUDIT"

#: Record type emitted once per sampled cluster.
RECORD_CLUSTER = "cluster"

#: Record type emitted once per audited cluster (``REPRO_AUDIT``).
RECORD_AUDIT = "audit"

#: Record type of one completed span.
RECORD_SPAN = "span"

#: Record type of one sampled counter value (a Perfetto counter track
#: point: skip-log stored records, blocks reconstructed, RSS...).
RECORD_COUNTER = "counter"

#: Record types bracketing one sampled run.
RECORD_RUN_START = "run_start"
RECORD_RUN_END = "run_end"

#: Record type of one finished grid cell (``repro matrix``).
RECORD_CELL = "cell"

_OFF_VALUES = ("", "0", "off", "false", "no")
_MEMORY_VALUES = ("1", "on", "true", "yes")

#: Paths whose appends already failed once: the first failure earns a
#: stderr warning, later ones stay silent (a full disk would otherwise
#: turn every cluster boundary into a warning line).
_warned_paths: set[str] = set()


def format_trace_lines(records) -> str:
    """Render records as JSON-lines text (one compact object per line)."""
    return "".join(
        json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        for record in records
    )


def append_trace(records, path: str, label: str = "records") -> int:
    """Append records to the JSON-lines file at `path`; returns count.

    The whole batch is rendered first and written with one ``os.write``
    on an ``O_APPEND`` descriptor — no userspace buffering — so
    concurrent writers interleave whole lines, and a writer killed
    mid-run never leaves a fragment for the others to splice into.  A
    failed append (full disk, revoked path) never takes the run down:
    the first failure per path warns on stderr (naming what failed to
    append by `label`), and 0 is returned so the records stay pending.
    """
    records = list(records)
    if not records:
        return 0
    payload = format_trace_lines(records).encode("utf-8")
    try:
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            while payload:
                payload = payload[os.write(fd, payload):]
        finally:
            os.close(fd)
    except OSError as exc:
        if path not in _warned_paths:
            _warned_paths.add(path)
            print(
                f"repro: warning: cannot append {label} to {path!r} "
                f"({exc}); further failures for this path will be silent",
                file=sys.stderr,
            )
        return 0
    return len(records)


def read_trace(path: str) -> list[dict]:
    """Parse a JSON-lines record file back into record dicts.

    Tolerant of a truncated *final* line — a run killed mid-append
    leaves a partial last record, which is skipped with a warning on
    stderr rather than poisoning the whole file.  Malformed lines
    anywhere else still raise: those indicate corruption, not a crash.
    """
    with open(path, "r", encoding="utf-8") as stream:
        lines = [(number, line.strip())
                 for number, line in enumerate(stream, start=1)
                 if line.strip()]
    records = []
    for position, (number, line) in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if position == len(lines) - 1:
                print(
                    f"repro: warning: skipping truncated final record "
                    f"at {path}:{number} (interrupted run?)",
                    file=sys.stderr,
                )
                break
            raise
    return records


def trace_path(value: str | None) -> str | None:
    """The record-file path a ``REPRO_TRACE`` value names, or None for
    off and in-memory values."""
    value = (value or "").strip()
    if value.lower() in _OFF_VALUES or value.lower() in _MEMORY_VALUES:
        return None
    return value


def trace_path_from_env() -> str | None:
    """The ``REPRO_TRACE`` path, or None when no file is asked for."""
    return trace_path(os.environ.get(TRACE_ENV_VAR))


def audit_enabled() -> bool:
    """True when ``REPRO_AUDIT`` asks for accuracy-audit probes."""
    flag = os.environ.get(AUDIT_ENV_VAR, "").strip().lower()
    return flag not in _OFF_VALUES


def collection_enabled() -> bool:
    """True when runs collect records: ``REPRO_TRACE`` is on (in memory
    or to a path), or ``REPRO_AUDIT`` is, whose records ride the same
    snapshots."""
    flag = os.environ.get(TRACE_ENV_VAR, "").strip().lower()
    return flag not in _OFF_VALUES or audit_enabled()
