"""Correlation IDs: one ``run_id`` joining every artifact of a run.

A run — one CLI invocation, one service job — produces observability
output in several places at once: the records of its ``REPRO_TRACE``
file (clusters, spans, counters, run and cell progress, the service's
access and job records) and the job status payload.  Without a shared
key, a span recorded in a worker process cannot be tied back to the
HTTP request that caused it.

The ``run_id`` is that key.  It is minted **once per logical run** —
``repro`` CLI entry (:func:`repro.__main__.main`) for command-line
invocations, :meth:`repro.service.SimulationService.submit` for service
jobs — and propagated through :data:`RUN_ID_ENV_VAR` exactly like the
span parent context (:data:`~.spans.SPAN_PARENT_ENV_VAR`): planted in
the environment for the run's dynamic extent, inherited by worker
processes at launch, read live by in-process backends.  Every sink
stamps the ambient id onto its records when one is set, so

    grep <run_id> trace.jsonl

reconstructs the full cross-process story of one request.

Off by default: without :data:`RUN_ID_ENV_VAR` nothing is stamped and
every record stays byte-identical to previous releases.  The id never
enters result payloads or cache fingerprints — correlation is an
observability concern, and results must stay content-addressed.
"""

from __future__ import annotations

import contextlib
import os
import time

#: Environment variable carrying the ambient correlation id.  Exported
#: by :meth:`~repro.harness.options.RunOptions.apply` (the service job
#: path) and by the CLI entry point; consumed by every telemetry sink.
RUN_ID_ENV_VAR = "REPRO_RUN_ID"

#: Per-process uniquifier so ids minted back-to-back never collide even
#: when the clock tick is coarser than the minting rate.
_mint_count = 0


def mint_run_id() -> str:
    """A new correlation id: short, unique, and grep-friendly.

    The format is ``r<wall-ns><pid><seq>`` in base-32-ish hex — opaque
    by design (ordering or timing must not be parsed back out of it),
    collision-free across processes via the pid, and across rapid mints
    in one process via the sequence number.
    """
    global _mint_count
    _mint_count += 1
    stamp = time.time_ns() & 0xFFFFFFFFFFFF
    return f"r{stamp:012x}{os.getpid() & 0xFFFFFF:06x}{_mint_count & 0xFFF:03x}"


def run_id_from_env() -> str | None:
    """The ambient correlation id, or None when none was minted."""
    value = os.environ.get(RUN_ID_ENV_VAR, "").strip()
    return value or None


def validate_run_id(value: str) -> str:
    """Reject ids that would corrupt JSONL greps or the environment."""
    if not value or value != value.strip() or any(
            ch.isspace() for ch in value):
        raise ValueError(
            f"{RUN_ID_ENV_VAR} must be a non-empty token without "
            f"whitespace, got {value!r}")
    if len(value) > 128:
        raise ValueError(
            f"{RUN_ID_ENV_VAR} must be at most 128 characters, "
            f"got {len(value)}")
    return value


@contextlib.contextmanager
def bound_run_id(run_id: str | None):
    """Plant `run_id` in the environment for a block (None: no-op).

    The CLI wraps each invocation's handler in this so one ``repro``
    command is one correlated run; restoring the previous value keeps
    nested or sequential runs from leaking ids into each other.
    """
    if run_id is None:
        yield
        return
    validate_run_id(run_id)
    previous = os.environ.get(RUN_ID_ENV_VAR)
    os.environ[RUN_ID_ENV_VAR] = run_id
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(RUN_ID_ENV_VAR, None)
        else:
            os.environ[RUN_ID_ENV_VAR] = previous
