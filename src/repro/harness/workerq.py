"""Spooled file-queue worker: ``python -m repro.harness.workerq SPOOL``.

The wire format behind the ``subprocess-queue`` executor backend (see
:mod:`~.executor`).  A *spool* is a plain directory:

- ``task-<index>.pkl`` — one pickled ``(worker, task)`` pair per task,
  written atomically (temp file + rename) by the parent before any
  worker launches;
- ``claim-<index>-<pid>.pkl`` — a task a worker has claimed, via
  ``os.rename`` (atomic on POSIX, so two workers can never execute the
  same task);
- ``result-<index>.pkl`` — the pickled outcome, ``("ok", value)`` or
  ``("error", exception)``, written atomically when the task finishes.

A worker process loops: claim any task file, execute it, write the
result, repeat; when no task files remain it exits 0.  Everything it
needs beyond the directory rides the inherited environment
(``REPRO_SPAN_PARENT``, telemetry flags, ``PYTHONPATH``), which is
exactly the contract a remote job scheduler can reproduce by shipping
the spool directory and the environment to another machine.
"""

from __future__ import annotations

import os
import pickle
import sys
import tempfile


def _atomic_write(directory: str, name: str, payload: bytes) -> None:
    handle, temp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(payload)
        os.replace(temp, os.path.join(directory, name))
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def spool_task(spool: str, index: int, payload: bytes) -> None:
    """Write one ``task-<index>.pkl`` file (a pickled ``(worker, task)``
    pair) atomically."""
    _atomic_write(spool, f"task-{index:06d}.pkl", payload)


def write_result(spool: str, index: int, status: str, payload) -> None:
    """Write one ``result-<index>.pkl`` outcome atomically.

    An unpicklable payload (a result or exception holding live state)
    degrades to a picklable stand-in rather than wedging the queue.
    """
    try:
        blob = pickle.dumps((status, payload),
                            protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        if status == "ok":
            status, payload = "error", RuntimeError(
                f"task {index} produced an unpicklable result "
                f"({type(payload).__name__})")
        else:
            payload = RuntimeError(
                f"task {index} raised an unpicklable "
                f"{type(payload).__name__}: {payload!r}")
        blob = pickle.dumps((status, payload),
                            protocol=pickle.HIGHEST_PROTOCOL)
    _atomic_write(spool, f"result-{index:06d}.pkl", blob)


def drain_results(spool: str, seen: "set[int]"):
    """Yield ``(index, (status, payload))`` for new result files."""
    try:
        names = os.listdir(spool)
    except FileNotFoundError:
        return
    for name in sorted(names):
        if not (name.startswith("result-") and name.endswith(".pkl")):
            continue
        index = int(name[len("result-"):-len(".pkl")])
        if index in seen:
            continue
        with open(os.path.join(spool, name), "rb") as stream:
            yield index, pickle.load(stream)


def claim_next(spool: str) -> "tuple[int, str] | None":
    """Atomically claim one task file; None when the queue is empty."""
    pid = os.getpid()
    try:
        names = sorted(os.listdir(spool))
    except FileNotFoundError:
        return None
    for name in names:
        if not (name.startswith("task-") and name.endswith(".pkl")):
            continue
        index = int(name[len("task-"):-len(".pkl")])
        claimed = os.path.join(spool, f"claim-{index:06d}-{pid}.pkl")
        try:
            os.rename(os.path.join(spool, name), claimed)
        except OSError:
            continue  # another worker won the rename race
        return index, claimed
    return None


def serve(spool: str) -> int:
    """Worker main loop: claim, execute, write result, until drained."""
    while True:
        claim = claim_next(spool)
        if claim is None:
            return 0
        index, path = claim
        try:
            with open(path, "rb") as stream:
                worker, task = pickle.load(stream)
            result = worker(task)
        except BaseException as exc:  # ship the failure, keep serving
            write_result(spool, index, "error", exc)
        else:
            write_result(spool, index, "ok", result)


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.harness.workerq SPOOL_DIR",
              file=sys.stderr)
        return 2
    return serve(argv[0])


if __name__ == "__main__":
    sys.exit(main())
