"""One validated options object for the whole ``REPRO_*`` surface.

Before this module, a dozen environment variables were read — and
error-checked — at a dozen different depths of the stack: the scale in
the harness, cluster jobs in the pipeline, the recording switch in the
telemetry package.  A typo surfaced wherever the first consumer happened
to live, sometimes deep inside a worker process.  :class:`RunOptions`
consolidates the reads: entry points (the CLI's ``main``, the
simulation service) construct it **once**, every
value is validated up front with a readable ``ValueError`` naming the
offending variable (the CLI maps it to exit status 2), and the object
is threaded explicitly from there.

Environment variables remain the override mechanism, and the
engine-internal readers (:func:`~repro.telemetry.collection_enabled`
and friends) keep working:
:meth:`RunOptions.apply` exports the validated values back into the
environment for the dynamic extent of a run, which is how the service
pins per-job settings without re-plumbing every constructor.

The consolidated variables::

    REPRO_EXPERIMENT_SCALE   experiment tier (ci/bench/default/full)
    REPRO_MATRIX_JOBS        matrix-cell workers (0 = one per CPU)
    REPRO_CLUSTER_JOBS       Phase B shard workers (0 = one per CPU)
    REPRO_RESULT_CACHE       result cache: off/on/<directory>
    REPRO_CHECKPOINT_STORE   Phase A checkpoint store: off/on/<directory>
    REPRO_TRACE              the one recording switch: off, 1 (in
                             memory) or the path of one JSONL record file
    REPRO_AUDIT              accuracy-audit probes switch
    REPRO_RUN_ID             correlation id stamped on telemetry output

(``REPRO_SPAN_PARENT`` is deliberately absent: it is cross-process
plumbing owned by the fan-out in :mod:`~.parallel`, not user
configuration.)  The service writes its access and job records to the
``REPRO_TRACE`` file too.  The recording switches that ``REPRO_TRACE``
replaced (:data:`_RETIRED_SWITCHES`, the service log's
``REPRO_SERVICE_LOG`` among them) fail validation when set to anything
but an off value: ignoring them would hand back a run without the
records its caller asked for.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, fields, replace

#: Truthy/falsy spellings shared by the boolean switches.  The engine's
#: own readers treat "anything not in the off-set" as on; validation
#: here is stricter so ``REPRO_AUDIT=ture`` fails loudly instead of
#: silently enabling audit probes.
_OFF_VALUES = frozenset({"", "0", "off", "none", "no", "false", "disabled"})
_ON_VALUES = frozenset({"1", "on", "yes", "true", "enabled"})

#: Recording switches that ``REPRO_TRACE`` replaced.
_RETIRED_SWITCHES = ("REPRO_TELEMETRY", "REPRO_SPANS", "REPRO_EVENTS",
                     "REPRO_SERVICE_LOG")


def available_cpus() -> int:
    """CPUs this process may run on: "one worker per CPU" for ``0`` jobs.

    Counts the process's CPU affinity (``taskset``, container cpusets)
    where the platform exposes it, else every CPU of the machine.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _parse_bool(name: str, raw: str) -> bool:
    value = raw.strip().lower()
    if value in _OFF_VALUES:
        return False
    if value in _ON_VALUES:
        return True
    raise ValueError(
        f"{name} must be a boolean switch "
        f"({'/'.join(sorted(_ON_VALUES))} or "
        f"{'/'.join(sorted(v for v in _OFF_VALUES if v))}), got {raw!r}"
    )


def _parse_jobs(name: str, raw) -> "int | None":
    if raw is None:
        return None
    if isinstance(raw, int):
        value = raw
    else:
        text = str(raw).strip()
        if not text:
            return None
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"{name} must be an integer (got {raw!r})") from None
    if value < 0:
        raise ValueError(
            f"{name} must be >= 0 (0 = one per CPU), got {value}")
    return value


@dataclass(frozen=True)
class RunOptions:
    """Validated run configuration, constructed once at an entry point.

    ``None`` for the job counts means "not configured" (callers apply
    their own defaults: all CPUs for matrix cells, serial for cluster
    shards); ``0`` means one worker per CPU, resolved by
    :meth:`resolved_matrix_jobs` / :meth:`resolved_cluster_jobs`.
    """

    scale: str = "bench"
    matrix_jobs: "int | None" = None
    cluster_jobs: "int | None" = None
    result_cache: "str | None" = None
    checkpoint_store: "str | None" = None
    trace: "str | None" = None
    audit: bool = False
    run_id: "str | None" = None

    def __post_init__(self) -> None:
        from .experiment import SCALES

        if self.scale not in SCALES:
            known = ", ".join(sorted(SCALES))
            raise ValueError(
                f"REPRO_EXPERIMENT_SCALE={self.scale!r} unknown; "
                f"known: {known}")
        _parse_jobs("REPRO_MATRIX_JOBS", self.matrix_jobs)
        _parse_jobs("REPRO_CLUSTER_JOBS", self.cluster_jobs)
        if self.run_id is not None:
            from ..telemetry.runid import validate_run_id

            validate_run_id(self.run_id)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_env(cls, **overrides) -> "RunOptions":
        """Read and validate every ``REPRO_*`` variable, once.

        `overrides` (field name -> value) win over the environment —
        the CLI threads its ``--scale`` / ``--jobs`` / ``--cluster-jobs``
        flags through here so flags and env vars share one validation
        path.  An override of ``None`` means "no opinion" (keep the
        environment's value).
        """

        def env(name: str) -> str:
            return os.environ.get(name, "").strip()

        for name in _RETIRED_SWITCHES:
            if env(name).lower() not in _OFF_VALUES:
                raise ValueError(
                    f"{name} is retired: REPRO_TRACE is the one recording "
                    f"switch (REPRO_TRACE=1 collects in memory, "
                    f"REPRO_TRACE=PATH writes every record to one file)")
        values = {
            "scale": env("REPRO_EXPERIMENT_SCALE") or "bench",
            "matrix_jobs": _parse_jobs("REPRO_MATRIX_JOBS",
                                       env("REPRO_MATRIX_JOBS")),
            "cluster_jobs": _parse_jobs("REPRO_CLUSTER_JOBS",
                                        env("REPRO_CLUSTER_JOBS")),
            "result_cache": env("REPRO_RESULT_CACHE") or None,
            "checkpoint_store": env("REPRO_CHECKPOINT_STORE") or None,
            "trace": env("REPRO_TRACE") or None,
            "audit": _parse_bool("REPRO_AUDIT", env("REPRO_AUDIT")),
            "run_id": env("REPRO_RUN_ID") or None,
        }
        for name, value in overrides.items():
            if value is not None:
                values[name] = value
        return cls(**values)

    def with_overrides(self, **overrides) -> "RunOptions":
        """A copy with non-``None`` overrides applied (re-validated)."""
        concrete = {name: value for name, value in overrides.items()
                    if value is not None}
        return replace(self, **concrete) if concrete else self

    # -- resolution helpers ------------------------------------------------

    def scale_obj(self):
        """The :class:`~.experiment.ExperimentScale` behind ``scale``."""
        from .experiment import SCALES

        return SCALES[self.scale]

    def store(self, setting=None, *, layer: str = "checkpoints",
              default: "str | None" = None):
        """One layer's :class:`~repro.store.CheckpointStore` (or None):
        ``"results"`` (the result cache) or ``"checkpoints"``."""
        from ..store import resolve_store

        if setting is None:
            setting = (self.result_cache if layer == "results"
                       else self.checkpoint_store)
        return resolve_store(setting, layer=layer, default=default)

    def resolved_matrix_jobs(self) -> int:
        """Matrix-cell workers: configured value, else one per CPU."""
        jobs = self.matrix_jobs
        if jobs is None or jobs == 0:
            return available_cpus()
        return jobs

    def resolved_cluster_jobs(self) -> int:
        """Phase B shard workers: configured value, else serial."""
        jobs = self.cluster_jobs
        if jobs is None:
            return 1
        if jobs == 0:
            return available_cpus()
        return jobs

    # -- environment round-trip --------------------------------------------

    def _environ_all(self) -> dict[str, str]:
        """Every owned variable's spelling, ``""`` for an unset one."""
        return {
            "REPRO_EXPERIMENT_SCALE": self.scale,
            "REPRO_MATRIX_JOBS": ("" if self.matrix_jobs is None
                                  else str(self.matrix_jobs)),
            "REPRO_CLUSTER_JOBS": ("" if self.cluster_jobs is None
                                   else str(self.cluster_jobs)),
            "REPRO_RESULT_CACHE": self.result_cache or "",
            "REPRO_CHECKPOINT_STORE": self.checkpoint_store or "",
            "REPRO_TRACE": self.trace or "",
            "REPRO_AUDIT": "1" if self.audit else "",
            "REPRO_RUN_ID": self.run_id or "",
        }

    def environ(self) -> dict[str, str]:
        """The validated values as their environment-variable spelling."""
        return {name: value for name, value in self._environ_all().items()
                if value}

    @contextlib.contextmanager
    def apply(self):
        """Export the validated values into the environment for a block.

        The bridge to the engine's internal env readers (and to worker
        processes, which inherit the environment at launch): the service
        wraps each job's execution in ``with options.apply():`` so the
        job runs under exactly the validated configuration, and the
        previous environment is restored afterwards — including
        *removing* variables the options leave unset, so a stale
        ``REPRO_AUDIT`` from the parent shell cannot leak into a job
        that did not ask for it.
        """
        target = self._environ_all()
        saved = {name: os.environ.get(name) for name in target}
        try:
            for name, value in target.items():
                if value:
                    os.environ[name] = value
                else:
                    os.environ.pop(name, None)
            yield self
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value

    def describe(self) -> list[tuple[str, str]]:
        """``(field, value)`` rows for status displays."""
        return [(f.name, repr(getattr(self, f.name))) for f in fields(self)]


def options_from_env(**overrides) -> RunOptions:
    """Module-level convenience for :meth:`RunOptions.from_env`."""
    return RunOptions.from_env(**overrides)
