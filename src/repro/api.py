"""Stable high-level facade for sampled-simulation experiments.

Three levels of entry cover the common workflows:

- :func:`simulate` — one workload, one warm-up method, one sampled run::

      from repro.api import simulate
      result = simulate("gcc", method="rsr")
      print(result.estimate.mean)

- :func:`run_matrix` — a methods-by-workloads grid with the parallel
  harness (process-pool fan-out, optional on-disk result cache)::

      from repro.api import run_matrix
      grid = run_matrix(methods=["S$BP", "R$BP (100%)"],
                        workloads=["gcc", "twolf"], design="ci")

- :class:`RunRequest` / :func:`execute_request` — declarative
  experiment requests with JSON-able, content-addressed results; the
  same objects the long-running simulation service
  (:mod:`repro.service`) accepts over HTTP::

      from repro.api import RunRequest, execute_request
      result = execute_request(RunRequest(kind="sample",
                                          workloads=("gcc",)))

Methods are named: anything registered in the warm-up registry resolves,
including the case-insensitive aliases ``"rsr"`` (R$BP at 100%) and
``"smarts"`` (S$BP); pass a :class:`~repro.warmup.WarmupMethod` instance
to :func:`simulate` for full control.  The *design* selects the sampling
regimen and microarchitecture: a scale preset name (``"ci"``,
``"bench"``, ``"default"``, ``"full"``), an
:class:`~repro.harness.ExperimentScale`, a bare
:class:`~repro.sampling.SamplingRegimen` (paper-default
microarchitecture, no warm-up prefix), or ``None`` for the
``REPRO_EXPERIMENT_SCALE`` environment default.  ``RunRequest.design``
is restricted to preset names so requests stay JSON-serialisable.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .harness.experiment import (
    ExperimentScale,
    SCALES,
    scale_from_env,
    true_run_for,
)
from .harness.parallel import execute_matrix
from .sampling import (
    SampledRunResult,
    SampledSimulator,
    SamplingRegimen,
    resolve_cluster_jobs,
)
from .store import code_version, digest_key, resolve_store
from .warmup import WarmupMethod, method_factory, resolve_method
from .workloads import PAPER_WORKLOADS, Workload, cached_workload


def _resolve_design(design) -> ExperimentScale | SamplingRegimen:
    if design is None:
        return scale_from_env()
    if isinstance(design, str):
        try:
            return SCALES[design]
        except KeyError:
            known = ", ".join(sorted(SCALES))
            raise ValueError(
                f"unknown design {design!r}; known: {known}"
            ) from None
    if isinstance(design, (ExperimentScale, SamplingRegimen)):
        return design
    raise TypeError(
        "design must be a scale name, ExperimentScale, SamplingRegimen, "
        f"or None, not {type(design).__name__}")


class _RegistrySuite:
    """Picklable method-suite factory resolving registry names per call.

    The parallel harness ships the factory to worker processes, so it
    must be a module-level class (closures do not pickle) and must
    re-resolve names on the worker side (methods themselves may not
    pickle).  Names are validated eagerly at construction so a typo
    fails before any process fan-out.
    """

    def __init__(self, names: tuple[str, ...]) -> None:
        for name in names:
            method_factory(name)
        self.names = tuple(names)

    def __call__(self) -> list[WarmupMethod]:
        return [resolve_method(name) for name in self.names]


def simulate(workload, method="rsr", design=None, *,
             configs=None, telemetry=None) -> SampledRunResult:
    """Run one sampled simulation and return its
    :class:`~repro.sampling.SampledRunResult`.

    `workload` is a name (resolved through
    :func:`~repro.workloads.cached_workload`, so runs of one program
    share its translations and steady-state prefix) or a
    :class:`~repro.workloads.Workload`; `method` a registry name/alias
    or a ready :class:`~repro.warmup.WarmupMethod` instance; `design` as
    described in the module docstring.  `configs` overrides the design's
    microarchitecture; `telemetry` is passed through to
    :class:`~repro.sampling.SampledSimulator`.
    """
    design = _resolve_design(design)
    if isinstance(design, ExperimentScale):
        regimen = design.regimen()
        configs = configs if configs is not None else design.configs()
        warmup_prefix = design.warmup_prefix
        detail_ramp = design.detail_ramp
        mem_scale = design.mem_scale
    else:
        regimen = design
        warmup_prefix = 0
        detail_ramp = 0
        mem_scale = 1
    if not isinstance(workload, Workload):
        workload = cached_workload(workload, mem_scale=mem_scale)
    if isinstance(method, str):
        method = resolve_method(method)
    simulator = SampledSimulator(
        workload, regimen, configs,
        warmup_prefix=warmup_prefix,
        detail_ramp=detail_ramp,
        telemetry=telemetry,
    )
    return simulator.run(method)


def true_run(workload_name: str, design=None, *, configs=None):
    """The full-trace detailed baseline for `workload_name` under a
    design (scale presets only), cached per process."""
    design = _resolve_design(design)
    if not isinstance(design, ExperimentScale):
        raise TypeError("true_run needs an ExperimentScale design "
                        "(a preset name or instance)")
    return true_run_for(workload_name, design, configs)


def run_matrix(methods=None, workloads=PAPER_WORKLOADS, design=None, *,
               configs=None, jobs=None, cache=None, progress=None,
               cluster_jobs=1):
    """Run a methods-by-workloads grid through the parallel harness.

    `methods` is a list of registry names (``None`` means the full
    sixteen-method Table 2 suite); names are validated before any
    worker process launches.  `design` must resolve to an
    :class:`~repro.harness.ExperimentScale`.  `cache` accepts a
    :class:`~repro.store.CheckpointStore`, a directory path, or ``None``
    (the ``REPRO_RESULT_CACHE`` environment default).  Returns
    ``{workload_name: WorkloadExperiment}``.
    """
    design = _resolve_design(design)
    if not isinstance(design, ExperimentScale):
        raise TypeError("run_matrix needs an ExperimentScale design "
                        "(a preset name or instance)")
    if methods is None:
        from .warmup import paper_method_suite

        factory = paper_method_suite
    else:
        factory = _RegistrySuite(tuple(methods))
    return execute_matrix(
        factory,
        tuple(workloads),
        scale=design,
        configs=configs,
        jobs=jobs,
        cache=resolve_store(cache, layer="results"),
        progress=progress,
        cluster_jobs=cluster_jobs,
    )


# ---------------------------------------------------------------------------
# Declarative requests: the JSON-able surface of the simulation service.
# ---------------------------------------------------------------------------

_REQUEST_KINDS = ("sample", "matrix", "audit")

#: matrix_rows() columns whose values depend on wall-clock timing, not
#: on the simulated machine.  Request payloads are content-addressed
#: (identical request -> identical payload, byte for byte, across
#: backends and cache hits), so timing lives on RunResult.wall_seconds
#: instead of inside the payload.
_TIMING_COLUMNS = frozenset({
    "wall_seconds", "cold_skip_seconds", "reconstruct_seconds",
    "hot_sim_seconds", "trace_records",
})


@dataclass(frozen=True)
class RunRequest:
    """One declarative, JSON-serialisable experiment request.

    `kind` selects the workflow: ``"sample"`` (per-workload sampled
    runs, one row per method), ``"matrix"`` (the methods-by-workloads
    grid), or ``"audit"`` (accuracy-audit probes, JSON report per
    workload).  `design` is a scale preset *name* (``None`` resolves
    the ``REPRO_EXPERIMENT_SCALE`` default at construction, so the
    request — and its fingerprint — is always concrete).  Empty
    `methods` means the kind's default suite; empty `workloads` means
    the paper's nine.
    """

    kind: str = "sample"
    workloads: tuple = ()
    methods: tuple = ()
    design: "str | None" = None
    cluster_jobs: int = 1
    jobs: "int | None" = None

    def __post_init__(self) -> None:
        if self.kind not in _REQUEST_KINDS:
            raise ValueError(
                f"unknown request kind {self.kind!r}; "
                f"known: {', '.join(_REQUEST_KINDS)}")
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.design is None:
            object.__setattr__(self, "design", scale_from_env().name)
        if self.design not in SCALES:
            known = ", ".join(sorted(SCALES))
            raise ValueError(
                f"unknown design {self.design!r}; known: {known}")
        from .workloads import available_workloads

        known_workloads = available_workloads()
        for name in self.workloads:
            if name not in known_workloads:
                raise ValueError(
                    f"unknown workload {name!r}; "
                    f"known: {', '.join(known_workloads)}")
        for name in self.methods:
            method_factory(name)  # readable registry ValueError
        if not isinstance(self.cluster_jobs, int) or self.cluster_jobs < 0:
            raise ValueError(
                f"cluster_jobs must be an integer >= 0, "
                f"got {self.cluster_jobs!r}")
        if self.jobs is not None and (
                not isinstance(self.jobs, int) or self.jobs < 0):
            raise ValueError(
                f"jobs must be an integer >= 0 or None, got {self.jobs!r}")

    # -- serialisation -----------------------------------------------------

    def to_payload(self) -> dict:
        """A plain-JSON rendering (the service's wire format)."""
        return {
            "kind": self.kind,
            "workloads": list(self.workloads),
            "methods": list(self.methods),
            "design": self.design,
            "cluster_jobs": self.cluster_jobs,
            "jobs": self.jobs,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RunRequest":
        """The inverse of :meth:`to_payload`, with readable errors."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"request payload must be a JSON object, "
                f"got {type(payload).__name__}")
        known = {"kind", "workloads", "methods", "design",
                 "cluster_jobs", "jobs"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown request field(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}")
        return cls(**{name: payload[name] for name in known
                      if name in payload})

    def fingerprint(self) -> str:
        """Content hash of the request plus the code version.

        Two requests share a fingerprint exactly when they are
        guaranteed to produce byte-identical payloads, which makes the
        fingerprint a safe result-cache key.
        `jobs` cannot change results and is excluded.  A sharded run
        is not the serial walk: its shards start clusters from
        reconstruction-only state, so its IPCs differ.  The fingerprint
        therefore carries whether the run shards: the effective
        cluster-job count is above 1 and at least one of its methods is
        :attr:`~.warmup.base.WarmupMethod.shardable`, as a cell key's
        ``+shards`` does; how many workers shard a run does not matter.
        A ``matrix`` request resolves its own `cluster_jobs`; ``sample``
        and ``audit`` requests run :func:`simulate`, which reads
        ``REPRO_CLUSTER_JOBS`` (``repro serve --cluster-jobs N`` exports
        it).  The ambient checkpoint store (``REPRO_CHECKPOINT_STORE``)
        is absent because store hits materialise exactly what a live
        Phase A scan would produce — the payload is byte-identical
        either way.
        """
        identity = self.to_payload()
        identity.pop("jobs")
        cluster_jobs = identity.pop("cluster_jobs")
        if self.kind != "matrix":
            cluster_jobs = None
        identity["sharded"] = resolve_cluster_jobs(cluster_jobs) > 1 and any(
            resolve_method(name).shardable
            for name in self.resolved_methods())
        identity["code"] = code_version()
        return digest_key(identity)

    def cache_key(self) -> str:
        return f"request-{self.fingerprint()}"

    def resolved_workloads(self) -> tuple:
        return self.workloads or tuple(PAPER_WORKLOADS)

    def resolved_methods(self) -> tuple:
        """The concrete method-name suite for this request's kind."""
        if self.methods:
            return self.methods
        if self.kind == "matrix":
            from .warmup import paper_method_names

            return tuple(paper_method_names())
        return ("S$BP", "R$BP (100%)")


@dataclass(frozen=True)
class RunResult:
    """The outcome of one :class:`RunRequest`.

    `payload` is plain JSON data whose shape depends on the request
    kind (see :func:`execute_request`); it is deterministic for a given
    request and code version, so `cached` results compare equal to
    freshly computed ones.  `wall_seconds` measures this call (near
    zero for cache hits).
    """

    request: RunRequest
    payload: dict
    cached: bool = False
    wall_seconds: float = 0.0

    def to_payload(self) -> dict:
        return {
            "request": self.request.to_payload(),
            "payload": self.payload,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
        }


def _sample_rows(request: RunRequest) -> list[dict]:
    rows = []
    for workload_name in request.resolved_workloads():
        true_run = true_run_for(workload_name, SCALES[request.design])
        for method_name in request.resolved_methods():
            run = simulate(
                workload_name, method=method_name, design=request.design,
            )
            rows.append({
                "workload": workload_name,
                "method": run.method_name,
                "true_ipc": true_run.ipc,
                "estimated_ipc": run.estimate.mean,
                "std_error": run.estimate.std_error,
                "ci_halfwidth": run.estimate.error_bound,
                "relative_error": run.relative_error(true_run.ipc),
                "ci_pass": run.passes_confidence_test(true_run.ipc),
                "cluster_ipcs": list(run.cluster_ipcs),
                "cost": run.cost.as_dict(),
            })
    return rows


def _matrix_rows(request: RunRequest, *, cache=None,
                 progress=None) -> list[dict]:
    from .harness.export import matrix_rows

    grid = run_matrix(
        methods=request.methods or None,
        workloads=request.resolved_workloads(),
        design=request.design,
        jobs=request.jobs,
        cache=cache if cache is not None else "off",
        progress=progress,
        cluster_jobs=request.cluster_jobs,
    )
    rows = []
    for row in matrix_rows(grid):
        rows.append({key: value for key, value in row.items()
                     if key not in _TIMING_COLUMNS})
    return rows


def _audit_reports(request: RunRequest) -> dict:
    import os

    from .harness.export import audit_to_json
    from .telemetry import Telemetry, merge_snapshots

    saved = os.environ.get("REPRO_AUDIT")
    reports = {}
    try:
        os.environ["REPRO_AUDIT"] = "1"
        for workload_name in request.resolved_workloads():
            snapshots = []
            for method_name in request.resolved_methods():
                run = simulate(workload_name, method=method_name,
                               design=request.design, telemetry=Telemetry)
                snapshots.append(run.extra.get("telemetry"))
            merged = merge_snapshots(snapshots)
            reports[workload_name] = json.loads(audit_to_json(merged))
    finally:
        if saved is None:
            os.environ.pop("REPRO_AUDIT", None)
        else:
            os.environ["REPRO_AUDIT"] = saved
    return reports


def execute_request(request: RunRequest, *, cache=None,
                    progress=None) -> RunResult:
    """Execute one :class:`RunRequest` and return its :class:`RunResult`.

    This is the simulation service's execution path, and inline calls
    take the same one.  `cache` (a :class:`~repro.store.CheckpointStore`,
    a directory path, or ``None`` for the ``REPRO_RESULT_CACHE``
    default) is read through first: a hit returns the stored payload
    without re-running anything — in particular without re-entering
    Phase B — and a miss stores the fresh payload under the request's
    content-addressed :meth:`~RunRequest.cache_key`.
    """
    start = time.perf_counter()
    cache = resolve_store(cache, layer="results")
    key = request.cache_key()
    if cache is not None:
        hit = cache.get(key, "results", validate=lambda value: (
            None if isinstance(value, dict)
            and value.get("kind") == request.kind
            else f"not a {request.kind} payload"))
        if hit is not None:
            return RunResult(request=request, payload=hit, cached=True,
                             wall_seconds=time.perf_counter() - start)
    if request.kind == "sample":
        payload = {"kind": "sample", "design": request.design,
                   "rows": _sample_rows(request)}
    elif request.kind == "matrix":
        payload = {"kind": "matrix", "design": request.design,
                   "rows": _matrix_rows(request, cache=cache,
                                        progress=progress)}
    else:
        payload = {"kind": "audit", "design": request.design,
                   "reports": _audit_reports(request)}
    if cache is not None:
        cache.put(key, payload, "results")
    return RunResult(request=request, payload=payload, cached=False,
                     wall_seconds=time.perf_counter() - start)
