"""Service and API-facade tests: submit → wait → result round trips.

Covers the acceptance bar for the simulation service: a job submitted
over HTTP produces exactly the payload an inline
:func:`repro.api.execute_request` call produces; a repeated request is
served from the content-addressed result cache without re-running
anything (asserted via the service counters); tenants exceeding their
pending-job quota get HTTP 429; and malformed requests get readable
400s.  Also covers the `RunRequest`/`RunResult` facade itself and the
deprecation shim.
"""

import dataclasses
import json
import sys
import threading
import time

import pytest

from repro.api import (
    RunRequest,
    RunResult,
    execute_request,
)
from repro.harness.options import RunOptions
from repro.service import (
    JobRecord,
    JobStore,
    QuotaExceeded,
    ServiceClient,
    ServiceError,
    SimulationService,
)
from repro.service import jobs as jobs_module
from repro.service import server as server_module
from repro.service.jobs import MAX_JOBS
from repro.telemetry import parse_exposition, read_trace

pytestmark = pytest.mark.filterwarnings(
    "ignore::DeprecationWarning")


def _service(tmp_path, **kwargs):
    kwargs.setdefault("options", RunOptions(scale="ci"))
    kwargs.setdefault("cache", str(tmp_path / "cache"))
    kwargs.setdefault("port", 0)
    return SimulationService(**kwargs)


SAMPLE = RunRequest(kind="sample", workloads=("gcc",), methods=("rsr",),
                    design="ci")


class TestRunRequest:
    def test_payload_round_trip(self):
        request = RunRequest(kind="matrix", workloads=("gcc", "twolf"),
                             methods=("rsr", "smarts"), design="ci",
                             jobs=2)
        clone = RunRequest.from_payload(
            json.loads(json.dumps(request.to_payload())))
        assert clone == request
        assert clone.fingerprint() == request.fingerprint()

    def test_fingerprint_ignores_execution_knobs(self):
        base = RunRequest(kind="sample", workloads=("gcc",), design="ci")
        tuned = RunRequest(kind="sample", workloads=("gcc",), design="ci",
                           jobs=8, cluster_jobs=4)
        assert base.fingerprint() == tuned.fingerprint()

    def test_matrix_fingerprint_separates_sharded_from_serial(
            self, monkeypatch):
        # A sharded matrix starts clusters from reconstruction-only
        # state, so its rows differ from the serial walk's.
        serial = RunRequest(kind="matrix", workloads=("gcc",),
                            methods=("R$BP (20%)",), design="ci")
        sharded = dataclasses.replace(serial, cluster_jobs=2)
        assert serial.cache_key() != sharded.cache_key()
        # Whether it is sharded counts; how many workers and jobs do not.
        assert dataclasses.replace(
            serial, cluster_jobs=4, jobs=3).fingerprint() == \
            sharded.fingerprint()
        assert dataclasses.replace(serial, jobs=8).fingerprint() == \
            serial.fingerprint()
        # 0 is one worker per CPU.
        monkeypatch.setattr("repro.harness.options.available_cpus",
                            lambda: 2)
        assert dataclasses.replace(serial, cluster_jobs=0).fingerprint() \
            == sharded.fingerprint()

    @pytest.mark.parametrize("kind", ("sample", "audit"))
    def test_fingerprint_follows_the_ambient_cluster_jobs(self, kind,
                                                          monkeypatch):
        # ``sample`` and ``audit`` run simulate(), which shards when
        # REPRO_CLUSTER_JOBS (exported by serve --cluster-jobs) is above 1.
        request = RunRequest(kind=kind, workloads=("gcc",),
                             methods=("R$BP (20%)",), design="ci")
        monkeypatch.delenv("REPRO_CLUSTER_JOBS", raising=False)
        serial = request.fingerprint()
        monkeypatch.setenv("REPRO_CLUSTER_JOBS", "1")
        assert request.fingerprint() == serial
        monkeypatch.setenv("REPRO_CLUSTER_JOBS", "2")
        sharded = request.fingerprint()
        assert sharded != serial
        monkeypatch.setenv("REPRO_CLUSTER_JOBS", "4")
        assert request.fingerprint() == sharded

    def test_unshardable_matrix_keys_as_serial(self):
        # S$BP warms continuously and always runs the serial walk, so a
        # cluster-job count above 1 leaves its payload unchanged.
        serial = RunRequest(kind="matrix", workloads=("gcc",),
                            methods=("S$BP",), design="ci")
        assert dataclasses.replace(serial, cluster_jobs=2).fingerprint() \
            == serial.fingerprint()

    def test_unshardable_sample_keys_as_serial(self, monkeypatch):
        sample = RunRequest(kind="sample", workloads=("gcc",),
                            methods=("S$BP",), design="ci")
        monkeypatch.delenv("REPRO_CLUSTER_JOBS", raising=False)
        alone = sample.fingerprint()
        monkeypatch.setenv("REPRO_CLUSTER_JOBS", "2")
        assert sample.fingerprint() == alone

    def test_one_shardable_method_keys_as_sharded(self, monkeypatch):
        serial = RunRequest(kind="matrix", workloads=("gcc",),
                            methods=("R$BP (20%)", "S$BP"), design="ci")
        assert dataclasses.replace(serial, cluster_jobs=2).fingerprint() \
            != serial.fingerprint()
        sample = dataclasses.replace(serial, kind="sample")
        monkeypatch.delenv("REPRO_CLUSTER_JOBS", raising=False)
        alone = sample.fingerprint()
        monkeypatch.setenv("REPRO_CLUSTER_JOBS", "2")
        assert sample.fingerprint() != alone

    def test_fingerprint_differs_by_content(self):
        a = RunRequest(kind="sample", workloads=("gcc",), design="ci")
        b = RunRequest(kind="sample", workloads=("twolf",), design="ci")
        assert a.fingerprint() != b.fingerprint()

    @pytest.mark.parametrize("bad", [
        {"kind": "explode"},
        {"workloads": ["nope"]},
        {"methods": ["not-a-method"]},
        {"design": "galactic"},
        {"source": "sideways"},
        {"cluster_jobs": -1},
        {"jobs": -2},
        {"surprise": 1},
    ])
    def test_bad_payloads_raise_readably(self, bad):
        with pytest.raises(ValueError):
            RunRequest.from_payload(bad)

    def test_design_defaults_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert RunRequest(kind="sample").design == "ci"

    def test_default_suites(self):
        assert RunRequest(kind="sample", design="ci").resolved_methods() \
            == ("S$BP", "R$BP (100%)")
        assert len(RunRequest(kind="matrix",
                              design="ci").resolved_methods()) == 16


class TestExecuteRequest:
    def test_serial_matrix_is_not_served_a_sharded_payload(self, tmp_path):
        serial = RunRequest(kind="matrix", workloads=("gcc",),
                            methods=("R$BP (20%)",), design="ci", jobs=1)
        sharded = dataclasses.replace(serial, cluster_jobs=2)
        first = execute_request(sharded, cache=str(tmp_path))
        second = execute_request(serial, cache=str(tmp_path))
        assert not second.cached
        assert [row["sharded"] for row in first.payload["rows"]] == [True]
        assert [row["sharded"] for row in second.payload["rows"]] == [False]

    def test_serial_sample_is_not_served_a_sharded_payload(
            self, tmp_path, monkeypatch):
        request = RunRequest(kind="sample", workloads=("gcc",),
                             methods=("R$BP (20%)",), design="ci")
        monkeypatch.setenv("REPRO_CLUSTER_JOBS", "2")
        first = execute_request(request, cache=str(tmp_path))
        monkeypatch.delenv("REPRO_CLUSTER_JOBS")
        second = execute_request(request, cache=str(tmp_path))
        assert not second.cached
        assert second.payload["rows"][0]["estimated_ipc"] != \
            first.payload["rows"][0]["estimated_ipc"]

    def test_cache_read_through(self, tmp_path):
        first = execute_request(SAMPLE, cache=str(tmp_path))
        second = execute_request(SAMPLE, cache=str(tmp_path))
        assert not first.cached and second.cached
        assert second.payload == first.payload

    def test_payload_is_deterministic_in_process_and_in_pool(self):
        """jobs=1 runs the cells in process, jobs=2 in a process pool."""
        request = RunRequest(kind="matrix", workloads=("gcc",),
                             methods=("rsr", "smarts"), design="ci")
        payloads = [
            execute_request(dataclasses.replace(request, jobs=jobs),
                            cache="off").payload
            for jobs in (1, 2)
        ]
        blobs = {json.dumps(p, sort_keys=True) for p in payloads}
        assert len(blobs) == 1

    def test_audit_payload_has_reports(self):
        request = RunRequest(kind="audit", workloads=("gcc",),
                             methods=("rsr",), design="ci")
        result = execute_request(request, cache="off")
        report = result.payload["reports"]["gcc"]
        assert {"summary", "clusters"} <= set(report)


class TestServiceRoundTrip:
    @pytest.mark.parametrize("workload", ["gcc", "mcf"])
    @pytest.mark.parametrize("recorded", [False, True],
                             ids=["off", "traced"])
    def test_result_matches_inline_exactly(self, tmp_path, recorded,
                                           workload):
        """Recording is stamp-and-append: with the record file on or
        off, the job's payload is the inline one, with no run_id."""
        request = dataclasses.replace(SAMPLE, workloads=(workload,))
        inline = execute_request(request, cache="off")
        trace = str(tmp_path / "trace.jsonl") if recorded else None
        options = RunOptions(scale="ci", trace=trace)
        with _service(tmp_path, options=options) as service:
            client = ServiceClient(service.url)
            remote = client.run(request)
        assert remote.payload == inline.payload
        assert "run_id" not in json.dumps(remote.payload)
        assert remote.request == request
        assert not remote.cached

    def test_repeat_served_from_cache_without_rerun(self, tmp_path):
        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            first = client.run(SAMPLE)
            second = client.run(SAMPLE)
            stats = client.stats()
        assert not first.cached and second.cached
        assert second.payload == first.payload
        # The counters prove the second job never re-entered execution.
        assert stats["counters"]["executed"] == 1
        assert stats["counters"]["cache_hits"] == 1
        assert stats["counters"]["jobs_completed"] == 2

    def test_job_status_progression(self, tmp_path):
        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            job_id = client.submit(SAMPLE)
            client.result(job_id)
            status = client.status(job_id)
        assert status["state"] == "done"
        assert status["job_id"] == job_id
        assert status["finished_at"] >= status["submitted_at"]

    def test_health_and_stats(self, tmp_path):
        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            health = client.health()
            stats = client.stats()
        assert health["status"] == "ok"
        assert health["version"]
        assert health["uptime_seconds"] >= 0
        assert health["queue_depth"] == 0
        assert set(stats) == {"counters", "jobs", "options"}
        assert set(stats["jobs"]) == {"queued", "running", "done",
                                      "failed"}


class TestJobStoreCapacity:
    """The store keeps at most MAX_JOBS records; finished ones make room
    (no simulation runs: the records are marked by hand)."""

    def test_finished_jobs_make_room(self):
        store = JobStore()
        for index in range(MAX_JOBS):
            record = store.submit(f"tenant-{index % 8}", SAMPLE)
            store.mark_done(record.job_id, None)
        fresh = store.submit("fresh", SAMPLE)
        assert fresh.state == "queued"
        assert store.get("job-000001") is None
        assert store.get("job-000002") is not None
        assert sum(store.counts().values()) == MAX_JOBS

    def test_pending_count_exact_through_the_lifecycle(self):
        """The per-tenant count the quota reads follows queued -> running
        -> done/failed exactly, and equals a scan of the records."""
        store = JobStore(max_pending_per_tenant=2)

        def scanned():
            counts = {}
            for job in store._jobs.values():
                if job.state in ("queued", "running"):
                    counts[job.tenant] = counts.get(job.tenant, 0) + 1
            return counts

        first = store.submit("a", SAMPLE)
        second = store.submit("a", SAMPLE)
        other = store.submit("b", SAMPLE)
        assert store._pending == scanned() == {"a": 2, "b": 1}
        store.mark_running(first.job_id)
        assert store._pending == scanned() == {"a": 2, "b": 1}
        with pytest.raises(QuotaExceeded) as refused:
            store.submit("a", SAMPLE)
        assert str(refused.value) == (
            "tenant 'a' has 2 pending job(s), the maximum; wait for one "
            "to finish before submitting more")
        store.mark_done(first.job_id, None)
        assert store._pending == scanned() == {"a": 1, "b": 1}
        third = store.submit("a", SAMPLE)
        store.mark_running(second.job_id)
        store.mark_failed(second.job_id, "boom")
        store.mark_failed(other.job_id, "boom")
        assert store._pending == scanned() == {"a": 1}
        store.mark_done(third.job_id, None)
        assert store._pending == scanned() == {}

    def test_oldest_finished_submission_is_evicted(self):
        """Eviction follows submission order, not finishing order."""
        store = JobStore(max_pending_per_tenant=MAX_JOBS)
        records = [store.submit("t", SAMPLE) for _ in range(MAX_JOBS)]
        store.mark_done(records[7].job_id, None)
        store.mark_failed(records[3].job_id, "boom")
        store.submit("t", SAMPLE)
        assert store.get(records[3].job_id) is None
        assert store.get(records[7].job_id) is not None
        store.submit("u", SAMPLE)
        assert store.get(records[7].job_id) is None
        with pytest.raises(QuotaExceeded,
                           match=f"holds {MAX_JOBS} pending jobs, its limit"):
            store.submit("u", SAMPLE)

    def test_store_full_of_pending_jobs_names_its_limit(self):
        store = JobStore(max_pending_per_tenant=MAX_JOBS)
        for _ in range(MAX_JOBS):
            store.submit("busy", SAMPLE)
        with pytest.raises(QuotaExceeded,
                           match=f"holds {MAX_JOBS} pending jobs, its limit"):
            store.submit("fresh", SAMPLE)


class TestJobStoreCounts:
    """The per-state counts the gauges read (no simulation runs)."""

    def test_state_counts_exact_through_the_lifecycle(self, monkeypatch):
        """Submit, running, done, failed and eviction keep `counts()`,
        `queue_depth()` and `running_count()` equal to a scan."""
        monkeypatch.setattr(jobs_module, "MAX_JOBS", 4)
        store = JobStore(max_pending_per_tenant=4)

        def check():
            scanned = dict.fromkeys(("queued", "running", "done",
                                     "failed"), 0)
            for job in store._jobs.values():
                scanned[job.state] += 1
            assert store.counts() == scanned
            assert store.queue_depth() == scanned["queued"]
            assert store.running_count() == scanned["running"]
            return scanned

        records = [store.submit("t", SAMPLE) for _ in range(4)]
        assert check() == {"queued": 4, "running": 0, "done": 0,
                           "failed": 0}
        store.mark_running(records[0].job_id)
        store.mark_running(records[1].job_id)
        assert check()["running"] == 2
        store.mark_done(records[0].job_id, None)
        store.mark_failed(records[1].job_id, "boom")
        store.mark_failed(records[2].job_id, "boom")  # never started
        assert check() == {"queued": 1, "running": 0, "done": 1,
                           "failed": 2}
        store.submit("t", SAMPLE)  # evicts the done job-000001
        assert store.get(records[0].job_id) is None
        assert check() == {"queued": 2, "running": 0, "done": 0,
                           "failed": 2}
        store.submit("t", SAMPLE)  # evicts the failed job-000002
        assert check() == {"queued": 3, "running": 0, "done": 0,
                           "failed": 1}


    def test_counts_and_waits_hold_under_thread_races(self):
        """Writers move jobs through every state while readers wait on
        them and read the gauges; no update is lost and every wait
        ends."""
        store = JobStore(max_pending_per_tenant=1000)
        errors = []

        def writer(tenant):
            for index in range(150):
                job = store.submit(tenant, SAMPLE).job_id
                store.mark_running(job)
                if index % 3:
                    store.mark_done(job, None)
                else:
                    store.mark_failed(job, "boom")

        def reader():
            for index in range(300):
                job = store.wait(f"job-{index + 1:06d}", 0.001)
                if job is not None and job.state == "failed" \
                        and job.error is None:
                    errors.append(job.job_id)
                counts = store.counts()
                if min(counts.values()) < 0:
                    errors.append(counts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(f"t{i}",))
                       for i in range(6)]
            threads += [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.counts() == {"queued": 0, "running": 0,
                                  "done": 600, "failed": 300}
        assert store._pending == {}


class TestOutcomeBeforeState:
    """A `GET /results` reads the record without the store lock, so a
    reader that runs the instant the worker writes a final state must
    find the outcome that state announces."""

    RESULT = RunResult(request=SAMPLE, payload={"rows": []})

    @pytest.mark.parametrize("final", ["done", "failed"])
    def test_reader_at_the_state_write_sees_the_outcome(
            self, monkeypatch, final):
        seen = []

        class Observed(JobRecord):
            def __setattr__(self, name, value):
                object.__setattr__(self, name, value)
                if name == "state" and value == final:
                    # What a concurrent reader would read right now;
                    # a reader that dies is recorded, not raised.
                    seen.append((self.result, self.error))
                    try:
                        seen.append(server_module.result_response(self))
                    except Exception as exc:  # noqa: BLE001
                        seen.append(exc)

        monkeypatch.setattr(jobs_module, "JobRecord", Observed)
        store = JobStore()
        record = store.submit("t", SAMPLE)
        store.mark_running(record.job_id)
        if final == "done":
            store.mark_done(record.job_id, self.RESULT)
            assert seen == [(self.RESULT, None),
                            (200, self.RESULT.to_payload())]
        else:
            store.mark_failed(record.job_id, "RuntimeError: boom")
            assert seen == [(None, "RuntimeError: boom"),
                            (500, {"job_id": record.job_id,
                                   "state": "failed",
                                   "error": "RuntimeError: boom"})]


def _idle_service(tmp_path, monkeypatch, **kwargs):
    """A service whose worker never takes a job: submissions stay
    queued, so a result request can only end by its wait."""
    service = _service(tmp_path, **kwargs)
    monkeypatch.setattr(service, "_worker_loop", lambda: None)
    return service


def _result_requests(client) -> float:
    """`GET /results/{id}` requests the service has answered."""
    samples = parse_exposition(client.metrics())[
        "repro_http_requests_total"]["samples"]
    return sum(value for _, labels, value in samples
               if labels["route"] == "/results/{id}")


class TestResultWait:
    """``GET /results/<id>?wait=`` holds the answer until the job
    finishes or the wait runs out."""

    def test_one_request_per_job(self, tmp_path):
        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            client.run(SAMPLE)
            client.run(SAMPLE)
            assert _result_requests(client) == 2

    def test_parse_wait(self):
        parse = server_module.parse_wait
        cap = server_module.MAX_RESULT_WAIT_SECONDS
        assert parse("") == 0.0
        assert parse("x=1") == 0.0
        assert parse("wait=0.25") == 0.25
        assert parse("wait=0") == 0.0
        assert parse(f"wait={cap * 100}") == cap

    @pytest.mark.parametrize("value", ["soon", "", "-1", "nan", "inf",
                                       "-inf", "1e999"])
    def test_bad_wait_is_400_naming_wait(self, tmp_path, monkeypatch,
                                         value):
        with _idle_service(tmp_path, monkeypatch) as service:
            client = ServiceClient(service.url)
            job_id = client.submit(SAMPLE)
            with pytest.raises(ServiceError) as excinfo:
                client._call(f"/results/{job_id}?wait={value}")
        assert excinfo.value.status == 400
        assert "wait" in excinfo.value.payload["error"]

    def test_wait_above_the_cap_is_clamped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_RESULT_WAIT_SECONDS", 0.3)
        with _idle_service(tmp_path, monkeypatch) as service:
            client = ServiceClient(service.url)
            job_id = client.submit(SAMPLE)
            started = time.monotonic()
            status, payload = client._call(
                f"/results/{job_id}?wait=3600", expect=(202,))
            held = time.monotonic() - started
        assert payload == {"job_id": job_id, "state": "queued"}
        assert 0.25 <= held < 10

    def test_unknown_job_with_wait_is_404_at_once(self, tmp_path,
                                                  monkeypatch):
        with _idle_service(tmp_path, monkeypatch) as service:
            client = ServiceClient(service.url)
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client._call("/results/job-999999?wait=30")
            assert time.monotonic() - started < 5
        assert excinfo.value.status == 404
        assert "job-999999" in excinfo.value.payload["error"]

    def test_query_string_is_not_part_of_the_job_id(self, tmp_path,
                                                    monkeypatch):
        with _idle_service(tmp_path, monkeypatch) as service:
            client = ServiceClient(service.url)
            job_id = client.submit(SAMPLE)
            _, result = client._call(f"/results/{job_id}?x=1",
                                     expect=(202,))
            _, status = client._call(f"/jobs/{job_id}?x=1")
        assert result == {"job_id": job_id, "state": "queued"}
        assert status["job_id"] == job_id

    def test_finished_job_answers_without_holding(self, tmp_path):
        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            job_id = client.submit(SAMPLE)
            client.result(job_id)
            started = time.monotonic()
            status, _ = client._call(f"/results/{job_id}?wait=30")
            assert time.monotonic() - started < 5
        assert status == 200


class TestServiceRejections:
    def test_quota_rejection_is_429(self, tmp_path):
        # Unstarted worker: jobs stay queued, so the quota fills.
        service = _service(tmp_path, max_pending_per_tenant=2)
        for _ in range(2):
            service.submit("tenant-a", SAMPLE)
        with pytest.raises(QuotaExceeded):
            service.submit("tenant-a", SAMPLE)
        # Other tenants are unaffected.
        service.submit("tenant-b", SAMPLE)
        tenants = [job.tenant for job in service.store._jobs.values()]
        assert tenants.count("tenant-a") == 2

    def test_quota_rejection_over_http(self, tmp_path):
        with _service(tmp_path, max_pending_per_tenant=1) as service:
            client = ServiceClient(service.url)
            # A matrix job holds the worker long enough for a second
            # submission to collide with the quota; jobs=1 runs its
            # cells in process.
            slow = RunRequest(kind="matrix", workloads=("gcc", "twolf"),
                              methods=("rsr", "smarts"), design="ci",
                              jobs=1)
            job_id = client.submit(slow, tenant="quota-tenant")
            with pytest.raises(ServiceError) as excinfo:
                client.submit(SAMPLE, tenant="quota-tenant")
            assert excinfo.value.status == 429
            stats = client.stats()
            assert stats["counters"]["quota_rejections"] == 1
            client.result(job_id)  # drain before shutdown

    def test_malformed_request_is_400(self, tmp_path):
        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceError) as excinfo:
                client._call("/jobs", {"request": {"kind": "explode"}},
                             expect=(202,))
        assert excinfo.value.status == 400
        assert "explode" in str(excinfo.value)

    def test_unknown_job_is_404(self, tmp_path):
        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceError) as excinfo:
                client.status("job-999999")
        assert excinfo.value.status == 404

    def test_unknown_path_is_404(self, tmp_path):
        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            with pytest.raises(ServiceError) as excinfo:
                client._call("/teapot")
        assert excinfo.value.status == 404

    def test_failed_job_reports_error(self, tmp_path, monkeypatch):
        # Force a post-validation execution failure; the worker must
        # survive it and the job must surface the error over HTTP.
        import repro.service.server as server_module

        def explode(request, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(server_module, "execute_request", explode)
        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            job_id = client.submit(SAMPLE)
            with pytest.raises(ServiceError) as excinfo:
                client.result(job_id, timeout=30)
        assert excinfo.value.status == 500
        assert "synthetic failure" in str(excinfo.value)


class TestServiceObservability:
    def test_metrics_is_valid_exposition_with_latency_histograms(
            self, tmp_path):
        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            client.run(SAMPLE)
            client.run(SAMPLE)  # second lands in the result cache
            families = parse_exposition(client.metrics())
        submitted = families["repro_service_jobs_submitted_total"]
        assert submitted["kind"] == "counter"
        assert submitted["samples"][0][2] == 2.0
        assert families["repro_service_cache_hits_total"][
            "samples"][0][2] == 1.0
        assert families["repro_service_queue_depth"]["samples"][0][2] == 0.0
        for name in ("repro_job_queue_wait_seconds",
                     "repro_job_run_seconds"):
            hist = families[name]
            assert hist["kind"] == "histogram"
            counts = {tuple(sorted(labels.items())): value
                      for sample, labels, value in hist["samples"]
                      if sample.endswith("_count")}
            assert counts == {(("kind", "sample"),): 2.0}
        info = families["repro_service_info"]["samples"][0][1]
        assert set(info) == {"version"}
        routes = {labels["route"] for _, labels, _
                  in families["repro_http_requests_total"]["samples"]}
        assert {"/jobs", "/results/{id}"} <= routes

    def test_concurrent_metrics_and_jobs_traffic(self, tmp_path):
        # Scrapes racing submissions must always parse: histograms are
        # rendered from copies taken under the metrics lock, so a
        # half-applied observe can never tear _count away from +Inf.
        failures = []

        def scrape(client):
            for _ in range(8):
                try:
                    parse_exposition(client.metrics())
                except (ValueError, ServiceError) as exc:
                    failures.append(exc)

        with _service(tmp_path) as service:
            client = ServiceClient(service.url)
            scrapers = [threading.Thread(target=scrape, args=(client,))
                        for _ in range(3)]
            for thread in scrapers:
                thread.start()
            job_ids = [client.submit(SAMPLE) for _ in range(3)]
            for job_id in job_ids:
                client.result(job_id)
            for thread in scrapers:
                thread.join()
        assert failures == []

    def test_access_and_job_records_land_in_the_trace_file(self,
                                                           tmp_path):
        trace = tmp_path / "trace.jsonl"
        options = RunOptions(scale="ci", trace=str(trace))
        with _service(tmp_path, options=options) as service:
            client = ServiceClient(service.url)
            client.run(SAMPLE, tenant="observer")
            client.health()
        records = read_trace(str(trace))
        access = [r for r in records if r["type"] == "access"]
        jobs = [r for r in records if r["type"] == "job"]
        assert not any("log" in record for record in records)
        assert {record["state"] for record in jobs} == \
            {"queued", "running", "done"}
        done = next(r for r in jobs if r["state"] == "done")
        assert done["tenant"] == "observer"
        assert done["kind"] == "sample"
        assert done["run_id"].startswith("r")
        assert done["run_seconds"] >= 0
        running = next(r for r in jobs if r["state"] == "running")
        assert running["queue_wait_seconds"] >= 0
        post = next(r for r in access
                    if r["route"] == "/jobs" and r["method"] == "POST")
        assert post["status"] == 202
        assert post["tenant"] == "observer"
        assert post["run_id"] == done["run_id"]
        assert post["duration_ms"] >= 0
        result_records = [r for r in access
                          if r["route"] == "/results/{id}"]
        assert result_records and all(
            r["run_id"] == done["run_id"] for r in result_records)
        assert any(r["route"] == "/healthz" for r in access)

    def test_trace_file_has_one_clock(self, tmp_path):
        """`ts` means nanoseconds on a run's timeline in every record
        that has one; the service's records carry epoch seconds in
        `epoch_s` instead, so one job's file orders sensibly by `ts`."""
        trace = tmp_path / "trace.jsonl"
        options = RunOptions(scale="ci", trace=str(trace))
        with _service(tmp_path, options=options) as service:
            client = ServiceClient(service.url)
            job_id = client.submit(SAMPLE)
            client.result(job_id)
            run_id = client.status(job_id)["run_id"]
        records = read_trace(str(trace))
        assert {record["type"] for record in records if "ts" in record} \
            <= {"span", "counter", "run_start", "run_end", "cell"}
        service_records = [record for record in records
                           if record["type"] in ("access", "job")]
        assert service_records
        assert all("epoch_s" in record and "ts" not in record
                   for record in service_records)
        timeline = [record["type"] for record in sorted(
            (record for record in records
             if "ts" in record and record.get("run_id") == run_id),
            key=lambda record: record["ts"])]
        spans = [index for index, kind in enumerate(timeline)
                 if kind == "span"]
        assert spans
        assert timeline.index("run_start") < spans[0]
        assert timeline.index("run_end") > spans[-1]

    @pytest.mark.parametrize("trace", [None, "1"])
    def test_service_records_off_without_a_trace_path(
            self, tmp_path, monkeypatch, trace):
        monkeypatch.chdir(tmp_path)
        options = RunOptions(scale="ci", trace=trace)
        with _service(tmp_path, options=options) as service:
            assert not service.log.enabled
            ServiceClient(service.url).run(SAMPLE)
        assert {path.name for path in tmp_path.iterdir()} <= {"cache"}

    def test_service_records_failure_warns_once(self, tmp_path, capsys):
        from repro.service import ServiceLog

        log = ServiceLog(str(tmp_path))  # a directory: appends fail
        log.write("access", status=200)
        log.write("access", status=200)
        err = capsys.readouterr().err
        assert err.count("cannot append service records") == 1

    def test_run_id_joins_service_and_run_records(self, tmp_path):
        # The acceptance grep: one id stamped by the service joins its
        # access and job records and the run, cluster and span records
        # of the REPRO_TRACE file, spans included from the pool worker
        # processes of the sharded execution.
        trace = tmp_path / "trace.jsonl"
        options = RunOptions(scale="ci", cluster_jobs=2, trace=str(trace))
        with _service(tmp_path, options=options) as service:
            client = ServiceClient(service.url)
            job_id = client.submit(SAMPLE)
            run_id = client.status(job_id)["run_id"]
            client.result(job_id)
            assert client.status(job_id)["run_id"] == run_id
        records = [record for record in read_trace(str(trace))
                   if record.get("run_id") == run_id]
        assert {"access", "job", "run_start", "run_end", "cluster",
                "span"} <= {record["type"] for record in records}
        span_pids = {record["pid"] for record in records
                     if record["type"] == "span"}
        assert len(span_pids) >= 2  # worker processes joined the story

    def test_repeated_start_stop_joins_http_thread(self, tmp_path):
        service = _service(tmp_path)
        for _ in range(2):
            service.start()
            http_thread = service._http_thread
            assert http_thread.is_alive()
            service.stop()
            assert not http_thread.is_alive()
            assert service._http_thread is None
            assert service._worker is None

    def test_write_response_tolerates_gone_client(self):
        from repro.service.server import write_response

        class _Gone:
            close_connection = False

            def send_response(self, status):
                raise BrokenPipeError("client went away")

        handler = _Gone()
        assert write_response(handler, 200, b"{}", "application/json") \
            is False
        assert handler.close_connection is True

        class _Wire:
            class wfile:
                body = b""

                @classmethod
                def write(cls, data):
                    cls.body = data

            def __init__(self):
                self.headers = []

            def send_response(self, status):
                self.status = status

            def send_header(self, key, value):
                self.headers.append((key, value))

            def end_headers(self):
                pass

        wire = _Wire()
        assert write_response(wire, 200, b"ok", "text/plain") is True
        assert wire.status == 200
        assert ("Content-Length", "2") in wire.headers
        assert wire.wfile.body == b"ok"


class TestRunOptions:
    def test_reads_and_validates_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        monkeypatch.setenv("REPRO_MATRIX_JOBS", "3")
        monkeypatch.setenv("REPRO_AUDIT", "1")
        options = RunOptions.from_env()
        assert options.scale == "ci"
        assert options.matrix_jobs == 3
        assert options.audit is True

    @pytest.mark.parametrize("name,value,fragment", [
        ("REPRO_EXPERIMENT_SCALE", "galactic", "REPRO_EXPERIMENT_SCALE"),
        ("REPRO_MATRIX_JOBS", "many", "REPRO_MATRIX_JOBS"),
        ("REPRO_CLUSTER_JOBS", "-2", "REPRO_CLUSTER_JOBS"),
        ("REPRO_AUDIT", "maybe", "REPRO_AUDIT"),
    ])
    def test_bad_values_name_the_variable(self, monkeypatch, name, value,
                                          fragment):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=fragment):
            RunOptions.from_env()

    @pytest.mark.parametrize("name", [
        "REPRO_TELEMETRY", "REPRO_SPANS", "REPRO_EVENTS",
        "REPRO_SERVICE_LOG"])
    @pytest.mark.parametrize("value", ["1", "spans.jsonl", "kinda"])
    def test_retired_recording_switch_names_repro_trace(
            self, monkeypatch, name, value):
        """REPRO_TRACE replaced the other recording switches: setting
        one fails readably instead of handing back an unrecorded run."""
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=f"{name} is retired.*"
                                             f"REPRO_TRACE"):
            RunOptions.from_env()

    @pytest.mark.parametrize("value", ["", "0", "off"])
    def test_retired_recording_switch_off_is_accepted(self, monkeypatch,
                                                      value):
        clean = RunOptions.from_env()
        for name in ("REPRO_TELEMETRY", "REPRO_SPANS", "REPRO_EVENTS",
                     "REPRO_SERVICE_LOG"):
            monkeypatch.setenv(name, value)
        assert RunOptions.from_env() == clean

    @pytest.mark.parametrize("value", ["0", "off", "turbo"])
    def test_leftover_batch_core_variable_is_ignored(self, monkeypatch,
                                                     value):
        """There is one engine: a stale REPRO_BATCH_CORE, even a value
        the old switch rejected, neither fails nor reaches environ()."""
        monkeypatch.delenv("REPRO_BATCH_CORE", raising=False)
        clean = RunOptions.from_env()
        monkeypatch.setenv("REPRO_BATCH_CORE", value)
        options = RunOptions.from_env()
        assert options == clean
        assert "REPRO_BATCH_CORE" not in options.environ()

    @pytest.mark.parametrize("value", ["pool", "inprocess", "warp"])
    def test_leftover_executor_variable_is_ignored(self, monkeypatch,
                                                   value):
        """There is one fan-out: a stale REPRO_EXECUTOR, even a name the
        old registry rejected, neither fails nor reaches environ()."""
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        clean = RunOptions.from_env()
        monkeypatch.setenv("REPRO_EXECUTOR", value)
        options = RunOptions.from_env()
        assert options == clean
        assert "REPRO_EXECUTOR" not in options.environ()

    def test_overrides_win_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "bench")
        options = RunOptions.from_env(scale="ci", matrix_jobs=2)
        assert options.scale == "ci"
        assert options.matrix_jobs == 2

    def test_none_override_keeps_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "ci")
        assert RunOptions.from_env(scale=None).scale == "ci"

    def test_apply_exports_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        import os

        options = RunOptions(scale="ci", trace="1", audit=False)
        with options.apply():
            assert os.environ["REPRO_EXPERIMENT_SCALE"] == "ci"
            assert os.environ["REPRO_TRACE"] == "1"
            # apply() removes strays the options leave unset.
            assert "REPRO_AUDIT" not in os.environ
        assert os.environ["REPRO_AUDIT"] == "1"
        assert "REPRO_TRACE" not in os.environ

    def test_apply_covers_every_field(self, monkeypatch, tmp_path):
        """apply() exports a variable for every field, restores the
        previous values on exit, and removes the variables of fields a
        run leaves unset."""
        import os
        from dataclasses import fields

        full = RunOptions(
            scale="ci", matrix_jobs=3, cluster_jobs=2,
            result_cache=str(tmp_path / "cache"),
            checkpoint_store=str(tmp_path / "store"),
            trace=str(tmp_path / "trace.jsonl"), audit=True,
            run_id="rfields01",
        )
        assert all(getattr(full, field.name) != field.default
                   for field in fields(RunOptions))
        exported = full.environ()
        assert len(exported) == len(fields(RunOptions))
        previous = {name: f"previous {name}" for name in exported}
        for name, value in previous.items():
            monkeypatch.setenv(name, value)
        with full.apply():
            assert {name: os.environ[name] for name in exported} == exported
            assert RunOptions.from_env() == full
        assert {name: os.environ[name] for name in previous} == previous
        with RunOptions(scale="ci").apply():
            assert [name for name in exported if name in os.environ] == [
                "REPRO_EXPERIMENT_SCALE"]
        assert {name: os.environ[name] for name in previous} == previous

    def test_resolved_jobs(self):
        options = RunOptions(scale="ci", matrix_jobs=5, cluster_jobs=None)
        assert options.resolved_matrix_jobs() == 5
        assert options.resolved_cluster_jobs() == 1
        zero = RunOptions(scale="ci", matrix_jobs=0, cluster_jobs=0)
        assert zero.resolved_matrix_jobs() >= 1
        assert zero.resolved_cluster_jobs() >= 1

    def test_cli_exit_2_on_bad_env(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_AUDIT", "maybe")
        assert main(["workloads"]) == 2
        assert "REPRO_AUDIT" in capsys.readouterr().err
