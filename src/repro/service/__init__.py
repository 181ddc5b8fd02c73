"""Long-running simulation service: HTTP job API over the grid driver.

See docs/parallel-execution.md for the deployment walkthrough.  The
package is stdlib-only: ``http.server`` for transport, the
:mod:`repro.api` request/result surface for the wire format, and
:func:`repro.harness.parallel.map_tasks` for fan-out.
"""

from .client import ServiceClient, ServiceError
from .jobs import JOB_STATES, JobRecord, JobStore, QuotaExceeded
from .server import DEFAULT_HOST, DEFAULT_PORT, SimulationService
from .servicelog import (
    NULL_SERVICE_LOG,
    SERVICE_LOG_ENV_VAR,
    ServiceLog,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "JOB_STATES",
    "JobRecord",
    "JobStore",
    "NULL_SERVICE_LOG",
    "QuotaExceeded",
    "SERVICE_LOG_ENV_VAR",
    "ServiceClient",
    "ServiceError",
    "ServiceLog",
    "SimulationService",
]
