"""Campaign service: a long-running job API over the MicroSampler pipeline.

Everything before this package was a one-shot CLI: assemble, simulate,
analyze, exit.  The service turns the same pipeline into shared
infrastructure — ``microsampler serve`` runs an asyncio HTTP/JSON API
(stdlib only, no new runtime dependencies) that accepts
analyze/audit/localize job submissions from many concurrent clients,
orders them on a priority queue, runs each as one library call whose lane
groups go to a persistent crash-tolerant worker pool
(:class:`~repro.sampler.exec_backend.WorkerPool`), and streams progress
and results per job.

The design constraint carried over from every prior backend is
**bit-identity**: a job's report/localization JSON is exactly what the
equivalent one-shot CLI invocation prints.  The mechanism is that a job
*is* the library call the CLI makes, on a sampler whose ``jobs`` is the
job's view of the pool (:class:`~repro.service.jobs.JobPool`); there is
no second planner.  The content-addressed trace cache deduplicates
identical program×input×config work *across* tenants: lane groups
already cached (or in flight for another job) are served without ever
occupying a simulation slot, and a campaign whose report record is
stored replays without a plan.

Modules
-------
``queue``   priority job queue (higher priority first, FIFO within).
``jobs``    job model, lifecycle, the per-job pool view and the
            :class:`JobManager` orchestrator.
``server``  minimal asyncio HTTP/1.1 server exposing the job API.
``client``  asyncio client used by tests and ``microsampler submit``.
"""

from repro.service.client import ServiceClient, ServiceError, submit_and_wait
from repro.service.jobs import (
    Job,
    JobManager,
    JobSpec,
    JobSpecError,
    strip_volatile,
)
from repro.service.queue import PriorityJobQueue
from repro.service.server import ServiceServer

__all__ = [
    "Job",
    "JobManager",
    "JobSpec",
    "JobSpecError",
    "PriorityJobQueue",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "strip_volatile",
    "submit_and_wait",
]
