"""The serving tier: a long-lived, job-oriented anonymization service.

This package turns the one-shot anonymize → attack → FRED pipeline into a
production-shaped service:

* :mod:`repro.service.core` — the thread-safe service façade: a dataset
  registry keyed by content fingerprint, memoized releases / attack runs /
  FRED sweeps, asynchronous job execution, and incremental appends
  (``POST /append/<fingerprint>``) that chain the content fingerprint,
  invalidate exactly the superseded cache entries, and tombstone the old
  fingerprint in the shared store so sibling workers never serve it stale;
* :mod:`repro.service.cache` — the two-tier (LRU + disk-spill) result cache
  with single-flight computation, the mechanism behind exactly-once work
  under concurrent identical requests;
* :mod:`repro.service.codec` — the one on-disk format, the array-native
  ``.npc`` container: cached artifacts and stored datasets serialize as a
  JSON manifest plus aligned column buffers and load back as zero-copy
  views over one shared memory mapping;
* :mod:`repro.service.jobs` — the bounded worker pool running FRED sweeps
  as pollable jobs;
* :mod:`repro.service.jobstore` — the spill-dir-backed shared job records
  (plus owner heartbeats) that make every job pollable from every worker of
  a multi-process front, even after its owner died;
* :mod:`repro.service.http` — the stdlib JSON/HTTP front end
  (``repro serve`` on the command line), single-process threaded or
  multi-process via ``SO_REUSEPORT`` (``workers=N``), with chunked
  streaming of large release bodies.
"""

from repro.service.cache import TwoTierCache
from repro.service.core import (
    ALGORITHMS,
    AnonymizationService,
    ReleaseArtifact,
    ServiceConfig,
)
from repro.service.http import ServiceServer, build_server
from repro.service.jobs import Job, JobManager
from repro.service.jobstore import JobStore

__all__ = [
    "ALGORITHMS",
    "AnonymizationService",
    "ReleaseArtifact",
    "ServiceConfig",
    "TwoTierCache",
    "Job",
    "JobManager",
    "JobStore",
    "ServiceServer",
    "build_server",
]
