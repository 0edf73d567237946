"""The serving tier: a long-lived, job-oriented anonymization service.

This package turns the one-shot anonymize → attack → FRED pipeline into a
production-shaped service:

* :mod:`repro.service.core` — the thread-safe service façade: a dataset
  registry keyed by content fingerprint, memoized releases / attack runs /
  FRED sweeps, asynchronous job execution, and incremental appends
  (``POST /append/<fingerprint>``) that chain the content fingerprint and
  invalidate exactly the superseded cache entries;
* :mod:`repro.service.cache` — the two-tier (LRU + disk-spill) result cache
  with single-flight computation, the mechanism behind exactly-once work
  under concurrent identical requests;
* :mod:`repro.service.codec` — the one on-disk format, the array-native
  ``.npc`` container: cached artifacts serialize as a JSON manifest plus
  aligned column buffers and load back as zero-copy views over one memory
  mapping;
* :mod:`repro.service.jobs` — the bounded worker pool running FRED sweeps
  as pollable jobs;
* :mod:`repro.service.http` — the stdlib JSON/HTTP front end
  (``repro serve`` on the command line): one process, a thread per
  connection, with chunked streaming of large release bodies.
"""

from repro.service.cache import TwoTierCache
from repro.service.core import ALGORITHMS, AnonymizationService, ReleaseArtifact
from repro.service.http import ServiceServer, build_server
from repro.service.jobs import Job, JobManager

__all__ = [
    "ALGORITHMS",
    "AnonymizationService",
    "ReleaseArtifact",
    "TwoTierCache",
    "Job",
    "JobManager",
    "ServiceServer",
    "build_server",
]
