"""repro.distributed — queue-backed distributed execution over raw sockets.

The execution layer (:mod:`repro.scenarios.execution`) was designed for
distribution: unit jobs are pure functions of ``(spec, seed)`` with
content-addressed keys, results merge by key, and the
:class:`~repro.scenarios.execution.ExecutionBackend` contract never cares
*where* a job ran.  This package supplies the missing transport — a
dependency-free broker/worker architecture over length-prefixed JSON
frames on TCP or Unix sockets:

- :mod:`repro.distributed.protocol` — the wire format: 4-byte big-endian
  length prefix, UTF-8 JSON dict payload, plus address parsing
  (``host:port`` / ``unix:/path``).
- :mod:`repro.distributed.broker` — ``repro-broker``: a priority job
  queue with lease-based dispatch, worker heartbeats, and per-(key,
  attempt) accounting that reuses :class:`JobPolicy` retry/backoff
  semantics and the :class:`JobFailure` manifest.  A worker that
  disconnects or misses its heartbeats mid-lease gets the job requeued
  *uncharged*; a reported failure charges one attempt and backs off
  deterministically.
- :mod:`repro.distributed.worker` — ``repro-worker``: pulls seed-pinned
  unit jobs, checks a shared RunStore unit cache first (cross-worker
  dedupe/resume), executes through the existing
  :func:`~repro.scenarios.execution.execute_unit` path (fault-injection
  hooks included) and reports metrics keyed by job key.
- :mod:`repro.distributed.backend` — :class:`DistributedBackend`, an
  :class:`ExecutionBackend` that submits a plan to a broker and merges
  streamed completions; byte-identical to ``SerialBackend`` at any
  worker count.
- :mod:`repro.distributed.journal` — the broker's write-ahead journal:
  per-run transition logs under the RunStore directory, in the unit
  cache's checksummed record format with its one torn-data rule (a
  damaged record costs itself and no other), replayed on start so a
  ``kill -9`` mid-run resumes (in-flight leases requeued uncharged,
  settled results re-delivered on client re-attach) and deleted when a
  run retires.

Everything here is transport; no simulation semantics live in this
package, which is why it sits outside the reprolint RL005 purity zone
(wall clocks schedule leases and heartbeats, never metric values).
"""

from repro.distributed.backend import DistributedBackend
from repro.distributed.broker import BrokerQueue, BrokerServer
from repro.distributed.journal import JournalDir, RunJournal
from repro.distributed.protocol import (
    FrameError,
    MAX_FRAME_BYTES,
    parse_address,
    recv_frame,
    send_frame,
    wait_readable,
)
from repro.distributed.worker import Worker

__all__ = [
    "BrokerQueue",
    "BrokerServer",
    "DistributedBackend",
    "FrameError",
    "JournalDir",
    "MAX_FRAME_BYTES",
    "RunJournal",
    "Worker",
    "parse_address",
    "recv_frame",
    "send_frame",
    "wait_readable",
]
