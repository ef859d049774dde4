"""``repro-worker``: executes leased unit jobs from a broker.

A worker is a thin shell around the existing in-process execution path:
it leases a seed-pinned unit job, rebuilds the
:class:`~repro.scenarios.spec.ScenarioSpec` from the wire, and runs it
through :func:`~repro.scenarios.execution._run_unit_attempt` — the
attempt the serial backend runs, fault-injection hooks and wall-clock
budget included.  The worker only reports how the attempt ended; what a
failure costs is decided broker-side, in the run's
:class:`~repro.scenarios.attempts.AttemptLedger`.  Metrics go back keyed
by the job's content-addressed key, which is all the submitting client
needs to merge byte-identically with a serial run.

Before executing, the worker consults a shared
:class:`~repro.analysis.runstore.RunStore` unit cache when one is
configured (``--runs-dir``): a hit is reported as a completion
without recomputation, giving cross-worker dedupe and resume for free —
two workers pointed at the same store never run the same ``(spec, seed)``
twice across runs.  Fresh metrics are written back to the cache before
they are reported, so the store is never behind the broker.

While a job runs, a daemon thread heartbeats the lease every
``lease_ttl / 3`` seconds and the main thread waits, in one ``select``,
on the connection (for the broker's ``heartbeat-ack`` replies) and on the
worker's wake-up socketpair, to which the attempt thread writes one byte
as it ends.  The watch is event-driven: a finished attempt is reported at
once, not at the next tick of a poll — the select timeout is only a
backstop.  An ack with ``ok=false`` means
the lease was reaped (expired behind a stall, or its run was cancelled):
the worker *abandons* the attempt — a :class:`LeaseRevoked` is injected
into the attempt thread (best-effort; Python threads cannot be killed,
the same caveat :func:`_run_unit_attempt`'s own watchdog carries),
nothing is reported, nothing is written to the cache, and the worker
goes back to leasing instead of finishing a result the broker would
silently drop.  A worker that dies outright simply stops heartbeating
and the broker requeues the job uncharged.

Run as a process::

    repro-worker --broker 127.0.0.1:7480 --runs-dir runs
"""

from __future__ import annotations

import argparse
import ctypes
import os
import socket
import sys
import threading
import time
from typing import Dict, List, Optional

from repro.distributed.protocol import (
    FrameError,
    connect,
    parse_address,
    recv_frame,
    send_frame,
    wait_readable,
)
from repro.scenarios.execution import (
    UnitJob,
    _describe_error,
    _failure_kind,
    _run_unit_attempt,
)
from repro.scenarios.faults import WORKER_PROCESS_ENV
from repro.scenarios.spec import ScenarioSpec

#: Default seconds one lease request waits for a job before re-polling.
DEFAULT_POLL_S = 5.0

#: Default seconds to keep retrying the initial broker connection.
DEFAULT_CONNECT_TIMEOUT_S = 10.0

#: Backstop timeout of the select that watches a running attempt; both
#: things it waits for (a broker frame, the attempt's end) wake it early.
_ACK_POLL_S = 0.2


class LeaseRevoked(BaseException):
    """Injected into an attempt whose lease the broker reaped.

    Derives from :class:`BaseException` so scenario code catching
    ``Exception`` cannot swallow the revocation.
    """


class Worker:
    """One worker loop bound to a broker address.

    ``store`` (a :class:`~repro.analysis.runstore.RunStore` or ``None``)
    enables the shared unit-cache check.  ``run()`` leases until the
    broker says ``stop``, the connection drops, ``max_jobs`` is reached,
    or ``stop_event`` is set; it returns the number of jobs executed
    (cache hits included).  ``abandoned`` counts attempts dropped after
    a ``heartbeat-ack`` reported the lease reaped.
    """

    def __init__(self, broker: str, name: Optional[str] = None,
                 store=None, poll_s: float = DEFAULT_POLL_S) -> None:
        self.broker = broker
        self.name = name or f"worker-{os.getpid()}"
        self.store = store
        self.poll_s = poll_s
        self.abandoned = 0
        self._send_lock = threading.Lock()

    def run(self, stop_event: Optional[threading.Event] = None,
            max_jobs: Optional[int] = None,
            connect_timeout: float = DEFAULT_CONNECT_TIMEOUT_S) -> int:
        conn = self._connect(connect_timeout)
        # Wake-up pair: an ending attempt writes a byte to wake_w, the
        # watcher selects on wake_r.  Non-blocking write end: jobs that
        # end before anyone watches leave their byte behind, and a full
        # buffer must never hold an attempt thread.
        wake_r, wake_w = socket.socketpair()
        wake_w.setblocking(False)
        executed = 0
        try:
            self._send(conn, {"type": "hello", "role": "worker",
                              "worker": self.name})
            while max_jobs is None or executed < max_jobs:
                if stop_event is not None and stop_event.is_set():
                    return executed
                self._send(conn, {"type": "lease", "wait_s": self.poll_s})
                reply = self._recv_reply(conn)
                if reply is None or reply.get("type") == "stop":
                    return executed
                if reply.get("type") != "job":
                    continue  # idle poll; lease again
                self._execute(conn, reply, wake_r, wake_w)
                executed += 1
            return executed
        finally:
            for sock in (conn, wake_r, wake_w):
                try:
                    sock.close()
                except OSError:
                    pass

    # -- internals -----------------------------------------------------
    def _connect(self, timeout: float) -> socket.socket:
        """Connect with retries: the broker may still be binding its port."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return connect(self.broker, timeout=5.0)
            except OSError as error:
                if time.monotonic() >= deadline:
                    raise ConnectionError(
                        f"could not reach broker {self.broker}: {error}"
                    ) from error
                time.sleep(0.2)

    def _send(self, conn: socket.socket, message: Dict[str, object]) -> None:
        with self._send_lock:
            send_frame(conn, message)

    @staticmethod
    def _recv_reply(conn: socket.socket) -> Optional[Dict[str, object]]:
        """The next non-ack frame (stray heartbeat-acks are skipped)."""
        while True:
            reply = recv_frame(conn)
            if reply is None or reply.get("type") != "heartbeat-ack":
                return reply

    def _execute(self, conn: socket.socket, message: Dict[str, object],
                 wake_r: socket.socket, wake_w: socket.socket) -> None:
        lease = str(message["lease"])
        key = str(message["key"])
        attempt = int(message.get("attempt", 1))  # type: ignore[arg-type]
        timeout_s = message.get("timeout_s")
        lease_ttl = float(message.get("lease_ttl", 15.0))  # type: ignore[arg-type]

        if self.store is not None:
            cached = self.store.get_unit(key)
            if cached is not None:
                self._send(conn, {"type": "complete", "lease": lease,
                                  "metrics": cached})
                return

        job = UnitJob(key=key,
                      spec=ScenarioSpec.from_dict(message["spec"]),  # type: ignore[arg-type]
                      seed=int(message["seed"]))  # type: ignore[arg-type]
        done = threading.Event()  # the attempt ended, or was abandoned
        outcome: Dict[str, object] = {}

        def _attempt() -> None:
            try:
                outcome["metrics"] = _run_unit_attempt(
                    job, attempt,
                    float(timeout_s) if timeout_s else None)  # type: ignore[arg-type]
            except LeaseRevoked:
                pass  # abandoned: the broker already requeued the job
            except Exception as error:  # noqa: BLE001 - reported, not fatal
                outcome["error"] = error
            finally:
                done.set()
                try:
                    wake_w.send(b"\0")
                except OSError:
                    pass  # buffer full, or an abandoned attempt outlived run()

        runner = threading.Thread(target=_attempt, daemon=True,
                                  name=f"attempt-{lease}")
        runner.start()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(conn, lease, lease_ttl, done),
            name=f"heartbeat-{lease}", daemon=True)
        beat.start()
        try:
            if self._watch_attempt(conn, lease, done, wake_r):
                # Lease reaped: abandon the attempt, report nothing.
                self.abandoned += 1
                self._revoke(runner)
                runner.join(timeout=5.0)
                return
        finally:
            done.set()
        error = outcome.get("error")
        if isinstance(error, Exception):
            self._send(conn, {"type": "fail", "lease": lease,
                              "kind": _failure_kind(error),
                              "error": _describe_error(error)})
            return
        metrics = outcome.get("metrics")
        if metrics is None:
            return  # revoked raced the finish line; nothing to report
        if self.store is not None:
            self.store.put_unit(key, metrics)
        self._send(conn, {"type": "complete", "lease": lease,
                          "metrics": metrics})

    @staticmethod
    def _watch_attempt(conn: socket.socket, lease: str,
                       done: threading.Event, wake: socket.socket) -> bool:
        """Wait out the attempt while reading broker frames.

        Returns ``True`` when a ``heartbeat-ack`` reports the lease
        reaped (the attempt must be abandoned), ``False`` when the
        attempt finished and its outcome should be reported.  A dead
        connection raises: there is no broker left to report to.
        """
        while not done.is_set():
            readable = wait_readable((conn, wake), _ACK_POLL_S)
            if conn in readable:
                frame = recv_frame(conn)
                if frame is None:
                    raise FrameError("broker closed the connection mid-job")
                if (frame.get("type") == "heartbeat-ack"
                        and frame.get("lease") == lease
                        and not frame.get("ok", True)):
                    return True
                # ok-acks (and anything unexpected) are just liveness noise.
            if wake in readable:
                # Drain: the byte may also be a stale one from an
                # abandoned attempt, which is why `done` decides.
                wake.recv(64)
        return False

    @staticmethod
    def _revoke(runner: threading.Thread) -> None:
        """Best-effort LeaseRevoked injection into the attempt thread.

        CPython delivers the exception at the next bytecode boundary, so
        a pure-Python simulation stops burning CPU promptly; code blocked
        in C keeps the thread alive until it returns (it is a daemon
        thread, the same abandonment :func:`_run_unit_attempt`'s timeout
        watchdog accepts).
        """
        ident = runner.ident
        if ident is None or not runner.is_alive():
            return
        try:
            injected = ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(ident), ctypes.py_object(LeaseRevoked))
            if injected > 1:  # hit more than one thread state: undo
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(ident), None)
        except (AttributeError, OSError, ValueError):
            pass  # non-CPython: the daemon thread is simply abandoned

    def _heartbeat_loop(self, conn: socket.socket, lease: str,
                        lease_ttl: float, done: threading.Event) -> None:
        interval = max(0.5, lease_ttl / 3.0)
        while not done.wait(interval):
            try:
                self._send(conn, {"type": "heartbeat", "lease": lease})
            except (FrameError, OSError):
                return  # connection gone; the job's report will fail too


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Pull and execute unit jobs from a repro-broker.")
    parser.add_argument("--broker", required=True, metavar="ADDR",
                        help="broker address (HOST:PORT or unix:/path)")
    parser.add_argument("--name", default=None,
                        help="worker name for broker-side accounting "
                             "(default: worker-<pid>)")
    parser.add_argument("--runs-dir", default=None, metavar="PATH",
                        help="shared run store for the unit-cache check "
                             "(cross-worker dedupe/resume); default: none")
    parser.add_argument("--poll", type=float, default=DEFAULT_POLL_S,
                        metavar="S", help="lease poll interval in seconds")
    parser.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="exit after executing N jobs (default: serve "
                             "until the broker stops)")
    parser.add_argument("--connect-timeout", type=float,
                        default=DEFAULT_CONNECT_TIMEOUT_S, metavar="S",
                        help="seconds to keep retrying the first connection")
    args = parser.parse_args(argv)
    try:
        parse_address(args.broker)
    except ValueError as error:
        print(f"repro-worker: --broker: {error}", file=sys.stderr)
        return 2

    # Mark this process as a worker so a scripted ``kill`` fault
    # (REPRO_FAULT_PLAN) hard-exits it the way it does pool workers.
    os.environ[WORKER_PROCESS_ENV] = "1"

    store = None
    if args.runs_dir:
        from repro.analysis.runstore import RunStore

        store = RunStore(args.runs_dir)
    worker = Worker(args.broker, name=args.name, store=store,
                    poll_s=args.poll)
    try:
        executed = worker.run(max_jobs=args.max_jobs,
                              connect_timeout=args.connect_timeout)
    except ConnectionError as error:
        print(f"repro-worker: {error}", file=sys.stderr)
        return 1
    except (FrameError, OSError) as error:
        print(f"repro-worker: connection lost: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0
    print(f"repro-worker {worker.name}: {executed} job(s) executed"
          + (f", {worker.abandoned} abandoned" if worker.abandoned else ""),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
