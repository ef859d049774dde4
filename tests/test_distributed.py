"""Distributed execution: wire protocol, broker accounting, byte-identity.

The contract under test is the same one the in-process backends carry:
unit jobs are pure functions of ``(spec, seed)``, results merge by
content-addressed key, so the distributed path — broker, leases, worker
deaths, retries, any completion order — must produce output
byte-identical to :class:`SerialBackend`.  The broker's lease accounting
is tested at the :class:`BrokerQueue` level (no sockets), the framing at
the socket level, and the whole stack end-to-end with an in-process
:class:`BrokerServer` plus worker threads against the committed
``figure1`` golden.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.analysis.runstore import RunStore
from repro.distributed import (
    BrokerQueue,
    BrokerServer,
    DistributedBackend,
    FrameError,
    MAX_FRAME_BYTES,
    Worker,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.distributed.broker import policy_from_dict, policy_to_dict
from repro.distributed.protocol import (
    accept,
    connect,
    create_listener,
    listener_address,
)
from repro.scenarios import (
    FaultPlan,
    FaultSpec,
    JobExecutionError,
    JobPolicy,
    SerialBackend,
    compile_scenario,
    compile_study,
    execute_plan,
)

from fault_fixtures import installed
from test_cli_errors import usage_error
from test_execution import FIGURE1_TRIMS

GOLDEN_FIGURE1 = Path(__file__).parent / "goldens" / "study-figure1.json"


def _job(key, seed=1, scenario="s", spec=None):
    return {"key": key, "spec": spec or {"name": scenario}, "seed": seed,
            "scenario": scenario}


def _drain_until(events, kind):
    """Pop events until one of ``kind`` arrives (bounded, test-safe)."""
    for _ in range(100):
        event = events.get(timeout=5.0)
        if event["type"] == kind:
            return event
    raise AssertionError(f"no {kind!r} event arrived")


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "job", "key": "k-s1", "seed": 3,
                       "metrics": {"x": 0.125, "n": 7},
                       "nested": {"list": [1, 2.5, "three", None, True]}}
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_header_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00")  # half a length prefix
            a.close()
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            b.close()

    def test_truncated_body_raises(self):
        a, b = socket.socketpair()
        try:
            payload = json.dumps({"type": "ping"}).encode()
            a.sendall(len(payload).to_bytes(4, "big") + payload[:-3])
            a.close()
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_both_sides(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(FrameError):
                send_frame(a, {"blob": "x" * (MAX_FRAME_BYTES + 1)})
            a.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_dict_and_bad_json_raise(self):
        for payload in (b"[1, 2, 3]", b"{not json"):
            a, b = socket.socketpair()
            try:
                a.sendall(len(payload).to_bytes(4, "big") + payload)
                with pytest.raises(FrameError):
                    recv_frame(b)
            finally:
                a.close()
                b.close()

    def test_parse_address_forms(self):
        assert parse_address("127.0.0.1:7480") == ("tcp", ("127.0.0.1", 7480))
        assert parse_address(":7480") == ("tcp", ("127.0.0.1", 7480))
        assert parse_address("unix:/tmp/b.sock") == ("unix", "/tmp/b.sock")
        assert parse_address("host:0") == ("tcp", ("host", 0))
        assert parse_address("host:65535") == ("tcp", ("host", 65535))
        for bad in ("", "nonsense", "host:", "host:notaport", "host:65536",
                    "host:-1", "127.0.0.1:99999"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_stale_unix_socket_is_reclaimed(self, tmp_path):
        from repro.distributed.protocol import create_listener
        address = f"unix:{tmp_path / 'b.sock'}"
        dead = create_listener(address)
        dead.close()  # killed broker: socket file stays on disk
        reborn = create_listener(address)  # must not EADDRINUSE
        reborn.close()

    def test_live_unix_socket_is_not_stolen(self, tmp_path):
        from repro.distributed.protocol import create_listener
        address = f"unix:{tmp_path / 'b.sock'}"
        alive = create_listener(address)
        try:
            with pytest.raises(OSError, match="live listener"):
                create_listener(address)
        finally:
            alive.close()

    def test_policy_wire_round_trip(self):
        policy = JobPolicy(max_retries=3, timeout_s=12.5, keep_going=True,
                           backoff_base_s=0.01)
        rebuilt = policy_from_dict(policy_to_dict(policy))
        assert rebuilt == policy
        assert policy_from_dict(None) == JobPolicy()


# ----------------------------------------------------------------------
# BrokerQueue lease accounting (no sockets)
# ----------------------------------------------------------------------
class TestBrokerQueue:
    def test_dispatch_in_plan_order_and_run_done(self):
        queue = BrokerQueue()
        events = queue.submit("r", [_job("a"), _job("b")], JobPolicy())
        first = queue.lease("w1")
        second = queue.lease("w2")
        assert (first["key"], second["key"]) == ("a", "b")
        assert first["attempt"] == 1
        assert queue.complete(first["lease"], {"m": 1.0})
        assert queue.complete(second["lease"], {"m": 2.0})
        assert _drain_until(events, "job-done")["key"] == "a"
        assert _drain_until(events, "run-done")["completed"] == 2

    def test_empty_run_completes_immediately(self):
        queue = BrokerQueue()
        events = queue.submit("r", [], JobPolicy())
        assert events.get(timeout=1.0)["type"] == "run-done"

    def test_duplicate_run_id_rejected(self):
        queue = BrokerQueue()
        queue.submit("r", [_job("a")], JobPolicy())
        with pytest.raises(ValueError):
            queue.submit("r", [_job("b")], JobPolicy())

    def test_reported_failure_charges_attempt_and_retries(self):
        queue = BrokerQueue()
        events = queue.submit(
            "r", [_job("a")], JobPolicy(max_retries=1, backoff_base_s=0.0))
        lease = queue.lease("w")
        assert queue.fail(lease["lease"], "exception", "boom")
        retry = queue.lease("w", wait_s=2.0)
        assert retry["type"] == "job" and retry["attempt"] == 2
        assert queue.complete(retry["lease"], {"m": 1.0})
        assert _drain_until(events, "run-done")["failed"] == 0

    def test_exhausted_budget_manifests_job_failure(self):
        queue = BrokerQueue()
        events = queue.submit(
            "r", [_job("a", seed=4, scenario="sc")],
            JobPolicy(max_retries=1, backoff_base_s=0.0))
        for expected_attempt in (1, 2):
            lease = queue.lease("w", wait_s=2.0)
            assert lease["attempt"] == expected_attempt
            assert queue.fail(lease["lease"], "exception", "boom")
        failed = _drain_until(events, "job-failed")
        assert failed["failure"]["key"] == "a"
        assert failed["failure"]["attempts"] == 2
        assert failed["failure"]["kind"] == "exception"
        assert failed["failure"]["seed"] == 4
        assert failed["failure"]["scenario"] == "sc"
        assert _drain_until(events, "run-done")["failed"] == 1

    def test_backoff_delays_requeue(self):
        queue = BrokerQueue()
        queue.submit("r", [_job("a")],
                     JobPolicy(max_retries=1, backoff_base_s=30.0,
                               backoff_jitter=0.0))
        lease = queue.lease("w")
        queue.fail(lease["lease"], "exception", "boom")
        # The retry sits in backoff for ~30s; an immediate lease is idle.
        assert queue.lease("w", wait_s=0.0)["type"] == "idle"

    def test_duplicate_completion_first_wins(self):
        queue = BrokerQueue()
        events = queue.submit("r", [_job("a")], JobPolicy())
        lease = queue.lease("w")
        assert queue.complete(lease["lease"], {"m": 1.0}) is True
        assert queue.complete(lease["lease"], {"m": 999.0}) is False
        assert queue.fail(lease["lease"], "exception", "late") is False
        done = _drain_until(events, "job-done")
        assert done["metrics"] == {"m": 1.0}
        _drain_until(events, "run-done")

    def test_worker_disconnect_requeues_uncharged(self):
        queue = BrokerQueue()
        queue.submit("r", [_job("a")], JobPolicy(max_retries=0))
        lease = queue.lease("w-dead")
        assert lease["attempt"] == 1
        assert queue.release_worker("w-dead") == 1
        regrant = queue.lease("w-alive", wait_s=2.0)
        # Same attempt number: a lost lease never charges the budget,
        # even with a zero-retry policy.
        assert regrant["type"] == "job" and regrant["attempt"] == 1
        assert queue.complete(regrant["lease"], {"m": 1.0})

    def test_lease_expiry_requeues_uncharged(self):
        queue = BrokerQueue(lease_ttl=0.05)
        queue.submit("r", [_job("a")], JobPolicy(max_retries=0))
        lease = queue.lease("w")
        assert queue.expire(now=time.monotonic() + 1.0) == 1
        regrant = queue.lease("w2", wait_s=2.0)
        assert regrant["attempt"] == 1
        # The expired lease is settled; its late report is dropped.
        assert queue.complete(lease["lease"], {"m": 0.0}) is False

    def test_heartbeat_extends_and_detects_stale(self):
        queue = BrokerQueue(lease_ttl=0.2)
        queue.submit("r", [_job("a")], JobPolicy())
        lease = queue.lease("w")
        assert queue.heartbeat(lease["lease"]) is True
        queue.complete(lease["lease"], {"m": 1.0})
        assert queue.heartbeat(lease["lease"]) is False

    def test_cancel_drains_pending_jobs(self):
        queue = BrokerQueue()
        queue.submit("r", [_job("a"), _job("b")], JobPolicy())
        queue.cancel("r")
        assert queue.lease("w", wait_s=0.0)["type"] == "idle"
        assert queue.stats()["queued"] == 0

    def test_stop_tells_workers_to_exit(self):
        queue = BrokerQueue()
        queue.stop()
        assert queue.lease("w", wait_s=10.0) == {"type": "stop"}


# ----------------------------------------------------------------------
# End-to-end: in-process server + worker threads
# ----------------------------------------------------------------------
@pytest.fixture()
def broker():
    server = BrokerServer(listen="127.0.0.1:0", lease_ttl=5.0)
    server.start()
    yield server
    server.stop()


def _start_workers(server, count, store=None, poll_s=0.2):
    stop = threading.Event()
    threads = []
    for index in range(count):
        worker = Worker(server.address, name=f"w{index}", store=store,
                        poll_s=poll_s)
        thread = threading.Thread(target=worker.run,
                                  kwargs={"stop_event": stop}, daemon=True)
        thread.start()
        threads.append(thread)
    return stop, threads


class TestEndToEnd:
    def test_distributed_matches_serial_and_golden(self, broker):
        stop, threads = _start_workers(broker, 2)
        plan = compile_study("figure1", member_overrides=FIGURE1_TRIMS)
        distributed = execute_plan(
            plan, backend=DistributedBackend(broker.address, run_id="e2e"))
        serial = execute_plan(plan, backend=SerialBackend())
        assert distributed.to_json() == serial.to_json()
        stop.set()

    def test_trimmed_golden_byte_identity(self, broker):
        from repro.scenarios.goldens import STUDY_TRIMS

        stop, threads = _start_workers(broker, 2)
        plan = compile_study("figure1",
                             member_overrides=STUDY_TRIMS["figure1"])
        results = execute_plan(
            plan, backend=DistributedBackend(broker.address, run_id="golden"))
        golden = GOLDEN_FIGURE1.read_text(encoding="utf-8")
        assert results.to_json() + "\n" == golden
        stop.set()

    def test_shared_store_cache_skips_execution(self, broker, tmp_path):
        store = RunStore(tmp_path)
        plan = compile_study("figure1", member_overrides=FIGURE1_TRIMS)
        sentinel = {"sentinel": 42.0}
        for key in plan.job_keys():
            store.put_unit(key, dict(sentinel))
        stop, threads = _start_workers(broker, 1, store=store)
        results = execute_plan(
            plan, backend=DistributedBackend(broker.address, run_id="cached"))
        # Every metric came from the cache, none from execution.
        for result in results:
            assert result.metrics == sentinel
        stop.set()

    def test_injected_failure_keep_going_manifest(self, broker, tmp_path):
        plan = compile_study("figure1", member_overrides=FIGURE1_TRIMS)
        doomed_key = plan.jobs[0].key
        fault_plan = FaultPlan([FaultSpec(match=doomed_key, action="raise")])
        with installed(fault_plan):
            stop, threads = _start_workers(broker, 2)
            results = execute_plan(
                plan,
                backend=DistributedBackend(broker.address, run_id="degrade"),
                policy=JobPolicy(max_retries=1, keep_going=True,
                                 backoff_base_s=0.0))
            stop.set()
        assert len(results.failures) == 1
        entry = results.failures[0]
        assert entry["key"] == doomed_key
        assert entry["attempts"] == 2
        assert entry["kind"] == "exception"
        # The other slots assembled; the failed one is absent.
        assert len(results) == len(plan.slots) - 1

    def test_injected_failure_fail_fast_aborts(self, broker):
        plan = compile_study("figure1", member_overrides=FIGURE1_TRIMS)
        fault_plan = FaultPlan(
            [FaultSpec(match=plan.jobs[0].key, action="raise")])
        with installed(fault_plan):
            stop, threads = _start_workers(broker, 2)
            with pytest.raises(JobExecutionError):
                execute_plan(
                    plan,
                    backend=DistributedBackend(broker.address,
                                               run_id="abort"),
                    policy=JobPolicy(max_retries=0, keep_going=False))
            stop.set()

    def test_retried_fault_converges_to_golden(self, broker):
        from repro.scenarios.goldens import STUDY_TRIMS

        plan = compile_study("figure1",
                             member_overrides=STUDY_TRIMS["figure1"])
        # First attempt of the first job fails; the retry must heal the
        # run back to byte-identity.
        fault_plan = FaultPlan([FaultSpec(match=plan.jobs[0].key,
                                          action="raise", attempts=(1,))])
        with installed(fault_plan):
            stop, threads = _start_workers(broker, 2)
            results = execute_plan(
                plan,
                backend=DistributedBackend(broker.address, run_id="heal"),
                policy=JobPolicy(max_retries=1, backoff_base_s=0.0))
            stop.set()
        assert not results.failures
        golden = GOLDEN_FIGURE1.read_text(encoding="utf-8")
        assert results.to_json() + "\n" == golden

    def test_wire_worker_disconnect_mid_lease_requeues(self, broker):
        plan = compile_study("figure1", member_overrides=FIGURE1_TRIMS)
        # A raw "worker" takes the first lease and dies without a report.
        conn = connect(broker.address, timeout=5.0)
        send_frame(conn, {"type": "hello", "role": "worker",
                          "worker": "vanishing"})
        send_frame(conn, {"type": "lease", "wait_s": 0.0})

        result = {}

        def _submit():
            result["results"] = execute_plan(
                plan,
                backend=DistributedBackend(broker.address, run_id="requeue"))

        submitter = threading.Thread(target=_submit, daemon=True)
        submitter.start()
        granted = None
        deadline = time.monotonic() + 10.0
        while granted is None and time.monotonic() < deadline:
            reply = recv_frame(conn)
            assert reply is not None
            if reply.get("type") == "job":
                granted = reply
            else:
                send_frame(conn, {"type": "lease", "wait_s": 0.5})
        assert granted is not None and granted["attempt"] == 1
        conn.close()  # mid-lease disconnect: requeue, uncharged

        stop, threads = _start_workers(broker, 2)
        submitter.join(timeout=120.0)
        assert not submitter.is_alive()
        stop.set()
        serial = execute_plan(plan, backend=SerialBackend())
        assert result["results"].to_json() == serial.to_json()

    def test_worker_process_killed_mid_lease_is_invisible(
            self, broker, tmp_path):
        from repro.scenarios.goldens import STUDY_TRIMS

        plan = compile_study("figure1",
                             member_overrides=STUDY_TRIMS["figure1"])
        store = RunStore(tmp_path)
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # The OOM-killer stand-in: a real repro-worker process whose fault
        # plan hard-exits it on the first attempt of whatever it leases.
        env["REPRO_FAULT_PLAN"] = FaultPlan(
            [FaultSpec(match="", action="kill", attempts=(1,))]).to_json()
        doomed = subprocess.Popen(
            [sys.executable, "-m", "repro.distributed.worker",
             "--broker", broker.address, "--name", "doomed",
             "--runs-dir", str(tmp_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        outcome = {}

        def _drive():
            outcome["results"] = execute_plan(
                plan,
                backend=DistributedBackend(broker.address,
                                           run_id="worker-kill"),
                store=store,
                policy=JobPolicy(max_retries=1, keep_going=True))

        driver = threading.Thread(target=_drive, daemon=True)
        try:
            driver.start()
            # Until it dies the doomed process is the only worker, so the
            # first lease is certainly its own.
            assert doomed.wait(timeout=60.0) == 17
            stop, threads = _start_workers(broker, 1, store=store)
            driver.join(timeout=120.0)
            stop.set()
            assert not driver.is_alive(), "run never completed"
        finally:
            if doomed.poll() is None:
                doomed.kill()
                doomed.wait(timeout=10)
        # The lost lease was requeued uncharged and re-run: no manifest
        # entry, and the same bytes as the serial golden.
        results = outcome["results"]
        assert results.failures == []
        assert store.save(results, "worker-kill").failures == 0
        golden = GOLDEN_FIGURE1.read_text(encoding="utf-8")
        assert results.to_json() + "\n" == golden

    def test_unknown_verb_costs_a_peer_only_the_reply(self, broker):
        verb = "submit-study"  # no such message type
        conn = connect(broker.address, timeout=5.0)
        try:
            send_frame(conn, {"type": verb, "study": "figure1"})
            reply = recv_frame(conn)
            assert reply["type"] == "error"
            assert verb in reply["error"]
            send_frame(conn, {"type": "ping"})
            assert recv_frame(conn) == {"type": "pong"}
        finally:
            conn.close()


# ----------------------------------------------------------------------
# The two timers: Nagle/delayed-ACK on TCP, the completion poll quantum
# ----------------------------------------------------------------------
def _timed(plan, address, run_id):
    started = time.perf_counter()
    results = execute_plan(
        plan, backend=DistributedBackend(address, run_id=run_id))
    return time.perf_counter() - started, results


class TestTransport:
    def test_tcp_sockets_are_nodelay_on_both_ends(self):
        listener = create_listener("127.0.0.1:0")
        with listener, connect(listener_address(listener), timeout=5.0) as client, \
                accept(listener) as served:
            for sock in (client, served):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_unix_sockets_are_left_alone(self, tmp_path):
        listener = create_listener(f"unix:{tmp_path / 'plain.sock'}")
        with listener, connect(listener_address(listener), timeout=5.0) as client, \
                accept(listener) as served:
            send_frame(client, {"type": "ping"})
            assert recv_frame(served) == {"type": "ping"}

    def test_tcp_costs_no_more_than_unix_in_the_same_run(self, tmp_path):
        # The control is the identical deployment on a Unix socket, timed
        # in the same process: with Nagle on, every job's complete+lease
        # pair waits out a ~40 ms delayed ACK and TCP is 15-30x slower.
        plan = compile_scenario("pos-slashing", {"architecture.rounds": 50},
                                replicates=30)
        servers = {"tcp": BrokerServer(listen="127.0.0.1:0"),
                   "unix": BrokerServer(listen=f"unix:{tmp_path / 'b.sock'}")}
        stops = []
        walls = {name: [] for name in servers}
        try:
            for server in servers.values():
                server.start()
                stops.append(_start_workers(server, 1)[0])
            for index in range(4):  # pass 0 warms both deployments up
                for name, server in servers.items():
                    wall, results = _timed(plan, server.address,
                                           f"gate-{name}-{index}")
                    assert not results.failures
                    if index:
                        walls[name].append(wall)
        finally:
            for stop in stops:
                stop.set()
            for server in servers.values():
                server.stop()
        assert min(walls["tcp"]) <= 3.0 * min(walls["unix"]), walls


@pytest.fixture()
def wake_pairs(monkeypatch):
    """Every socketpair made while the test runs (the worker's wake-up)."""
    pairs = []
    original = socket.socketpair

    def recording(*args, **kwargs):
        pairs.append(original(*args, **kwargs))
        return pairs[-1]

    monkeypatch.setattr(socket, "socketpair", recording)
    return pairs


def _all_closed(pairs):
    return len(pairs) == 1 and all(sock.fileno() == -1 for sock in pairs[0])


def _quick_plan():
    """One ~3 ms job (the trimmed figure1 bitcoin member)."""
    return compile_study("figure1", member_overrides=FIGURE1_TRIMS,
                         members=["bitcoin"])


class _HandBroker:
    """A listener the test body drives frame by frame against one Worker."""

    def __init__(self):
        self.listener = create_listener("127.0.0.1:0")
        self.worker = Worker(listener_address(self.listener), poll_s=0.2)
        self.outcome = {}
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        self.conn = accept(self.listener)
        assert self.expect("hello")["role"] == "worker"

    def _run(self):
        try:
            self.outcome["executed"] = self.worker.run()
        except (FrameError, OSError) as error:
            self.outcome["error"] = error

    def expect(self, kind):
        frame = recv_frame(self.conn)
        assert frame is not None and frame["type"] == kind, frame
        return frame

    def grant(self, job):
        """Send the `job` frame a real queue would grant for ``job``."""
        queue = BrokerQueue()
        queue.submit("hand", [_job(job.key, job.seed, job.spec.name,
                                   job.spec.to_dict())])
        frame = queue.lease("hand")
        self.lease = frame["lease"]
        send_frame(self.conn, frame)

    def ack(self, ok):
        send_frame(self.conn, {"type": "heartbeat-ack", "lease": self.lease,
                               "ok": ok})

    def finish(self):
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive()
        self.conn.close()
        self.listener.close()


class TestWorkerWatch:
    def test_turnaround_is_not_quantised_by_the_poll(self, broker):
        # ~40 ms jobs are still running at the watcher's first look; a
        # watcher that only polls holds each one to the next 200 ms tick.
        jobs = 5
        plan = compile_scenario("pbft-consortium", {"duration": 3.0},
                                replicates=jobs)
        started = time.perf_counter()
        serial = execute_plan(plan, backend=SerialBackend())
        serial_wall = time.perf_counter() - started
        stop, _ = _start_workers(broker, 1)
        try:
            wall, distributed = _timed(plan, broker.address, "turnaround")
        finally:
            stop.set()
        assert distributed.to_json() == serial.to_json()
        assert wall <= serial_wall + jobs * 0.1, (wall, serial_wall)

    def test_ok_acks_racing_the_finish_lose_no_frame(self, wake_pairs):
        plan = _quick_plan()
        (job,) = plan.jobs
        hand = _HandBroker()
        hand.expect("lease")
        hand.grant(job)
        for _ in range(3):  # land before, during and after the ~3 ms attempt
            hand.ack(True)
        complete = hand.expect("complete")
        assert complete["lease"] == hand.lease
        assert complete["metrics"] == SerialBackend().execute(plan)[job.key]
        hand.expect("lease")
        hand.ack(True)  # a late ack ahead of the lease reply
        send_frame(hand.conn, {"type": "idle"})
        hand.expect("lease")
        send_frame(hand.conn, {"type": "stop"})
        hand.finish()
        assert hand.outcome == {"executed": 1}
        assert hand.worker.abandoned == 0
        assert _all_closed(wake_pairs)

    def test_nack_mid_attempt_abandons_without_a_report(self, wake_pairs):
        (job,) = _quick_plan().jobs
        hold = FaultPlan([FaultSpec(match=job.key, action="hang",
                                    seconds=1.0, attempts=(1,))])
        with installed(hold):
            hand = _HandBroker()
            hand.expect("lease")
            hand.grant(job)
            hand.ack(False)
            # No complete/fail for L1: the next frame is a fresh lease.
            hand.expect("lease")
        send_frame(hand.conn, {"type": "stop"})
        hand.finish()
        assert hand.worker.abandoned == 1
        assert _all_closed(wake_pairs)

    def test_broker_vanishing_mid_job_still_closes_the_wake_pair(
            self, wake_pairs):
        (job,) = _quick_plan().jobs
        hold = FaultPlan([FaultSpec(match=job.key, action="hang",
                                    seconds=0.5, attempts=(1,))])
        with installed(hold):
            hand = _HandBroker()
            hand.expect("lease")
            hand.grant(job)
            hand.conn.close()
            hand.finish()
        assert isinstance(hand.outcome.get("error"), FrameError)
        assert _all_closed(wake_pairs)


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCli:
    @pytest.mark.parametrize("address", ["127.0.0.1:abc", "127.0.0.1:99999"])
    def test_run_rejects_a_bad_broker_address(self, capsys, address):
        assert "--broker" in usage_error(
            capsys, ["pos-slashing", "--broker", address])

    @pytest.mark.parametrize("prog, flag", [("broker", "--listen"),
                                            ("worker", "--broker")])
    def test_broker_and_worker_reject_a_bad_address(self, capsys, prog, flag):
        from repro.distributed import broker, worker

        main = {"broker": broker.main, "worker": worker.main}[prog]
        assert main([flag, "127.0.0.1:99999"]) == 2  # before any socket
        assert capsys.readouterr().err.splitlines() == [
            f"repro-{prog}: {flag}: address '127.0.0.1:99999' has a port "
            f"outside 0-65535"]

    def test_broker_flag_implies_distributed(self, broker):
        from repro.run import main as run_main

        stop, threads = _start_workers(broker, 2)
        code = run_main(
            ["study", "figure1", "--broker", broker.address, "--quiet",
             "--set", "bitcoin.architecture.duration_blocks=15",
             "--set", "ethereum.architecture.duration_blocks=45",
             "--set", "pbft.duration=1.0", "--set", "fabric.duration=1.0",
             "--set", "edge.duration=1.0"])
        assert code == 0
        stop.set()

    def test_ls_shows_failures_count(self, tmp_path, capsys):
        from repro.run import main as run_main
        from repro.analysis.resultset import ResultSet
        from repro.scenarios import run_scenario

        store = RunStore(tmp_path)
        clean = ResultSet([run_scenario("double-spend")], name="clean")
        store.save(clean, "clean-run")
        failing = ResultSet(
            [run_scenario("double-spend")], name="partial",
            failures=[{"key": "k-s1", "scenario": "x", "seed": 1,
                       "kind": "exception", "error": "boom",
                       "attempts": 2, "elapsed_s": 0.1}])
        store.save(failing, "partial-run")
        assert run_main(["ls", "--runs-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "failures" in output
        clean_row = next(line for line in output.splitlines()
                         if "clean-run" in line)
        partial_row = next(line for line in output.splitlines()
                           if "partial-run" in line)
        # Column order: name | results | failures | labels | ...
        assert [cell.strip() for cell in clean_row.split("|")][2] == "-"
        assert [cell.strip() for cell in partial_row.split("|")][2] == "1"
