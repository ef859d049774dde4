"""The per-layer ledger: every layer timed from outside, by its public calls.

One function per layer (layer = module of ``repro``); each returns
``{metric name: value}`` and :func:`collect` merges them.  Nothing in
``src/`` is instrumented — spans inside the program are a later change —
so each row times calls into a layer's public functions on the inputs the
workloads use.  Timings are medians, never best-of; rows that end in
``events``, ``_bytes``, ``messages_per_block`` or ``records_per_job`` are
*counts* that repeat exactly and may be compared exactly.

Which end-to-end metric each row should move, on which workload, is the
interaction table in README.md.
"""

from __future__ import annotations

import json
import socket
import statistics
import threading
import timeit
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from benchmarks.e2e.procs import short_unix_address
from benchmarks.e2e.workloads import (
    BrokerTcp,
    Sizes,
    figure1_plan,
    fresh_dir,
    kad_spec,
    run_pass,
    sweep_spec,
)
from repro.analysis.diff import diff_resultsets
from repro.analysis.resultset import ResultSet
from repro.analysis.runstore import RunStore
from repro.blockchain.network import PoWNetwork, PoWNetworkConfig
from repro.blockchain.proof_of_stake import NothingAtStakeModel
from repro.distributed.broker import BrokerQueue
from repro.distributed.journal import JournalDir, RunJournal
from repro.distributed.protocol import (
    connect,
    create_listener,
    listener_address,
    recv_frame,
    send_frame,
)
from repro.scenarios.adapters import adapter_for
from repro.scenarios.execution import (
    ExecutionPlan,
    JobPolicy,
    ProcessPoolBackend,
    SerialBackend,
    UnitJob,
    execute_plan,
    execute_unit,
)
from repro.scenarios.runner import compile_scenario, compile_sweep
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.study import compile_study
from repro.sim.engine import Simulator
from repro.sim.metrics import Sample, StreamingSample
from repro.sim.network import Network, NetworkParams
from repro.sim.rng import SeededRNG

Rows = Dict[str, float]

#: figure1 member -> the adapter family row it feeds.
_FIGURE1_FAMILIES = {"ethereum": "permissionless", "pbft": "consensus",
                     "fabric": "permissioned", "edge": "edge"}

def _median_s(function: Callable[[], object], number: int = 1,
              repeat: int = 5) -> float:
    """Median seconds per call over ``repeat`` batches of ``number`` calls."""
    return statistics.median(
        timeit.repeat(function, number=number, repeat=repeat)) / number


def _time_adapter(jobs: Sequence[UnitJob]) -> Tuple[Rows, Dict[str, dict]]:
    """Median ``setup``/``run``/``collect`` seconds over ``jobs``."""
    phases: Dict[str, List[float]] = {"setup": [], "run": [], "collect": []}
    metrics_by_key = {}
    for job in jobs:
        adapter = adapter_for(job.spec.family)
        t0 = perf_counter()
        context = adapter.setup(job.spec, job.seed)
        t1 = perf_counter()
        outcome = adapter.run(context)
        t2 = perf_counter()
        metrics_by_key[job.key] = adapter.collect(context, outcome)
        t3 = perf_counter()
        phases["setup"].append(t1 - t0)
        phases["run"].append(t2 - t1)
        phases["collect"].append(t3 - t2)
    return ({phase: statistics.median(samples)
             for phase, samples in phases.items()}, metrics_by_key)


# ----------------------------------------------------------------------
# scenarios.spec / runner / adapters
# ----------------------------------------------------------------------
def spec_rows(sweep: ScenarioSpec, plan: ExecutionPlan) -> Rows:
    point = plan.jobs[0].spec
    return {
        "spec.hash_us": 1e6 * _median_s(point.spec_hash, 200, 30),
        "spec.roundtrip_us": 1e6 * _median_s(
            lambda: ScenarioSpec.from_dict(point.to_dict()), 200, 30),
        "plan.compile_us": 1e6 * _median_s(
            lambda: compile_sweep(sweep)) / len(plan.jobs),
    }


def adapter_rows(seed: int, plan: ExecutionPlan,
                 calls: int) -> Tuple[Rows, ResultSet]:
    """Adapter phases per family over ``calls`` replicates each; returns
    the figure1 set it ran as well."""
    rows: Rows = {}
    figure1 = figure1_plan(calls, seed)
    metrics_by_key: Dict[str, dict] = {}
    for slot in figure1.slots:
        phases, metrics = _time_adapter(slot.jobs)
        metrics_by_key.update(metrics)
        family = _FIGURE1_FAMILIES.get(slot.label)
        if family is not None:
            for phase, seconds in phases.items():
                rows[f"adapters.{family}.{phase}_ms"] = 1e3 * seconds
    # The scalar overlay on sim.engine/network: no workload is bound by it
    # today, so this row is the only place a change to it shows.
    overlay = compile_study("churn-resilience", members=["kademlia"],
                            replicates=calls)
    phases, _ = _time_adapter(overlay.jobs)
    for phase, seconds in phases.items():
        rows[f"adapters.overlay.{phase}_ms"] = 1e3 * seconds

    # Dispatch = everything run_replicate adds around the bare model call.
    job = plan.jobs[0]
    adapter = adapter_for(job.spec.family)
    params = adapter.setup(job.spec, job.seed)["model"].params
    through_adapter = _median_s(
        lambda: adapter.run_replicate(job.spec, job.seed), 50, 30)
    bare_model = _median_s(lambda: NothingAtStakeModel(params).run(), 50, 30)
    rows["adapters.dispatch_us"] = 1e6 * (through_adapter - bare_model)
    return rows, figure1.assemble(metrics_by_key)


def fastkad_rows(sizes: Sizes, seed: int) -> Rows:
    """Table build (adapter ``setup``) vs lookup waves (adapter ``run``)."""
    plan = compile_scenario(kad_spec(sizes.kad_nodes, sizes.kad_lookups, seed))
    phases, metrics = _time_adapter(plan.jobs)
    events = metrics[plan.jobs[0].key]["events_processed"]
    return {"fastkad.build_s": phases["setup"],
            "fastkad.run_s": phases["run"],
            "fastkad.events": events,
            "fastkad.events_per_s": events / phases["run"]}


# ----------------------------------------------------------------------
# sim.engine / sim.network / blockchain.network / sim.metrics
# ----------------------------------------------------------------------
def _engine_events(total: int = 100_000, ring: int = 1024) -> float:
    """Half timer ring (heap), half zero-delay cascade (now-bucket)."""
    sim = Simulator()
    schedule = sim.schedule
    left = {"ring": total // 2, "cascade": total - total // 2}

    def tick(slot: int) -> None:
        if left["ring"] > 0:
            left["ring"] -= 1
            schedule(1.0, tick, slot)

    def cascade() -> None:
        if left["cascade"] > 0:
            left["cascade"] -= 1
            schedule(0.0, cascade)

    for slot in range(ring):
        schedule(0.0, tick, slot)
    schedule(0.0, cascade)
    started = perf_counter()
    processed = sim.run()
    return processed / (perf_counter() - started)


def _network_messages(total: int = 30_000, nodes: int = 32) -> float:
    """A 32-node ping ring across two regions."""
    sim = Simulator()
    net = Network(sim, NetworkParams(latency_jitter=0.25), rng=SeededRNG(1))
    ids = [f"n{index}" for index in range(nodes)]
    following = {ids[i]: ids[(i + 1) % nodes] for i in range(nodes)}
    left = {"messages": total}

    def handler(message) -> None:
        if left["messages"] > 0:
            left["messages"] -= 1
            net.send(message.recipient, following[message.recipient], "ping",
                     size_bytes=256)

    for index, node_id in enumerate(ids):
        net.register(node_id, handler, region="eu" if index % 2 else "us")
    for node_id in ids:
        net.send(node_id, following[node_id], "ping", size_bytes=256)
    started = perf_counter()
    sim.run()
    return net.messages_delivered / (perf_counter() - started)


def sim_rows(calls: int) -> Rows:
    rows: Rows = {
        "engine.events_per_s": statistics.median(
            _engine_events() for _ in range(calls)),
        "network.messages_per_s": statistics.median(
            _network_messages() for _ in range(calls)),
    }
    rates = []
    for _ in range(calls):
        network = PoWNetwork(PoWNetworkConfig(
            miner_count=8, duration_blocks=150, seed=0))
        started = perf_counter()
        result = network.run()
        blocks = result.chain.main_chain_length
        rates.append(blocks / (perf_counter() - started))
    rows["pow.blocks_per_s"] = statistics.median(rates)
    rows["pow.messages_per_block"] = network.network.messages_delivered / blocks

    values = [0.001 + 0.001 * (index % 997) for index in range(100_000)]
    for name, factory in (("sample", Sample), ("streaming", StreamingSample)):
        def observe_all() -> None:
            observe = factory("ledger").observe
            for value in values:
                observe(value)

        rows[f"metrics.{name}_observe_ns"] = \
            1e9 * _median_s(observe_all, repeat=calls) / len(values)
    return rows


# ----------------------------------------------------------------------
# scenarios.execution
# ----------------------------------------------------------------------
def execution_rows(plan: ExecutionPlan, pool_plan: ExecutionPlan,
                   metrics_by_key: Dict[str, dict]) -> Rows:
    jobs = plan.jobs
    supervised = JobPolicy(max_retries=2, timeout_s=600, keep_going=True)

    def timed(function: Callable[[], object]) -> float:
        started = perf_counter()
        function()
        return perf_counter() - started

    # Same-run control: the bare loop is timed beside each variant, and the
    # overhead is the median of the paired differences.
    serial, guarded = [], []
    for _ in range(3):
        bare = timed(lambda: [execute_unit(job) for job in jobs])
        serial.append(timed(lambda: execute_plan(plan, SerialBackend())) - bare)
        guarded.append(timed(lambda: execute_plan(
            plan, SerialBackend(), policy=supervised)) - bare)
    rows: Rows = {
        "execution.serial_overhead_us":
            1e6 * statistics.median(serial) / len(jobs),
        "execution.supervised_overhead_us":
            1e6 * statistics.median(guarded) / len(jobs),
        "execution.assemble_us":
            1e6 * _median_s(lambda: plan.assemble(metrics_by_key)) / len(jobs),
    }

    first, rest = [], []
    for _ in range(3):
        ticks: List[float] = []
        started = perf_counter()
        ProcessPoolBackend(2).execute(
            pool_plan, progress=lambda *_: ticks.append(perf_counter()))
        first.append(ticks[0] - started)
        rest.append((ticks[-1] - ticks[0]) / max(1, len(ticks) - 1))
    rows["execution.pool_start_ms"] = 1e3 * statistics.median(first)
    rows["execution.pool_dispatch_us"] = 1e6 * statistics.median(rest)
    return rows


# ----------------------------------------------------------------------
# analysis.runstore / resultset / diff
# ----------------------------------------------------------------------
def results_rows(plan: ExecutionPlan, metrics_by_key: Dict[str, dict],
                 figure1: ResultSet, workdir: Path, calls: int) -> Rows:
    store = RunStore(fresh_dir(workdir, "ledger-store"))
    keys = plan.job_keys()

    def per_key(function: Callable[[str], object]) -> float:
        samples = []
        for key in keys:
            started = perf_counter()
            function(key)
            samples.append(perf_counter() - started)
        return 1e6 * statistics.median(samples)

    rows: Rows = {
        "runstore.put_unit_us":
            per_key(lambda key: store.put_unit(key, metrics_by_key[key])),
        "runstore.get_unit_us": per_key(store.get_unit),
        "runstore.completed_units_us":
            1e6 * _median_s(lambda: store.completed_units(keys), repeat=3)
            / len(keys),
    }
    results = plan.assemble(metrics_by_key)
    names = iter(f"ledger-{index}" for index in range(5))
    rows["runstore.save_ms"] = 1e3 * _median_s(
        lambda: store.save(results, next(names)))
    rows["runstore.load_ms"] = 1e3 * _median_s(lambda: store.load("ledger-0"))

    payload = results.to_json()
    rows["resultset.to_json_ms"] = 1e3 * _median_s(results.to_json)
    rows["resultset.from_json_ms"] = 1e3 * _median_s(
        lambda: ResultSet.from_json(payload))
    rows["resultset.aggregate_ci_ms"] = 1e3 * _median_s(
        lambda: figure1.aggregate("family").ci95("throughput_tps"))
    twin = ResultSet.from_json(figure1.to_json())
    rows["diff.figure1_ms"] = 1e3 * _median_s(
        lambda: diff_resultsets(figure1, twin), repeat=calls)
    return rows


# ----------------------------------------------------------------------
# distributed.protocol / journal / broker
# ----------------------------------------------------------------------
def _wire_jobs(plan: ExecutionPlan) -> List[Dict[str, object]]:
    return [{"key": job.key, "spec": job.spec.to_dict(), "seed": job.seed,
             "scenario": job.spec.name} for job in plan.jobs]


def _served(address: str, reply: Dict[str, object], frames_per_reply: int,
            exchange: Callable[[socket.socket], None], rounds: int) -> float:
    """Median seconds of ``exchange`` against a thread that reads
    ``frames_per_reply`` frames and then answers with ``reply``."""
    listener = create_listener(address)

    def serve() -> None:
        conn, _ = listener.accept()
        with conn:
            while True:
                for _ in range(frames_per_reply):
                    if recv_frame(conn) is None:
                        return
                send_frame(conn, reply)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        with connect(listener_address(listener), timeout=5.0) as conn:
            samples = []
            for _ in range(rounds):
                started = perf_counter()
                exchange(conn)
                samples.append(perf_counter() - started)
    finally:
        server.join(timeout=5.0)
        listener.close()
    return statistics.median(samples)


def protocol_rows(plan: ExecutionPlan, metrics_by_key: Dict[str, dict],
                  workdir: Path, calls: int) -> Rows:
    queue = BrokerQueue()
    queue.submit("ledger-frame", _wire_jobs(plan)[:1])
    job_frame = queue.lease("ledger")  # the real lease `job` frame
    frame_bytes = 4 + len(json.dumps(job_frame, sort_keys=True,
                                     separators=(",", ":")).encode("utf-8"))
    kib = frame_bytes / 1024.0
    left, right = socket.socketpair()
    sends, receives = [], []
    with left, right:
        for _ in range(300):
            t0 = perf_counter()
            send_frame(left, job_frame)
            t1 = perf_counter()
            recv_frame(right)
            t2 = perf_counter()
            sends.append(t1 - t0)
            receives.append(t2 - t1)
    rows: Rows = {
        "protocol.job_frame_bytes": frame_bytes,
        "protocol.encode_us_per_kib": 1e6 * statistics.median(sends) / kib,
        "protocol.decode_us_per_kib": 1e6 * statistics.median(receives) / kib,
    }

    def round_trip(conn: socket.socket) -> None:
        send_frame(conn, job_frame)
        recv_frame(conn)

    # The worker's pattern: `complete` then `lease` back to back, then wait
    # for the next job.  On TCP the second small write waits for the ACK of
    # the first (Nagle) while the peer delays that ACK, having nothing to
    # send yet.
    complete = {"type": "complete", "lease": job_frame["lease"],
                "metrics": metrics_by_key[plan.jobs[0].key]}
    lease = {"type": "lease", "wait_s": 0.5}

    def complete_then_lease(conn: socket.socket) -> None:
        send_frame(conn, complete)
        send_frame(conn, lease)
        recv_frame(conn)

    with short_unix_address(workdir / "ledger-echo.sock") as unix:
        rows["protocol.roundtrip_unix_us"] = 1e6 * _served(
            unix, job_frame, 1, round_trip, 200)
    rows["protocol.roundtrip_tcp_us"] = 1e6 * _served(
        "127.0.0.1:0", job_frame, 1, round_trip, 200)
    rows["protocol.send2_recv_tcp_us"] = 1e6 * _served(
        "127.0.0.1:0", job_frame, 2, complete_then_lease, 3 * calls)
    return rows


def _queue_cycle(queue: BrokerQueue, run_id: str,
                 wire_jobs: List[Dict[str, object]],
                 metrics: Dict[str, float]) -> float:
    """Seconds per job of submit -> (lease -> complete) x jobs."""
    started = perf_counter()
    queue.submit(run_id, wire_jobs)
    for _ in wire_jobs:
        queue.complete(str(queue.lease("ledger")["lease"]), metrics)
    return (perf_counter() - started) / len(wire_jobs)


def broker_rows(plan: ExecutionPlan, metrics_by_key: Dict[str, dict],
                workdir: Path) -> Rows:
    wire_jobs = _wire_jobs(plan)[:100]
    metrics = metrics_by_key[plan.jobs[0].key]
    rows: Rows = {"broker.queue_cycle_us": 1e6 * statistics.median(
        _queue_cycle(BrokerQueue(), f"plain-{index}", wire_jobs, metrics)
        for index in range(5))}

    journal_dir = fresh_dir(workdir, "ledger-journal")
    journals = JournalDir(journal_dir)
    journaled = BrokerQueue(journal=journals)
    rows["broker.queue_cycle_journal_us"] = 1e6 * _queue_cycle(
        journaled, "journaled", wire_jobs, metrics)
    # The run is settled but not yet retired: its journal is complete.
    records = sum(1 for _ in open(journals.path_for("journaled"),
                                  encoding="utf-8"))
    rows["journal.records_per_job"] = records / len(wire_jobs)
    rows["journal.replay_us"] = 1e6 * _median_s(journals.replay) / records
    journaled.retire("journaled")

    journal = RunJournal(journal_dir / "append.jsonl")
    record = {"type": "done", "key": plan.jobs[0].key, "metrics": metrics,
              "cached": False}
    try:
        rows["journal.append_us"] = 1e6 * _median_s(
            lambda: journal.append(record), number=1, repeat=50)
    finally:
        journal.close()
    return rows


# ----------------------------------------------------------------------
# distributed.backend + worker: four deployments of one small plan
# ----------------------------------------------------------------------
def distributed_rows(sizes: Sizes, seed: int, workdir: Path) -> Rows:
    """(pass wall - serial wall of the same plan) / jobs, per deployment.

    ``tcp-journal`` is the ``broker-tcp`` workload's deployment; the other
    three split its per-job cost into transport stall and journal fsync.
    """
    variants = {
        f"{transport}-{'journal' if journal else 'nojournal'}": BrokerTcp(
            sizes, seed, workdir,
            transport=transport, journal=journal, points=sizes.variant_points)
        for transport in ("tcp", "unix") for journal in (True, False)}
    rows: Rows = {}
    try:
        # Started together so the four interpreter start-ups overlap; an
        # idle deployment only long-polls, so it does not disturb the one
        # being measured.
        for workload in variants.values():
            workload.start()
        for variant, workload in variants.items():
            serial = _median_s(lambda: execute_plan(
                workload.compile(), SerialBackend()).to_json(), repeat=3)
            passes = [run_pass(workload, f"v{index}") for index in range(3)]
            walls = [outcome.wall_s for outcome in passes[1:]]  # [0] warms up
            rows[f"distributed.overhead_ms.{variant}"] = \
                1e3 * (statistics.median(walls) - serial) / passes[0].jobs
    finally:
        for workload in variants.values():
            workload.stop()
    return rows


def collect(sizes: Sizes, seed: int, workdir: Path) -> Rows:
    """Every ledger row that does not depend on the workload under test."""
    sweep = sweep_spec(sizes.ledger_points, sizes.sweep_replicates, seed)
    plan = compile_sweep(sweep)
    pool_plan = compile_sweep(sweep_spec(
        sizes.broker_points, sizes.broker_replicates, seed))
    metrics_by_key = SerialBackend().execute(plan)
    calls = sizes.ledger_repeat  # behind each slow row; the rest take >= 30
    rows = spec_rows(sweep, plan)
    adapters, figure1 = adapter_rows(seed, plan, calls)
    rows.update(adapters)
    rows.update(fastkad_rows(sizes, seed))
    rows.update(sim_rows(calls))
    rows.update(execution_rows(plan, pool_plan, metrics_by_key))
    rows.update(results_rows(plan, metrics_by_key, figure1, workdir, calls))
    rows.update(protocol_rows(plan, metrics_by_key, workdir, calls))
    rows.update(broker_rows(plan, metrics_by_key, workdir))
    rows.update(distributed_rows(sizes, seed, workdir))
    return rows
