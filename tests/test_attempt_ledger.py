"""The attempt ledger, alone and under its three drivers.

:class:`~repro.scenarios.attempts.AttemptLedger` is the one place that
decides what a failed attempt costs, when its retry is due and when a job
is given up on.  Part one drives it alone, with a fake clock, through
generated interleavings (a Hypothesis state machine) and checks it against
a model; every settlement is also written down the way the broker journals
it, so a "crash" can fold the records back into a fresh ledger and every
*prefix* of the records must fold to the state the live ledger had at that
point (``tests/test_journal.py``'s prefix property, lifted from one
recorded journal to generated ones).  Part two runs the same scripted
faults through ``SerialBackend``, ``ProcessPoolBackend`` and a
``BrokerQueue`` and requires the same attempts, kinds and manifest keys,
plus the two pool behaviours that only exist because the ledger owns them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.distributed import BrokerQueue
from repro.distributed.broker import policy_to_dict
from repro.distributed.journal import replay_records
from repro.scenarios import (
    FaultPlan,
    FaultSpec,
    JobFailure,
    JobPolicy,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.scenarios.attempts import AttemptLedger

from fault_fixtures import FaultInjectingBackend, installed
from repro.scenarios.execution import UnitJob, _describe_error, execute_unit
from repro.scenarios.spec import ScenarioSpec

from test_fault_tolerance import sweep_plan

KEYS = ("a", "b", "c", "d")
keys = st.sampled_from(KEYS)
kinds = st.sampled_from(("exception", "timeout", "worker-crash"))


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class LedgerMachine(RuleBasedStateMachine):
    """The ledger against a model, under any interleaving and any crash."""

    @initialize(max_retries=st.integers(0, 3),
                base=st.sampled_from((0.0, 0.05, 2.0)))
    def start(self, max_retries, base):
        self.clock = FakeClock()
        self.policy = JobPolicy(max_retries=max_retries, backoff_base_s=base)
        self.ledger = AttemptLedger(self.policy, self.clock)
        # The model.
        self.charges = {key: 0 for key in KEYS}
        self.inflight = set()
        self.settled = {}  # key -> done | failed | cancelled
        self.first = {}  # key -> first dispatch seen by *this* ledger
        # What a broker would have journaled, and after each record what
        # the live ledger held for the keys still open.
        self.records = [{"type": "submit", "run": "r", "order": 0,
                         "policy": policy_to_dict(self.policy),
                         "jobs": [{"key": key} for key in KEYS]}]
        self.snapshots = [self._snapshot()]

    def _open(self):
        return [key for key in KEYS if key not in self.settled]

    def _snapshot(self):
        return ({key: self.ledger.failed_attempts.get(key, 0)
                 for key in self._open()},
                {key for key, how in self.settled.items() if how == "done"},
                {key for key, how in self.settled.items() if how == "failed"})

    def _journal(self, record):
        self.records.append(record)
        self.snapshots.append(self._snapshot())

    # -- events --------------------------------------------------------
    @rule(dt=st.floats(0.0, 10.0))
    def tick(self, dt):
        self.clock.now += dt

    @rule(key=keys)
    def dispatch(self, key):
        if key in self.inflight or key in self.settled:
            return
        attempt = self.ledger.dispatched(key)
        assert attempt == self.charges[key] + 1
        assert attempt <= self.policy.attempts
        self.inflight.add(key)
        self.first.setdefault(key, self.clock.now)

    @rule(key=keys)
    def succeed(self, key):
        if key not in self.inflight:
            return
        self.ledger.succeeded(key)
        self.inflight.remove(key)
        self.settled[key] = "done"
        self._journal({"type": "done", "key": key, "metrics": {}})

    @rule(key=keys, kind=kinds)
    def fail(self, key, kind):
        if key not in self.inflight:
            return
        verdict = self.ledger.failed(key, kind, "boom", scenario="s", seed=7)
        self.inflight.remove(key)
        attempts = self.charges[key] + 1
        if attempts < self.policy.attempts:
            assert verdict == (self.clock.now
                               + self.policy.backoff_delay(key, attempts))
            self.charges[key] = attempts
            self._journal({"type": "charge", "key": key,
                           "attempts": attempts})
            return
        assert isinstance(verdict, JobFailure)
        assert (verdict.key, verdict.kind, verdict.error) == (key, kind, "boom")
        assert (verdict.scenario, verdict.seed) == ("s", 7)
        assert verdict.attempts == attempts == self.policy.attempts
        assert verdict.elapsed_s == self.clock.now - self.first[key]
        self.settled[key] = "failed"
        self._journal({"type": "failed", "key": key,
                       "failure": verdict.to_dict()})

    @rule(key=keys)
    def lose(self, key):
        if key not in self.inflight:
            return
        self.ledger.lost(key)  # charges nothing: see the invariant
        self.inflight.remove(key)

    @rule(key=keys)
    def cancel(self, key):
        if key in self.settled:
            return
        self.ledger.cancelled(key)
        self.inflight.discard(key)
        self.settled[key] = "cancelled"

    @rule()
    def crash(self):
        """Everything in flight dies unreported; the journal is folded
        into a fresh ledger, as ``BrokerQueue.recover`` does."""
        state = replay_records(self.records)
        self.ledger = AttemptLedger(self.policy, self.clock,
                                    charges=state.charges)
        self.inflight.clear()
        self.first.clear()  # first-dispatch times are not durable

    @precondition(lambda self: self.settled)
    @rule(data=st.data())
    def settle_again(self, data):
        key = data.draw(st.sampled_from(sorted(self.settled)))
        for event in (lambda: self.ledger.succeeded(key),
                      lambda: self.ledger.failed(key, "exception", "late"),
                      lambda: self.ledger.lost(key)):
            with pytest.raises(KeyError):
                event()

    # -- what must always hold -----------------------------------------
    @invariant()
    def ledger_matches_the_model(self):
        for key in self._open():
            assert self.ledger.failed_attempts.get(key, 0) == self.charges[key]
            assert self.charges[key] < self.policy.attempts
        assert dict(self.ledger.first_dispatch) == {
            key: at for key, at in self.first.items()
            if key not in self.settled}

    def teardown(self):
        """Every prefix of the records folds to the state the live ledger
        had when the last record of that prefix was written."""
        for cut, (charges, done, failed) in enumerate(self.snapshots, 1):
            state = replay_records(self.records[:cut])
            assert {key: state.charges.get(key, 0)
                    for key in charges} == charges
            assert set(state.results) == done
            assert set(state.failures) == failed


LedgerMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestLedgerMachine = LedgerMachine.TestCase


# ----------------------------------------------------------------------
# The same scripted faults through the three drivers
# ----------------------------------------------------------------------
POLICY = JobPolicy(max_retries=2, keep_going=True, backoff_base_s=0.0)


def _through_backend(backend):
    def drive(plan, faults):
        failures = {}
        fresh = FaultInjectingBackend(backend, faults).execute(
            plan, policy=POLICY, failures=failures)
        return fresh, failures
    return drive


def _through_queue(plan, faults):
    """A worker's loop, in process: lease, run the attempt, report."""
    queue = BrokerQueue()
    events = queue.submit("conformance", [
        {"key": job.key, "spec": job.spec.to_dict(), "seed": job.seed,
         "scenario": job.spec.name} for job in plan.jobs], POLICY)
    with installed(faults):
        while True:
            grant = queue.lease("w", wait_s=0.0)
            if grant["type"] != "job":
                break
            job = UnitJob(grant["key"], ScenarioSpec.from_dict(grant["spec"]),
                          grant["seed"])
            try:
                metrics = execute_unit(job, grant["attempt"])
            except Exception as error:  # noqa: BLE001 - reported like a worker
                queue.fail(grant["lease"], "exception",
                           _describe_error(error))
            else:
                queue.complete(grant["lease"], metrics)
    fresh, failures = {}, {}
    while True:
        event = events.get(timeout=5.0)
        if event["type"] == "job-done":
            fresh[event["key"]] = event["metrics"]
        elif event["type"] == "job-failed":
            failures[event["key"]] = JobFailure.from_dict(event["failure"])
        elif event["type"] == "run-done":
            return fresh, failures


DRIVERS = {"serial": _through_backend(SerialBackend()),
           "pool": _through_backend(ProcessPoolBackend(2)),
           "broker": _through_queue}


@pytest.fixture(autouse=True)
def _no_ambient_fault_plan(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("script", ["raises-twice-then-succeeds",
                                    "raises-always"])
def test_drivers_agree_on_attempts_kind_and_manifest(driver, script):
    plan = sweep_plan()
    victim = plan.jobs[1].key
    recovers = script == "raises-twice-then-succeeds"
    faults = FaultPlan([FaultSpec(match=victim, action="raise",
                                  attempts=(1, 2) if recovers else ())])
    fresh, failures = DRIVERS[driver](plan, faults)
    golden = SerialBackend().execute(plan)
    if recovers:
        # The fault fires on attempts 1 and 2 only, so metrics for the
        # victim mean a third attempt ran, numbered 3.
        assert fresh == golden and failures == {}
        return
    assert fresh == {key: value for key, value in golden.items()
                     if key != victim}
    assert sorted(failures) == [victim]
    failure = failures[victim]
    assert (failure.kind, failure.attempts) == ("exception", 3)
    assert "InjectedFault" in failure.error
    assert (failure.scenario, failure.seed) == (
        plan.jobs[1].spec.name, plan.jobs[1].seed)


def test_pool_elapsed_covers_every_attempt_not_the_last():
    plan = sweep_plan()
    victim = plan.jobs[0].key
    failures = {}
    FaultInjectingBackend(
        ProcessPoolBackend(2),
        FaultPlan([FaultSpec(match=victim, action="raise")]),
    ).execute(plan, failures=failures, policy=JobPolicy(
        max_retries=1, keep_going=True, backoff_base_s=0.2,
        backoff_jitter=0.0))
    assert failures[victim].attempts == 2
    # Two attempts with a 0.2 s backoff between them: measured from the
    # first dispatch, like the serial backend and the broker.
    assert failures[victim].elapsed_s >= 0.2


_KILLED_WORKER_NO_POLICY = """
import os
from repro.scenarios import (FaultPlan, FaultSpec, JobExecutionError,
                             ProcessPoolBackend, compile_sweep, execute_plan)
plan = compile_sweep("market-concentration", overrides={
    "architecture.steps": 20, "architecture.arrivals_per_step": 20})
os.environ["REPRO_FAULT_PLAN"] = FaultPlan(
    [FaultSpec(match="", action="kill", attempts=(1,))]).to_json()
backend = ProcessPoolBackend(2)
try:
    execute_plan(plan, backend=backend)
except JobExecutionError as error:
    print(error.failure.kind, error.failure.attempts)
"""


def test_killed_worker_without_a_policy_fails_loudly_instead_of_hanging():
    # In a child under a hard deadline: the bug this pins was a run that
    # never returned, which must fail this test, not wedge the suite.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_PLAN", None)
    result = subprocess.run(
        [sys.executable, "-c", _KILLED_WORKER_NO_POLICY], env=env,
        capture_output=True, text=True, timeout=30)
    assert result.stdout.split() == ["worker-crash", "1"], result.stderr
