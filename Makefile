PY := python

.PHONY: test bench bench-update experiments goldens smoke chaos distributed lint typecheck e2e-check

# Correctness gates, quickest first:
#   make lint       reprolint determinism/purity contract (RL001-RL006);
#                   zero unsuppressed findings or exit 1
#   make typecheck  mypy targeted-strict over the determinism-critical core
#                   (skips with a notice when mypy is not installed)
#   make test       full tier-1 suite including the golden corpus
#   make chaos      fault-injection + hostile-log suites (unit segments and
#                   broker journal), figure1 under worker kills

# Tier-1 gate.  Includes the golden-corpus test (tests/test_goldens.py):
# every registered scenario and study re-runs trimmed at its fixed seed and
# must diff clean (zero tolerance) against tests/goldens/.
test:
	PYTHONPATH=src $(PY) -m pytest -x -q

# Enforce the determinism contract (see `repro-lint --list-rules` and the
# "Determinism contract" section of ROADMAP.md).  Exit 1 on any
# unsuppressed finding; suppressions require an inline reason.
lint:
	PYTHONPATH=src $(PY) -m repro.analysis.lint

# Targeted-strict mypy over the determinism-critical core (config and the
# checked file list live in mypy.ini).  mypy is not vendored: when it is
# missing locally the target reports a skip and exits 0; CI installs it.
typecheck:
	@if PYTHONPATH=src $(PY) -c "import mypy" >/dev/null 2>&1; then \
		PYTHONPATH=src $(PY) -m mypy --config-file mypy.ini; \
	else \
		echo "typecheck: mypy not installed - skipping (pip install mypy to enable)"; \
	fi

# Run the core perf suite (<60 s) and fail if engine events/sec regresses
# more than 20% from the committed BENCH_core.json baseline.  Kept out of CI:
# the baselines are host-dependent (run manually / nightly).
bench:
	PYTHONPATH=src $(PY) -m benchmarks.perf_report

# Full-scale output check of the end-to-end benchmark: each workload runs
# once at seed 0 with no measuring window and must print the "full" hash
# that benchmarks/e2e/expected.json pins (tier-1 checks only the "tiny"
# hashes).  Any non-zero exit fails the target; ~25 s on a 2-core host.
E2E_WORKLOADS := figure1-serial kad-fast sweep-cold sweep-resume broker-tcp
e2e-check:
	@set -e; for workload in $(E2E_WORKLOADS); do \
		$(PY) benchmarks/e2e/run.py --workload $$workload --seed 0 \
		  --seconds 0 --trace 0; \
	done

# Refresh the results section of BENCH_core.json (seed_baseline is kept).
bench-update:
	PYTHONPATH=src $(PY) -m benchmarks.perf_report --update

# Regenerate EXPERIMENTS.md from the repro.core.claims registry.
experiments:
	PYTHONPATH=src $(PY) -m repro.analysis.experiments

# Regenerate the golden corpus (tests/goldens/) after an INTENTIONAL change
# to simulation numbers; commit the diff.  The tier-1 golden test fails with
# a rendered drift table until this is done.
goldens:
	PYTHONPATH=src $(PY) -m repro.scenarios.goldens

# Fault-tolerance gate: the scripted crash/retry/degrade suite (its
# fixtures — a plan installed around one backend call, a torn unit-cache
# write — live in tests/fault_fixtures.py) and both durable logs under
# hostile conditions (unit-cache segments and the broker journal cut and
# damaged at every byte; two unit writer processes, a unit writer
# SIGKILLed mid-grid), then the trimmed figure1 study
# on the --jobs 2 pool with REPRO_FAULT_PLAN killing every unit job's
# worker on its first attempt — supervision must retry, complete, and save
# a run whose failure manifest is empty (byte-identical to the fault-free
# golden by construction; asserted by the CI chaos job).
chaos:
	PYTHONPATH=src $(PY) -m pytest tests/test_fault_tolerance.py \
	  tests/test_segment_hostile.py -q
	REPRO_FAULT_PLAN='{"faults": [{"match": "", "attempts": [1], "action": "kill"}]}' \
	PYTHONPATH=src $(PY) -m repro.run study figure1 --quiet --jobs 2 \
	  --retries 2 --keep-going --save chaos-fig1 \
	  --set bitcoin.architecture.duration_blocks=15 \
	  --set ethereum.architecture.duration_blocks=45 \
	  --set pbft.duration=1.0 --set fabric.duration=1.0 --set edge.duration=1.0

# Distributed-execution gate: the protocol/broker/worker/journal/recovery
# suites in one pytest run.  They hold the two timer gates (TestTransport:
# TCP within 3x of the same run on a Unix socket; TestWorkerWatch: ~40 ms
# jobs not held to the worker's 200 ms poll) and the two chaos properties,
# each on a real subprocess:
#   worker kill   TestEndToEnd::test_worker_process_killed_mid_lease_is_invisible
#                 a repro-worker with a scripted first-attempt kill in its
#                 fault plan dies (exit 17) holding the first lease of the
#                 trimmed figure1 study; the saved run must have an empty
#                 failure manifest and be byte-identical to the committed
#                 study golden despite the mid-run death.
#   broker kill   TestBrokerKillRestart::test_sigkill_restart_is_byte_identical_to_the_golden
#                 a journaled repro-broker is SIGKILLed mid-run and
#                 restarted on the same journal; the client re-attaches,
#                 the run completes byte-identical with an empty manifest,
#                 and the retired run's journal file is garbage-collected.
# The durations table is where a re-introduced transport or poll stall
# shows first: every test here runs in ~2.5 s or less.
distributed:
	PYTHONPATH=src $(PY) -m pytest tests/test_distributed.py \
	  tests/test_journal.py tests/test_broker_recovery.py -q --durations=10

# Fast end-to-end smoke of the scenario runner: one trimmed scenario per
# architecture family (and superpeer-search, the experiment added by
# registration alone), plus the trimmed figure1 cross-family study — once
# serially and once on the --jobs 2 process-pool backend (the two JSON
# documents are byte-identical by construction; CI sees both paths).
# Scenarios go through the `run` and `sweep` subcommands and the bare-name
# spelling (`repro-run NAME` is `sweep NAME`); all seven are single-point,
# so the three spellings print the same document.  Last, one multi-point
# sweep (3 points x 2 replicates) runs serially and on --jobs 2, and the
# two JSON files must be identical byte for byte.
smoke:
	PYTHONPATH=src $(PY) -m repro.run pow-baseline --set architecture.duration_blocks=20 --quiet --json -
	PYTHONPATH=src $(PY) -m repro.run run pbft-consortium --set duration=1.0 --quiet --json -
	PYTHONPATH=src $(PY) -m repro.run sweep fabric-consortium --set duration=1.0 --quiet --json -
	PYTHONPATH=src $(PY) -m repro.run kad-lookup --set workload.lookups=20 --set topology.size=150 --quiet --json -
	PYTHONPATH=src $(PY) -m repro.run kademlia-churn-100k --set topology.size=5000 --set workload.lookups=200 --quiet --json -
	PYTHONPATH=src $(PY) -m repro.run superpeer-search --set topology.size=500 --set architecture.superpeers=20 --set workload.lookups=50 --quiet --json -
	PYTHONPATH=src $(PY) -m repro.run edge-placement --set workload.requests=200 --quiet --json -
	PYTHONPATH=src $(PY) -m repro.run study figure1 --quiet --json - \
	  --set bitcoin.architecture.duration_blocks=20 \
	  --set ethereum.architecture.duration_blocks=60 \
	  --set pbft.duration=1.0 --set fabric.duration=1.0 --set edge.duration=1.0
	PYTHONPATH=src $(PY) -m repro.run study figure1 --quiet --json - --jobs 2 \
	  --set bitcoin.architecture.duration_blocks=20 \
	  --set ethereum.architecture.duration_blocks=60 \
	  --set pbft.duration=1.0 --set fabric.duration=1.0 --set edge.duration=1.0
	dir=$$(mktemp -d) && \
	sweep="sweep pos-slashing --set architecture.rounds=50 --replicates 2 \
	  --sweep architecture.multi_vote_fraction=0,0.5,1 --quiet" && \
	PYTHONPATH=src $(PY) -m repro.run $$sweep --json $$dir/serial.json && \
	PYTHONPATH=src $(PY) -m repro.run $$sweep --jobs 2 --json $$dir/pool.json && \
	cmp $$dir/serial.json $$dir/pool.json; status=$$?; rm -rf $$dir; exit $$status
