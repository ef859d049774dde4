"""Microbenchmarks for the fast-path simulation core.

Unlike the ``test_e*`` experiment benchmarks (which reproduce paper claims),
these measure the *harness itself*: engine events/sec, network messages/sec
and end-to-end PoW blocks/sec.  ``benchmarks.perf_report`` runs the same
workloads at full size and maintains the committed ``BENCH_core.json``
trajectory; here they run at reduced size so the whole suite stays fast,
and the assertions are structural (work completed, accounting consistent)
rather than wall-clock thresholds, which would flake on shared CI hosts.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.perf_core import (
    engine_events,
    network_messages,
    pow_blocks,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_core.json"


class TestEngineMicrobench:
    def test_engine_events_blend(self, once):
        total = 40_000
        processed, elapsed = once(engine_events, total=total, ring=256)
        # Every budgeted event runs, plus the ring warm-up entries.
        assert processed >= total
        assert elapsed > 0
        print(f"\nengine events/sec: {processed / elapsed:,.0f}")


class TestNetworkMicrobench:
    def test_network_message_ring(self, once):
        delivered, elapsed = once(network_messages, total=20_000)
        assert delivered >= 20_000
        assert elapsed > 0
        print(f"\nnetwork messages/sec: {delivered / elapsed:,.0f}")


class TestEndToEndMicrobench:
    def test_pow_blocks(self, once):
        blocks, elapsed = once(pow_blocks, blocks=40, miners=8)
        assert blocks >= 40
        assert elapsed > 0
        print(f"\npow blocks/sec: {blocks / elapsed:,.0f}")


class TestCommittedBaseline:
    def test_bench_core_json_schema(self):
        document = json.loads(BENCH_PATH.read_text())
        assert document["schema"] == "bench-core/v1"
        for key in (
            "engine_events_per_sec",
            "network_messages_per_sec",
            "pow_blocks_per_sec",
        ):
            assert document["results"][key] > 0
            assert document["seed_baseline"][key] > 0

    def test_engine_speedup_vs_seed_is_at_least_3x(self):
        # The committed trajectory must show the slotted-engine rewrite
        # delivering >= 3x events/sec over the PR-1 seed implementation.
        document = json.loads(BENCH_PATH.read_text())
        assert document["speedup_vs_seed"]["engine_events_per_sec"] >= 3.0
