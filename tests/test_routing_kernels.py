"""The routing-table kernels of :class:`repro.sim.vecstate.VecRoutingTable`
against a straightforward reference.

:class:`ReferenceRoutingTable` is the earlier, plainer formulation of the
same model: full-table ``filled`` masks, ``.any``/``argmax`` reductions
along the slot axis, 3-D fancy indexing, a whole-table bootstrap draw and
one sort of every row.  The production kernels must match it bit for bit —
``table``, ``stale`` and every return value after every pass — because the
eviction and refresh draws hash flat slot positions, so any drift in slot
order or in which rows draw moves every later pass.
"""

import math
import threading
import tracemalloc
from typing import Optional

import numpy as np
import pytest

from repro.p2p.fastkad import FastKademliaOverlay
from repro.sim import vecstate
from repro.sim.vecstate import (
    EMPTY,
    VecIdSpace,
    VecRoutingTable,
    hashed_uniform,
    stream_key,
)

_U64 = np.uint64


class ReferenceRoutingTable:
    """Bootstrap and maintenance of :class:`VecRoutingTable`, written plainly."""

    def __init__(self, space: VecIdSpace, k: int = 8,
                 bucket_count: Optional[int] = None, seed: int = 0,
                 stale_fraction: float = 0.0) -> None:
        self.space = space
        self.k = int(k)
        n = space.n
        if bucket_count is None:
            bucket_count = min(64, int(math.ceil(math.log2(n))) + 8)
        self.bucket_count = int(bucket_count)
        self.seed = seed
        self._maintenance_passes = 0
        ids = space.ids
        k = self.k

        self.range_lo = np.empty((n, self.bucket_count), dtype=np.int64)
        self.range_len = np.empty((n, self.bucket_count), dtype=np.int64)
        for bucket in range(self.bucket_count):
            bit = 63 - bucket
            low_mask = (_U64(1) << _U64(bit)) - _U64(1)
            base = (ids ^ (_U64(1) << _U64(bit))) & ~low_mask
            lo = np.searchsorted(ids, base, side="left")
            hi = np.searchsorted(ids, base | low_mask, side="right")
            self.range_lo[:, bucket] = lo
            self.range_len[:, bucket] = hi - lo

        self.table = np.full((n, self.bucket_count, k), EMPTY, dtype=np.int32)
        fill_key = stream_key(seed, "table-bootstrap")
        nodes = np.arange(n, dtype=np.uint64)[:, None]
        for bucket in range(self.bucket_count):
            lo = self.range_lo[:, bucket][:, None]
            count = self.range_len[:, bucket][:, None]
            slots = np.arange(k, dtype=np.uint64)[None, :]
            u = hashed_uniform(fill_key, nodes, np.uint64(bucket), slots)
            sampled = lo + np.minimum(
                (u * count).astype(np.int64), np.maximum(count - 1, 0))
            sequential = lo + np.arange(k, dtype=np.int64)[None, :]
            contacts = np.where(count > k, sampled, sequential)
            contacts = np.where(np.arange(k)[None, :] < count, contacts,
                                np.int64(EMPTY))
            self.table[:, bucket, :] = contacts.astype(np.int32)
        self._dedupe_rows()

        stale = np.zeros_like(self.table, dtype=bool)
        if stale_fraction > 0.0:
            stale_key = stream_key(seed, "table-stale")
            entry = np.arange(n * k, dtype=np.uint64)
            for bucket in range(self.bucket_count):
                u = hashed_uniform(stale_key, entry,
                                   np.uint64(bucket)).reshape(n, k)
                stale[:, bucket, :] = (self.table[:, bucket, :] != EMPTY) & (
                    u < stale_fraction)
        self.stale = stale

    def staleness(self, online: np.ndarray) -> float:
        filled = self.table != EMPTY
        total = int(filled.sum())
        if not total:
            return 0.0
        alive = online[np.where(filled, self.table, np.int32(0))]
        dead = filled & (self.stale | ~alive)
        return float(dead.sum()) / total

    def evict_offline(self, online: np.ndarray,
                      detection: float = 0.8) -> int:
        filled = self.table != EMPTY
        alive = online[np.where(filled, self.table, np.int32(0))]
        candidates = filled & (self.stale | ~alive)
        flat = np.flatnonzero(candidates)
        if len(flat) == 0:
            return 0
        key = stream_key(self.seed, "table-evict")
        u = hashed_uniform(key, flat.astype(np.uint64),
                           np.uint64(self._maintenance_passes))
        evict = flat[u < detection]
        self.table.reshape(-1)[evict] = EMPTY
        self.stale.reshape(-1)[evict] = False
        return len(evict)

    def refresh(self, online: np.ndarray, samples: int = 4) -> int:
        is_empty = self.table == EMPTY
        has_room = is_empty.any(axis=2)
        first_empty = is_empty.argmax(axis=2)
        order = np.cumsum(has_room, axis=1, dtype=np.int32)
        allowed = has_room & (order <= samples)
        node_idx, bucket_idx = np.nonzero(allowed)
        if len(node_idx) == 0:
            self._maintenance_passes += 1
            return 0
        lo = self.range_lo[node_idx, bucket_idx]
        count = self.range_len[node_idx, bucket_idx]
        key = stream_key(self.seed, "table-refresh")
        u = hashed_uniform(key, node_idx.astype(np.uint64),
                           bucket_idx.astype(np.uint64),
                           np.uint64(self._maintenance_passes))
        candidate = lo + np.minimum((u * count).astype(np.int64),
                                    np.maximum(count - 1, 0))
        rows = self.table[node_idx, bucket_idx]
        duplicate = (rows == candidate[:, None].astype(np.int32)).any(axis=1)
        live = online[np.minimum(candidate, len(online) - 1)]
        viable = (count > 0) & live & ~duplicate
        self.table[node_idx[viable], bucket_idx[viable],
                   first_empty[node_idx[viable], bucket_idx[viable]]] = (
            candidate[viable].astype(np.int32))
        self._maintenance_passes += 1
        return int(viable.sum())

    def _dedupe_rows(self) -> None:
        ordered = np.sort(self.table, axis=2)
        dup = np.zeros_like(ordered, dtype=bool)
        dup[:, :, 1:] = (ordered[:, :, 1:] == ordered[:, :, :-1]) & (
            ordered[:, :, 1:] != EMPTY)
        ordered[dup] = EMPTY
        self.table = ordered


DETECTIONS = (0.0, 0.9, 1.0)
SAMPLES = (0, 1, 8)
ONLINE_MODES = ("all-on", "all-off", "random")


def _online(mode: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if mode == "all-on":
        return np.ones(n, dtype=bool)
    if mode == "all-off":
        return np.zeros(n, dtype=bool)
    return rng.random(n) < 0.6


def _assert_same(reference: ReferenceRoutingTable,
                 table: VecRoutingTable, when: str) -> None:
    assert np.array_equal(reference.table, table.table), f"table after {when}"
    assert np.array_equal(reference.stale, table.stale), f"stale after {when}"


def _run_against_reference(n: int, k: int, stale_fraction: float) -> None:
    """Bootstrap, then nine evict/refresh passes: a 3x3 Latin square over
    (detection, samples, online mode), so every pair of pass settings
    meets once, with ``online`` re-drawn every pass."""
    seed = n + k
    space = VecIdSpace(n, seed=seed)
    reference = ReferenceRoutingTable(space, k=k, seed=seed,
                                      stale_fraction=stale_fraction)
    table = VecRoutingTable(space, k=k, seed=seed,
                            stale_fraction=stale_fraction)
    _assert_same(reference, table, "bootstrap")
    rng = np.random.default_rng(seed)
    for step in range(9):
        i, j = divmod(step, 3)
        detection, samples = DETECTIONS[i], SAMPLES[j]
        online = _online(ONLINE_MODES[(i + j) % 3], n, rng)
        when = f"pass {step} (detection={detection}, samples={samples})"
        assert table.evict_offline(online, detection) == \
            reference.evict_offline(online, detection), when
        _assert_same(reference, table, f"evict in {when}")
        assert table.refresh(online, samples) == \
            reference.refresh(online, samples), when
        _assert_same(reference, table, f"refresh in {when}")
        assert table.staleness(online) == reference.staleness(online), when


@pytest.mark.parametrize("stale_fraction", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("k", [1, 3, 8, 20])
@pytest.mark.parametrize("n", [2, 3, 50, 1000, 5000])
def test_kernels_match_the_reference(n, k, stale_fraction):
    _run_against_reference(n, k, stale_fraction)


def test_a_table_that_ends_empty_matches_too():
    """Everyone offline and detection 1: eviction drains every bucket and
    refresh finds nothing, so the later passes run on an all-EMPTY table."""
    space = VecIdSpace(300, seed=4)
    reference = ReferenceRoutingTable(space, k=4, seed=4, stale_fraction=0.5)
    table = VecRoutingTable(space, k=4, seed=4, stale_fraction=0.5)
    nobody = np.zeros(300, dtype=bool)
    for _ in range(3):
        assert table.evict_offline(nobody, 1.0) == \
            reference.evict_offline(nobody, 1.0)
        assert table.refresh(nobody, 8) == reference.refresh(nobody, 8) == 0
        _assert_same(reference, table, "a draining pass")
    assert not (table.table != EMPTY).any()
    assert table.staleness(nobody) == reference.staleness(nobody) == 0.0


# ----------------------------------------------------------------------
# The block map: the kernels run over blocks of ``_BLOCK_NODES`` nodes on
# every core, and the result must not depend on the number of workers.
# ----------------------------------------------------------------------
def _workers(monkeypatch, count: int) -> None:
    monkeypatch.setattr(vecstate, "_cores", lambda: count)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", [1000, 2048, 4097])
def test_every_worker_count_matches_the_reference(monkeypatch, n, workers):
    """Below, at and just past the block boundaries (one block, exactly
    one, three with a one-node tail)."""
    assert vecstate._BLOCK_NODES == 2048
    _workers(monkeypatch, workers)
    _run_against_reference(n, k=8, stale_fraction=0.1)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 6145])
def test_map_blocks_covers_every_node_once_in_block_order(monkeypatch, n,
                                                         workers):
    _workers(monkeypatch, workers)
    spans = vecstate._map_blocks(n, lambda start, stop: (start, stop))
    starts = list(range(0, n, vecstate._BLOCK_NODES))
    assert spans == [(start, min(start + vecstate._BLOCK_NODES, n))
                     for start in starts]


def test_a_failing_block_in_a_helper_thread_surfaces_in_the_caller(
        monkeypatch):
    """Every block runs on a helper thread; the first block waits until
    another has failed, so the exception really crosses threads; no
    helper outlives the call."""
    _workers(monkeypatch, 3)
    baseline = threading.active_count()
    caller = threading.current_thread()
    failed = threading.Event()

    def kernel(start: int, stop: int) -> int:
        assert threading.current_thread() is not caller
        if start == 0:
            assert failed.wait(timeout=10.0)
            return start
        failed.set()
        raise ValueError(f"block at {start}")

    with pytest.raises(ValueError, match="block at"):
        vecstate._map_blocks(3 * vecstate._BLOCK_NODES, kernel)
    assert threading.active_count() == baseline


def test_a_job_beside_other_jobs_keeps_to_one_core():
    """A pool worker (a child process) and a broker worker's job thread
    share the host with sibling jobs: their block maps start no thread."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    seen = []
    helper = threading.Thread(target=lambda: seen.append(vecstate._cores()))
    helper.start()
    helper.join()
    assert seen == [1]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        assert pool.submit(vecstate._cores).result() == 1


@pytest.mark.parametrize("files,quota", [
    ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu.max": "max 100000\n"}, None),
    ({"quota": "-1\n", "period": "100000\n"}, None),
    ({"quota": "300000\n", "period": "100000\n"}, 3),
    ({}, None),
])
def test_the_cgroup_cpu_quota_caps_the_worker_count(monkeypatch, tmp_path,
                                                    files, quota):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(vecstate, "_CPU_QUOTA_FILES", (
        (str(tmp_path / "cpu.max"),),
        (str(tmp_path / "quota"), str(tmp_path / "period"))))
    assert vecstate._cpu_quota() == quota
    monkeypatch.setattr(vecstate.os, "sched_getaffinity",
                        lambda pid: set(range(8)), raising=False)
    assert vecstate._cores() == (8 if quota is None else quota)


def test_the_overlay_summary_does_not_depend_on_the_worker_count(
        monkeypatch):
    from test_vecstate import fast_config

    config = dict(network_size=4500, lookups=200)
    _workers(monkeypatch, 1)
    alone = FastKademliaOverlay(fast_config(**config)).run()
    _workers(monkeypatch, 3)
    spread = FastKademliaOverlay(fast_config(**config)).run()
    assert spread == alone


def test_maintenance_temporaries_stay_within_a_few_blocks(monkeypatch):
    """One evict + refresh pass at n = 20 000 (k = 20: a 35 MiB table)
    allocates block-sized temporaries only.  The whole-table formulation
    peaked at ~95 MiB in eviction alone."""
    _workers(monkeypatch, 1)
    n = 20_000
    table = VecRoutingTable(VecIdSpace(n, seed=0), k=20, seed=0,
                            stale_fraction=0.1)
    online = hashed_uniform(stream_key(0, "online"),
                            np.arange(n, dtype=_U64)) < 0.55
    tracemalloc.start()
    try:
        assert table.evict_offline(online, 0.8) > 0
        assert table.refresh(online, 4) > 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
