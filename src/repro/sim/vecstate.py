"""Vectorized node-population state for large-N overlay simulations.

The scalar simulators in :mod:`repro.p2p` keep one Python object per node
(k-bucket dicts, per-node churn callbacks, per-event list appends).  That
representation tops out around 10^3 nodes; the platform's scaling
questions ("how does lookup latency behave at 10^5-10^6 peers?") need
3-4 more orders of magnitude.  This module holds the same state as flat
numpy arrays so whole-population operations are single batch array ops:

* :func:`splitmix64` / :func:`hashed_u64` / :func:`hashed_uniform` —
  counter-based deterministic randomness.  Every draw is a pure function
  of ``(seed, stream label, counters...)`` in uint64 arithmetic, so the
  results are reproducible across numpy versions (no dependence on
  ``np.random`` generator stream layouts) and across any batching order.
* :class:`VecIdSpace` — ``n`` unique 64-bit node identifiers, sorted
  ascending so that *node index == rank* and every XOR subtree (fixed
  bit prefix) is a contiguous slice of the array.
* :func:`xor_closest` — exact XOR-nearest-neighbour lookup for a batch
  of targets against a sorted id array (binary descent over bit
  prefixes; ~64 vectorized ``searchsorted`` rounds for any batch size).
* :class:`VecRoutingTable` — the Kademlia routing state of *all* nodes
  in one ``(n, buckets, k)`` array of int32 contact indices, built and
  maintained with batch operations (no per-node Python loops).
* :class:`VecChurn` — membership dynamics as parallel arrays (online
  flag, next transition time, per-node draw epoch); advancing virtual
  time flips whole cohorts at once instead of scheduling one engine
  callback per node, while drawing from the same session/downtime
  distributions as :class:`repro.sim.churn.ChurnModel`.

Identifier width is 64 bits here (the scalar Kademlia uses 160); for
distance-ordering purposes the reduced space is equivalent as long as
``n`` is far below 2^64, and it lets ids live in native uint64 lanes.

:mod:`repro.p2p.fastkad` composes these into the ``kad-fast`` overlay
substrate used by the ``kademlia-churn-100k`` scenario.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Tuple

import numpy as np

from repro.sim.churn import ChurnModel

#: Sentinel for "no contact in this routing-table slot".
EMPTY = np.int32(-1)

_U64 = np.uint64
_FULL_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


# ----------------------------------------------------------------------
# Counter-based randomness
# ----------------------------------------------------------------------
def splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (elementwise, wrapping).

    Written with explicit in-place ops so a call allocates two arrays,
    not six — this runs over multi-million-element counter arrays in the
    churn and maintenance paths, where temporaries dominate peak RSS.
    """
    z = x + 0x9E3779B97F4A7C15
    t = z >> np.uint64(30)
    z ^= t
    z *= 0xBF58476D1CE4E5B9
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= 0x94D049BB133111EB
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def stream_key(seed: int, label: str) -> int:
    """A 64-bit stream key derived from ``(seed, label)``.

    blake2b keeps labels collision-free without relying on Python's
    salted ``hash()`` (the cross-process determinism bug PR 2 fixed).
    """
    digest = hashlib.blake2b(
        f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def hashed_u64(key: int, *counters: object) -> np.ndarray:
    """Deterministic uint64 hash of one or more counter arrays.

    ``hashed_u64(key, a, b, ...)`` mixes each counter in sequence with a
    SplitMix64 round, so any (key, a, b, ...) tuple maps to an
    independent 64-bit value regardless of evaluation order or batch
    shape — the property that makes batched churn/table draws match
    however the population is sliced.
    """
    h = splitmix64(np.asarray(counters[0], dtype=_U64) ^ _U64(key & 0xFFFFFFFFFFFFFFFF))
    for counter in counters[1:]:
        h = splitmix64(h ^ np.asarray(counter, dtype=_U64))
    return h


def hashed_uniform(key: int, *counters: object) -> np.ndarray:
    """Deterministic uniforms on (0, 1] (never 0, so ``log(u)`` is safe)."""
    bits = hashed_u64(key, *counters)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53


def draw_durations(model: ChurnModel, mean: float, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from a churn model's session distribution.

    Matches the distribution families of
    :meth:`repro.sim.churn.ChurnModel._draw` (constant / exponential /
    Pareto / Weibull with the same parameterization), evaluated on a
    whole uniform array at once.
    """
    if mean <= 0:
        return np.zeros_like(u)
    kind = model.session_distribution
    if kind == "constant":
        return np.full_like(u, mean)
    if kind == "exponential":
        return -mean * np.log(u)
    if kind == "pareto":
        shape = model.pareto_shape
        scale = mean * (shape - 1.0) / shape if shape > 1 else mean
        return scale * u ** (-1.0 / shape)
    if kind == "weibull":
        shape = model.weibull_shape
        scale = mean / math.gamma(1.0 + 1.0 / shape)
        return scale * (-np.log(u)) ** (1.0 / shape)
    raise ValueError(f"unknown session distribution {kind!r}")


# ----------------------------------------------------------------------
# Identifier space
# ----------------------------------------------------------------------
class VecIdSpace:
    """``n`` unique random 64-bit node identifiers, sorted ascending.

    Sorting is the load-bearing trick: the node population is addressed
    by *rank* (int32 indices into :attr:`ids`), and any fixed bit prefix
    — i.e. any XOR subtree, hence any Kademlia bucket range — is a
    contiguous slice findable with ``np.searchsorted``.
    """

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 2:
            raise ValueError("an id space needs at least 2 nodes")
        key = stream_key(seed, "idspace")
        ids = hashed_u64(key, np.arange(n, dtype=np.uint64))
        ids = np.unique(ids)
        salt = 1
        while len(ids) < n:  # pragma: no cover - ~n^2/2^64 probability
            extra = hashed_u64(key, np.arange(n - len(ids), dtype=np.uint64),
                               np.uint64(salt))
            ids = np.unique(np.concatenate([ids, extra]))
            salt += 1
        self.ids: np.ndarray = ids[:n].copy()
        self.n = n

    def __len__(self) -> int:
        return self.n


def xor_closest(sorted_ids: np.ndarray,
                targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Index and XOR distance of the closest id to each target.

    Exact nearest-neighbour under the XOR metric, computed by descending
    the implicit bit trie: starting from the whole array, at each bit
    position keep the half of the current prefix range whose bit equals
    the target's (falling back to the other half when empty).  Because
    ``sorted_ids`` is ascending, each half is located with one global
    ``searchsorted`` clipped into the current range — 64 vectorized
    rounds regardless of batch size, versus an O(len * batch) brute
    force.  (The "sorted neighbour" shortcut is *not* exact for XOR —
    e.g. ``t=8`` against ``[0, 7]`` is closer to 0 — hence the descent.)
    """
    sorted_ids = np.asarray(sorted_ids, dtype=_U64)
    targets = np.atleast_1d(np.asarray(targets, dtype=_U64))
    if len(sorted_ids) == 0:
        raise ValueError("xor_closest needs a non-empty id array")
    lo = np.zeros(len(targets), dtype=np.int64)
    hi = np.full(len(targets), len(sorted_ids), dtype=np.int64)
    prefix = np.zeros(len(targets), dtype=_U64)
    for bit in range(63, -1, -1):
        active = (hi - lo) > 1
        if not active.any():
            break
        boundary = prefix | (_U64(1) << _U64(bit))
        mid = np.searchsorted(sorted_ids, boundary, side="left")
        mid = np.clip(mid, lo, hi)
        want_one = ((targets >> np.uint64(bit)) & _U64(1)).astype(bool)
        upper_ok = mid < hi
        lower_ok = mid > lo
        take_one = np.where(want_one, upper_ok, ~lower_ok)
        new_lo = np.where(take_one, mid, lo)
        new_hi = np.where(take_one, hi, mid)
        new_prefix = np.where(take_one, boundary, prefix)
        lo = np.where(active, new_lo, lo)
        hi = np.where(active, new_hi, hi)
        prefix = np.where(active, new_prefix, prefix)
    indices = lo
    distances = sorted_ids[indices] ^ targets
    return indices, distances


# ----------------------------------------------------------------------
# Routing tables
# ----------------------------------------------------------------------
class VecRoutingTable:
    """Kademlia routing state of a whole population in one array.

    ``table[node, bucket, slot]`` holds the int32 *index* (rank in the
    sorted id space) of a contact, or :data:`EMPTY`.  Bucket ``b``
    covers node distances in ``[2^(63-b), 2^(64-b))`` — the XOR subtree
    obtained by flipping bit ``63-b`` of the node's id — which in a
    sorted id space is the precomputed contiguous range
    ``[range_lo[node, b], range_lo + range_len)``.  Only the top
    ``bucket_count`` buckets are materialized: with ``n`` uniform ids
    bucket occupancy decays as ``n / 2^b``, so ``log2(n) + margin``
    buckets cover every non-empty one (the same reason scalar Kademlia
    tables only ever populate O(log n) buckets).

    Memory: ``n * buckets * k`` int32 plus an equal bool array for the
    stale flags — ~100 MB for n=10^5 with the defaults, versus multiple
    GB of dict-of-list Python objects for the scalar representation.

    ``stale`` marks entries that point at departed peers without the
    owner knowing (``initial_stale_fraction`` at bootstrap); they cost a
    timeout when tried and are only removed by maintenance
    (:meth:`evict_offline`), matching the scalar model's semantics.  A
    stale flag is only ever set on a filled slot (stale implies filled),
    which the sentinel gather of :meth:`_dead_entries` relies on.
    """

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

        # Per-(node, bucket) subtree ranges, fixed for the whole run.
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

        # Bootstrap: fill every bucket with up to k distinct members of
        # its range — all of them when the range holds at most k, else k
        # hashed draws with duplicates cleared — each row in ascending
        # order with its empty slots first.  Only the sampled rows draw:
        # a draw is a pure function of (node, bucket, slot), so drawing
        # that subset gives exactly the values a whole-bucket draw
        # would, and a whole row never reads its draw.  A whole row is
        # written straight in its sorted layout; only drawn rows sort.
        self.table = np.empty((n, self.bucket_count, k), dtype=np.int32)
        fill_key = stream_key(seed, "table-bootstrap")
        slot = np.arange(k, dtype=np.int64)
        for bucket in range(self.bucket_count):
            lo = self.range_lo[:, bucket]
            count = self.range_len[:, bucket]
            rows = self.table[:, bucket, :]
            whole = np.flatnonzero(count <= k)
            if len(whole):
                shift = slot - (k - count[whole])[:, None]
                rows[whole] = np.where(shift >= 0, lo[whole][:, None] + shift,
                                       np.int64(EMPTY))
            sampled = np.flatnonzero(count > k)
            if len(sampled):
                u = hashed_uniform(fill_key, sampled.astype(_U64)[:, None],
                                   _U64(bucket), slot.astype(_U64))
                span = count[sampled][:, None]
                rows[sampled] = _distinct_rows(
                    lo[sampled][:, None]
                    + np.minimum((u * span).astype(np.int64), span - 1))

        stale = np.zeros_like(self.table, dtype=bool)
        if stale_fraction > 0.0:
            stale_key = stream_key(seed, "table-stale")
            # Only filled slots draw (an empty slot is never stale); the
            # draw of slot ``(node, bucket, s)`` is a pure function of
            # ``(node * k + s, bucket)``, so skipping the empty ones
            # changes no value.  Bucket-sized draws keep the hash
            # temporaries at n*k elements instead of the whole table.
            marks = np.empty(n * k, dtype=bool)
            for bucket in range(self.bucket_count):
                entry = np.flatnonzero(self.table[:, bucket, :] != EMPTY)
                marks[:] = False
                marks[entry] = hashed_uniform(
                    stale_key, entry.astype(_U64),
                    _U64(bucket)) < stale_fraction
                stale[:, bucket, :] = marks.reshape(n, k)
        self.stale = stale

    # -- queries -------------------------------------------------------
    def contacts_of(self, node_indices: np.ndarray) -> np.ndarray:
        """Contact indices of the given nodes, shape ``(len, buckets*k)``."""
        rows = self.table[node_indices]
        return rows.reshape(len(node_indices), -1)

    def stale_of(self, node_indices: np.ndarray) -> np.ndarray:
        """Stale flags aligned with :meth:`contacts_of`."""
        rows = self.stale[node_indices]
        return rows.reshape(len(node_indices), -1)

    def staleness(self, online: np.ndarray) -> float:
        """Fraction of table entries pointing at dead-to-the-owner peers.

        Counts both marked-stale entries and contacts that are currently
        offline — the same "entry that will cost you a timeout" measure
        :meth:`repro.p2p.kademlia.KademliaNetwork.routing_table_staleness`
        reports for the scalar tables.  The dead entries come from the
        same sentinel gather as :meth:`evict_offline`'s candidates
        (:meth:`_dead_entries`, which needs stale to imply filled).
        """
        total = int(np.count_nonzero(self.table != EMPTY))
        if not total:
            return 0.0
        return float(np.count_nonzero(self._dead_entries(online))) / total

    def _dead_entries(self, online: np.ndarray) -> np.ndarray:
        """Mask of filled slots whose contact is offline or marked stale.

        One gather through the offline flags ``~online`` with a
        ``False`` sentinel appended: :data:`EMPTY` (-1) indexes the
        sentinel, so an empty slot reads as not offline without a
        separate ``filled`` mask.  That relies on the invariant *stale
        implies filled* — bootstrap only marks filled slots, eviction
        clears both flags together and refresh only fills — so the
        ``| stale`` cannot flag an empty slot either.
        """
        dead = np.append(~online, False)[self.table]
        dead |= self.stale
        return dead

    # -- maintenance ---------------------------------------------------
    def evict_offline(self, online: np.ndarray,
                      detection: float = 0.8) -> int:
        """Probabilistically evict dead contacts; returns evictions.

        Each entry whose contact is offline (or marked stale) is detected
        and cleared with probability ``detection`` — one vectorized
        maintenance pass over every node at once, standing in for the
        scalar model's per-node refresh probes.  The candidates come
        from one sentinel gather (:meth:`_dead_entries`): an empty slot
        reads as not offline and, since stale implies filled, is never
        a candidate.
        """
        flat = np.flatnonzero(self._dead_entries(online))
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
        """Let every node learn up to ``samples`` fresh live contacts.

        Each node's first ``samples`` non-full buckets draw one uniform
        candidate from their subtree range; draws that land on an
        offline peer or a contact already in the bucket are discarded
        (they would not respond / add nothing), so under heavy churn
        filling takes several passes — exactly the dynamic that
        separates aggressive-refresh KAD from lazy Mainline tables.
        Returns the number of slots filled.

        The pass works on the table as ``n * buckets`` rows of ``k``
        slots and scans it once: one ``== EMPTY``, read back as a few
        wide unsigned lanes per row, says which rows have room without
        a per-row reduction along the short slot axis.  Everything after
        that touches only the selected rows, through flat indices: their
        ranges are gathered, a live candidate is checked against its row
        one slot at a time (``k`` compares), an ``argmax`` over just the
        rows that take a contact finds each one's first empty slot, and
        the fills are scattered straight into the flat table.
        """
        n, buckets, k = self.table.shape
        rows = self.table.reshape(-1, k)
        # A row's k empty-flags, read as k/width unsigned lanes of
        # ``width`` bytes: the row has room iff a lane is non-zero.
        width = math.gcd(k, 8)
        lanes = (rows == EMPTY).view(f"u{width}")
        has_room = lanes[:, 0] != 0
        for lane in range(1, k // width):
            has_room |= lanes[:, lane] != 0
        order = np.cumsum(has_room.reshape(n, buckets), axis=1,
                          dtype=np.int32).reshape(-1)
        selected = np.flatnonzero(has_room & (order <= samples))
        if len(selected) == 0:
            self._maintenance_passes += 1
            return 0
        lo = self.range_lo.reshape(-1)[selected]
        count = self.range_len.reshape(-1)[selected]
        node, bucket = np.divmod(selected, buckets)
        key = stream_key(self.seed, "table-refresh")
        u = hashed_uniform(key, node.astype(np.uint64),
                           bucket.astype(np.uint64),
                           np.uint64(self._maintenance_passes))
        candidate = lo + np.minimum((u * count).astype(np.int64),
                                    np.maximum(count - 1, 0))
        # An empty range may start one past the last node; clamp so the
        # row (discarded by ``count > 0`` anyway) is never dereferenced.
        live = np.flatnonzero(
            (count > 0) & online[np.minimum(candidate, len(online) - 1)])
        row = selected[live]
        contact = candidate[live].astype(np.int32)
        picked = np.take(rows, row, axis=0)                # (live, k) copy
        fresh = picked[:, 0] != contact
        for slot in range(1, k):
            fresh &= picked[:, slot] != contact
        first_empty = (picked[fresh] == EMPTY).argmax(axis=1)
        self.table.reshape(-1)[row[fresh] * k + first_empty] = contact[fresh]
        self._maintenance_passes += 1
        return len(first_empty)


def _distinct_rows(drawn: np.ndarray) -> np.ndarray:
    """Sort each row of drawn contacts and clear repeats to :data:`EMPTY`.

    Sorting groups duplicates adjacently (slot order inside a bucket
    carries no meaning), so one equal-to-predecessor comparison finds
    them all; a cleared repeat keeps its sorted position.
    """
    drawn.sort(axis=1)
    repeat = np.zeros(drawn.shape, dtype=bool)
    repeat[:, 1:] = drawn[:, 1:] == drawn[:, :-1]
    drawn[repeat] = EMPTY
    return drawn


# ----------------------------------------------------------------------
# Churn
# ----------------------------------------------------------------------
class VecChurn:
    """Membership dynamics over a node population as parallel arrays.

    The scalar :class:`~repro.sim.churn.ChurnProcess` schedules one
    engine callback per node transition — fine at 10^2 nodes, hopeless
    at 10^5.  Here the state is three arrays (``online`` flag, absolute
    ``next_transition`` time, per-node draw ``epoch``) and
    :meth:`advance` flips every due cohort in a handful of batch
    operations.  Draw determinism is counter-based: the duration of node
    ``i``'s ``e``-th interval is a pure function of
    ``(seed, i, e)``, so any advance schedule produces the same
    trajectory.

    Initialization is steady-state (each node online with probability
    equal to its long-run availability, first transition at a uniform
    residual of a fresh draw), matching the scalar process's
    ``steady_state_init`` path.
    """

    def __init__(self, n: int, model: ChurnModel, seed: int = 0) -> None:
        self.n = n
        self.model = model
        self._session_key = stream_key(seed, "churn-session")
        self._downtime_key = stream_key(seed, "churn-downtime")
        self.epoch = np.zeros(n, dtype=np.uint64)
        nodes = np.arange(n, dtype=np.uint64)
        init_u = hashed_uniform(stream_key(seed, "churn-init"), nodes)
        self.online = init_u < model.availability
        first = np.where(self.online,
                         self._draw_sessions(nodes, self.epoch),
                         self._draw_downtimes(nodes, self.epoch))
        residual_u = hashed_uniform(stream_key(seed, "churn-residual"), nodes)
        self.next_transition = first * residual_u
        self.epoch += np.uint64(1)
        self.now = 0.0
        self.join_events = 0
        self.leave_events = 0

    def _draw_sessions(self, nodes: np.ndarray,
                       epochs: np.ndarray) -> np.ndarray:
        u = hashed_uniform(self._session_key, nodes, epochs)
        return draw_durations(self.model, self.model.mean_session, u)

    def _draw_downtimes(self, nodes: np.ndarray,
                        epochs: np.ndarray) -> np.ndarray:
        # Downtimes are exponential regardless of the session family,
        # mirroring ChurnModel.sample_downtime.
        if self.model.mean_downtime <= 0:
            return np.zeros(len(nodes))
        u = hashed_uniform(self._downtime_key, nodes, epochs)
        return -self.model.mean_downtime * np.log(u)

    def advance(self, until: float) -> int:
        """Advance virtual time, flipping every node due before ``until``.

        Returns the number of membership transitions processed (the
        batch replacement for that many per-node engine callbacks).
        """
        transitions = 0
        while True:
            due = np.flatnonzero(self.next_transition <= until)
            if len(due) == 0:
                break
            going_online = ~self.online[due]
            self.online[due] = going_online
            self.join_events += int(going_online.sum())
            self.leave_events += int(len(due) - going_online.sum())
            nodes = due.astype(np.uint64)
            epochs = self.epoch[due]
            durations = np.where(going_online,
                                 self._draw_sessions(nodes, epochs),
                                 self._draw_downtimes(nodes, epochs))
            # A zero-length interval (mean_downtime=0, or a u==1 Weibull
            # draw) would keep the node due forever; nudge it forward.
            self.next_transition[due] += np.maximum(durations, 1e-9)
            self.epoch[due] += np.uint64(1)
            transitions += len(due)
        self.now = until
        return transitions

    def churn_rate_per_hour(self) -> float:
        """Membership transitions per node per hour so far."""
        if self.now <= 0 or self.n == 0:
            return 0.0
        events = self.join_events + self.leave_events
        return events / self.n / (self.now / 3600.0)
