"""BitTorrent tit-for-tat swarm model (Experiment E4, second half).

Section II-B, Problem 1: "BitTorrent mitigated the free riding problem by
designing the protocol including incentives (tit-for-tat). If peers do not
contribute, others would not reciprocate.  But again, collaboration is only
enforced during the download process."

The swarm model is round-based (10-second choking rounds, as in the real
protocol): each leecher unchokes the peers that uploaded most to it in the
previous round plus one optimistic unchoke, seeds unchoke round-robin, and
peers leave shortly after completing their download (the enforcement gap the
paper points at).  Experiment E4 uses it to show that (a) contribution and
download speed are strongly coupled while downloading, and (b) the seeding
population collapses once downloads complete, so there is no incentive to
maintain the infrastructure afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.stats import mean
from repro.sim.rng import SeededRNG


@dataclass
class SwarmConfig:
    """Swarm composition and protocol parameters."""

    leechers: int = 60
    seeds: int = 4
    file_pieces: int = 400
    piece_size_kb: float = 256.0
    round_seconds: float = 10.0
    unchoke_slots: int = 4
    optimistic_slots: int = 1
    free_rider_fraction: float = 0.25       # peers that upload nothing
    upload_capacity_pieces: float = 8.0     # pieces/round an average peer can upload
    capacity_heterogeneity: float = 0.6     # lognormal sigma of per-peer capacity
    seed_lingering_rounds: int = 3          # rounds a finished peer stays before leaving
    max_rounds: int = 3000


@dataclass
class PeerState:
    """Per-peer dynamic state tracked across rounds."""

    peer_id: int
    is_seed: bool
    free_rider: bool
    upload_capacity: float
    pieces: float = 0.0
    uploaded: float = 0.0
    downloaded: float = 0.0
    completed_round: Optional[int] = None
    departed: bool = False
    received_from: Dict[int, float] = field(default_factory=dict)


@dataclass
class SwarmResult:
    """Aggregate outcome of a swarm simulation."""

    rounds: int
    completion_rounds: Dict[int, int]
    uploads: Dict[int, float]
    downloads: Dict[int, float]
    free_riders: List[int]
    contributors: List[int]
    seeds_over_time: List[int]

    def mean_completion_time(self, peer_ids: List[int]) -> float:
        """Mean completion round of the given peers (inf if some never finished)."""
        times = [self.completion_rounds.get(pid) for pid in peer_ids]
        if any(value is None for value in times):
            return float("inf")
        return mean([float(value) for value in times if value is not None])

    def free_rider_penalty(self) -> float:
        """How many times longer free riders took to finish than contributors."""
        contributor_time = self.mean_completion_time(self.contributors)
        free_rider_time = self.mean_completion_time(self.free_riders)
        if contributor_time in (0.0, float("inf")):
            return float("inf")
        return free_rider_time / contributor_time


class TitForTatSwarm:
    """Round-based BitTorrent swarm with tit-for-tat choking."""

    def __init__(self, config: Optional[SwarmConfig] = None, seed: int = 0) -> None:
        self.config = config or SwarmConfig()
        self.rng = SeededRNG(seed)
        self.peers: Dict[int, PeerState] = {}
        self._build_swarm()

    def _build_swarm(self) -> None:
        config = self.config
        peer_id = 0
        for _ in range(config.seeds):
            self.peers[peer_id] = PeerState(
                peer_id=peer_id,
                is_seed=True,
                free_rider=False,
                upload_capacity=self._sample_capacity(),
                pieces=float(config.file_pieces),
            )
            peer_id += 1
        free_riders = int(round(config.leechers * config.free_rider_fraction))
        for index in range(config.leechers):
            self.peers[peer_id] = PeerState(
                peer_id=peer_id,
                is_seed=False,
                free_rider=index < free_riders,
                upload_capacity=self._sample_capacity(),
            )
            peer_id += 1

    def _sample_capacity(self) -> float:
        factor = self.rng.lognormal(0.0, self.config.capacity_heterogeneity)
        return max(0.5, self.config.upload_capacity_pieces * factor)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(self) -> SwarmResult:
        """Run choking rounds until every leecher finishes (or max rounds)."""
        config = self.config
        seeds_over_time: List[int] = []
        round_index = 0
        while round_index < config.max_rounds:
            round_index += 1
            active = [peer for peer in self.peers.values() if not peer.departed]
            leechers = [peer for peer in active if not self._has_all_pieces(peer)]
            if not leechers:
                seeds_over_time.append(self._count_seeds())
                break
            uploads_this_round: Dict[int, Dict[int, float]] = {}
            for peer in active:
                if peer.free_rider and not peer.is_seed:
                    continue
                targets = self._select_unchoked(peer, leechers)
                if not targets:
                    continue
                budget_per_target = peer.upload_capacity / len(targets)
                for target in targets:
                    uploads_this_round.setdefault(target.peer_id, {})[peer.peer_id] = (
                        budget_per_target
                    )
            self._apply_transfers(uploads_this_round, round_index)
            self._handle_departures(round_index)
            seeds_over_time.append(self._count_seeds())

        uploads = {pid: peer.uploaded for pid, peer in self.peers.items()}
        downloads = {pid: peer.downloaded for pid, peer in self.peers.items()}
        completion = {
            pid: peer.completed_round
            for pid, peer in self.peers.items()
            if peer.completed_round is not None and not peer.is_seed
        }
        free_riders = [pid for pid, peer in self.peers.items() if peer.free_rider]
        contributors = [
            pid for pid, peer in self.peers.items() if not peer.free_rider and not peer.is_seed
        ]
        return SwarmResult(
            rounds=round_index,
            completion_rounds=completion,
            uploads=uploads,
            downloads=downloads,
            free_riders=free_riders,
            contributors=contributors,
            seeds_over_time=seeds_over_time,
        )

    # ------------------------------------------------------------------
    # Protocol mechanics
    # ------------------------------------------------------------------
    def _has_all_pieces(self, peer: PeerState) -> bool:
        return peer.pieces >= self.config.file_pieces

    def _count_seeds(self) -> int:
        return sum(
            1
            for peer in self.peers.values()
            if not peer.departed and self._has_all_pieces(peer)
        )

    def _select_unchoked(self, peer: PeerState, leechers: List[PeerState]) -> List[PeerState]:
        candidates = [other for other in leechers if other.peer_id != peer.peer_id]
        if not candidates:
            return []
        if peer.is_seed or self._has_all_pieces(peer):
            # Seeds rotate: pick random leechers each round.
            count = min(self.config.unchoke_slots, len(candidates))
            return self.rng.sample(candidates, count)
        # Tit-for-tat: prefer peers that uploaded the most to us recently.
        by_reciprocity = sorted(
            candidates,
            key=lambda other: peer.received_from.get(other.peer_id, 0.0),
            reverse=True,
        )
        chosen = by_reciprocity[: self.config.unchoke_slots]
        remaining = [other for other in candidates if other not in chosen]
        for _ in range(self.config.optimistic_slots):
            if remaining:
                optimistic = self.rng.choice(remaining)
                chosen.append(optimistic)
                remaining.remove(optimistic)
        return chosen

    def _apply_transfers(
        self, uploads: Dict[int, Dict[int, float]], round_index: int
    ) -> None:
        for target_id, sources in uploads.items():
            target = self.peers[target_id]
            if target.departed:
                continue
            for source_id, amount in sources.items():
                source = self.peers[source_id]
                missing = self.config.file_pieces - target.pieces
                transferred = min(amount, max(0.0, missing))
                if transferred <= 0:
                    continue
                target.pieces += transferred
                target.downloaded += transferred
                target.received_from[source_id] = (
                    target.received_from.get(source_id, 0.0) * 0.5 + transferred
                )
                source.uploaded += transferred
            if self._has_all_pieces(target) and target.completed_round is None:
                target.completed_round = round_index

    def _handle_departures(self, round_index: int) -> None:
        for peer in self.peers.values():
            if peer.departed or peer.is_seed:
                continue
            if peer.completed_round is None:
                continue
            if round_index - peer.completed_round >= self.config.seed_lingering_rounds:
                peer.departed = True
