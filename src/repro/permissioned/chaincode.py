"""Simulated chaincode (smart contracts) for the permissioned blockchain.

Chaincode in Fabric is ordinary application code executed in a sandbox by
endorsing peers; what the simulation needs from it is (a) which keys it
reads and writes for a given invocation, (b) how much CPU the execution
costs, and (c) whether the invocation succeeds.  :class:`Chaincode` wraps a
Python function with that signature; :func:`asset_transfer_chaincode` and the
vertical-domain chaincodes used by the examples are provided ready-made, and
:class:`VerticalWorkload` generates the invocations of each vertical domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.permissioned.ledger import ReadWriteSet, WorldState
from repro.sim.rng import SeededRNG

#: A chaincode function takes (world_state, invocation args) and returns a
#: read/write set.  Raising ``ChaincodeError`` marks the proposal as failed.
ChaincodeFunction = Callable[[WorldState, Dict[str, object]], ReadWriteSet]


class ChaincodeError(RuntimeError):
    """Raised by chaincode functions to signal a failed invocation."""


@dataclass
class Chaincode:
    """A deployed contract: name, implementation and execution cost model."""

    name: str
    function: ChaincodeFunction
    execution_time: float = 0.002        # seconds of peer CPU per invocation
    description: str = ""

    def execute(self, state: WorldState, args: Dict[str, object]) -> ReadWriteSet:
        """Run the contract against (a snapshot of) the world state."""
        return self.function(state, args)


class ChaincodeRegistry:
    """Chaincodes installed on a channel, by name."""

    def __init__(self) -> None:
        self._chaincodes: Dict[str, Chaincode] = {}

    def install(self, chaincode: Chaincode) -> None:
        """Install (or upgrade) a chaincode."""
        self._chaincodes[chaincode.name] = chaincode

    def get(self, name: str) -> Chaincode:
        """Look up an installed chaincode."""
        if name not in self._chaincodes:
            raise KeyError(f"chaincode {name!r} is not installed")
        return self._chaincodes[name]

    def names(self) -> list:
        """Names of installed chaincodes."""
        return list(self._chaincodes.keys())

    def __contains__(self, name: str) -> bool:
        return name in self._chaincodes


def asset_transfer_chaincode(execution_time: float = 0.002) -> Chaincode:
    """Move ``amount`` from account ``source`` to account ``target``.

    Reads both balances (recording their versions), fails if the source has
    insufficient funds, writes both balances.  Concurrent transfers touching
    the same account produce MVCC conflicts at commit, as in real Fabric.
    """

    def _transfer(state: WorldState, args: Dict[str, object]) -> ReadWriteSet:
        source = str(args["source"])
        target = str(args["target"])
        amount = float(args.get("amount", 1.0))
        rwset = ReadWriteSet()
        source_value, source_version = state.get(f"balance:{source}")
        target_value, target_version = state.get(f"balance:{target}")
        rwset.reads[f"balance:{source}"] = source_version
        rwset.reads[f"balance:{target}"] = target_version
        source_balance = float(source_value) if source_value is not None else 0.0
        target_balance = float(target_value) if target_value is not None else 0.0
        allow_overdraft = bool(args.get("allow_overdraft", True))
        if not allow_overdraft and source_balance < amount:
            raise ChaincodeError(f"insufficient funds in {source!r}")
        rwset.writes[f"balance:{source}"] = source_balance - amount
        rwset.writes[f"balance:{target}"] = target_balance + amount
        return rwset

    return Chaincode(
        name="asset-transfer",
        function=_transfer,
        execution_time=execution_time,
        description="simple account-to-account transfer with MVCC-visible balances",
    )


def provenance_chaincode(execution_time: float = 0.003) -> Chaincode:
    """Supply-chain provenance: append a custody event to an item's trace.

    Reads the item's current custody head and writes the new event — the
    access pattern of the supply-chain use case in Section V-A.
    """

    def _record(state: WorldState, args: Dict[str, object]) -> ReadWriteSet:
        item = str(args["item"])
        actor = str(args["actor"])
        step = str(args.get("step", "transfer"))
        rwset = ReadWriteSet()
        head_value, head_version = state.get(f"custody:{item}")
        rwset.reads[f"custody:{item}"] = head_version
        chain = list(head_value) if isinstance(head_value, list) else []
        chain.append(f"{step}:{actor}")
        rwset.writes[f"custody:{item}"] = chain
        return rwset

    return Chaincode(
        name="provenance",
        function=_record,
        execution_time=execution_time,
        description="append-only custody trail for supply-chain tracking",
    )


def record_sharing_chaincode(execution_time: float = 0.004) -> Chaincode:
    """Healthcare-style record sharing: grant/revoke access and log the grant.

    Reads the patient's ACL, writes the updated ACL plus an audit entry —
    the authorization-and-auditing pattern Section V calls "naturally solved
    in permissioned distributed ledgers".
    """

    def _share(state: WorldState, args: Dict[str, object]) -> ReadWriteSet:
        patient = str(args["patient"])
        grantee = str(args["grantee"])
        grant = bool(args.get("grant", True))
        rwset = ReadWriteSet()
        acl_value, acl_version = state.get(f"acl:{patient}")
        rwset.reads[f"acl:{patient}"] = acl_version
        acl = set(acl_value) if isinstance(acl_value, (list, set, tuple)) else set()
        if grant:
            acl.add(grantee)
        else:
            acl.discard(grantee)
        rwset.writes[f"acl:{patient}"] = sorted(acl)
        _, audit_version = state.get(f"audit:{patient}")
        rwset.reads[f"audit:{patient}"] = audit_version
        rwset.writes[f"audit:{patient}"] = f"{'grant' if grant else 'revoke'}:{grantee}"
        return rwset

    return Chaincode(
        name="record-sharing",
        function=_share,
        execution_time=execution_time,
        description="consent management with an audit trail (healthcare use case)",
    )


#: Named chaincode factories, the declarative hook used by :mod:`repro.scenarios`.
CHAINCODE_FACTORIES = {
    "asset-transfer": asset_transfer_chaincode,
    "provenance": provenance_chaincode,
    "record-sharing": record_sharing_chaincode,
}


def chaincode_by_name(name: str = "asset-transfer",
                      execution_time: Optional[float] = None) -> Chaincode:
    """Instantiate one of the stock chaincodes by its installed name."""
    try:
        factory = CHAINCODE_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown chaincode {name!r}; pick one of {sorted(CHAINCODE_FACTORIES)}"
        ) from None
    if execution_time is None:
        return factory()
    return factory(execution_time=execution_time)


class VerticalWorkload:
    """Seeded chaincode invocations for the Section V-A vertical domains:
    supply-chain custody events, healthcare consent grants, education
    credentials and energy meter settlements (both as asset transfers)."""

    #: The vertical domains, each with the chaincode its invocations call.
    DOMAINS = {
        "supply-chain": "provenance",
        "healthcare": "record-sharing",
        "education": "asset-transfer",
        "energy": "asset-transfer",
    }

    def __init__(self, domain: str, entities: int = 2000, seed: int = 0) -> None:
        if domain not in self.DOMAINS:
            raise ValueError(f"unknown domain {domain!r}; pick one of {sorted(self.DOMAINS)}")
        self.domain = domain
        self.chaincode = self.DOMAINS[domain]
        self.entities = entities
        self.rng = SeededRNG(seed)

    def _entity(self, prefix: str) -> str:
        return f"{prefix}-{self.rng.randint(0, self.entities - 1)}"

    def invocation(self) -> Dict[str, object]:
        """The arguments of one invocation of :attr:`chaincode`."""
        if self.domain == "supply-chain":
            return {
                "item": self._entity("item"),
                "actor": self._entity("carrier"),
                "step": self.rng.choice(["produced", "shipped", "customs", "delivered"]),
            }
        if self.domain == "healthcare":
            return {
                "patient": self._entity("patient"),
                "grantee": self._entity("hospital"),
                "grant": self.rng.bernoulli(0.8),
            }
        if self.domain == "education":
            return {
                "source": self._entity("university"),
                "target": self._entity("student"),
                "amount": 1.0,
            }
        return {
            "source": self._entity("producer"),
            "target": self._entity("consumer"),
            "amount": max(0.1, self.rng.gauss(5.0, 2.0)),
        }
