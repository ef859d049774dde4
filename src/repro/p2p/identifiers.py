"""Identifier space shared by the structured overlays.

All DHTs in the library use a 160-bit identifier space (as Chord, Pastry,
Kademlia and the deployed KAD/Mainline DHTs do).  Identifiers are plain
Python integers; the helpers below provide the two distance metrics the
overlays need (XOR for Kademlia, clockwise ring distance for Chord) and a
deterministic way to derive the identifier of a key or node name.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

from repro.sim.rng import SeededRNG

#: Number of bits in the identifier space (SHA-1 sized, as in the deployed DHTs).
ID_BITS = 160

#: Size of the identifier space.
ID_SPACE = 1 << ID_BITS


def random_id(rng: SeededRNG) -> int:
    """Uniformly random identifier."""
    return rng.getrandbits(ID_BITS)


def key_for(name: str) -> int:
    """Deterministic identifier for a key or node name (SHA-1 of the name)."""
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest, "big")


def xor_distance(a: int, b: int) -> int:
    """Kademlia XOR distance between two identifiers."""
    return a ^ b


def ring_distance(a: int, b: int) -> int:
    """Clockwise distance from ``a`` to ``b`` on the identifier ring (Chord)."""
    return (b - a) % ID_SPACE


def bucket_index(a: int, b: int) -> int:
    """Index of the Kademlia k-bucket in which ``b`` falls as seen from ``a``.

    This is the position of the highest differing bit; identical identifiers
    return -1 (they share no bucket).
    """
    distance = a ^ b
    if distance == 0:
        return -1
    return distance.bit_length() - 1


def closest(ids: Iterable[int], target: int, count: int = 1) -> List[int]:
    """The ``count`` identifiers closest to ``target`` by XOR distance."""
    return sorted(ids, key=lambda identifier: xor_distance(identifier, target))[:count]
