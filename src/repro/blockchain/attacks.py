"""Double-spend / 51% analysis and Sybil resistance under proof-of-work.

Section III-A of the paper summarises Nakamoto's security argument:
"modifying the content of a block requires to re-compute the proof-of-work
for that block and for any block that follows, obtaining a chain longer than
the official one; a feat possible only if the attacker possesses more than
half of the computing power.  Having multiple (anonymous) identities, as in
sybil attacks, is thus useless."

:func:`attacker_success_probability` is the standard catch-up probability
(Nakamoto's gambler's-ruin analysis with Rosenfeld's negative-binomial
correction for the attacker's head start during the confirmation window),
and :func:`sybil_resistance_table` demonstrates the second half of the
quote: splitting the same hash power across any number of identities leaves
the success probability unchanged, while adding identities without hash
power adds nothing.
"""

from __future__ import annotations

import math
from typing import Dict, List


def _poisson_pmf(k: int, mean: float) -> float:
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if k < 0:
        return 0.0
    return math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1)) if mean > 0 else (
        1.0 if k == 0 else 0.0
    )


def attacker_success_probability(attacker_share: float = 0.3,
                                 confirmations: int = 6) -> float:
    """Probability a double-spend attacker eventually overtakes the honest chain.

    Parameters
    ----------
    attacker_share:
        Fraction ``q`` of total hash power controlled by the attacker.
    confirmations:
        Number of confirmations ``z`` the merchant waits for before
        releasing the goods.

    Follows Nakamoto (2008) section 11: the honest chain advances ``z``
    blocks; the attacker's progress in that time is Poisson with mean
    ``z * q / p``; afterwards the catch-up from a deficit ``d`` succeeds with
    probability ``(q/p)^d``.
    """
    q = attacker_share
    if not 0.0 <= q <= 1.0:
        raise ValueError("attacker share must be in [0, 1]")
    if confirmations < 0:
        raise ValueError("confirmations must be non-negative")
    if q >= 0.5:
        return 1.0
    if q == 0.0:
        return 0.0
    p = 1.0 - q
    lam = confirmations * q / p
    probability = 1.0
    for k in range(confirmations + 1):
        poisson = _poisson_pmf(k, lam)
        probability -= poisson * (1.0 - (q / p) ** (confirmations - k))
    return max(0.0, min(1.0, probability))


def confirmations_for_risk(attacker_share: float, max_risk: float = 0.001) -> int:
    """Smallest number of confirmations keeping attack success below ``max_risk``.

    Returns a large sentinel (10**6) when the attacker has a majority, since
    no finite confirmation count helps.
    """
    if not 0.0 < max_risk < 1.0:
        raise ValueError("max_risk must be in (0, 1)")
    if attacker_share >= 0.5:
        return 10 ** 6
    confirmations = 0
    while attacker_success_probability(attacker_share, confirmations) > max_risk:
        confirmations += 1
        if confirmations > 10_000:   # safety net; unreachable for q < 0.5
            break
    return confirmations


def sybil_resistance_table(
    hash_share: float,
    identity_counts: List[int],
    confirmations: int = 6,
) -> List[Dict[str, float]]:
    """Attack success as a function of the number of identities used.

    The point of the table: under proof-of-work the success probability
    depends only on the attacker's *hash power*, so every row has the same
    value no matter how many Sybil identities the attacker spreads it over —
    unlike the open DHTs of :mod:`repro.p2p.sybil`, where identities are the
    attack resource.
    """
    rows = []
    base = attacker_success_probability(hash_share, confirmations)
    for identities in identity_counts:
        if identities < 1:
            raise ValueError("identity counts must be positive")
        rows.append(
            {
                "identities": float(identities),
                "hash_share": hash_share,
                "hash_share_per_identity": hash_share / identities,
                "success_probability": base,
            }
        )
    return rows
