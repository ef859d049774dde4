"""Membership service provider (MSP): organizations and authenticated identities.

"Unlike permissionless ones, permissioned blockchains have means to
authenticate the nodes that control and update the shared state and to
authorize who can issue transactions."  Certificates are modelled as opaque
tokens issued by an organization's CA; what matters behaviourally is that
(a) only enrolled identities can act and (b) identities are bound to an
organization.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Identity:
    """An enrolled identity (a certificate issued by an organization's CA)."""

    name: str
    organization: str
    role: str = "member"          # "member", "peer", "orderer", "admin", "client"
    certificate: str = ""


@dataclass
class Organization:
    """A consortium member operating peers and issuing identities."""

    name: str
    msp_id: str = ""

    def __post_init__(self) -> None:
        if not self.msp_id:
            self.msp_id = f"{self.name}-msp"


class MembershipService:
    """Admits organizations and issues identities for a consortium."""

    def __init__(self, organizations: Optional[List[Organization]] = None) -> None:
        self.organizations: Dict[str, Organization] = {}
        self._identities: Dict[str, Identity] = {}
        self._serial = itertools.count(1)
        for organization in organizations or []:
            self.add_organization(organization)

    # ------------------------------------------------------------------
    # Consortium management
    # ------------------------------------------------------------------
    def add_organization(self, organization: Organization) -> Organization:
        """Admit an organization to the consortium."""
        if organization.name in self.organizations:
            raise ValueError(f"organization {organization.name!r} already exists")
        self.organizations[organization.name] = organization
        return organization

    def organization_names(self) -> List[str]:
        """Names of all consortium members."""
        return list(self.organizations.keys())

    # ------------------------------------------------------------------
    # Identity lifecycle
    # ------------------------------------------------------------------
    def enroll(self, name: str, organization: str, role: str = "member") -> Identity:
        """Issue a certificate for ``name`` under ``organization``."""
        if organization not in self.organizations:
            raise KeyError(f"unknown organization {organization!r}")
        if name in self._identities:
            raise ValueError(f"identity {name!r} already enrolled")
        serial = next(self._serial)
        certificate = hashlib.sha256(
            f"{organization}:{name}:{role}:{serial}".encode("utf-8")
        ).hexdigest()
        identity = Identity(name=name, organization=organization, role=role, certificate=certificate)
        self._identities[name] = identity
        return identity

    def get(self, name: str) -> Identity:
        """Look up an enrolled identity by name."""
        if name not in self._identities:
            raise KeyError(f"unknown identity {name!r}")
        return self._identities[name]
