"""MemberSpec: one membership, usable by both worlds.

A :class:`MemberSpec` freezes a group's membership — identifiers,
capacities and upload bandwidths, all drawn from one seed — in a form
both the *static* world (:class:`~repro.multicast.session.MulticastGroup`
over a :class:`~repro.overlay.base.RingSnapshot`) and the *live* world
(:class:`~repro.protocol.cluster.Cluster` of protocol peers) accept.
Building both from the same spec is what makes the static-vs-live
parity harness (:mod:`repro.systems.parity`) possible: the two worlds
then describe the same members at the same ring positions, so their
dissemination trees are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.idspace.ring import IdentifierSpace
    from repro.overlay.base import RingSnapshot


@dataclass(frozen=True)
class MemberSpec:
    """A frozen membership: who sits where with what resources.

    Capacities are stored *unclamped*; each world applies its system's
    capacity floor when it materializes peers or snapshot nodes, so one
    spec serves systems with different floors.
    """

    space_bits: int
    identifiers: tuple[int, ...]
    capacities: tuple[int, ...]
    bandwidths: tuple[float, ...]

    def __post_init__(self) -> None:
        count = len(self.identifiers)
        if count == 0:
            raise ValueError("a member spec needs at least one member")
        if len(self.capacities) != count or len(self.bandwidths) != count:
            raise ValueError(
                "identifiers, capacities and bandwidths must have equal length"
            )
        size = 1 << self.space_bits
        seen: set[int] = set()
        for ident in self.identifiers:
            if not 0 <= ident < size:
                raise ValueError(f"identifier {ident} outside space of {size}")
            if ident in seen:
                raise ValueError(f"duplicate identifier in spec: {ident}")
            seen.add(ident)

    def __len__(self) -> int:
        return len(self.identifiers)

    @property
    def space(self) -> "IdentifierSpace":
        """The identifier space the members live in."""
        from repro.idspace.ring import IdentifierSpace

        return IdentifierSpace(self.space_bits)

    def snapshot(self, min_capacity: int = 1) -> "RingSnapshot":
        """A structural membership snapshot of this spec, capacities
        clamped to a system's floor."""
        from repro.overlay.base import RingSnapshot

        return RingSnapshot.from_columns(
            self.space,
            self.identifiers,
            [max(min_capacity, capacity) for capacity in self.capacities],
            self.bandwidths,
        )

    @classmethod
    def generate(
        cls,
        count: int,
        space_bits: int = 16,
        capacity_range: tuple[int, int] = (4, 10),
        per_link_kbps: float = 100.0,
        seed: int = 0,
    ) -> "MemberSpec":
        """Draw a membership from one seed, deterministically.

        Capacities are uniform over ``capacity_range`` and bandwidths
        follow the paper's rule in reverse (``B_x = c_x * p``), so the
        spec is self-consistent under ``c_x = floor(B_x / p)``.
        """
        from repro.overlay.base import sample_identifiers

        rng = Random(seed)
        identifiers = tuple(sample_identifiers(count, 1 << space_bits, rng))
        low, high = capacity_range
        capacities = tuple(rng.randint(low, high) for _ in range(count))
        bandwidths = tuple(capacity * per_link_kbps for capacity in capacities)
        return cls(
            space_bits=space_bits,
            identifiers=identifiers,
            capacities=capacities,
            bandwidths=bandwidths,
        )
