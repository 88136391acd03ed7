"""Multi-group multicast service over one host population.

"A dedicated CAM-Chord or CAM-Koorde overlay network is established
for each multicast group" (Section 2).  A real deployment therefore
runs one overlay *per group* over a shared set of hosts; a host that
belongs to three groups sits on three rings (under three different
SHA-1 identifiers) and its upload bandwidth serves all of them.

:class:`MulticastService` manages that: hosts register once with their
upload bandwidth; groups are created and torn down with their own
system kind and per-link rate; membership is by host name, mapped onto
each group's ring with the Section 2 SHA-1 assignment.  Membership is
*mutable*: :meth:`join_group` / :meth:`leave_group` rebuild the
group's snapshot and overlay through the same registry path
:meth:`create_group` uses.  Identifiers hash ``group/host`` and
collisions are settled in join order, so a join moves no member; a
leave can move only a member that was salted past a collision (what
it collided with may be gone).  The service aggregates forwarding
load per *host* across groups — the quantity a deployment actually
provisions for.

This layer is the registry and the ledger; it sends nothing itself.
Messages move on :class:`repro.multicast.plane.ServicePlane` —
interleaved sends on a simulated clock, sequence numbers,
shared-uplink backpressure — which drives exactly the group-rebuild
path defined here and charges every send through :meth:`charge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from repro.capacity.model import CapacityModel
from repro.idspace.hashing import hash_to_identifier, settle_collisions
from repro.idspace.ring import IdentifierSpace
from repro.multicast.session import MulticastGroup, SystemKind
from repro.overlay.base import RingSnapshot
from repro.systems import DEFAULT_UNIFORM_FANOUT, SystemDescriptor, resolve


@dataclass(frozen=True)
class GroupConfig:
    """The knobs a group was created with (reused by every rebuild)."""

    system: SystemDescriptor
    per_link_kbps: float
    uniform_fanout: int


class MulticastService:
    """Per-group overlays over a shared host population."""

    def __init__(self, space_bits: int = 19) -> None:
        self._space = IdentifierSpace(space_bits)
        self._hosts: dict[str, float] = {}
        self._groups: dict[str, MulticastGroup] = {}
        self._members: dict[str, dict[str, int]] = {}
        # per group, each live member's unsalted hash of ``group/host``
        self._hashes: dict[str, dict[str, int]] = {}
        self._configs: dict[str, GroupConfig] = {}
        self._forwarded_kbits: dict[str, float] = {}
        # charged sends not yet added into ``_forwarded_kbits``
        self._unfolded: list[tuple[Sequence[str], Sequence[int], float]] = []
        self._epoch_serial = 0
        self._epochs: dict[str, int] = {}

    # -- host management -----------------------------------------------------

    def register_host(self, name: str, bandwidth_kbps: float) -> None:
        """Add a host to the population."""
        if name in self._hosts:
            raise ValueError(f"host {name!r} already registered")
        if not 0 < bandwidth_kbps < inf:
            raise ValueError(f"bandwidth must be finite and > 0, got {bandwidth_kbps}")
        self._hosts[name] = bandwidth_kbps
        self._forwarded_kbits[name] = 0.0

    @property
    def hosts(self) -> Mapping[str, float]:
        """Registered hosts and their upload bandwidths (a live,
        read-only view — no copy per access)."""
        return MappingProxyType(self._hosts)

    # -- group management ------------------------------------------------------

    def _build_group(self, group_name: str, names: list[str]) -> MulticastGroup:
        """One snapshot + overlay for ``names``, through the registry.

        Members are mapped onto the group's ring with SHA-1 of
        ``"group/host"``, collisions settled in ``names`` (join) order
        — exactly :func:`~repro.idspace.hashing.assign_identifiers` of
        those strings.  Only a name without a held hash is hashed: a
        rebuild after a join or a leave hashes at most the joiner.
        """
        config = self._configs[group_name]
        space = self._space
        prefix = f"{group_name}/"
        held = self._hashes.get(group_name, {})
        missing = set(names).difference(held)
        if missing:
            held = held | {
                name: hash_to_identifier(prefix + name, space) for name in missing
            }
        hashes = list(map(held.__getitem__, names))
        mapping = settle_collisions(names, hashes, space, prefix)
        model = CapacityModel(
            config.per_link_kbps, minimum=config.system.min_capacity
        )
        idents = list(mapping.values())  # keyed in ``names`` order
        bandwidths = list(map(self._hosts.__getitem__, names))
        snapshot = RingSnapshot.from_columns(
            self._space, idents, model.capacities(bandwidths), bandwidths, names
        )
        group = MulticastGroup.from_snapshot(
            config.system, snapshot, config.uniform_fanout
        )
        self._groups[group_name] = group
        self._members[group_name] = mapping
        self._hashes[group_name] = dict(zip(names, hashes))
        # every overlay (re)build opens a new membership epoch; the
        # serial is service-global so a dropped-and-recreated group
        # name can never alias a stale epoch.  The old epoch's trees are
        # discarded, so their noted charges are added in now: the notes
        # never keep a discarded tree's charge list alive
        self._folded()
        self._epoch_serial += 1
        self._epochs[group_name] = self._epoch_serial
        return group

    def create_group(
        self,
        group_name: str,
        member_names: Iterable[str],
        kind: "SystemKind | SystemDescriptor | str" = SystemKind.CAM_CHORD,
        per_link_kbps: float = 100.0,
        uniform_fanout: int = DEFAULT_UNIFORM_FANOUT,
    ) -> MulticastGroup:
        """Establish a dedicated overlay for one group.

        ``kind`` is anything the system registry resolves — a
        :class:`SystemKind`, a descriptor, or a canonical name such as
        ``"cam-chord"``.  Members are mapped onto the group's ring with
        salted SHA-1 of ``"group/host"`` (distinct groups place the
        same host at unrelated identifiers, as independent hash
        functions would).
        """
        if group_name in self._groups:
            raise ValueError(f"group {group_name!r} already exists")
        names = list(member_names)
        unknown = [n for n in names if n not in self._hosts]
        if unknown:
            raise KeyError(f"unregistered hosts: {unknown[:5]}")
        if not names:
            raise ValueError("a group needs at least one member")
        self._configs[group_name] = GroupConfig(
            system=resolve(kind),
            per_link_kbps=per_link_kbps,
            uniform_fanout=uniform_fanout,
        )
        try:
            return self._build_group(group_name, names)
        except BaseException:
            self._configs.pop(group_name, None)
            raise

    def join_group(self, group_name: str, host_name: str) -> MulticastGroup:
        """Admit a registered host into an existing group.

        The group's snapshot and overlay are rebuilt through the same
        registry path :meth:`create_group` uses; every prior member
        keeps its identifier (collisions are settled in join order, and
        the joiner comes last).  Returns the rebuilt group.
        """
        members = self._membership(group_name)
        if host_name not in self._hosts:
            raise KeyError(f"unregistered hosts: ['{host_name}']")
        if host_name in members:
            raise ValueError(
                f"host {host_name!r} is already a member of {group_name!r}"
            )
        return self._build_group(group_name, [*members, host_name])

    def leave_group(self, group_name: str, host_name: str) -> MulticastGroup:
        """Remove a member and rebuild the group's overlay.

        A group keeps at least one member; dropping the last one is
        :meth:`drop_group`'s job.  A remaining member that was salted
        past a collision can move: its unsalted identifier may now be
        free.  Returns the rebuilt group.
        """
        members = self._membership(group_name)
        if host_name not in members:
            raise KeyError(
                f"host {host_name!r} is not a member of {group_name!r}"
            )
        remaining = [name for name in members if name != host_name]
        if not remaining:
            raise ValueError(
                f"cannot remove the last member of {group_name!r}; "
                "use drop_group to tear the group down"
            )
        return self._build_group(group_name, remaining)

    def drop_group(self, group_name: str) -> None:
        """Tear down a group's overlay.

        Raises :class:`KeyError` for unknown names, exactly like
        :meth:`group` — a silent no-op here used to hide caller typos.
        The group's past forwarding traffic **stays** in
        :meth:`host_load_kbits`: the ledger is a historical account of
        what each uplink actually carried, not a view of live groups.
        """
        if group_name not in self._groups:
            raise KeyError(f"no group named {group_name!r}")
        self._folded()  # as in _build_group: the group's trees go
        del self._groups[group_name]
        del self._members[group_name]
        del self._hashes[group_name]
        del self._configs[group_name]
        del self._epochs[group_name]

    def group(self, group_name: str) -> MulticastGroup:
        """Fetch a group's overlay."""
        try:
            return self._groups[group_name]
        except KeyError:
            raise KeyError(f"no group named {group_name!r}") from None

    def _membership(self, group_name: str) -> dict[str, int]:
        try:
            return self._members[group_name]
        except KeyError:
            raise KeyError(f"no group named {group_name!r}") from None

    def membership_epoch(self, group_name: str) -> int:
        """The group's current membership epoch.

        Strictly increases on every overlay rebuild — create, join and
        leave all bump it — so *frozen membership between epochs* is a
        checkable invariant: any state derived from the group's
        snapshot (trees, dissemination schedules) is valid exactly as
        long as the epoch it was derived under is still current.
        """
        try:
            return self._epochs[group_name]
        except KeyError:
            raise KeyError(f"no group named {group_name!r}") from None

    def members_of(self, group_name: str) -> list[str]:
        """The group's member host names, in join order."""
        return list(self._membership(group_name))

    def member_ident(self, group_name: str, host_name: str) -> int:
        """The ring identifier a host holds inside one group."""
        members = self._membership(group_name)
        try:
            return members[host_name]
        except KeyError:
            raise KeyError(
                f"host {host_name!r} is not a member of {group_name!r}"
            ) from None

    def groups_of(self, host_name: str) -> list[str]:
        """Every group the host belongs to."""
        return [
            group
            for group, members in self._members.items()
            if host_name in members
        ]

    # -- the forwarding ledger -----------------------------------------------------

    def charge(
        self,
        forwarders: Sequence[str],
        fanouts: Sequence[int],
        message_kbits: float,
    ) -> None:
        """Charge one dissemination's forwarding to host uplinks.

        ``forwarders`` lists each forwarding host of the tree beside its
        child count in ``fanouts``; each pays ``children ×
        message_kbits`` — the Section 5.1 forwarding-load accounting.
        The one writer of the ledger: the event-driven plane replays a
        frozen tree's charges per send.  The charge is only noted here
        and added in at the next read or membership change, in send
        order with the same additions, so both lists are kept by
        reference until then and must not change.
        """
        self._unfolded.append((forwarders, fanouts, message_kbits))

    def _folded(self) -> dict[str, float]:
        """The ledger with every charge noted so far added in."""
        forwarded = self._forwarded_kbits
        for forwarders, fanouts, message_kbits in self._unfolded:
            for host_name, count in zip(forwarders, fanouts):
                forwarded[host_name] += count * message_kbits
        self._unfolded.clear()
        return forwarded

    def host_load_kbits(self) -> Mapping[str, float]:
        """Total forwarded traffic per host, across every group.

        The ledger is cumulative for the service's lifetime: traffic a
        host forwarded for a group that was later dropped stays counted
        (it really did cross the uplink).
        """
        return dict(self._folded())

    def busiest_hosts(self, count: int = 5) -> list[tuple[str, float]]:
        """The hosts carrying the most aggregate forwarding work."""
        ranked = sorted(
            self._folded().items(), key=lambda item: item[1], reverse=True
        )
        return ranked[:count]
