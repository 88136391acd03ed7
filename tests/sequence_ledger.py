"""Per-member delivery cursors: the executable specification of the
service plane's sequence audit.

:class:`~repro.multicast.plane.ServicePlane` audits from its send
receipts alone — a member misses a sequence iff its row of that send
was never delivered.  The cursors below are the other way to say the
same thing, kept from the plane's earlier design: each member carries,
per membership stint, a contiguous prefix plus an out-of-order set,
classifies every delivery as ok / dup / unexpected and names its gaps
at audit time.  Fed the membership operations and the ``mc.deliver``
/ ``mc.dup`` events a plane commits, :meth:`SequenceLedger.audit` must
equal :meth:`ServicePlane.audit`; :class:`Mirror` does the feeding and
:func:`assert_same_audit` the comparing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.multicast.plane import SendReceipt, SequenceAudit, ServicePlane
from repro.trace.tracer import TRACER


@dataclass(slots=True)
class _Cursor:
    """One member's delivery obligations and progress in one group."""

    first: int  # first sequence the member must receive
    last: int | None = None  # last obligated sequence (None = still member)
    contiguous: int = 0  # highest n with first..n all delivered
    ahead: set[int] = field(default_factory=set)  # delivered out of order
    dups: int = 0
    unexpected: int = 0  # deliveries outside first..last

    def __post_init__(self) -> None:
        self.contiguous = self.first - 1

    def record(self, seq: int) -> str:
        """Account one delivery; returns ``"ok"``, ``"dup"`` or
        ``"unexpected"`` (outside this stint's obligations)."""
        last = self.last
        if seq < self.first or (last is not None and seq > last):
            self.unexpected += 1
            return "unexpected"
        contiguous = self.contiguous
        if seq <= contiguous or seq in self.ahead:
            self.dups += 1
            return "dup"
        if seq != contiguous + 1:
            self.ahead.add(seq)
            return "ok"
        # the next one in line: advance through whatever ran ahead
        ahead = self.ahead
        while seq + 1 in ahead:
            seq += 1
            ahead.remove(seq)
        self.contiguous = seq
        return "ok"


class SequenceLedger:
    """Per-member delivery cursors for one group's sequence space.

    The ledger is pure bookkeeping — no clock, no randomness — so the
    gap/duplicate semantics are testable in isolation and the plane
    simply feeds it ``record`` calls as deliveries land.  Sequences in
    a group count up from 1; cursors compress the delivered set into a
    contiguous prefix plus an out-of-order overflow, so overlapping
    sends that complete out of order cost O(overlap) not O(history).

    A member that leaves and later rejoins gets a fresh *stint*: each
    stint is its own cursor with its own obligation range (stints never
    overlap — a leave freezes obligations at the last issued sequence
    and a rejoin starts at the next one), and the audit merges every
    stint's gaps per member.
    """

    def __init__(self) -> None:
        self._cursors: dict[str, list[_Cursor]] = {}
        self._issued = 0  # highest sequence number originated so far
        self._unexpected = 0

    @property
    def issued(self) -> int:
        """The highest sequence number originated in the group."""
        return self._issued

    def issue(self) -> int:
        """Stamp the next send: sequence numbers are 1, 2, 3, ..."""
        self._issued += 1
        return self._issued

    def admit(self, member: str, first_seq: int | None = None) -> None:
        """Start a member's (next) stint, obligated from ``first_seq``
        on (default: the next sequence to be issued)."""
        stints = self._cursors.setdefault(member, [])
        if stints and stints[-1].last is None:
            raise ValueError(f"member {member!r} already tracked")
        first = first_seq if first_seq is not None else self._issued + 1
        stints.append(_Cursor(first=first))

    def retire(self, member: str, last_seq: int | None = None) -> None:
        """Freeze a member's obligations at ``last_seq`` (default: the
        last sequence issued).  The cursor stays for the final audit —
        a leaver remains accountable for sends it was a member of."""
        stints = self._cursors.get(member)
        if not stints or stints[-1].last is not None:
            raise ValueError(f"member {member!r} is not actively tracked")
        stints[-1].last = last_seq if last_seq is not None else self._issued

    def record(self, member: str, seq: int) -> str:
        """Account one delivery; returns ``"ok"``, ``"dup"`` or
        ``"unexpected"`` (delivery outside the member's obligations).
        Stint ranges never overlap and start in increasing order, so
        only the latest stint begun by ``seq`` can be obligated."""
        for stint in reversed(self._cursors.get(member, ())):
            if seq >= stint.first:
                return stint.record(seq)
        self._unexpected += 1
        return "unexpected"

    def active_cursors(self, members: Iterable[str]) -> list[_Cursor]:
        """Each member's open stint, in ``members`` order — the same
        objects until the member's next leave and rejoin."""
        cursors = self._cursors
        return [cursors[member][-1] for member in members]

    def retire_all(self) -> None:
        """Freeze every still-active cursor (group teardown)."""
        for stints in self._cursors.values():
            if stints and stints[-1].last is None:
                stints[-1].last = self._issued

    def audit(self) -> SequenceAudit:
        """Gaps/dups across all cursors against their obligations."""
        gaps: dict[str, tuple[int, ...]] = {}
        dups = 0
        unexpected = self._unexpected  # deliveries before any stint
        for member, stints in sorted(self._cursors.items()):
            missing: list[int] = []
            for cursor in stints:
                last = cursor.last if cursor.last is not None else self._issued
                missing.extend(
                    seq
                    for seq in range(cursor.contiguous + 1, last + 1)
                    if seq not in cursor.ahead
                )
                dups += cursor.dups
                unexpected += cursor.unexpected
            if missing:
                gaps[member] = tuple(missing)
        return SequenceAudit(gaps=gaps, dups=dups, unexpected=unexpected)


class Mirror:
    """A plane driven beside the reference ledgers, one per group
    incarnation: every membership operation goes to both, and
    :meth:`sync` feeds the reference every ``mc.deliver`` / ``mc.dup``
    the plane committed since the last sync.  Run it inside
    ``TRACER.capture()``."""

    def __init__(self, plane: ServicePlane) -> None:
        self.plane = plane
        self.ledgers: dict[str, list[SequenceLedger]] = {}
        self.verdicts: list[str] = []
        # mid -> (the send's ledger, identifier -> host at send time)
        self._sends: dict[int, tuple[SequenceLedger, dict[int, str]]] = {}
        self._mark = TRACER.mark()

    def create(self, name: str, members: list[str]) -> None:
        self.plane.create_group(name, members)
        ledger = SequenceLedger()
        for member in self.plane.service.members_of(name):
            ledger.admit(member)
        self.ledgers.setdefault(name, []).append(ledger)

    def join(self, name: str, host: str) -> None:
        self.plane.join(name, host)
        self.ledgers[name][-1].admit(host)

    def leave(self, name: str, host: str) -> None:
        self.plane.leave(name, host)
        self.ledgers[name][-1].retire(host)

    def drop(self, name: str) -> None:
        self.plane.drop_group(name)
        self.ledgers[name][-1].retire_all()

    def send(self, name: str, source: str, kbits: float = 16.0) -> SendReceipt:
        receipt = self.plane.send(name, source, kbits)
        ledger = self.ledgers[name][-1]
        assert ledger.issue() == receipt.seq
        service = self.plane.service
        self._sends[receipt.mid] = (
            ledger,
            {service.member_ident(name, host): host for host in receipt.members},
        )
        return receipt

    def sync(self) -> None:
        events = TRACER.events_since(self._mark)
        self._mark = TRACER.mark()
        for event in events:
            if event.layer == "mc" and event.kind in ("deliver", "dup"):
                ledger, host_of = self._sends[event.data["mid"]]
                self.verdicts.append(
                    ledger.record(host_of[event.data["ident"]], event.data["seq"])
                )

    def audit(self) -> SequenceAudit:
        """The reference's audit, merged the way the plane labels it."""
        self.sync()
        gaps: dict[str, tuple[int, ...]] = {}
        dups = unexpected = 0
        for name in sorted(self.ledgers):
            for nth, ledger in enumerate(self.ledgers[name], 1):
                label = name if nth == 1 else f"{name}#{nth}"
                audit = ledger.audit()
                for member, missing in audit.gaps.items():
                    gaps[f"{label}/{member}"] = missing
                dups += audit.dups
                unexpected += audit.unexpected
        return SequenceAudit(gaps=gaps, dups=dups, unexpected=unexpected)


def assert_same_audit(plane: ServicePlane, mirror: Mirror) -> None:
    """Equal audits, gap lists in the same member order."""
    got, want = plane.audit(), mirror.audit()
    assert list(got.gaps.items()) == list(want.gaps.items())
    assert (got.dups, got.unexpected) == (want.dups, want.unexpected)
