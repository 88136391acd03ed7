"""Live CAM-Chord peer: neighbor slots + region-splitting multicast.

The neighbor table is keyed by ``(level, sequence)`` slots — the
identifiers ``(x + j * c**i) mod N`` of Section 3.1 — and refreshed by
the shared fix-neighbors loop.  The multicast data plane executes the
Section 3.4 region splitting against this *local* table via the same
pure ``select_child_regions`` core as the structural simulation, so a
stale or missing entry degrades coverage in exactly the way a real
deployment's would.

Setting every peer's ``capacity`` to the same constant ``k`` turns this
into a live base-``k`` Chord node (the capacity-oblivious baseline),
because the slot set degenerates to the plain finger table.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable

from repro.multicast.cam_chord import select_child_regions
from repro.overlay.cam_chord import slot_identifiers
from repro.protocol.base_peer import BasePeer, LookupFailed
from repro.sim.engine import FutureError
from repro.sim.network import Message
from repro.trace.tracer import TRACER


class CamChordPeer(BasePeer):
    """A live CAM-Chord node."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Repair in reliable mode can resend a region whose ack was
        # lost; track handled message ids so delivery stays exactly-once.
        self._seen_messages: set[int] = set()

    def slot_specs(self) -> Iterable[tuple[Any, int]]:
        return [
            ((level, sequence), identifier)
            for level, sequence, identifier in slot_identifiers(
                self.ident, self.capacity, self.space.bits
            )
        ]

    # -- multicast ---------------------------------------------------------

    def multicast(self, message_id: int | None = None) -> int:
        """Originate one multicast (the paper's ``MULTICAST(msg, x-1)``)."""
        if message_id is None:
            message_id = self.next_message_id()
        self._seen_messages.add(message_id)
        self._deliver_local(message_id, depth=0)
        self._forward_region(message_id, self.space.sub(self.ident, 1), depth=0)
        return message_id

    def _slot_resolver(self, level: int, sequence: int, identifier: int) -> int | None:
        """The peer's belief about who is responsible for a slot."""
        if level == 0 and sequence == 1:
            # x_{0,1} is the successor — always maintained.
            succ = self.successor
            return succ if succ != self.ident else None
        return self.neighbor_table.get((level, sequence))

    def _forward_region(self, message_id: int, limit: int, depth: int) -> None:
        children = select_child_regions(
            self.ident,
            self.capacity,
            self.space.bits,
            limit,
            self._slot_resolver,
        )
        payload_of = lambda sublimit: {
            "mid": message_id,
            "limit": sublimit,
            "depth": depth + 1,
        }
        if not self.config.reliable_multicast:
            for child, sublimit in children:
                self.network.send(self.ident, child, "mc_region", payload_of(sublimit))
            return
        for child, sublimit in children:
            self.simulator.spawn(
                self._reliable_handoff(child, payload_of(sublimit))
            )

    def _reliable_handoff(
        self, child: int, payload: dict
    ) -> Generator[Any, Any, None]:
        """Acknowledged region handoff with lookup-based repair.

        Retry once (tolerates message loss); if the child stays silent,
        treat it as dead, purge it, wait out a stabilization round —
        immediately after a crash the dead node's identifier still
        resolves to the dead node in everyone's view — and then look up
        who owns the dead child's identifier now, routing around every
        node already found dead.  The repaired handoff covers the whole
        original span, so the members behind the crash are not lost.
        """
        target = child
        dead: set[int] = set()
        for _ in range(6):
            for _ in range(3):
                try:
                    yield self.network.request(
                        self.ident,
                        target,
                        "mc_region",
                        payload,
                        timeout=self.config.rpc_timeout,
                    )
                    return
                except FutureError:
                    continue
            # Distinguish "dead" from "unlucky on a lossy link": a
            # false death verdict makes the repair route *around* a
            # live member and abandon its span.
            try:
                yield self.rpc(target, "ping")
                continue  # alive after all — retry the handoff
            except FutureError:
                pass
            dead.add(target)
            self._purge_link(target)
            # Let stabilization absorb the failure before re-resolving.
            yield self.config.stabilize_interval
            try:
                replacement = yield from self._lookup_process(child, exclude=set(dead))
            except LookupFailed:
                continue
            if replacement == self.ident:
                return  # every member of the span is gone
            if replacement in dead:
                continue  # the ring has not re-converged yet; back off
            if not self.space.in_segment(
                replacement, self.ident, payload["limit"]
            ):
                # the next live node sits beyond the region: nobody is
                # left inside the dead child's span, repair is complete
                return
            if TRACER.mc and "repair" in TRACER.mc:
                TRACER.emit(
                    self.simulator.now, "mc", "repair",
                    mid=payload["mid"], ident=self.ident,
                    dead=target, replacement=replacement,
                )
            target = replacement

    def _on_mc_region(self, message: Message) -> None:
        payload = message.payload
        if message.request_id is not None:
            # reliable mode: acknowledge receipt before forwarding
            self.network.respond(message, {})
        message_id = payload["mid"]
        if message_id in self._seen_messages:
            # A repair handed us a region again — possibly *larger* than
            # the one we handled (we are standing in for a dead node
            # whose span extended past our original assignment).  Do not
            # re-deliver, but do re-forward so the extra span is
            # covered; receivers dedupe the overlap the same way, and
            # the recursion terminates because regions shrink strictly.
            self._duplicate_local(message_id, message.sender)
            if self.config.reliable_multicast:
                self._forward_region(message_id, payload["limit"], payload["depth"])
            return
        self._seen_messages.add(message_id)
        self._deliver_local(message_id, payload["depth"], parent=message.sender)
        self._forward_region(message_id, payload["limit"], payload["depth"])
