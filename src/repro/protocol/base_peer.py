"""Peer machinery shared by every live overlay node.

A peer owns the Chord maintenance cycle (Section 3.3 adopts it
verbatim, Section 4.2 reuses it for the de Bruijn overlay):

* ``stabilize`` — ask the successor for its predecessor, adopt a
  closer one, refresh the successor list, notify;
* ``notify`` — accept a closer predecessor;
* ``check predecessor`` — ping and clear on failure;
* ``fix neighbors`` — round-robin refresh of the overlay-specific
  neighbor table via lookups (Chord's ``fix_fingers`` generalized).

Lookups are *iterative*: the querying peer asks each hop for its best
next hop, excluding hops that already timed out — the standard
robustness choice under churn (a recursive chain dies with any single
node on it).

:class:`FloodPeer` adds the one flood both Koorde peers multicast
with; the CAM-Chord peer splits regions instead.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

from repro.idspace.ring import IdentifierSpace
from repro.protocol.config import ProtocolConfig
from repro.sim.engine import Future, FutureError, ProcessHandle, Simulator
from repro.sim.network import Message, Network
from repro.trace.tracer import TRACER


class LookupFailed(Exception):
    """An iterative lookup exhausted its retries."""


_message_ids = itertools.count(1)

#: the exclude set of a routing request that names no failed hop
_NO_EXCLUDE: frozenset[int] = frozenset()


def _dispatch_table(cls: type) -> dict[str, Callable[..., None]]:
    """``kind -> _on_<kind>`` for every handler ``cls`` has, its own or
    inherited, overrides winning as attribute lookup would."""
    return {
        name[4:]: getattr(cls, name) for name in dir(cls) if name.startswith("_on_")
    }


@dataclass
class DeliveryMonitor:
    """Cluster-wide observer of multicast outcomes.

    The experiment driver calls :meth:`message_sent` with the member
    set alive at send time; peers report deliveries and duplicates.
    Delivery ratio is computed against members that were alive at send
    time *and* are still alive when the ratio is read (a node that
    left mid-dissemination is not a failure of the multicast system).
    """

    sent_members: dict[int, set[int]] = field(default_factory=dict)
    sent_source: dict[int, int] = field(default_factory=dict)
    received: dict[int, dict[int, int]] = field(default_factory=dict)
    duplicates: Counter = field(default_factory=Counter)

    def message_sent(self, message_id: int, source: int, members: set[int]) -> None:
        """Register a new multicast and the membership it targets.

        The source reports its own delivery when it originates the
        message, so it is not pre-registered here (doing so would count
        the origination as a duplicate)."""
        self.sent_members[message_id] = set(members)
        self.sent_source[message_id] = source
        self.received[message_id] = {}

    def delivered(self, message_id: int, ident: int, depth: int) -> None:
        """A peer received the message for the first time."""
        log = self.received.setdefault(message_id, {})
        if ident in log:
            self.duplicates[message_id] += 1
            return
        log[ident] = depth

    def duplicate(self, message_id: int, ident: int) -> None:
        """A peer received a redundant copy (flooding control overhead)."""
        self.duplicates[message_id] += 1

    def delivery_ratio(self, message_id: int, still_alive: set[int]) -> float:
        """Fraction of eligible members that got the message."""
        eligible = self.sent_members.get(message_id, set()) & still_alive
        if not eligible:
            return 1.0
        got = sum(1 for ident in eligible if ident in self.received.get(message_id, {}))
        return got / len(eligible)

    def path_lengths(self, message_id: int) -> list[int]:
        """Hop counts of every delivery (source excluded)."""
        source = self.sent_source.get(message_id)
        return [
            depth
            for ident, depth in self.received.get(message_id, {}).items()
            if ident != source
        ]


class BasePeer:
    """One live overlay node.

    Subclasses provide the neighbor-table shape (:meth:`slot_specs`),
    the links used for routing (:meth:`routing_links`), and the
    multicast data plane.
    """

    def __init__(
        self,
        ident: int,
        capacity: int,
        network: Network,
        space: IdentifierSpace,
        config: ProtocolConfig | None = None,
        bandwidth_kbps: float = 0.0,
        monitor: DeliveryMonitor | None = None,
    ) -> None:
        self.ident = ident
        self.capacity = capacity
        self.bandwidth_kbps = bandwidth_kbps
        self.network = network
        self.space = space
        # the space is a power of two, so ``(y - x) & mask`` is
        # ``segment_size(x, y)``
        self._mask = space.size - 1
        self.config = config if config is not None else ProtocolConfig()
        self.monitor = monitor

        self.predecessor: int | None = None
        self.successors: list[int] = [ident]
        self.neighbor_table: dict[Any, int] = {}
        self.alive = False
        self._tasks: list[ProcessHandle] = []
        self._slots = list(self.slot_specs())
        self._next_slot = 0
        # Consecutive stabilize failures of the current successor; a
        # single lost datagram must not evict a live successor.
        self._successor_strikes = 0
        self._join_in_flight = False
        self._departing_gracefully = False
        # Last-resort contacts for islanded recovery, most recent last.
        # A freshly joined peer whose sole successor dies before the
        # first stabilize has an empty neighbor table and no other way
        # back into the ring (fault-injection plans hit exactly this
        # join/crash race); the cache keeps the bootstrap node and the
        # members recent stabilize rounds proved alive.  A dict used as
        # an ordered set: re-remembering moves a key to the end.
        self._contact_cache: dict[int, None] = {}

    #: Islanded-recovery contacts kept per peer (see ``_contact_cache``).
    CONTACT_CACHE_SIZE = 16

    #: Evict the successor after this many consecutive RPC failures.
    #: Eviction also purges the node from the neighbor table, so the
    #: threshold must make spurious eviction rare even on lossy links
    #: (at 10% message loss a round-trip fails ~19% of the time; three
    #: consecutive failures of a live successor are ~0.7%).
    SUCCESSOR_STRIKE_LIMIT = 3

    # -- subclass interface ----------------------------------------------

    def slot_specs(self) -> Iterable[tuple[Any, int]]:
        """(table key, identifier) pairs the fix-neighbors loop refreshes."""
        raise NotImplementedError

    def routing_links(self) -> set[int]:
        """Identifiers of every link usable for greedy routing."""
        links = set(self.neighbor_table.values())
        links.update(self.successors)
        if self.predecessor is not None:
            links.add(self.predecessor)
        links.discard(self.ident)
        return links

    # -- simulator helpers --------------------------------------------------

    @property
    def simulator(self) -> Simulator:
        return self.network.simulator

    @property
    def successor(self) -> int:
        """The current first live-believed successor."""
        return self.successors[0] if self.successors else self.ident

    def rpc(self, target: int, kind: str, payload: Any = None) -> Future:
        """Request/response with the configured timeout."""
        return self.network.request(
            self.ident, target, kind, payload, self.config.rpc_timeout
        )

    # -- lifecycle ------------------------------------------------------------

    def create(self) -> None:
        """Bootstrap a brand-new ring containing only this peer."""
        self.predecessor = None
        self.successors = [self.ident]
        self._go_live()

    def join(self, bootstrap: int) -> Future:
        """Join the ring known to ``bootstrap``.

        Returns a future resolving True on success, False when the
        bootstrap lookup failed (the caller may retry with another
        bootstrap node).
        """
        outcome = Future()
        if self.alive or self._join_in_flight:
            # Already a member, or a previous join attempt is still
            # running — joining twice would double-register.
            outcome.resolve(self.alive)
            return outcome
        self._join_in_flight = True
        self.remember_contacts((bootstrap,))

        def process() -> Generator[Any, Any, None]:
            try:
                successor = yield from self._lookup_via(bootstrap, self.ident)
            except LookupFailed:
                self._join_in_flight = False
                outcome.resolve(False)
                return
            self._join_in_flight = False
            self.predecessor = None
            self.successors = [successor]
            self.remember_contacts((successor,))
            self._go_live()
            if TRACER.proto and "join" in TRACER.proto:
                TRACER.emit(
                    self.simulator.now, "proto", "join",
                    ident=self.ident, succ=successor,
                )
            self.network.send(self.ident, successor, "notify", {"ident": self.ident})
            outcome.resolve(True)

        self.simulator.spawn(process())
        return outcome

    def _go_live(self) -> None:
        self.network.register(self.ident, self)
        self.alive = True
        config = self.config
        # Deterministic de-phasing: peers with different identifiers do
        # not stabilize in lock step.
        phase = (self.ident % 997) / 997.0
        self._tasks = [
            self.simulator.spawn(
                self._periodic(config.stabilize_interval, self._stabilize_once),
                delay=phase * config.stabilize_interval,
            ),
            self.simulator.spawn(
                self._periodic(config.fix_neighbors_interval, self._fix_one_neighbor),
                delay=phase * config.fix_neighbors_interval,
            ),
            self.simulator.spawn(
                self._periodic(
                    config.check_predecessor_interval, self._check_predecessor_once
                ),
                delay=phase * config.check_predecessor_interval,
            ),
        ]

    def leave(self) -> None:
        """Graceful departure: hand state to the ring neighbors, then go."""
        if not self.alive:
            return
        if TRACER.proto and "leave" in TRACER.proto:
            TRACER.emit(self.simulator.now, "proto", "leave", ident=self.ident)
        self._departing_gracefully = True
        if self.predecessor is not None and self.predecessor != self.ident:
            self.network.send(
                self.ident,
                self.predecessor,
                "leaving",
                {"successors": [s for s in self.successors if s != self.ident]},
            )
        if self.successor != self.ident:
            self.network.send(
                self.ident,
                self.successor,
                "leaving_pred",
                {"predecessor": self.predecessor},
            )
        self.crash()

    def crash(self) -> None:
        """Abrupt failure: vanish without telling anyone."""
        if not self.alive:
            return
        if TRACER.proto and "crash" in TRACER.proto and not self._departing_gracefully:
            TRACER.emit(self.simulator.now, "proto", "crash", ident=self.ident)
        self.alive = False
        self.network.unregister(self.ident)
        for task in self._tasks:
            task.kill()
        self._tasks = []

    # -- periodic maintenance ---------------------------------------------------

    def _periodic(self, interval: float, step) -> Generator[Any, Any, None]:
        while True:
            yield from step()
            yield interval

    def _stabilize_once(self) -> Generator[Any, Any, None]:
        while self.successors and self.successors[0] != self.ident:
            succ = self.successors[0]
            try:
                info = yield self.rpc(succ, "get_info")
            except FutureError:
                # Tolerate isolated message loss; evict only a
                # successor that fails several rounds in a row.
                self._successor_strikes += 1
                if self._successor_strikes >= self.SUCCESSOR_STRIKE_LIMIT:
                    self._successor_strikes = 0
                    dead = self.successors.pop(0)
                    if TRACER.proto and "evict" in TRACER.proto:
                        TRACER.emit(
                            self.simulator.now, "proto", "evict",
                            ident=self.ident, dead=dead,
                        )
                    # The evidence is solid (several consecutive
                    # failures) — drop every link to the dead node, or
                    # the islanded-recovery path below could keep
                    # re-adopting it from the stale neighbor table.
                    self._purge_link(dead)
                    continue
                return
            self._successor_strikes = 0
            candidate = info.get("predecessor")
            if (
                candidate is not None
                and candidate != self.ident
                and self.space.in_segment(candidate, self.ident, succ)
            ):
                # a node joined between us and our successor
                self.successors.insert(0, candidate)
                succ = candidate
                self.network.send(self.ident, succ, "notify", {"ident": self.ident})
                return
            # the handed list, first occurrences in order, minus this
            # peer and ``succ``, which leads
            merged = dict.fromkeys(info.get("successors", ()))
            merged.pop(self.ident, None)
            merged.pop(succ, None)
            self.successors = [succ, *merged][: self.config.successor_list_size]
            # get_info round-tripped, so these are fresh, live-ish
            # contacts — exactly what islanded recovery needs later.
            self.remember_contacts(self.successors)
            if TRACER.proto and "stabilize" in TRACER.proto:
                TRACER.emit(
                    self.simulator.now, "proto", "stabilize",
                    ident=self.ident, succ=succ,
                )
            self.network.send(self.ident, succ, "notify", {"ident": self.ident})
            return
        if not self.successors:
            self.successors = [self.ident]
        if self.successor == self.ident:
            # Islanded (every listed successor failed): re-attach via the
            # closest clockwise link still in the neighbor table, or —
            # with no links left at all — through the most recently seen
            # cached contact, the same last resort a real deploy uses
            # when every learned neighbor has failed.  A dead contact
            # costs a few strike rounds, gets evicted (which purges it
            # from the cache too), and the next round tries the one
            # before it.
            links = self.routing_links()
            if links:
                best = min(
                    links, key=lambda link: self.space.segment_size(self.ident, link)
                )
                self.successors = [best]
            elif self._contact_cache:
                self.successors = [next(reversed(self._contact_cache))]
        return

    def _fix_one_neighbor(self) -> Generator[Any, Any, None]:
        if not self._slots:
            return
        key, identifier = self._slots[self._next_slot]
        self._next_slot = (self._next_slot + 1) % len(self._slots)
        try:
            resolved = yield from self._lookup_process(identifier)
        except LookupFailed:
            if TRACER.proto and "fix_failed" in TRACER.proto:
                TRACER.emit(
                    self.simulator.now, "proto", "fix_failed",
                    ident=self.ident, slot=str(key),
                )
            return
        if TRACER.proto and "fix_neighbor" in TRACER.proto:
            TRACER.emit(
                self.simulator.now, "proto", "fix_neighbor",
                ident=self.ident, slot=str(key), resolved=resolved,
            )
        if resolved == self.ident:
            self.neighbor_table.pop(key, None)
        else:
            self.neighbor_table[key] = resolved

    def remember_contacts(self, idents: Iterable[int]) -> None:
        """Refresh ``idents``, in order, as the most recent contacts of
        the islanded-recovery cache, which keeps the newest
        :attr:`CONTACT_CACHE_SIZE`.

        Seeding it before joining is what a real deployment's bootstrap
        handout does: a *list* of members, not one address; a joiner
        whose sole successor dies before the first stabilize needs a
        second contact or it is lost to the ring forever (no member
        knows it, it knows no member).
        """
        cache = self._contact_cache
        for ident in idents:
            if ident != self.ident:
                cache.pop(ident, None)
                cache[ident] = None
        # trimming once at the end keeps the same newest entries as
        # trimming after every insertion
        while len(cache) > self.CONTACT_CACHE_SIZE:
            del cache[next(iter(cache))]

    def _purge_link(self, ident: int) -> None:
        """Remove a node we believe dead from all local state."""
        self.successors = [s for s in self.successors if s != ident]
        for key in [k for k, v in self.neighbor_table.items() if v == ident]:
            del self.neighbor_table[key]
        if self.predecessor == ident:
            self.predecessor = None
        # The contact earned an eviction — do not keep re-adopting a
        # node the strike counter has already proven dead.
        self._contact_cache.pop(ident, None)

    def _check_predecessor_once(self) -> Generator[Any, Any, None]:
        if self.predecessor is None or self.predecessor == self.ident:
            return
        try:
            yield self.rpc(self.predecessor, "ping")
        except FutureError:
            self.predecessor = None

    # -- iterative lookup ----------------------------------------------------

    def local_next_hop(
        self, key: int, exclude: set[int] | frozenset[int]
    ) -> tuple[bool, int]:
        """This peer's routing answer for ``key``.

        ``(True, ident)`` when the responsible node is known locally,
        ``(False, ident)`` with the best next hop otherwise.
        """
        ident = self.ident
        successors = self.successors
        succ = successors[0] if successors else ident
        if succ == ident:
            return True, ident
        mask = self._mask
        key_offset = (key - ident) & mask
        pred = self.predecessor
        if pred is not None and 0 < (key - pred) & mask <= (ident - pred) & mask:
            return True, ident
        if succ not in exclude and 0 < key_offset <= (succ - ident) & mask:
            return True, succ
        # the closest link strictly preceding the key: link in (self,
        # key).  Distinct links have distinct offsets, so walking the
        # tables with repeats finds what the deduplicated set would;
        # starting at offset 0 skips this peer itself.
        best: int | None = None
        best_offset = 0
        for link in itertools.chain(
            self.neighbor_table.values(),
            successors,
            () if pred is None else (pred,),
        ):
            if link in exclude:
                continue
            offset = (link - ident) & mask
            if best_offset < offset < key_offset:
                best = link
                best_offset = offset
        if best is None:
            return True, succ if succ not in exclude else ident
        return False, best

    def _lookup_process(
        self, key: int, exclude: set[int] | None = None
    ) -> Generator[Any, Any, int]:
        """Iterative lookup; use as ``ident = yield from ...``.

        ``exclude`` seeds the failed-hop set — callers that already
        know certain nodes are dead (e.g. multicast repair) route
        around them from the first hop.
        """
        failed: set[int] = set(exclude) if exclude else set()
        for _ in range(self.config.lookup_retries + 1):
            done, current = self.local_next_hop(key, failed)
            if done:
                return current
            hops = 0
            while hops < self.config.lookup_max_hops:
                try:
                    reply = yield self.rpc(
                        current, "next_hop", {"key": key, "exclude": sorted(failed)}
                    )
                except FutureError:
                    failed.add(current)
                    break
                hops += 1
                if TRACER.proto and "lookup_hop" in TRACER.proto:
                    TRACER.emit(
                        self.simulator.now, "proto", "lookup_hop",
                        ident=self.ident, key=key, hop=reply["ident"],
                        done=bool(reply["done"]),
                    )
                if reply["done"]:
                    return reply["ident"]
                nxt = reply["ident"]
                if nxt == current:
                    return current
                current = nxt
        if TRACER.proto and "lookup_failed" in TRACER.proto:
            TRACER.emit(
                self.simulator.now, "proto", "lookup_failed",
                ident=self.ident, key=key,
            )
        raise LookupFailed(f"lookup of {key} from {self.ident} failed")

    def _lookup_via(self, bootstrap: int, key: int) -> Generator[Any, Any, int]:
        """Lookup driven through a bootstrap node (used when joining,
        before this peer has any links of its own)."""
        failed: set[int] = set()
        current = bootstrap
        for _ in range(self.config.lookup_retries + 1):
            hops = 0
            while hops < self.config.lookup_max_hops:
                try:
                    reply = yield self.rpc(
                        current, "next_hop", {"key": key, "exclude": sorted(failed)}
                    )
                except FutureError:
                    failed.add(current)
                    current = bootstrap
                    if bootstrap in failed:
                        raise LookupFailed(f"bootstrap {bootstrap} unreachable")
                    break
                hops += 1
                if reply["done"]:
                    return reply["ident"]
                nxt = reply["ident"]
                if nxt == current:
                    return current
                current = nxt
            else:
                break
        raise LookupFailed(f"join lookup of {key} via {bootstrap} failed")

    # -- message dispatch ------------------------------------------------------

    #: message kind -> ``_on_<kind>`` function, one table per class
    #: (see ``__init_subclass__``)
    _handlers: dict[str, Callable[[BasePeer, Message], None]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = _dispatch_table(cls)

    def handle_message(self, message: Message) -> None:
        """Network entry point: dispatch on message kind."""
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise ValueError(f"peer {self.ident} got unknown message {message.kind}")
        handler(self, message)

    def _on_next_hop(self, message: Message) -> None:
        payload = message.payload
        exclude = payload["exclude"]
        done, ident = self.local_next_hop(
            payload["key"], set(exclude) if exclude else _NO_EXCLUDE
        )
        self.network.respond(message, {"done": done, "ident": ident})

    def _on_get_info(self, message: Message) -> None:
        self.network.respond(
            message,
            {"predecessor": self.predecessor, "successors": list(self.successors)},
        )

    def _on_ping(self, message: Message) -> None:
        self.network.respond(message, {})

    def _on_notify(self, message: Message) -> None:
        candidate = message.payload["ident"]
        if candidate == self.ident:
            return
        if self.predecessor is None or self.space.in_segment(
            candidate, self.predecessor, self.ident
        ):
            self.predecessor = candidate
        if self.successor == self.ident:
            # second node of a two-node ring: close the circle
            self.successors = [candidate]

    def _on_leaving(self, message: Message) -> None:
        """Our successor is departing; adopt its successor list."""
        handed = [s for s in message.payload["successors"] if s != self.ident]
        if handed:
            self.successors = handed[: self.config.successor_list_size]

    def _on_leaving_pred(self, message: Message) -> None:
        """Our predecessor is departing; adopt its predecessor."""
        self.predecessor = message.payload["predecessor"]

    # -- multicast plumbing shared by both peers ------------------------------

    def next_message_id(self) -> int:
        """Globally unique multicast message identifier."""
        return next(_message_ids)

    def _deliver_local(
        self, message_id: int, depth: int, parent: int | None = None
    ) -> None:
        """Record a first delivery; ``parent`` is the forwarding peer
        (``None`` at the origin) — the edge of the actual tree."""
        if TRACER.mc and "deliver" in TRACER.mc:
            TRACER.emit(
                self.simulator.now, "mc", "deliver",
                mid=message_id, ident=self.ident, depth=depth, parent=parent,
            )
        if self.monitor is not None:
            self.monitor.delivered(message_id, self.ident, depth)

    def _duplicate_local(self, message_id: int, sender: int) -> None:
        """Record a suppressed duplicate copy from ``sender``."""
        if TRACER.mc and "dup" in TRACER.mc:
            TRACER.emit(
                self.simulator.now, "mc", "dup",
                mid=message_id, ident=self.ident, sender=sender,
            )
        if self.monitor is not None:
            self.monitor.duplicate(message_id, self.ident)


BasePeer._handlers = _dispatch_table(BasePeer)


class FloodPeer(BasePeer):
    """A peer that multicasts by flooding with duplicate suppression.

    Section 4.3's dissemination, shared by CAM-Koorde and its plain
    Koorde baseline: a new message goes to every neighbor-table link
    plus the ring links, and a receiver that has seen it already counts
    the copy as a duplicate instead of forwarding it.  The two systems
    differ only in which neighbors the table holds.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._seen_messages: set[int] = set()

    def flood_links(self) -> set[int]:
        """The neighbor table plus predecessor and successor."""
        links = set(self.neighbor_table.values())
        if self.successor != self.ident:
            links.add(self.successor)
        if self.predecessor is not None and self.predecessor != self.ident:
            links.add(self.predecessor)
        links.discard(self.ident)
        return links

    def multicast(self, message_id: int | None = None) -> int:
        """Originate one flood."""
        if message_id is None:
            message_id = self.next_message_id()
        self._seen_messages.add(message_id)
        self._deliver_local(message_id, depth=0)
        self._flood(message_id, depth=0, skip=None)
        return message_id

    def _flood(self, message_id: int, depth: int, skip: int | None) -> None:
        for link in self.flood_links():
            if link == skip:
                continue
            self.network.send(
                self.ident,
                link,
                "mc_flood",
                {"mid": message_id, "depth": depth + 1},
            )

    def _on_mc_flood(self, message: Message) -> None:
        payload = message.payload
        message_id = payload["mid"]
        if message_id in self._seen_messages:
            self._duplicate_local(message_id, message.sender)
            return
        self._seen_messages.add(message_id)
        self._deliver_local(message_id, payload["depth"], parent=message.sender)
        self._flood(message_id, payload["depth"], skip=message.sender)
