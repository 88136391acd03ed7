#!/usr/bin/env python3
"""A conferencing platform: many rooms, one host population, one clock.

The paper's architecture gives every multicast group its own dedicated
overlay (Section 2).  A host in three meetings sits on three rings —
under three unrelated identifiers — but it owns exactly one uplink,
and that uplink serves all of them.  This example runs the
event-driven service plane: 300 hosts, four concurrent rooms of
different sizes and media rates, audio/video events interleaving on a
single simulated clock, a latecomer joining and an early leaver
departing *while* traffic is in flight.  At quiesce the plane audits
every room (completeness against frozen send-time membership, zero
sequence gaps, zero duplicates) and prints the per-room goodput and
backpressure table the platform would provision from.

Run:  python examples/conference_rooms.py
"""

from random import Random

from repro.multicast.plane import ServicePlane
from repro.multicast.session import SystemKind

HOSTS = 300

ROOMS = (
    # name, members, system, per-link kbps (media rate)
    ("all-hands", 250, SystemKind.CAM_CHORD, 80.0),
    ("team-standup", 40, SystemKind.CAM_CHORD, 120.0),
    ("design-review", 25, SystemKind.CAM_KOORDE, 120.0),
    ("pair-session", 6, SystemKind.CAM_CHORD, 200.0),
)


def main() -> None:
    rng = Random(23)
    plane = ServicePlane(space_bits=18)
    for index in range(HOSTS):
        plane.register_host(f"host-{index}", rng.uniform(400, 1000))

    host_names = [f"host-{i}" for i in range(HOSTS)]
    memberships: dict[str, list[str]] = {}
    for name, size, kind, rate in ROOMS:
        members = rng.sample(host_names, size)
        memberships[name] = members
        plane.create_group(name, members, kind=kind, per_link_kbps=rate)
        print(f"room {name:13s} {size:4d} members  {kind.value:10s} "
              f"p={rate:g} kbps")

    # every room chatters on the shared clock: speakers rotate, each
    # event is 4 kbits, and the rooms' sends interleave rather than
    # running one room to completion at a time
    for name, size, _, _ in ROOMS:
        # the standup's first member will leave mid-run, so it never
        # takes a speaking turn (membership freezes at fire time)
        speakers = memberships[name][1:] if name == "team-standup" else (
            memberships[name]
        )
        for turn in range(size // 2):
            speaker = rng.choice(speakers)
            plane.send_later(turn * 0.2, name, speaker, message_kbits=4.0)

    # mid-meeting membership: a latecomer joins the all-hands and an
    # early leaver drops out of the standup while events are in flight
    joiner = next(h for h in host_names if h not in memberships["all-hands"])
    plane.simulator.call_later(2.0, plane.join, "all-hands", joiner)
    leaver = memberships["team-standup"][0]
    plane.simulator.call_later(1.5, plane.leave, "team-standup", leaver)

    plane.drain()
    plane.verify_quiesced()  # every oracle, every room
    print(f"\n{joiner} joined all-hands at t=2.0; "
          f"{leaver} left team-standup at t=1.5 — all audits clean.\n")
    print(plane.report().render())

    load = plane.service.host_load_kbits()
    carried = [v for v in load.values() if v > 0]
    print(f"\nhosts carrying traffic : {len(carried)} / {HOSTS}")
    print(f"mean load (active)     : {sum(carried)/len(carried):8.1f} kbits")
    print("busiest hosts          :")
    for host, kbits in plane.service.busiest_hosts(5):
        rooms = ", ".join(plane.service.groups_of(host))
        print(f"   {host:10s} {kbits:8.1f} kbits  (rooms: {rooms})")

    print(
        "\nEach room's traffic stays inside its own overlay, but the "
        "deferral column shows the shared-uplink coupling: a host "
        "forwarding for two rooms serializes them on one link, and the "
        "plane reports that backpressure per room."
    )


if __name__ == "__main__":
    main()
