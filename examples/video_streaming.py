#!/usr/bin/env python3
"""Tuning a live-video multicast session (the Figure 8 trade-off).

Scenario: a large group wants to watch a live stream encoded at one of
several bitrates.  The operator controls a single knob, the per-link
rate ``p``: capacities ``c_x = floor(B_x / p)`` rise as ``p`` falls,
making trees shallower (lower latency) but each link thinner (lower
sustainable bitrate).  Act one sweeps ``p`` analytically and picks the
lowest-latency system/configuration that sustains a 64 kbps stream.
Act two then *runs* the chosen configuration on the event-driven
service plane: the source streams a run of video segments on the
simulated clock, a viewer joins and another leaves mid-stream, and the
plane's quiesce audit proves every frozen member received every
segment exactly once before the goodput table is printed.

Run:  python examples/video_streaming.py
"""

from random import Random

from repro import MulticastGroup, SystemKind, sustainable_throughput
from repro.multicast.plane import ServicePlane

GROUP_SIZE = 10_000
TARGET_KBPS = 64.0
SWEEP = (20.0, 40.0, 64.0, 90.0, 120.0)

# act two: a smaller audience keeps the timed replay quick while still
# exercising a real multi-level tree
STREAM_VIEWERS = 2_000
SEGMENT_KBITS = 128.0  # 2 s of video at the 64 kbps target
SEGMENTS = 8


def measure(kind: SystemKind, per_link: float, bandwidths) -> tuple[float, float]:
    """(sustainable kbps, average path length) for one configuration."""
    group = MulticastGroup.build(kind, bandwidths, per_link_kbps=per_link, seed=7)
    rng = Random(1)
    rates, paths = [], []
    for _ in range(2):
        tree = group.multicast_from(group.random_member(rng))
        rates.append(sustainable_throughput(tree, group.snapshot))
        paths.append(tree.average_path_length())
    return min(rates), sum(paths) / len(paths)


def stream(system: str, per_link: float) -> None:
    """Act two: play the chosen configuration on the service plane."""
    rng = Random(42)
    plane = ServicePlane(space_bits=18)
    names = [f"viewer-{i}" for i in range(STREAM_VIEWERS + 1)]
    for name in names:
        plane.register_host(name, rng.uniform(400, 1000))
    audience = names[:STREAM_VIEWERS]  # the last name joins mid-stream
    plane.create_group("stream", audience, kind=system, per_link_kbps=per_link)

    source = audience[0]
    for segment in range(SEGMENTS):
        plane.send_later(segment * 2.0, "stream", source, SEGMENT_KBITS)
    # churn mid-stream: one viewer tunes in, another tunes out, both
    # while earlier segments are still being forwarded
    plane.simulator.call_later(3.0, plane.join, "stream", names[-1])
    plane.simulator.call_later(5.0, plane.leave, "stream", audience[1])

    plane.drain()
    plane.verify_quiesced()
    print(f"\nStreamed {SEGMENTS} segments of {SEGMENT_KBITS:g} kbits to "
          f"{STREAM_VIEWERS} viewers ({names[-1]} joined at t=3, "
          f"{audience[1]} left at t=5) — audits clean.\n")
    print(plane.report().render())


def main() -> None:
    rng = Random(99)
    bandwidths = [rng.uniform(400, 1000) for _ in range(GROUP_SIZE)]

    print(f"{'system':11s} {'p kbps':>7s} {'bitrate kbps':>13s} {'avg hops':>9s}")
    best: tuple[float, str, float] | None = None
    for kind in (SystemKind.CAM_CHORD, SystemKind.CAM_KOORDE):
        for per_link in SWEEP:
            bitrate, hops = measure(kind, per_link, bandwidths)
            marker = ""
            if bitrate >= TARGET_KBPS:
                marker = " <- sustains target"
                if best is None or hops < best[0]:
                    best = (hops, kind.value, per_link)
            print(f"{kind.value:11s} {per_link:7.0f} {bitrate:13.1f} {hops:9.2f}{marker}")

    assert best is not None, "no configuration sustains the target bitrate"
    hops, system, per_link = best
    print(
        f"\nPick: {system} with p = {per_link:g} kbps — sustains "
        f"{TARGET_KBPS:g} kbps at {hops:.2f} hops average latency."
    )
    print(
        "Note the trade-off: smaller p raises every node's fanout "
        "(lower latency) but leaves less bandwidth per child link."
    )

    stream(system, per_link)


if __name__ == "__main__":
    main()
