"""Mutation tests: prove the oracles detect a deliberately broken peer.

A campaign that always passes could be vacuous.  Here duplicate
suppression is broken in a test-local :class:`CamChordPeer` subclass —
every region handoff passes the *parent's* full limit instead of the
disjoint sublimit, so child spans overlap and members receive the
message more than once.  The campaign must detect it (duplicates
oracle), the shrinker must minimize the scenario to at most three
fault events, and the minimized repro must replay the identical
violation set through ``python -m repro.faults replay``.

The mutant reaches the campaign the only way a live system can: as a
registry descriptor.  :func:`mutant_system` is the ``"cam-chord"``
descriptor with its ``peer_loader`` overridden, and the ``mutant``
fixture installs it where :func:`repro.faults.campaign.run_plan` looks
systems up — so the oracles still judge it by CAM-Chord's invariants.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.faults import campaign, generate_plan, run_plan, save_plan, shrink_plan
from repro.faults.__main__ import main as faults_main
from repro.multicast.cam_chord import select_child_regions
from repro.protocol.cam_chord_peer import CamChordPeer
from repro.systems import get_system
from tests.conftest import assert_plan_deterministic


class OverlappingRegionPeer(CamChordPeer):
    """CAM-Chord with broken duplicate suppression.

    The correct ``_forward_region`` hands each child a *disjoint*
    sublimit — the region-splitting invariant that makes the implicit
    tree exactly-once.  This mutant hands every child the parent's full
    limit, so sibling spans overlap and the same members are reached
    along several paths.  Receivers still dedupe (delivery stays
    correct and the recursion terminates, since a handed-off region
    strictly shrinks), but the monitor records every redundant arrival
    — precisely what the duplicates oracle must flag on a tree system.
    """

    def _forward_region(self, message_id: int, limit: int, depth: int) -> None:
        children = select_child_regions(
            self.ident,
            self.capacity,
            self.space.bits,
            limit,
            self._slot_resolver,
        )
        for child, _sublimit in children:
            self.network.send(
                self.ident,
                child,
                "mc_region",
                {"mid": message_id, "limit": limit, "depth": depth + 1},
            )


MUTANT_SYSTEM = dataclasses.replace(
    get_system("cam-chord"), peer_loader=lambda: OverlappingRegionPeer
)


def mutant_system(name: str):
    """The campaign's system lookup with ``"cam-chord"`` mutated."""
    return MUTANT_SYSTEM if name == "cam-chord" else get_system(name)


@pytest.fixture
def mutant(monkeypatch):
    """Run every ``"cam-chord"`` plan on the mutant peer."""
    monkeypatch.setattr(campaign, "get_system", mutant_system)


def _first_failing_plan():
    """The first generated cam-chord plan the mutant fails on."""
    for index in range(10):
        plan = generate_plan("cam-chord", index, campaign_seed=0)
        outcome = run_plan(plan)
        if not outcome.passed:
            return plan, outcome
    pytest.fail("mutant survived 10 generated plans — the oracles are toothless")


@pytest.mark.usefixtures("mutant")
def test_campaign_detects_broken_duplicate_suppression():
    plan, outcome = _first_failing_plan()
    oracles = {violation.oracle for violation in outcome.violations}
    assert "duplicates" in oracles, (
        f"expected the duplicates oracle to fire, got {oracles}"
    )
    detail = next(
        v for v in outcome.violations if v.oracle == "duplicates"
    )
    assert detail.members, "a duplicates violation must name the members hit"


@pytest.mark.usefixtures("mutant")
def test_mutant_shrinks_to_minimal_replayable_scenario(tmp_path):
    plan, _ = _first_failing_plan()
    minimized, final = shrink_plan(plan)
    # The duplicates bug needs no faults at all — a single multicast on
    # a healthy ring exhibits it — so the shrinker must strip the
    # schedule to (nearly) nothing.
    assert len(minimized.events) <= 3
    assert minimized.multicasts == 1
    assert minimized.size <= plan.size
    assert any(v.oracle == "duplicates" for v in final.violations)

    # The minimized repro replays deterministically.
    replayed = assert_plan_deterministic(minimized)
    assert replayed.violations == final.violations


def test_replay_cli_reproduces_the_mutant_violations(tmp_path, capsys, monkeypatch):
    """`python -m repro.faults replay` on the minimized scenario exits 1
    with byte-identical output on every invocation."""
    monkeypatch.setattr(campaign, "get_system", mutant_system)
    plan, _ = _first_failing_plan()
    minimized, final = shrink_plan(plan)
    path = tmp_path / "minimal.json"
    save_plan(
        minimized, str(path), extra={"violations": [str(v) for v in final.violations]}
    )
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle)["meta"]["violations"]

    exit_first = faults_main(["replay", str(path)])
    out_first = capsys.readouterr().out
    exit_second = faults_main(["replay", str(path)])
    out_second = capsys.readouterr().out
    assert exit_first == exit_second == 1
    assert out_first == out_second
    assert "duplicates" in out_first

    # and the unmutated peer passes the very same scenario
    monkeypatch.undo()
    exit_clean = faults_main(["replay", str(path)])
    out_clean = capsys.readouterr().out
    assert exit_clean == 0
    assert "ok" in out_clean
