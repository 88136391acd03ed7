"""The paper's worked examples, encoded exactly.

Figures 1-5 of the paper are small hand-traceable topologies.  These
tests pin our implementation to them:

* Figure 2 — CAM-Chord neighbors of x (N=32, c_x=3, 8 nodes);
* Section 3.2 example — the lookup for x+25 routed via x+18 to x+26;
* Figure 3 — the implicit CAM-Chord multicast tree rooted at x;
* Figure 4 — CAM-Koorde neighbor groups of node 36 (N=64, c=10);
* Figure 5 — the implicit CAM-Koorde flood tree rooted at 36.
"""

from __future__ import annotations

import pytest

from repro.multicast.cam_chord import cam_chord_multicast
from repro.multicast.cam_koorde import cam_koorde_multicast
from repro.overlay.cam_chord import CamChordOverlay, level_and_sequence
from repro.overlay.cam_koorde import CamKoordeOverlay, cam_koorde_neighbor_groups
from tests.dict_trees import select_children


class TestFigure2Neighbors:
    """Neighbors of x with N = [0..31] and c_x = 3 (x taken as 0)."""

    def test_resolved_neighbor_set(self, figure2_snapshot):
        overlay = CamChordOverlay(figure2_snapshot)
        x = figure2_snapshot.node_at(0)
        neighbors = {n.ident for n in overlay.neighbors(x)}
        assert neighbors == {4, 8, 13, 18, 29}

    def test_neighbor_identifier_aliases(self, figure2_snapshot):
        """x_{0,1}, x_{0,2} and x_{1,1} all resolve to node x+4."""
        overlay = CamChordOverlay(figure2_snapshot)
        x = figure2_snapshot.node_at(0)
        snap = figure2_snapshot
        assert snap.resolve(overlay.neighbor_identifier(x, 0, 1)).ident == 4
        assert snap.resolve(overlay.neighbor_identifier(x, 0, 2)).ident == 4
        assert snap.resolve(overlay.neighbor_identifier(x, 1, 1)).ident == 4
        assert snap.resolve(overlay.neighbor_identifier(x, 1, 2)).ident == 8
        assert snap.resolve(overlay.neighbor_identifier(x, 2, 1)).ident == 13
        assert snap.resolve(overlay.neighbor_identifier(x, 2, 2)).ident == 18
        assert snap.resolve(overlay.neighbor_identifier(x, 3, 1)).ident == 29

    def test_neighbor_identifiers_match_formula(self, figure2_snapshot):
        overlay = CamChordOverlay(figure2_snapshot)
        x = figure2_snapshot.node_at(0)
        # j * 3**i for j in {1,2}, i in {0,1,2} plus 27 (level 3, j=1).
        assert sorted(overlay.neighbor_identifiers(x)) == [1, 2, 3, 6, 9, 18, 27]


class TestSection32LookupExample:
    """x looks up identifier x+25: forwarded to x+18, answered x+26."""

    def test_lookup_route(self, figure2_snapshot):
        overlay = CamChordOverlay(figure2_snapshot)
        x = figure2_snapshot.node_at(0)
        result = overlay.lookup(x, 25)
        assert result.responsible.ident == 26
        assert [n.ident for n in result.path] == [0, 18, 26]
        assert result.hops == 1  # one forward (to x+18), answered there

    def test_level_and_sequence_of_example(self):
        # "The level and the sequence number of identifier x+25 are both
        # 2 with respect to x" (c_x = 3).
        assert level_and_sequence(25, 3) == (2, 2)
        # "The level and the sequence number of identifier x+25 are 1
        # and 2 with respect to x+18" (distance 7).
        assert level_and_sequence(7, 3) == (1, 2)


class TestFigure3MulticastTree:
    """The implicit tree rooted at x (Figure 3)."""

    def test_exact_tree(self, figure2_snapshot):
        overlay = CamChordOverlay(figure2_snapshot)
        x = figure2_snapshot.node_at(0)
        result = cam_chord_multicast(overlay, x)
        children: dict[int, set[int]] = {}
        for child, parent in result.parent.items():
            if parent is not None:
                children.setdefault(parent, set()).add(child)
        assert children[0] == {4, 18, 29}
        assert children[4] == {8, 13}
        assert children[18] == {21, 26}
        assert set(children) == {0, 4, 18}  # everyone else is a leaf

    def test_root_child_regions(self, figure2_snapshot):
        """x forwards to x+29 with (x+29, x+31], to x+18 with
        (x+18, x+26], and to x+4 with (x+4, x+17]."""
        overlay = CamChordOverlay(figure2_snapshot)
        x = figure2_snapshot.node_at(0)
        selections = select_children(overlay, x, 31)
        as_pairs = [(child.ident, limit) for child, limit in selections]
        assert as_pairs == [(29, 31), (18, 26), (4, 17)]

    def test_exactly_once(self, figure2_snapshot):
        overlay = CamChordOverlay(figure2_snapshot)
        x = figure2_snapshot.node_at(0)
        result = cam_chord_multicast(overlay, x)
        result.verify_exactly_once({n.ident for n in figure2_snapshot})

    def test_depths(self, figure2_snapshot):
        overlay = CamChordOverlay(figure2_snapshot)
        result = cam_chord_multicast(overlay, figure2_snapshot.node_at(0))
        assert result.depth[0] == 0
        assert result.depth[4] == result.depth[18] == result.depth[29] == 1
        assert (
            result.depth[8]
            == result.depth[13]
            == result.depth[21]
            == result.depth[26]
            == 2
        )


class TestFigure4NeighborGroups:
    """CAM-Koorde neighbors of node 36 (100100), capacity 10, N=64."""

    def test_identifier_groups(self):
        groups = cam_koorde_neighbor_groups(36, 10, 6)
        assert set(groups.basic_shift) == {18, 50}
        assert set(groups.second) == {9, 25, 41, 57}
        assert set(groups.third) == {4, 12}

    def test_resolved_neighbors(self, figure4_snapshot):
        overlay = CamKoordeOverlay(figure4_snapshot)
        node36 = figure4_snapshot.node_at(36)
        neighbors = {n.ident for n in overlay.neighbors(node36)}
        # basic: pred 35, succ 37, 18, 50; second: 9,25,41,57; third: 4,12
        assert neighbors == {35, 37, 18, 50, 9, 25, 41, 57, 4, 12}

    def test_capacity_equals_neighbor_count(self, figure4_snapshot):
        overlay = CamKoordeOverlay(figure4_snapshot)
        node36 = figure4_snapshot.node_at(36)
        assert len(overlay.neighbors(node36)) == node36.capacity

    def test_minimum_capacity_enforced(self):
        with pytest.raises(ValueError, match="capacity >= 4"):
            cam_koorde_neighbor_groups(36, 3, 6)

    def test_capacity_exactly_four_has_only_basic(self):
        groups = cam_koorde_neighbor_groups(36, 4, 6)
        assert groups.second == ()
        assert groups.third == ()

    def test_small_extra_capacities(self):
        # c=5: r=1, s=0 -> t=0, third group {x/2} duplicates basic.
        groups5 = cam_koorde_neighbor_groups(36, 5, 6)
        assert groups5.second == ()
        assert groups5.third == (18,)
        # c=6: r=2, s=1 -> t=0, third shift s'=2.
        groups6 = cam_koorde_neighbor_groups(36, 6, 6)
        assert groups6.second == ()
        assert groups6.third == (9, 25)
        # c=8: r=4, s=2 -> t=4 second-group entries, none left for third.
        groups8 = cam_koorde_neighbor_groups(36, 8, 6)
        assert groups8.second == (9, 25, 41, 57)
        assert groups8.third == ()


class TestFigure5FloodTree:
    """The implicit flood tree rooted at node 36 (all capacities 10)."""

    def test_first_hop_is_all_neighbors(self, figure4_snapshot):
        overlay = CamKoordeOverlay(figure4_snapshot)
        result = cam_koorde_multicast(overlay, figure4_snapshot.node_at(36))
        depth1 = {ident for ident, d in result.depth.items() if d == 1}
        assert depth1 == {9, 12, 18, 25, 35, 37, 41, 50, 57, 4}

    def test_remaining_nodes_reached_in_two_hops(self, figure4_snapshot):
        overlay = CamKoordeOverlay(figure4_snapshot)
        result = cam_koorde_multicast(overlay, figure4_snapshot.node_at(36))
        depth2 = {ident for ident, d in result.depth.items() if d == 2}
        assert depth2 == {1, 21, 30, 46, 61}
        assert result.max_path_length() == 2

    def test_exactly_once(self, figure4_snapshot):
        overlay = CamKoordeOverlay(figure4_snapshot)
        result = cam_koorde_multicast(overlay, figure4_snapshot.node_at(36))
        result.verify_exactly_once({n.ident for n in figure4_snapshot})
