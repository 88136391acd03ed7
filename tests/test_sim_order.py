"""The event core fires the same events in the same order as the
ordered-dataclass heap it replaced: outcome and trace digests recorded
at ``f95b7af`` (see ``tests/golden/sim_order.py``).  Seed 1 of the
campaign runs in CI's ``failover-smoke``.
"""

from __future__ import annotations

import pytest

from tests.golden import sim_order as golden


def test_campaign_outcomes_match_golden():
    assert golden.campaign_digest(0) == golden.load()["campaign/seed0"]


@pytest.mark.parametrize("hash_seed", ["7", "99"])
@pytest.mark.parametrize("system", golden.CHURN_SYSTEMS)
def test_lossy_churn_trace_matches_golden(system, hash_seed):
    expected = golden.load()[f"churn_trace/{system}"]
    assert golden.churn_trace_digest(system, hash_seed) == expected


def test_golden_file_lists_every_scenario():
    assert list(golden.load()) == [key for key, _ in golden.scenarios()]
