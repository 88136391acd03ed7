"""Sim metrics and counts repeat exactly per seed and move with it."""

from bench import catalog, workloads


def _sim_side(report: dict) -> dict:
    return {
        workload: (
            {
                name: entry["value"]
                for name, entry in result["end_to_end"].items()
                if entry["domain"] == "sim"
            },
            result["counts"],
        )
        for workload, result in report["workloads"].items()
    }


def test_two_smoke_runs_of_one_seed_agree_exactly(smoke_traced, smoke_again):
    assert _sim_side(smoke_traced) == _sim_side(smoke_again)


def test_another_seed_gives_other_inputs(smoke_traced, smoke_other_seed):
    first, other = _sim_side(smoke_traced), _sim_side(smoke_other_seed)
    for workload in first:
        assert first[workload] != other[workload], workload


def test_only_the_drivers_form_steps_over_campaigns_known_to_fail():
    skipped = workloads.DRIVER_SKIPPED_CAMPAIGNS
    for name in catalog.WORKLOADS:
        mapped = [workloads.driver_seed(name, seed) for seed in range(200)]
        if name == catalog.FAILOVER_CAMPAIGN:
            assert mapped[:4] == [0, 1, 2, 3] and mapped[4] == 5
            assert not skipped & set(mapped)
            assert set(mapped) == set(range(64)) - skipped
        else:
            assert mapped == list(range(200))
