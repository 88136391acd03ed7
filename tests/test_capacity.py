"""Tests for the capacity model and distributions."""

from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.capacity.distributions import (
    FixedCapacity,
    UniformBandwidth,
    UniformCapacity,
    expected_log_capacity,
)
from repro.capacity.model import (
    CAM_CHORD_MIN_CAPACITY,
    CAM_KOORDE_MIN_CAPACITY,
    CapacityModel,
    capacity_from_bandwidth,
)


class TestCapacityFromBandwidth:
    def test_papers_rule(self):
        # c_x = floor(B_x / p)
        assert capacity_from_bandwidth(700, 100) == 7
        assert capacity_from_bandwidth(699, 100) == 6
        assert capacity_from_bandwidth(400, 100) == 4

    def test_minimum_clamp(self):
        assert capacity_from_bandwidth(50, 100, minimum=4) == 4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            capacity_from_bandwidth(100, 0)
        with pytest.raises(ValueError):
            capacity_from_bandwidth(-1, 100)

    def test_floors_match_overlays(self):
        assert CAM_CHORD_MIN_CAPACITY == 2
        assert CAM_KOORDE_MIN_CAPACITY == 4


class TestCapacityModel:
    def test_vectorized(self):
        model = CapacityModel(per_link_kbps=100, minimum=4)
        assert model.capacities([400, 1000, 50]) == [4, 10, 4]

    @pytest.mark.parametrize("per_link", [25.0, 100, 0.3])
    def test_vectorized_equals_the_per_element_rule(self, per_link):
        """Zero, exact multiples of p, values below the floor and far
        above it: the one-pass column is the per-member rule, int for
        int."""
        model = CapacityModel(per_link_kbps=per_link, minimum=4)
        bandwidths = [0.0, 0, per_link, 3 * per_link, 4 * per_link, 7 * per_link,
                      per_link * 4 - 1e-9, 1.5, 399.999, 1e12, 10**15 + 0.5, 123456]
        out = model.capacities(bandwidths)
        assert out == [model.capacity(b) for b in bandwidths]
        assert all(type(c) is int for c in out)
        assert model.capacities([]) == []

    def test_vectorized_names_the_first_negative_bandwidth(self):
        model = CapacityModel(per_link_kbps=100, minimum=4)
        with pytest.raises(ValueError, match=r"bandwidth must be >= 0, got -1\.5$"):
            model.capacities([400, -1.5, 700, -9.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityModel(per_link_kbps=0)
        with pytest.raises(ValueError):
            CapacityModel(per_link_kbps=10, minimum=0)

    def test_paper_default_range(self):
        """B in [400,1000], p=100 gives the paper's default c in [4..10]."""
        model = CapacityModel(per_link_kbps=100, minimum=4)
        rng = Random(0)
        draws = [model.capacity(rng.uniform(400, 1000)) for _ in range(1000)]
        assert min(draws) >= 4
        assert max(draws) <= 10
        # capacity 10 needs B == 1000 exactly (measure zero), so the
        # observable support is [4..9]
        assert set(range(4, 10)) <= set(draws)


class TestDistributions:
    def test_fixed(self):
        dist = FixedCapacity(4)
        assert dist.sample(Random(0)) == 4
        assert dist.mean() == 4
        assert str(dist) == "4"

    def test_uniform_capacity_range_and_mean(self):
        dist = UniformCapacity(4, 10)
        rng = Random(1)
        draws = dist.sample_many(2000, rng)
        assert set(draws) == set(range(4, 11))
        assert dist.mean() == 7
        assert str(dist) == "[4..10]"

    def test_uniform_capacity_validation(self):
        with pytest.raises(ValueError):
            UniformCapacity(0, 5)
        with pytest.raises(ValueError):
            UniformCapacity(5, 4)

    def test_uniform_bandwidth(self):
        dist = UniformBandwidth(400, 1000)
        rng = Random(2)
        draws = dist.sample_many(1000, rng)
        assert all(400 <= b <= 1000 for b in draws)
        assert dist.mean() == 700
        assert dist.minimum() == 400
        assert dist.heterogeneity() == pytest.approx(1.75)

    def test_uniform_bandwidth_validation(self):
        with pytest.raises(ValueError):
            UniformBandwidth(0, 100)
        with pytest.raises(ValueError):
            UniformBandwidth(500, 400)

    def test_expected_log_capacity(self):
        assert expected_log_capacity(FixedCapacity(8)) == pytest.approx(3.0)
        manual = sum(math.log2(v) for v in range(4, 11)) / 7
        assert expected_log_capacity(UniformCapacity(4, 10)) == pytest.approx(manual)
        with pytest.raises(TypeError):
            expected_log_capacity(object())  # type: ignore[arg-type]


@given(
    st.floats(min_value=1, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
)
def test_capacity_never_exceeds_bandwidth_ratio(bandwidth, per_link):
    capacity = capacity_from_bandwidth(bandwidth, per_link)
    assert capacity >= 1
    # Above the clamp the allocation per link is at least per_link.
    if bandwidth / per_link >= 1:
        assert bandwidth / capacity >= per_link * 0.999999
