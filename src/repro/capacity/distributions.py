"""Capacity and bandwidth distributions used by the paper's evaluation.

Defaults reproduce Section 6: capacities uniform in ``[4..10]``, upload
bandwidths uniform in ``[400, 1000]`` kbps.  Every draw takes an
explicit :class:`random.Random` so experiments are reproducible.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from random import Random
from typing import Any


class CapacityDistribution(ABC):
    """A distribution over integer node capacities."""

    @abstractmethod
    def sample(self, rng: Random) -> int:
        """Draw one capacity."""

    @abstractmethod
    def mean(self) -> float:
        """Expected capacity (used for the Figure 11 x-axis)."""


@dataclass(frozen=True)
class FixedCapacity(CapacityDistribution):
    """Every node has the same capacity (the paper's legend ``"4"``)."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 1:
            raise ValueError(f"capacity must be >= 1, got {self.value}")

    def sample(self, rng: Random) -> int:
        return self.value

    def mean(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class UniformCapacity(CapacityDistribution):
    """Capacities uniform on ``[low..high]`` (the paper's ``"[x..y]"``)."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low < 1:
            raise ValueError(f"capacity must be >= 1, got {self.low}")
        if self.high < self.low:
            raise ValueError(f"invalid range [{self.low}..{self.high}]")

    def sample(self, rng: Random) -> int:
        return rng.randint(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2

    def __str__(self) -> str:
        return f"[{self.low}..{self.high}]"


@dataclass(frozen=True)
class HeavyTailCapacity(CapacityDistribution):
    """Bounded-Pareto capacities: most nodes near ``low``, a few whales.

    The shape the multi-source overlay literature evaluates against
    (a handful of high-degree hubs carrying most of the fanout): each
    draw is ``low`` scaled by a Pareto(``alpha``) variate, truncated at
    ``high``.  Smaller ``alpha`` means heavier tail.
    """

    low: int = 2
    high: int = 64
    alpha: float = 1.5

    def __post_init__(self) -> None:
        if self.low < 1:
            raise ValueError(f"capacity must be >= 1, got {self.low}")
        if self.high < self.low:
            raise ValueError(f"invalid range [{self.low}..{self.high}]")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def sample(self, rng: Random) -> int:
        return min(self.high, int(self.low * rng.paretovariate(self.alpha)))

    def mean(self) -> float:
        """Empirical mean of the truncated law (no closed form needed
        at the precision the figure axes use): 4096 quasi-random draws
        from a fixed stream, so the value is stable."""
        rng = Random(f"heavytail-mean:{self.low}:{self.high}:{self.alpha}")
        draws = 4096
        return sum(self.sample(rng) for _ in range(draws)) / draws

    def __str__(self) -> str:
        return f"pareto({self.alpha:g})[{self.low}..{self.high}]"


class BandwidthDistribution(ABC):
    """A distribution over upload bandwidths in kbps."""

    @abstractmethod
    def sample(self, rng: Random) -> float:
        """Draw one bandwidth."""

    @abstractmethod
    def mean(self) -> float:
        """Expected bandwidth."""

    @abstractmethod
    def minimum(self) -> float:
        """Infimum of the support (the baseline bottleneck bandwidth)."""

    def sample_many(self, count: int, rng: Random) -> list[float]:
        """Draw ``count`` bandwidths."""
        return [self.sample(rng) for _ in range(count)]


@dataclass(frozen=True)
class UniformBandwidth(BandwidthDistribution):
    """Bandwidths uniform on ``[low, high]`` kbps.

    The paper's default range is ``[400, 1000]``; Figure 7 sweeps the
    upper bound with the lower bound pinned at 400, and observes that
    the CAM-over-baseline throughput ratio grows like ``(a + b) / 2a``
    — :meth:`heterogeneity` computes exactly that statistic.
    """

    low: float = 400.0
    high: float = 1000.0

    def __post_init__(self) -> None:
        if self.low <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.low}")
        if self.high < self.low:
            raise ValueError(f"invalid range [{self.low}, {self.high}]")

    def sample(self, rng: Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2

    def minimum(self) -> float:
        return self.low

    def heterogeneity(self) -> float:
        """The paper's bandwidth-heterogeneity measure ``(a + b) / 2a``."""
        return (self.low + self.high) / (2 * self.low)

    def __str__(self) -> str:
        return f"[{self.low:g}, {self.high:g}] kbps"


# -- JSON codec ---------------------------------------------------------------
#
# Distributions are frozen dataclasses, so a tagged field dump is a
# faithful round-trip; scenario specs (repro.scenarios) embed capacity
# laws through this codec.

_CAPACITY_KINDS: dict[str, type[CapacityDistribution]] = {
    cls.__name__: cls for cls in (FixedCapacity, UniformCapacity, HeavyTailCapacity)
}


def distribution_to_json(distribution: CapacityDistribution) -> dict[str, Any]:
    """One capacity law as a tagged, JSON-safe dict."""
    name = type(distribution).__name__
    if name not in _CAPACITY_KINDS:
        raise TypeError(f"no JSON codec for distribution {name}")
    out: dict[str, Any] = {"kind": name}
    out.update(vars(distribution))
    return out


def capacity_distribution_from_json(raw: dict[str, Any]) -> CapacityDistribution:
    """Inverse of :func:`distribution_to_json` for capacity laws."""
    kind = dict(raw).pop("kind", None)
    try:
        cls = _CAPACITY_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown capacity distribution {kind!r}; "
            f"choose from {sorted(_CAPACITY_KINDS)}"
        ) from None
    return cls(**{k: v for k, v in raw.items() if k != "kind"})
