"""Smoke-size reports shared by the benchmark's own tests.

Run with ``PYTHONPATH=src python -m pytest bench/tests -q`` from the
repo root (tier-1 ``testpaths`` stays ``tests``).
"""

from __future__ import annotations

import pytest

from bench import harness


def _smoke(seed: int, traced: bool) -> dict:
    harness.use_repo_sources()
    return harness.run_all(seed, traced, smoke=True)


@pytest.fixture(scope="session")
def smoke_traced() -> dict:
    return _smoke(0, traced=True)


@pytest.fixture(scope="session")
def smoke_again() -> dict:
    return _smoke(0, traced=False)


@pytest.fixture(scope="session")
def smoke_other_seed() -> dict:
    return _smoke(1, traced=False)
