"""Golden outputs of the failover path, recorded at the last commit
whose backup plans held materialised candidate tuples.

The candidate view must be unobservable downstream: the comparison
campaign's summary and experiment extO's dump are compared byte for
byte against ``tests/golden/``, serially and fanned out over two
workers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.runner import main as experiments_main
from repro.faults.__main__ import main as faults_main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("jobs", [1, 2])
def test_failover_campaign_summary_matches_golden(jobs, capsys):
    argv = ["campaign", "--failover", "--plans", "8", "--seed", "0", "--quiet"]
    assert faults_main(argv + ["--jobs", str(jobs)]) == 0
    expected = (GOLDEN / "failover_campaign_seed0.txt").read_text()
    assert capsys.readouterr().out == expected.replace("jobs=1", f"jobs={jobs}")


@pytest.mark.parametrize("jobs", [1, 2])
def test_ext_failover_dump_matches_golden(jobs, tmp_path, capsys):
    argv = ["extO", "--scale", "bench", "--seed", "0", "--out", str(tmp_path)]
    assert experiments_main(argv + ["--jobs", str(jobs)]) == 0
    capsys.readouterr()
    expected = (GOLDEN / "extO_bench_seed0.txt").read_bytes()
    assert (tmp_path / "extO.txt").read_bytes() == expected
