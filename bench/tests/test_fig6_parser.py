from bench import harness

harness.use_repo_sources()

from bench.workloads import tree_paper  # noqa: E402

SAMPLE = """\
== fig6: Throughput (kbps) vs average number of children ==
-- cam-chord
             10         70.01
           17.5            40
             28            25
-- chord
              8         50.01
             16         25.01
   note: CAM curves should dominate 16 baselines (paper: +70-80%).
"""


def test_parser_reads_series_rows_and_skips_notes():
    parsed = tree_paper.parse_fig6(SAMPLE)
    assert parsed == {
        "cam-chord": {10.0: 70.01, 17.5: 40.0, 28.0: 25.0},
        "chord": {8.0: 50.01, 16.0: 25.01},
    }


def test_setup_picks_the_matched_fanout_rows_of_the_committed_figure():
    inputs = tree_paper.setup(seed=0, smoke=True)
    picked = {
        system.kind.value: (x, committed)
        for system, _knob, x, committed in inputs.points
    }
    assert picked == {
        "cam-chord": (17.5, 40.0),
        "cam-koorde": (17.5, 40.01),
        "chord": (16.0, 25.01),
        "koorde": (16.0, 23.74),
    }
