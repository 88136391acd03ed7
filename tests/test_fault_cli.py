"""The one fault front end, ``python -m repro.faults``.

A campaign failure is shrunk under the exact runner it failed with and
its ``min-*.json`` records that runner in ``meta``, so ``replay``
reproduces the recorded violation; ``gen`` / ``list`` / ``replay``
serve the scenario library's specs and compiled cells too.
"""

from __future__ import annotations

import json

from repro.faults.__main__ import main
from repro.faults.campaign import FAILOVER_SETTLE
from repro.scenarios import LIBRARY, CompiledCell, compile_cell


def test_failover_campaign_shrinks_a_repair_path_failure_and_replays_it(
    tmp_path, capsys
):
    """Chord plan 3 of seed 41 fails only on the comparison's repair
    path, which quiesces at ``FAILOVER_SETTLE``; a plain ``run_plan``
    passes it.  Shrinking it with the plain runner raised ``plan does
    not fail; nothing to shrink``."""
    argv = ["campaign", "--failover", "--systems", "chord", "--plans", "4",
            "--seed", "41", "--out-dir", str(tmp_path), "--quiet"]
    assert main(argv) == 1
    (path,) = tmp_path.glob("min-failover-chord-*.json")
    meta = json.loads(path.read_text())["meta"]
    assert (meta["mode"], meta["settle"]) == ("repair", FAILOVER_SETTLE)
    assert meta["violations"]
    capsys.readouterr()

    assert main(["replay", str(path)]) == 1
    replayed = capsys.readouterr().out.splitlines()[1:]
    assert replayed == [f"  {violation}" for violation in meta["violations"]]


def test_gen_prints_a_spec_and_writes_a_cell(tmp_path, capsys):
    assert main(["gen", "--scenario", "flash-crowd"]) == 0
    assert json.loads(capsys.readouterr().out) == LIBRARY["flash-crowd"].to_json_dict()

    path = tmp_path / "cell.json"
    argv = ["gen", "--scenario", "flash-crowd", "--system", "koorde", "--seed", "3",
            "--out", str(path)]
    assert main(argv) == 0
    cell = CompiledCell.from_json_dict(json.loads(path.read_text()))
    assert cell == compile_cell(LIBRARY["flash-crowd"], "koorde", 3)


def test_list_names_every_library_scenario(capsys):
    assert main(["list"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == list(LIBRARY)
