"""Golden event order of the discrete-event core.

``sim_order.json`` (next to this module) holds SHA-256 digests of two
surfaces that see *every* scheduling decision ``repro.sim`` makes:

* ``campaign/seedN`` — ``repr(run_plan(plan, mode=m,
  settle=FAILOVER_SETTLE))`` for every plan of
  ``generate_campaign(system_names(), 10, N)`` down both modes, plan
  major — what the ``failover_campaign`` benchmark workload runs.  A
  ``PlanOutcome`` carries delivery gaps, repair waits and violations,
  so any reordered tie shows up.
* ``churn_trace/SYSTEM`` — the JSONL that ``python -m
  repro.churn.runner --system SYSTEM --rate 0.5 --duration 40 --size 40
  --seed 3 --loss 0.05 --trace T.jsonl`` writes, run in a fresh process
  (message ids are process-global): every send / deliver / drop /
  timeout with its ``seq``, under loss, so the network's RNG draw
  order and every firing RPC timeout's place in the total order are
  pinned.

**Where the digests came from.**  They were recorded at commit
``f95b7af`` — the last one whose heap held ``@dataclass(order=True)
_Event`` instances and whose callbacks were closures — by running this
module there.  So they pin that commit's actual order, not whatever
the surviving record produces.  ``tests/test_sim_order.py`` compares
seed 0 and both traces against them; CI's ``failover-smoke`` adds
seed 1.

**Regenerating.**  An *intentional* change of the order (a different
tie-break, a new trace field) is recorded in one step, committed
together with the change that explains it::

    PYTHONPATH=src python -m tests.golden.sim_order
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from hashlib import sha256
from pathlib import Path
from typing import Callable, Iterator

from repro.faults.campaign import FAILOVER_SETTLE, MODES, generate_campaign, run_plan
from repro.systems import system_names

GOLDEN_PATH = Path(__file__).with_suffix(".json")
SRC = Path(__file__).resolve().parents[2] / "src"

CAMPAIGN_SEEDS = (0, 1)
CHURN_SYSTEMS = ("cam-chord", "koorde")
CHURN_ARGS = (
    "--rate", "0.5", "--duration", "40", "--size", "40", "--seed", "3",
    "--loss", "0.05",
)


def campaign_digest(seed: int) -> str:
    digest = sha256()
    for plan in generate_campaign(system_names(), 10, seed):
        for mode in MODES:
            outcome = run_plan(plan, mode=mode, settle=FAILOVER_SETTLE)
            digest.update(repr(outcome).encode())
    return digest.hexdigest()


def churn_trace_digest(system: str, hash_seed: str | None = None) -> str:
    """Digest of the runner's JSONL; ``hash_seed`` pins the child's
    ``PYTHONHASHSEED`` (set iteration order must not leak into it)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    with tempfile.TemporaryDirectory() as scratch:
        trace = Path(scratch) / "trace.jsonl"
        subprocess.run(
            [
                sys.executable, "-m", "repro.churn.runner",
                "--system", system, *CHURN_ARGS, "--trace", str(trace),
            ],
            env=env, capture_output=True, check=True,
        )
        return sha256(trace.read_bytes()).hexdigest()


def scenarios() -> Iterator[tuple[str, Callable[[], str]]]:
    """(golden key, thunk computing its digest), in file order."""
    for seed in CAMPAIGN_SEEDS:
        yield f"campaign/seed{seed}", lambda seed=seed: campaign_digest(seed)
    for system in CHURN_SYSTEMS:
        yield f"churn_trace/{system}", lambda system=system: churn_trace_digest(system)


def load() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({key: thunk() for key, thunk in scenarios()}, indent=2) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
