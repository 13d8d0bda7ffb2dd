"""Seeded inputs of the three benchmark workloads.

Every workload draws its circuits from a fixed pool of generator seeds whose
minimal added cost is committed in ``expected.json`` (written by
``make_expected.py``).  The run's ``--seed`` picks the order in which the
pool is visited, so the same seed always yields the same job sequence and
every job has a known answer.

The pools are visited in *rounds*: the pool is ranked by difficulty (the
sweep's propagation count where one is recorded, else the expected cost)
and cut into strata of like difficulty, and each round takes one
not-yet-used circuit from every stratum, the strata in a fixed order that
spreads over the difficulty range.  The seed picks the circuit taken from
each stratum in each round.  Any prefix of the sequence therefore holds
easy and hard circuits in the same proportion, which keeps a fixed-length
timed window comparable across seeds.  A run that exhausts the pool starts
over with fresh seeded picks.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: Generator parameters per workload: (qubits, cnots, locality).
DP_SHAPE = (4, 16, 0.7)
SAT_SHAPE = (3, 10, 0.7)

#: Pool seeds.  ``http_mixed`` uses circuits of the ``dp_qx4`` shape but
#: disjoint seeds, so no HTTP job repeats a library job's circuit.
DP_POOL = range(0, 1200)
SAT_POOL = range(0, 96)
HTTP_POOL = range(100_000, 100_400)
HTTP_HOT = range(200_000, 200_004)

#: Circuits used only to warm up lazy set-up; never timed, never in a pool.
DP_WARMUP_SEED = 900_000
SAT_WARMUP_SEED = 900_001

#: Strata per pool.  The sweep's solve times spread widely, so its pool is
#: cut into about as many strata as a run completes jobs.
STRATA = {"dp_qx4": 4, "sat_sweep_grid8": 24, "http_mixed": 4}
_GOLDEN = (5 ** 0.5 - 1) / 2


def make_circuit(shape: Tuple[int, int, float], seed: int):
    """The generated circuit of one pool seed."""
    from repro.benchlib.generators import random_cnot_circuit

    qubits, cnots, locality = shape
    return random_cnot_circuit(qubits, cnots, seed=seed, locality=locality)


def _load() -> Dict[str, dict]:
    return json.loads(EXPECTED_PATH.read_text())["pools"]


def load_expected() -> Dict[str, Dict[int, int]]:
    """``{pool name: {seed: minimal added cost}}`` from ``expected.json``."""
    return {
        name: {int(seed): cost for seed, cost in entry["costs"].items()}
        for name, entry in _load().items()
    }


def stratified_order(pool: str, seed: int) -> Iterator[int]:
    """Endless seeded sequence of *pool*'s seeds, balanced by difficulty."""
    entry = _load()[pool]
    difficulty = {int(s): d for s, d in
                  entry.get("difficulty", entry["costs"]).items()}
    rng = random.Random(seed)
    ranked = sorted(difficulty, key=lambda s: (difficulty[s], s))
    size = -(-len(ranked) // STRATA[pool])
    strata = [ranked[i:i + size] for i in range(0, len(ranked), size)]
    # Strata in golden-ratio order: every prefix of a round spreads evenly
    # over the difficulty range, and it is the same for every seed.
    visit = sorted(range(len(strata)), key=lambda i: (i * _GOLDEN) % 1)
    while True:
        shuffled: List[List[int]] = [rng.sample(s, len(s)) for s in strata]
        for position in range(size):
            yield from (shuffled[i][position] for i in visit
                        if position < len(shuffled[i]))
