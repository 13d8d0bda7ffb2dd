"""Write ``expected.json``: the minimal added cost of every pool circuit.

The costs are computed once, with :class:`repro.exact.dp_mapper.DPMapper`:

* ``sat_sweep_grid8`` — the DP is the engine *not* under test there, so the
  SAT sweep is checked against an independent exact oracle.  The subset
  sweep (Section 4.1 of the paper) maps onto connected sets of as many
  physical qubits as the circuit has logical ones, and its minimum may
  exceed the device minimum, so the committed cost is the smallest DP
  minimum over every connected subset, enumerated here without the
  program's own subset code.  The DP minimum over the whole device is
  committed beside it as ``device_minima``; it takes several seconds per
  circuit, which is why all of this is done here and not in each run.
  Each circuit's ``difficulty`` is the sweep's own propagation count at the
  commit that added the benchmark; it only orders the circuits into
  strata of like difficulty (see ``inputs.py``), and checks nothing.
* ``dp_qx4`` and ``http_mixed`` — no independent engine finishes these
  4-qubit, 16-CNOT circuits on ``ibm_qx4`` in reasonable time (the SAT sweep
  needs minutes per circuit), so the committed costs are the DP's own
  minima at the commit that added the benchmark: a regression reference.
  Each run still validates and equivalence-checks every job.

Usage::

    python3 perfbench/make_expected.py [--pool NAME ...] [--processes N]
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

#: name -> (circuit shape, pool seeds, device, whether the engine maps
#: onto connected subsets of the device only).
POOLS = {
    "dp_qx4": (inputs.DP_SHAPE, inputs.DP_POOL, "ibm_qx4", False),
    "sat_sweep_grid8": (inputs.SAT_SHAPE, inputs.SAT_POOL, "sweep_grid8", True),
    "http_mixed": (inputs.DP_SHAPE, inputs.HTTP_POOL, "ibm_qx4", False),
    "http_hot": (inputs.DP_SHAPE, inputs.HTTP_HOT, "ibm_qx4", False),
}


def _dp_minimum(circuit, coupling) -> int:
    from repro.exact.dp_mapper import DPMapper

    result = DPMapper(coupling).map(circuit)
    result.validate(coupling)
    return result.added_cost


def subset_minimum(circuit, coupling) -> int:
    """Smallest DP minimum over connected subsets of circuit-many qubits."""
    subsets = [
        subset
        for subset in itertools.combinations(range(coupling.num_qubits),
                                             circuit.num_qubits)
        if coupling.is_connected(subset)
    ]
    return min(_dp_minimum(circuit, coupling.subgraph(s)) for s in subsets)


def _costs(args):
    shape, seed, arch, subsets = args
    from repro.arch.devices import get_architecture
    from repro.pipeline import MappingPipeline

    coupling = get_architecture(arch)
    circuit = inputs.make_circuit(shape, seed)
    device = _dp_minimum(circuit, coupling)
    if not subsets:
        return seed, device, device, None
    restricted = subset_minimum(circuit, coupling)
    if restricted < device:
        raise AssertionError(f"seed {seed}: subset minimum below device minimum")
    sweep = MappingPipeline(
        coupling, engine="sat", engine_options={"use_subsets": True}
    ).map(circuit)
    return seed, restricted, device, sweep.statistics["solver_propagations"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", action="append", choices=sorted(POOLS))
    parser.add_argument("--processes", type=int, default=1)
    args = parser.parse_args()
    data = (
        json.loads(inputs.EXPECTED_PATH.read_text())
        if inputs.EXPECTED_PATH.exists() else {"pools": {}}
    )
    for name in args.pool or sorted(POOLS):
        shape, seeds, arch, subsets = POOLS[name]
        tasks = [(shape, seed, arch, subsets) for seed in seeds]
        with ProcessPoolExecutor(
            max_workers=args.processes, mp_context=get_context("spawn")
        ) as pool:
            rows = sorted(pool.map(_costs, tasks))
        entry = {
            "arch": arch,
            "shape": list(shape),
            "oracle": ("min over connected subsets of DPMapper" if subsets
                       else "DPMapper"),
            "costs": {str(row[0]): row[1] for row in rows},
        }
        if subsets:
            entry["device_minima"] = {str(row[0]): row[2] for row in rows}
            entry["difficulty"] = {str(row[0]): row[3] for row in rows}
        data["pools"][name] = entry
        inputs.EXPECTED_PATH.write_text(json.dumps(data, indent=1) + "\n")
        print(f"{name}: {len(rows)} circuits", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
