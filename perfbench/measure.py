"""Correctness checks and statistics shared by the workloads."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Fixed tail percentile per workload.  Each is the highest percentile with
#: at least ten samples beyond it at the commit that added the benchmark,
#: which completes about 110-170, 24-50 and 72 jobs in a 30 s run.  It is fixed
#: rather than derived from each run's sample count, so that a faster
#: program, which completes more jobs, is not charged a higher percentile.
TAIL_PERCENTILE = {"dp_qx4": 90, "sat_sweep_grid8": 60, "http_mixed": 85}


@dataclass
class Job:
    """One timed job: when it ran, what it returned, and whether it was right."""

    index: int
    seed: int
    pool: str
    start: float
    end: float
    result: Any = None
    error: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Machine-speed factor of the job's wall time (see ``calibrate.py``);
    #: 1 for jobs timed in plain wall seconds.
    scale: float = 1.0

    @property
    def latency(self) -> float:
        return self.end - self.start

    @property
    def calibrated(self) -> float:
        return self.latency * self.scale


def check_result(result, circuit, coupling, expected_cost: int,
                 claims_optimal: bool = True) -> Optional[str]:
    """Why *result* is not a correct minimal mapping of *circuit*, or ``None``.

    Checks, in order: the result's own consistency, coupling compliance of
    every CNOT, that it maps the submitted circuit, the committed minimal
    cost, the optimality claim (engines whose minimum is over the whole
    device must claim it), and statevector equivalence.
    """
    from repro.sim.equivalence import result_is_equivalent
    from repro.verify.compliance import check_coupling_compliance

    try:
        result.validate(coupling)
    except ValueError as error:
        return f"invalid result: {error}"
    if not check_coupling_compliance(result.mapped_circuit, coupling).compliant:
        return "mapped circuit violates the coupling map"
    if result.original_circuit.fingerprint() != circuit.fingerprint():
        return "result maps a different circuit"
    if result.added_cost != expected_cost:
        return f"added cost {result.added_cost}, expected {expected_cost}"
    if claims_optimal and not result.optimal:
        return "result not proven optimal"
    if not result_is_equivalent(result):
        return "mapped circuit not equivalent to the original"
    return None


def tail(values: List[float], percentile: int) -> Dict[str, float]:
    """Nearest-rank *percentile* of *values*, with the count beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return {"value": ordered[rank - 1], "percentile": percentile,
            "samples": len(ordered), "beyond": len(ordered) - rank}


def latency_metrics(jobs: List[Job], workload: str, wall: float) -> Dict[str, Any]:
    """jobs_per_s, job_p50_s, job_tail_s and ok_share of a timed window.

    Latencies are the jobs' calibrated times; *wall* is the window's length
    in the same unit.
    """
    latencies = [job.calibrated for job in jobs]
    ok = sum(1 for job in jobs if job.error is None)
    tail_info = tail(latencies, TAIL_PERCENTILE[workload])
    return {
        "jobs_per_s": ok / wall,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_info["value"],
        "ok_share": ok / len(jobs),
        "_tail": tail_info,
    }


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")
