"""The two library workloads: ``dp_qx4`` and ``sat_sweep_grid8``.

Both are closed loops with one caller: the next ``MappingPipeline.map`` call
starts when the previous one returns (after a calibration slice, see
``calibrate.py``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import inputs
from calibrate import reference_slice, scale
from measure import Job, check_result, latency_metrics, vm_hwm_mb
from tracing import END, NAME, START, Tracer

CONFIG = {
    "dp_qx4": {
        "arch": "ibm_qx4", "engine": "dp", "options": {},
        "shape": inputs.DP_SHAPE, "warmup": inputs.DP_WARMUP_SEED,
        "claims_optimal": True,
        "slice_units": 20,
    },
    "sat_sweep_grid8": {
        "arch": "sweep_grid8", "engine": "sat", "options": {"use_subsets": True},
        "shape": inputs.SAT_SHAPE, "warmup": inputs.SAT_WARMUP_SEED,
        # The subset sweep minimises over connected subsets only, so it
        # never claims the device minimum (see make_expected.py).
        "claims_optimal": False,
        "slice_units": 100,
    },
}

#: Jobs whose work counters are reported and re-run for the repeat check.
COUNTER_JOBS = {"dp_qx4": 20, "sat_sweep_grid8": 8}

#: Counters that must repeat exactly when the same jobs run again.
DETERMINISTIC = (
    "sat.conflicts", "sat.propagations", "dp.states", "dp.transitions_evaluated",
    "sweep.families_pruned", "encoding.clauses", "arch.transition_calls",
)


def setup(workload: str):
    """Import, build the device and its permutation table, warm up one job.

    Returns ``(coupling, pipeline)``, ready for the first timed job.
    """
    from repro.arch.cache import shared_permutation_table
    from repro.arch.devices import get_architecture
    from repro.pipeline import MappingPipeline

    config = CONFIG[workload]
    coupling = get_architecture(config["arch"])
    shared_permutation_table(coupling)
    pipeline = MappingPipeline(
        coupling, engine=config["engine"], engine_options=config["options"]
    )
    pipeline.map(inputs.make_circuit(config["shape"], config["warmup"]))
    return coupling, pipeline


def _run_job(pipeline, circuit, index: int, seed: int, workload: str) -> Job:
    start = time.perf_counter()
    try:
        result, error = pipeline.map(circuit), None
    except Exception as failure:  # noqa: BLE001 - a failed job is counted
        result, error = None, f"{type(failure).__name__}: {failure}"
    return Job(index, seed, workload, start, time.perf_counter(), result, error)


def _job_counters(job: Job, counters: Dict[str, float]) -> Dict[str, float]:
    stats = job.result.statistics if job.result is not None else {}
    return {
        "sat.conflicts": stats.get("solver_conflicts", 0),
        "sat.propagations": stats.get("solver_propagations", 0),
        "dp.states": stats.get("states", 0),
        "dp.transitions_evaluated": stats.get("transitions_evaluated", 0),
        "sweep.families_total": stats.get("families_total", 0),
        "sweep.families_pruned": stats.get("families_pruned", 0),
        "sweep.subsets_solved": stats.get("subsets_solved", 0),
        "sweep.clauses_imported": stats.get("clauses_imported", 0),
        "encoding.calls": counters.get("encoding.calls", 0),
        "encoding.clauses": counters.get("encoding.clauses", 0),
        "encoding.variables": counters.get("encoding.variables", 0),
        "arch.transition_calls": counters.get("arch.transition.calls", 0),
        "sat.solve_calls": counters.get("sat.solve.calls", 0),
        "reconstruct.calls": counters.get("reconstruct.calls", 0),
    }


def run(workload: str, seed: int, seconds: float,
        tracer: Optional[Tracer]) -> Dict[str, Any]:
    """Set up, run the timed window, check every job; returns the raw report."""
    config = CONFIG[workload]
    expected = inputs.load_expected()[workload]
    order = inputs.stratified_order(workload, seed)
    circuits = {s: inputs.make_circuit(config["shape"], s) for s in expected}
    if tracer is not None:
        tracer.install()
    coupling, pipeline = setup(workload)

    # A reference slice before the first job and after every job; each job
    # is charged its wall time at the speed of the two slices around it.
    jobs: List[Job] = []
    start = time.perf_counter()
    deadline = start + seconds
    units = config["slice_units"]
    slices = [reference_slice(units)]
    while not jobs or time.perf_counter() < deadline:
        seed_ = next(order)
        if tracer is not None:
            tracer.job = len(jobs)
        jobs.append(_run_job(pipeline, circuits[seed_], len(jobs), seed_, workload))
        slices.append(reference_slice(units))
    wall = time.perf_counter() - start
    for job, before, after in zip(jobs, slices, slices[1:]):
        job.scale = scale(before, after, units)
    peak_rss = vm_hwm_mb()

    # The counter set: the first jobs of the sequence, run once more after
    # the window so that the counters can be required to repeat exactly.
    repeats: List[Job] = []
    if tracer is not None:
        while len(jobs) < COUNTER_JOBS[workload]:
            seed_ = next(order)
            tracer.job = len(jobs)
            jobs.append(_run_job(pipeline, circuits[seed_], len(jobs), seed_, workload))
        for job in jobs[:COUNTER_JOBS[workload]]:
            tracer.job = ("repeat", job.index)
            repeats.append(_run_job(pipeline, circuits[job.seed], job.index,
                                    job.seed, workload))
        tracer.job = None
        tracer.uninstall()

    timed = [job for job in jobs if job.start < deadline]
    for job in jobs + repeats:
        if job.error is None:
            job.error = check_result(job.result, circuits[job.seed], coupling,
                                     expected[job.seed], config["claims_optimal"])
    # Closed loop: the caller's time is the sum of its jobs' times.
    busy = sum(job.calibrated for job in timed)
    report = {"jobs": timed, "wall": wall, "peak_rss_mb": peak_rss,
              "slices": slices}
    report.update(latency_metrics(timed, workload, busy))
    if tracer is not None:
        report["layers"], report["repeat_mismatches"] = _layers(
            workload, tracer, jobs, repeats, timed, busy)
    return report


def _layers(workload: str, tracer: Tracer, jobs: List[Job], repeats: List[Job],
            timed: List[Job], busy: float):
    """Per-layer metrics of a traced run, and the counter-repeat mismatches.

    Layer times are wall seconds; ``traced.*`` are calibrated like the
    untraced run's metrics, so that the two compare.
    """
    first = [_job_counters(job, tracer.counters[job.index])
             for job in jobs[:COUNTER_JOBS[workload]]]
    again = [_job_counters(job, tracer.counters[("repeat", job.index)])
             for job in repeats]
    mismatches = [
        f"job {job.index} {name}: {a[name]} then {b[name]}"
        for job, a, b in zip(repeats, first, again)
        for name in DETERMINISTIC if a[name] != b[name]
    ]
    counted = {name: sum(c[name] for c in first) for name in first[0]}
    window = {job.index for job in timed}
    totals = tracer.totals(window)
    n = len(timed)
    propagations = sum(
        (job.result.statistics.get("solver_propagations", 0)
         if job.result is not None else 0) for job in timed
    )
    table_span = next(s for s in tracer.spans if s[NAME] == "arch.table")
    transition_s = sum(tracer.counters[i].get("arch.transition.s", 0.0)
                       for i in window)
    solve_s = totals["sat.solve"]["s"] if "sat.solve" in totals else 0.0
    families = counted["sweep.families_total"]
    traced = latency_metrics(timed, workload, busy)
    layers = {
        "arch.table_build_s": table_span[END] - table_span[START],
        "arch.transition_calls": counted["arch.transition_calls"],
        "arch.transition_s": transition_s / n,
        "dp.states": counted["dp.states"],
        "dp.transitions_evaluated": counted["dp.transitions_evaluated"],
        "dp.self_s": _per_job(totals, "dp", "self_s", n),
        "encoding.calls": counted["encoding.calls"],
        "encoding.s": _per_job(totals, "encoding", "s", n),
        "encoding.clauses": counted["encoding.clauses"],
        "encoding.variables": counted["encoding.variables"],
        "sweep.families_total": families,
        "sweep.families_pruned": counted["sweep.families_pruned"],
        "sweep.pruned_share": (counted["sweep.families_pruned"] / families
                               if families else 0.0),
        "sweep.subsets_solved": counted["sweep.subsets_solved"],
        "sweep.clauses_imported": counted["sweep.clauses_imported"],
        "sat.conflicts": counted["sat.conflicts"],
        "sat.propagations": counted["sat.propagations"],
        "sat.solve_calls": counted["sat.solve_calls"],
        "sat.solve_s": solve_s / n,
        "sat.props_per_s": propagations / solve_s if solve_s else 0.0,
        "reconstruct.calls": counted["reconstruct.calls"],
        "reconstruct.s": _per_job(totals, "reconstruct", "s", n),
        "pipeline.self_s": _per_job(totals, "pipeline", "self_s", n),
        "traced.jobs_per_s": traced["jobs_per_s"],
        "traced.job_p50_s": traced["job_p50_s"],
        "traced.job_tail_s": traced["job_tail_s"],
    }
    return layers, mismatches


def _per_job(totals, name: str, key: str, n: int) -> float:
    return totals[name][key] / n if name in totals else 0.0
