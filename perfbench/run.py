"""Benchmark of the three user paths of the mapper: library DP, SAT sweep, HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dp_qx4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see ``BENCHMARK.json`` and ``predictions.json``):

* ``dp_qx4`` — closed loop, one caller, ``MappingPipeline(ibm_qx4(),
  engine="dp").map`` on 4-qubit, 16-CNOT circuits.
* ``sat_sweep_grid8`` — closed loop, one caller, the SAT subset sweep on
  ``sweep_grid8`` with no result store, on 3-qubit, 10-CNOT circuits.
* ``http_mixed`` — open loop of HTTP jobs against a one-worker
  ``Supervisor`` fleet, one in four of them a repeat from a small hot set.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
window with the layer boundaries wrapped (see ``tracing.py``) and reports
the per-layer metrics, writes the spans under ``.perfbench_work/traces/``
and re-runs the first jobs to check that the work counters repeat exactly.
Job times and ``setup_s`` are calibrated against a fixed reference
computation run next to them, which takes out the drift of a shared host's
speed (see ``calibrate.py``).
Every job is checked for correctness outside the timed window; any failure
makes the run exit non-zero.  ``--workload all`` runs every workload
untraced and traced and prints both, side by side, as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("dp_qx4", "sat_sweep_grid8", "http_mixed")
#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Environment variables that change what is measured.  The value is the
#: set of settings that leave behaviour at its default.
GUARDED_ENV = {
    "REPRO_FAULTS": {""},
    "REPRO_CHECK_IMPORTS": {""},
    "REPRO_SOLVER_BACKEND": {"", "auto"},
    "REPRO_CACHE_DIR": {""},
}

E2E_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
    "ok_share": "ratio", "peak_rss_mb": "MiB",
}

#: Every per-layer metric, in report order.  A traced run reports all of
#: them; a layer the workload does not reach (or that runs in the fleet's
#: worker process, out of the tracer's reach) reads 0.  Counts are totals
#: over the first jobs of the run (the counter set); times are seconds per
#: job, averaged over the timed window.
LAYER_UNITS = {
    "arch.table_build_s": "s",
    "arch.transition_calls": "count",
    "arch.transition_s": "s",
    "dp.states": "count",
    "dp.transitions_evaluated": "count",
    "dp.self_s": "s",
    "encoding.calls": "count",
    "encoding.s": "s",
    "encoding.clauses": "count",
    "encoding.variables": "count",
    "sweep.families_total": "count",
    "sweep.families_pruned": "count",
    "sweep.pruned_share": "ratio",
    "sweep.subsets_solved": "count",
    "sweep.clauses_imported": "count",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.solve_calls": "count",
    "sat.solve_s": "s",
    "sat.props_per_s": "1/s",
    "reconstruct.calls": "count",
    "reconstruct.s": "s",
    "pipeline.self_s": "s",
    "service.solve_s": "s",
    "service.cache_hit_share": "ratio",
    "service.coalesced": "count",
    "service.failed": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_share": "ratio",
    "server.submit_s": "s",
    "server.overhead_s": "s",
    "server.retries": "count",
    "server.worker_restarts": "count",
    "client.conn_wait_s": "s",
    "client.late_max_s": "s",
    "traced.jobs_per_s": "1/s",
    "traced.job_p50_s": "s",
    "traced.job_tail_s": "s",
    "counters.repeat_mismatches": "count",
}


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _check_environment() -> None:
    for name, defaults in GUARDED_ENV.items():
        value = os.environ.get(name, "").strip()
        if value.lower() not in defaults:
            _fail(f"refusing to run with {name}={value!r}: it changes what is "
                  "measured; unset it")
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'repro'} is missing")


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(tmp)
    return env


def _stamp() -> dict:
    from repro.sat.solver import solver_backend_provenance

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = "unknown (not a git checkout)"
    stamp = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }
    stamp.update(solver_backend_provenance())
    return stamp


def _setup_samples(workload: str, count: int, run_dir: Path) -> list:
    """Seconds from interpreter start to ready, in *count* fresh interpreters.

    Each sample is calibrated by reference slices run just before and just
    after its interpreter (see ``calibrate.py``).
    """
    from calibrate import SETUP_SLICE_UNITS as units, reference_slice, scale

    samples = []
    for index in range(count):
        tmp = run_dir / f"probe{index}"
        tmp.mkdir()
        before = reference_slice(units)
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--setup-probe", workload,
             "--work-dir", str(tmp)],
            stdout=subprocess.PIPE, env=_child_env(tmp), cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=120)
        samples.append(wall * scale(before, reference_slice(units), units))
        if line.strip() != b"ready" or code != 0:
            _fail(f"set-up probe of {workload} failed (exit {code})", 1)
    return samples


def _probe(workload: str, work_dir: Path) -> None:
    sys.path.insert(0, str(SRC))
    import asyncio

    def ready() -> None:
        print("ready", flush=True)

    if workload == "http_mixed":
        import fleet

        asyncio.run(fleet.probe_setup(str(work_dir / "store"), ready))
    else:
        import library

        library.setup(workload)
        ready()


def run_one(args) -> int:
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    os.environ.update(_child_env(tmp))
    sys.path.insert(0, str(SRC))
    import tempfile

    tempfile.tempdir = str(tmp)
    try:
        setup = ([] if args.trace else
                 _setup_samples(args.workload, SETUP_SAMPLES, run_dir))
        from tracing import Tracer

        tracer = Tracer() if args.trace else None
        started = time.perf_counter()
        if args.workload == "http_mixed":
            import fleet

            report = fleet.run(args.seed, args.seconds, str(run_dir / "store"),
                               tracer)
        else:
            import library

            report = library.run(args.workload, args.seed, args.seconds, tracer)
        stamp = _stamp()
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    jobs = report["jobs"]
    failures = [job for job in jobs if job.error is not None]
    mismatches = report.get("repeat_mismatches", [])
    print(f"stamp: {json.dumps(stamp, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(jobs)} jobs in {report['wall']:.3f} s timed "
          f"({elapsed:.1f} s with checks)")
    tail = report["_tail"]
    print(f"job_tail_s is p{tail['percentile']} of {tail['samples']} samples "
          f"({tail['beyond']} beyond it)")
    print(f"calibration: {len(report['slices'])} reference slices, median job "
          f"scale {statistics.median(job.scale for job in jobs):.4f}, "
          f"uncalibrated job p50 {statistics.median(j.latency for j in jobs):.4f} s")
    if "late_max_s" in report:
        print(f"load generator ran at most {report['late_max_s'] * 1000:.2f} ms "
              "late")
    for job in failures[:10]:
        print(f"FAILED job {job.index} ({job.pool} seed {job.seed}): {job.error}")
    for line in mismatches[:10]:
        print(f"COUNTER DID NOT REPEAT: {line}")

    if args.trace:
        layers = dict(report["layers"])
        layers["counters.repeat_mismatches"] = len(mismatches)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"stamp": stamp, "workload": args.workload,
                                 "seed": args.seed, "layers": report["layers"]})
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "jobs_per_s": report["jobs_per_s"],
            "job_p50_s": report["job_p50_s"],
            "job_tail_s": report["job_tail_s"],
            "ok_share": report["ok_share"],
            "peak_rss_mb": report["peak_rss_mb"],
        }
        print("setup samples (s): " + ", ".join(f"{s:.4f}" for s in setup))
        print(f"failed_share = {len(failures) / len(jobs):.4f} ratio")
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in values.items()}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = not failures and not mismatches
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, in fresh interpreters."""
    results, code = {}, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__)), "--workload", workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            code = code or done.returncode
            lines = done.stdout.strip().splitlines()
            results[workload, trace] = (json.loads(lines[-1])["metrics"]
                                        if lines and lines[-1].startswith("{")
                                        else {})
    print("\nend-to-end (untraced) and traced, per workload:")
    for workload in WORKLOADS:
        plain, traced = results[workload, 0], results[workload, 1]
        for name, metric in plain.items():
            other = traced.get("traced." + name)
            extra = ""
            if other is not None and metric["value"]:
                extra = (f"   traced {other['value']:.6g} "
                         f"({other['value'] / metric['value'] - 1:+.1%})")
            print(f"  {workload:16s} {name:14s} {metric['value']:12.6g} "
                  f"{metric['unit']:6s}{extra}")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    _check_environment()
    if args.setup_probe:
        _probe(args.setup_probe, args.work_dir)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
