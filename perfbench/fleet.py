"""The ``http_mixed`` workload: an open loop against a one-worker fleet.

Requests arrive on a seeded schedule at a fixed offered rate, whether or
not earlier ones have finished.  Each request is ``POST /v1/jobs`` followed
by ``GET /v1/jobs/{id}/result?wait=`` on one connection slot; at most
``CONNECTIONS`` slots are in use, and a due request that waits for a free
slot is charged that wait, because its latency counts from its due time.

Latencies are calibrated against reference slices that the load generator
runs while the fleet is idle (see ``calibrate.py``).  The arrival schedule
and ``jobs_per_s`` are in wall seconds: stretching the schedule by the
slices' speed was tried and made the load swing far more, because the
worker's speed follows the slices' only roughly.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import faulthandler
import json
import os
import random
import signal
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import inputs
from calibrate import reference_slice, scale
from measure import Job, check_result, latency_metrics, vm_hwm_mb
from tracing import Tracer

#: Offered load in requests per second: about half of the closed-loop
#: capacity of this mix on a one-worker fleet at the commit that added the
#: benchmark.  At two thirds of it the host's speed swings pushed the
#: worker's load from about 0.5 to 0.9 and back, and job_tail_s measured
#: how often requests queued (its spread over ten seeds reached 20%); at
#: half, the tail measures the service path.  It stays constant so that
#: runs of later commits offer the same load.
RATE = 2.4
#: One request in every HOT_EVERY repeats a circuit of the small hot set;
#: which one of the block is seeded.  A fixed share (not a coin flip per
#: request) keeps the fast cached requests from shifting the median.
HOT_EVERY = 4
#: Arrival gaps are uniform in [1 - JITTER, 1 + JITTER] / RATE.
JITTER = 0.25
#: Connection slots of the load generator (the CPUs of the reference box).
CONNECTIONS = 2
#: Long-poll wait of one result request, in seconds.
RESULT_WAIT = 60
#: Retries of a request that failed in transport before it counts as failed.
RETRIES = 2
#: Calibration (see ``calibrate.py``): units per slice.  A slice runs only
#: when every due request has started and none is in flight, the last one
#: ended SETTLE_S ago and the next is due IDLE_GAP_S or later.  Each job's
#: latency is scaled by the median of the slices within WINDOW_S of it.
SLICE_UNITS = 20
SETTLE_S = 0.01
IDLE_GAP_S = 0.1
WINDOW_S = 1.5
#: Seconds a run may take beyond its window (a set-up probe: in all)
#: before it is taken as hung: its workers are killed and it exits 1.
HANG_S = 60

#: Supervisors started by this process and its event loop, for the watchdog.
_started: List[Any] = []
_loop: Dict[str, asyncio.AbstractEventLoop] = {}


def _schedule(seed: int, seconds: float):
    """``[(due offset, pool name, circuit seed)]`` of one run."""
    rng = random.Random(f"http_mixed/{seed}")
    order = inputs.stratified_order("http_mixed", seed)
    hot = list(inputs.HTTP_HOT)
    due, schedule, hot_slot = 0.0, [], 0
    while True:
        due += rng.uniform(1 - JITTER, 1 + JITTER) / RATE
        if due >= seconds:
            return schedule
        position = len(schedule) % HOT_EVERY
        if position == 0:
            hot_slot = rng.randrange(HOT_EVERY)
        if position == hot_slot:
            schedule.append((due, "http_hot", rng.choice(hot)))
        else:
            schedule.append((due, "http_mixed", next(order)))


def _submit_body(circuit) -> bytes:
    from repro.circuit.qasm.writer import to_qasm

    return json.dumps({
        "type": "submit-request", "version": 1,
        "payload": {"qasm": to_qasm(circuit), "arch": "ibm_qx4", "engine": "dp"},
    }).encode()


class Client:
    """Sends requests to the fleet and counts transport retries."""

    def __init__(self, port: int):
        self.port = port
        self.retries = 0

    async def request(self, method: str, target: str,
                      body: Optional[bytes] = None) -> Tuple[int, Dict[str, Any]]:
        from repro.server import wire

        for attempt in range(RETRIES + 1):
            try:
                status, _headers, raw = await wire.http_request(
                    "127.0.0.1", self.port, method, target, body=body,
                    timeout=RESULT_WAIT + 30,
                )
                return status, json.loads(raw)
            except wire.RetryableWireError:
                if attempt == RETRIES:
                    raise
                self.retries += 1
                await asyncio.sleep(0.05 * (attempt + 1))
        raise AssertionError("unreachable")

    async def job(self, body: bytes) -> Tuple[float, Dict[str, Any]]:
        """Submit and wait; returns (submit round trip, result envelope)."""
        sent = time.perf_counter()
        status, envelope = await self.request("POST", "/v1/jobs", body)
        submit_s = time.perf_counter() - sent
        if envelope.get("type") != "job-status":
            raise RuntimeError(f"submit refused ({status}): {envelope}")
        job_id = envelope["payload"]["job_id"]
        while True:
            status, envelope = await self.request(
                "GET", f"/v1/jobs/{job_id}/result?wait={RESULT_WAIT}")
            if status != 202:
                break
        if status != 200 or envelope.get("type") != "result-payload":
            raise RuntimeError(f"job {job_id} failed ({status}): {envelope}")
        return submit_s, envelope["payload"]

    async def stats(self) -> Dict[str, Any]:
        _status, envelope = await self.request("GET", "/v1/stats")
        return envelope["payload"]


def _worker_totals(stats: Dict[str, Any]) -> Dict[str, float]:
    """Service and store counters summed over the fleet's workers."""
    totals = {"submitted": 0, "cache_hits": 0, "coalesced": 0, "failed": 0,
              "store_hits": 0, "store_misses": 0}
    for worker in stats["workers"].values():
        for key in ("submitted", "cache_hits", "coalesced", "failed"):
            totals[key] += worker.get(key, 0)
        store = worker.get("store", {})
        totals["store_hits"] += store.get("memory_hits", 0) + store.get("disk_hits", 0)
        totals["store_misses"] += store.get("misses", 0)
    totals["redeliveries"] = stats["stats"].get("redeliveries", 0)
    totals["restarts"] = stats["stats"].get("restarts", 0)
    return totals


def _watchdog(limit: float) -> threading.Timer:
    """Kill this process's workers and exit 1 if it still runs after *limit* s.

    A hung fleet must not outlive the benchmark, and the stacks it prints
    show where it hung.
    """
    def fire() -> None:
        print(f"perfbench: http_mixed still running after {limit:.0f} s; "
              "killing its fleet", file=sys.stderr, flush=True)
        faulthandler.dump_traceback(file=sys.stderr)
        with contextlib.suppress(Exception):
            for task in asyncio.all_tasks(_loop["loop"]):
                task.print_stack(limit=8, file=sys.stderr)
        for supervisor in _started:
            for handle in supervisor.workers:
                process = handle.process
                if process is None or process.returncode is not None:
                    continue
                with contextlib.suppress(ProcessLookupError):
                    os.kill(process.pid, signal.SIGKILL)
                gone = time.monotonic() + 5
                while os.path.exists(f"/proc/{process.pid}") and time.monotonic() < gone:
                    time.sleep(0.05)
        sys.stderr.flush()
        os._exit(1)

    timer = threading.Timer(limit, fire)
    timer.daemon = True
    timer.start()
    return timer


async def _fleet(store_dir: str):
    from repro.server.supervisor import Supervisor

    _loop["loop"] = asyncio.get_running_loop()
    supervisor = Supervisor(workers=1, engine="dp", cache_dir=store_dir)
    _started.append(supervisor)
    await supervisor.start()
    client = Client(supervisor.port)
    try:
        status, health = await client.request("GET", "/v1/healthz")
        if status != 200 or not health["payload"].get("ok"):
            raise RuntimeError(f"fleet not healthy: {health}")
        await client.job(_submit_body(
            inputs.make_circuit(inputs.DP_SHAPE, inputs.DP_WARMUP_SEED)))
    except BaseException:
        await supervisor.stop()
        raise
    return supervisor, client


async def probe_setup(store_dir: str, ready) -> None:
    """Boot a fleet to healthy plus one warm-up job, report ready, stop it."""
    watchdog = _watchdog(HANG_S)
    try:
        supervisor, _client = await _fleet(store_dir)
        try:
            ready()
        finally:
            await supervisor.stop()
    finally:
        watchdog.cancel()


async def _run(seed: int, seconds: float, store_dir: str,
               tracer: Optional[Tracer]) -> Dict[str, Any]:
    expected = inputs.load_expected()
    schedule = _schedule(seed, seconds)
    circuits = {
        (pool, s): inputs.make_circuit(inputs.DP_SHAPE, s)
        for _due, pool, s in schedule
    }
    bodies = {key: _submit_body(circuit) for key, circuit in circuits.items()}
    supervisor, client = await _fleet(store_dir)
    try:
        before = _worker_totals(await client.stats())
        slots = asyncio.Semaphore(CONNECTIONS)
        start = time.perf_counter() + 0.05
        dues = [start + due for due, _pool, _seed in schedule]
        # Requests started and not yet answered, and when the last answer came.
        busy = {"woken": 0, "jobs": 0, "since": start}
        slices: List[Tuple[float, float]] = []

        async def one(index: int, due: float, pool: str, seed_: int) -> Job:
            await asyncio.sleep(max(0.0, start + due - time.perf_counter()))
            woke = time.perf_counter()
            busy["woken"] += 1
            busy["jobs"] += 1
            job = Job(index, seed_, pool, start + due, woke)
            job.extra["late_s"] = woke - job.start
            async with slots:
                sent = time.perf_counter()
                try:
                    submit_s, payload = await client.job(bodies[(pool, seed_)])
                except Exception as failure:  # noqa: BLE001 - counted as failed
                    job.error = f"{type(failure).__name__}: {failure}"
                    payload, submit_s = None, 0.0
                job.end = time.perf_counter()
            busy["jobs"] -= 1
            busy["since"] = job.end
            job.result = payload
            job.extra.update(conn_wait_s=sent - woke, sent=sent,
                             submit_s=submit_s)
            return job

        async def calibrate() -> None:
            # Reference slices only while the fleet is idle, so that they
            # neither compete with the worker nor delay a due request.
            while True:
                now = time.perf_counter()
                following = bisect.bisect_right(dues, now)
                if following == len(dues):
                    return
                if (busy["jobs"] == 0 and busy["woken"] == following
                        and now - busy["since"] > SETTLE_S
                        and dues[following] - now > IDLE_GAP_S):
                    slices.append((now, reference_slice(SLICE_UNITS)))
                await asyncio.sleep(0.005)

        jobs: List[Job]
        jobs, _ = await asyncio.gather(
            asyncio.gather(*(one(i, due, pool, s)
                             for i, (due, pool, s) in enumerate(schedule))),
            calibrate(),
        )
        wall = max(job.end for job in jobs) - start
        _calibrate(jobs, slices)
        after = _worker_totals(await client.stats())
        peak_rss = vm_hwm_mb(str(supervisor.workers[0].pid))
    finally:
        await supervisor.stop()
    report = _finish(jobs, wall, peak_rss, before, after, client.retries,
                     circuits, expected, tracer)
    report["slices"] = slices
    return report


def _calibrate(jobs: List[Job], slices: List[Tuple[float, float]]) -> None:
    """Scale each job by the median of the slices within ``WINDOW_S`` of it."""
    if not slices:
        raise RuntimeError("the fleet was never idle long enough to calibrate")
    overall = statistics.median(d for _t, d in slices)
    for job in jobs:
        near = [d for t, d in slices
                if job.start - WINDOW_S <= t <= job.end + WINDOW_S]
        reference = statistics.median(near) if near else overall
        job.scale = scale(reference, reference, SLICE_UNITS)


def _finish(jobs, wall, peak_rss, before, after, retries, circuits, expected,
            tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro.arch.devices import ibm_qx4
    from repro.exact.result import MappingResult

    coupling = ibm_qx4()
    solve_s = []
    for job in jobs:
        payload, job.result = job.result, None
        if job.error is not None:
            continue
        try:
            job.result = MappingResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError) as error:
            job.error = f"unreadable result payload: {error}"
            continue
        job.extra["solve_s"] = payload["provenance"].get("elapsed_seconds", 0.0)
        solve_s.append(job.extra["solve_s"])
        job.error = check_result(job.result, circuits[(job.pool, job.seed)],
                                 coupling, expected[job.pool][job.seed])
    report = {"jobs": jobs, "wall": wall, "peak_rss_mb": peak_rss}
    report.update(latency_metrics(jobs, "http_mixed", wall))
    late = [job.extra["late_s"] for job in jobs]
    report["late_max_s"] = max(late)
    if tracer is None:
        return report
    delta = {key: after[key] - before[key] for key in after}
    done = [job for job in jobs if "solve_s" in job.extra]
    for job in jobs:
        root = tracer.record("http.job", job.start, job.end, job=job.index)
        tracer.record("client.conn_wait", job.start + job.extra["late_s"],
                      job.extra["sent"], root, job.index)
        tracer.record("server.submit", job.extra["sent"],
                      job.extra["sent"] + job.extra["submit_s"], root, job.index)
    store_lookups = delta["store_hits"] + delta["store_misses"]
    stats = [job.result.statistics for job in done]
    traced = latency_metrics(jobs, "http_mixed", wall)
    report["layers"] = {
        "dp.states": sum(s.get("states", 0) for s in stats),
        "dp.transitions_evaluated": sum(s.get("transitions_evaluated", 0)
                                        for s in stats),
        "service.solve_s": sum(solve_s) / len(jobs),
        "service.cache_hit_share": (delta["cache_hits"] / delta["submitted"]
                                    if delta["submitted"] else 0.0),
        "service.coalesced": delta["coalesced"],
        "service.failed": delta["failed"],
        "store.hits": delta["store_hits"],
        "store.misses": delta["store_misses"],
        "store.hit_share": (delta["store_hits"] / store_lookups
                            if store_lookups else 0.0),
        "server.submit_s": sum(j.extra["submit_s"] for j in jobs) / len(jobs),
        "server.overhead_s": sum(j.end - j.extra["sent"] - j.extra["solve_s"]
                                 for j in done) / max(1, len(done)),
        "server.retries": retries + delta["redeliveries"],
        "server.worker_restarts": delta["restarts"],
        "client.conn_wait_s": sum(j.extra["conn_wait_s"] for j in jobs) / len(jobs),
        "client.late_max_s": report["late_max_s"],
        "traced.jobs_per_s": traced["jobs_per_s"],
        "traced.job_p50_s": traced["job_p50_s"],
        "traced.job_tail_s": traced["job_tail_s"],
    }
    report["repeat_mismatches"] = []
    return report


def run(seed: int, seconds: float, store_dir: str,
        tracer: Optional[Tracer]) -> Dict[str, Any]:
    watchdog = _watchdog(seconds + HANG_S)
    try:
        return asyncio.run(_run(seed, seconds, store_dir, tracer))
    finally:
        watchdog.cancel()
