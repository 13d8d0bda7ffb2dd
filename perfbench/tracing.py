"""In-memory span tracer that wraps the program's layer boundaries from outside.

Nothing under ``src/`` knows about this module: :meth:`Tracer.install`
replaces public functions and methods of each layer with timing wrappers,
and :meth:`Tracer.uninstall` puts the originals back.  Two kinds of wrapper
exist:

* a **span** (name, start, end, parent, job) for calls made a few times per
  job — pipeline, engine, encoding, solver, reconstruction;
* an **aggregate** (call count and busy seconds, charged to the enclosing
  span) for the permutation-table transition query, which the DP engine
  calls tens of thousands of times per job; a span each would cost more
  than the call it measures.

Spans stay in memory and are written once, by :meth:`Tracer.dump`.  A
span's self time is its duration minus its child spans and the aggregate
calls made inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span record fields (lists, not objects: a traced run makes thousands).
NAME, START, END, PARENT, JOB, HOT_S = range(6)


class Tracer:
    """Collects spans and per-job counters for one benchmark process.

    The library workloads run their jobs on one thread, so the span stack
    is a plain list.  Explicit spans from concurrent client tasks go
    through :meth:`record`, which takes its parent as an argument.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.job: Any = None
        #: ``counters[job][name]`` — work counts recorded at the boundaries.
        self.counters: Dict[Any, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counters[self.job][name] += value

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self.stack.pop()

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, job: Any = None) -> int:
        """Add a finished span measured elsewhere; returns its index."""
        self.spans.append([name, start, end, parent, job, 0.0])
        return len(self.spans) - 1

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _span_wrapper(self, fn: Callable, name: str,
                      on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.count(name + ".calls")
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def _hot_wrapper(self, fn: Callable, name: str) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                counters = tracer.counters[tracer.job]
                counters[name + ".calls"] += 1
                counters[name + ".s"] += elapsed
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][HOT_S] += elapsed

        return wrapper

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, cls: type, attr: str, name: str, hot: bool = False) -> None:
        fn = cls.__dict__[attr]
        new = self._hot_wrapper(fn, name) if hot else self._span_wrapper(fn, name)
        self._replace(cls, attr, new)

    def wrap_function(self, module_name: str, attr: str, name: str,
                      on_result: Optional[Callable] = None) -> None:
        """Wrap a module-level function and every ``from ... import`` of it."""
        original = getattr(sys.modules[module_name], attr)
        new = self._span_wrapper(original, name, on_result)
        for module_key, module in list(sys.modules.items()):
            if (module_key == "repro" or module_key.startswith("repro.")) and \
                    module.__dict__.get(attr) is original:
                self._replace(module, attr, new)

    def install(self) -> None:
        """Wrap the public entry points of every layer the workloads reach."""
        import repro.arch.cache  # noqa: F401 - make sure every importer is loaded
        import repro.exact.encoding  # noqa: F401
        import repro.exact.reconstruction  # noqa: F401
        from repro.arch.permutations import PermutationTable
        from repro.exact.dp_mapper import DPMapper
        from repro.exact.sat_mapper import SATMapper
        from repro.pipeline.pipeline import MappingPipeline
        from repro.sat.solver import CDCLSolver

        def encoding_sizes(tracer: "Tracer", encoding: Any) -> None:
            tracer.count("encoding.clauses", encoding.num_clauses)
            tracer.count("encoding.variables", encoding.num_variables)

        self.wrap_method(MappingPipeline, "map", "pipeline")
        self.wrap_method(DPMapper, "map", "dp")
        self.wrap_method(SATMapper, "map", "sat_mapper")
        self.wrap_method(CDCLSolver, "solve", "sat.solve")
        self.wrap_method(PermutationTable, "transition_cost", "arch.transition",
                         hot=True)
        self.wrap_function("repro.arch.cache", "shared_permutation_table",
                           "arch.table")
        self.wrap_function("repro.exact.encoding", "build_encoding", "encoding",
                           on_result=encoding_sizes)
        self.wrap_function("repro.exact.reconstruction", "build_result",
                           "reconstruct")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        own = [s[END] - s[START] - s[HOT_S] for s in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def totals(self, jobs: Optional[set] = None) -> Dict[str, Dict[str, float]]:
        """``{span name: {"calls", "s", "self_s"}}`` over spans of *jobs*."""
        own = self.self_times()
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for index, span in enumerate(self.spans):
            if jobs is not None and span[JOB] not in jobs:
                continue
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["s"] += span[END] - span[START]
            entry["self_s"] += own[index]
        return out

    def dump(self, path, extra: Dict[str, Any]) -> None:
        """Write spans, self times and counters as one JSON document."""
        own = self.self_times()
        document = dict(extra)
        document["spans"] = [
            {"name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "job": s[JOB], "self_s": own[i]}
            for i, s in enumerate(self.spans)
        ]
        document["counters"] = {
            str(job): dict(values) for job, values in self.counters.items()
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
