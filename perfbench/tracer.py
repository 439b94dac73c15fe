"""In-memory span tracer installed around gbgp's public entry points.

Every wrapper lives here; nothing under ``src/`` knows about tracing.
Each entry point is replaced where the caller looks it up (a module
global or a class attribute) and restored by :meth:`Tracer.uninstall`,
so an untraced repetition runs the program exactly as shipped.

A span is ``(span_id, parent_id, name, start, end, trace_id, pid)`` with
``time.perf_counter`` timestamps; ids are unique per process, and every
``gbgp_solve`` call starts a new trace id. Self time is the span's
duration minus the durations of its direct children. Counts are taken at
the same boundaries, in the wrappers.

Only the parent process's spans are kept. Projection-pool workers are
forked and run the same wrappers, but what they record dies with them:
:class:`TracedPool` times ``map`` and ``shutdown`` in the parent and
reads the workers' peak RSS, and the engine and projection work done in
the workers is not measured.
"""
from __future__ import annotations

import functools
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

LONG_SEARCH_PROBES = 8

_TRACER: "Tracer | None" = None


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self._stack: list[int] = []
        self._next_id = 0
        self.trace_id = 0
        self.projection: str | None = None
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.probe_hist: Counter = Counter()
        self.solve_ms = {"head": [], "tail": []}
        self.worker_hwm_kb = 0

    # -- spans ---------------------------------------------------------
    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, self.trace_id, self.pid))

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, start, time.perf_counter())

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(sid, parent, name, start, end)
            if after is not None:
                after(args, kwargs, result, end - start)
            return result

        return wrapper

    # -- installation --------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point of gbgp, inside out."""
        global _TRACER
        import gbgp.cli as cli
        import gbgp.datagen as datagen
        import gbgp.evaluation as evaluation
        import gbgp.projections as projections
        import gbgp.solver as solver
        from gbgp.graph import BlockPartition
        from gbgp.objectives import ObjectiveSpec
        from gbgp.pcst import PcstEngine

        _TRACER = self

        def after_solve(args, kwargs, result, dur):
            self.counts["pcst.solve"] += 1
            if self.projection is not None:
                self.solve_ms[self.projection].append(dur * 1e3)

        def after_search(args, kwargs, result, dur):
            prizes = args[1] if len(args) > 1 else kwargs["prizes"]
            probes = result[1]
            self.counts["budget_search"] += 1
            self.counts["budget_search.probes"] += probes
            self.counts["budget_search.prized_nodes"] += probes * int((prizes > 0).sum())
            self.counts["budget_search.nodes"] += probes * len(prizes)
            self.probe_hist[probes] += 1

        def projection(kind, fn):
            def run(*args, **kwargs):
                outer, self.projection = self.projection, kind
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.projection = outer

            return self.wrap(f"projections.{kind}_project", functools.wraps(fn)(run))

        def new_trace(fn):
            @functools.wraps(fn)
            def run(*args, **kwargs):
                self.trace_id += 1
                return fn(*args, **kwargs)

            return run

        def after_gbgp(args, kwargs, result, dur):
            self.counts["solver.outer_iters"] += result.outer_iters

        def counted(key):
            def after(args, kwargs, result, dur):
                self.counts[key] += 1

            return after

        self.patch(PcstEngine, "solve",
                   self.wrap("pcst.solve", PcstEngine.solve, after_solve))
        self.patch(PcstEngine, "__init__",
                   self.wrap("pcst.engine_build", PcstEngine.__init__,
                             counted("pcst.engine_build")))
        self.patch(projections, "budget_search",
                   self.wrap("projections.budget_search", projections.budget_search,
                             after_search))
        self.patch(projections, "_fallback_node",
                   self.wrap("projections.fallback", projections._fallback_node,
                             counted("budget_search.fallback")))
        self.patch(solver, "head_project", projection("head", solver.head_project))
        self.patch(solver, "tail_project", projection("tail", solver.tail_project))
        for method in ("block_gradient", "local_value", "value"):
            self.patch(ObjectiveSpec, method,
                       self.wrap(f"objectives.{method}", getattr(ObjectiveSpec, method),
                                 counted(f"objectives.{method}")))
        self.patch(ObjectiveSpec, "__init__",
                   self.wrap("objectives.spec_build", ObjectiveSpec.__init__))
        self.patch(solver, "bcd_solve", self.wrap("solver.inner", solver.bcd_solve))
        self.patch(solver, "parallel_bcd_solve",
                   self.wrap("solver.inner", solver.parallel_bcd_solve))
        self.patch(solver, "estimate_step_size",
                   self.wrap("solver.step_size", solver.estimate_step_size,
                             counted("solver.step_size")))
        self.patch(solver, "ProcessPoolExecutor", TracedPool)
        self.patch(BlockPartition, "block_graph",
                   self.wrap("graph.block_graph", BlockPartition.block_graph,
                             counted("graph.block_graph")))
        gbgp_solve = self.wrap("solver.gbgp_solve", new_trace(solver.gbgp_solve), after_gbgp)
        self.patch(solver, "gbgp_solve", gbgp_solve)
        self.patch(evaluation, "gbgp_solve", gbgp_solve)
        self.patch(cli, "solve_instance",
                   self.wrap("evaluation.solve_instance", cli.solve_instance))
        self.patch(cli, "read_bundle", self.wrap("cli.read_bundle", cli.read_bundle))
        for name in ("generate_temporal", "generate_non"):
            generate = self.wrap("datagen.generate", getattr(datagen, name))
            self.patch(datagen, name, generate)
            self.patch(cli, name, generate)

    def uninstall(self) -> None:
        global _TRACER
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        _TRACER = None


class TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that times map and shutdown and reads worker peak RSS."""

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        tracer = _TRACER
        iterables = [list(items) for items in iterables]
        tracer.counts["pool.map"] += 1
        tracer.counts["pool.tasks"] += min(map(len, iterables), default=0)
        parent_map = super().map
        results = tracer.timed(
            "pool.map",
            lambda: list(parent_map(fn, *iterables, timeout=timeout, chunksize=chunksize)),
        )
        return iter(results)

    def shutdown(self, wait=True, *, cancel_futures=False):
        for pid in list(self._processes or ()):
            _TRACER.worker_hwm_kb = max(_TRACER.worker_hwm_kb, _peak_rss_kb(pid))
        _TRACER.timed("pool.shutdown", super().shutdown, wait,
                      cancel_futures=cancel_futures)


def _peak_rss_kb(pid: int) -> int:
    """VmHWM of a live process, from /proc; 0 where that is not readable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def span_self_times(spans) -> dict[tuple[int, int], float]:
    """(pid, span id) -> span duration minus the durations of its direct children."""
    child_time: Counter = Counter()
    for span in spans:
        if span[1] is not None:
            child_time[span[6], span[1]] += span[4] - span[3]
    return {(span[6], span[0]): (span[4] - span[3]) - child_time[span[6], span[0]]
            for span in spans}


def self_times(spans) -> dict[str, float]:
    """Per-name sum of span self times."""
    own = span_self_times(spans)
    out: Counter = Counter()
    for span in spans:
        out[span[2]] += own[span[6], span[0]]
    return dict(out)


def busy_times(spans) -> dict[str, float]:
    """Per-name sum of span durations (children included)."""
    out: Counter = Counter()
    for span in spans:
        out[span[2]] += span[4] - span[3]
    return dict(out)
