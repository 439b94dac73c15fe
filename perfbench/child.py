"""Run one workload in this (fresh) process and write its record as JSON.

Started by ``run.py`` with the BLAS thread counts pinned to 1 in the
environment. One repetition is set-up plus timed section on one of the
run's instances (``workloads.INSTANCES``). An untraced run passes
over every instance once, then keeps cycling while ``--seconds`` allows
another repetition. A traced run makes a traced and then an untraced
repetition of instance 0, then of instance 1 and so on while another
pair fits in ``--seconds``, so the tracing overhead is measured on the
same input, in the same process, seconds apart.

    python3 perfbench/child.py --root . --workload non-serial --seed 0 \
        --seconds 30 --trace 0 --workdir .perfbench/work/x --record out.json
"""
from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback


def host_ref() -> float:
    """Seconds for a fixed pure-Python heap and dict loop: the host's speed now.

    The median of 8 short loops, about 0.12 s in all. Taken next to every
    timed section; see ``REF_NOMINAL_S``.
    """
    times = []
    for _ in range(8):
        start = time.perf_counter()
        heap, acc, seen = [], 0, {}
        for i in range(20_000):
            heapq.heappush(heap, (i * 7919) % 10007)
            if len(heap) > 64:
                acc += heapq.heappop(heap)
            seen[i & 1023] = acc
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# The host this benchmark runs on is shared, and its speed drifts by up to
# 60% between minutes (on a 2-CPU host, the 35-s medians of a fixed
# pure-Python loop ranged over 17.7-28.3 ms in six minutes), far beyond
# any regression bound. Every reported time is therefore scaled towards a
# host on which host_ref() takes REF_NOMINAL_S:
#     scaled = raw * (REF_NOMINAL_S / ref) ** (REF_ELASTICITY * cpu_share)
# with ref the mean of the host_ref() taken just before and just after the
# timed work, and cpu_share the share of it that this process spent on the
# CPU (1 for set-up). A solve slows down less than the tight reference
# loop: over 44 pairs of repeated serial solves of one instance within a
# run, the log of their time ratio moved with the log of their ref ratio
# at a least-squares slope of 0.61 (correlation 0.82), a slope the ref's
# own noise pulls down. With a process pool the ref, which runs in this
# process, tracked the solve time hardly at all (slope 0.29, correlation
# 0.37); there this process spends about a tenth of the timed section on
# the CPU. Over ten sets of runs on five or ten seeds, this rule gave a
# mean IQR/median of wall_s of 0.14 and a worst of 0.19; no scaling gave
# 0.19 and 0.34, the full ratio 0.14 and 0.26. The raw times and every
# ref stay in the run's record.
REF_NOMINAL_S = 0.015
REF_ELASTICITY = 0.7


def environment(root: str) -> dict:
    import numpy
    import scipy

    sources = os.path.join(root, "src", "gbgp")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(sources)):
        if name.endswith(".py"):
            with open(os.path.join(sources, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    git_sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass  # no git here; src_sha256 still identifies the sources
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_start_method(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


# an untraced repetition repeats its set-up for at least this long, so
# that a short set-up (25 ms on temporal-grid) still gives several samples
SETUP_MIN_S = 0.1


def run_rep(workload, tracer) -> dict:
    """Set-up plus one timed section, then the output check (untimed).

    ``host_ref()`` is taken between set-up and timed section, and after
    the timed section. The set-up times are scaled by the first, the
    timed section by the mean of both, with the exponent cut by the share
    of the timed section this process spent on the CPU
    (``REF_ELASTICITY``).
    """
    from workloads import check, fingerprint

    rep = {"traced": tracer is not None, "attempted": workload.solves_per_rep,
           "setup_raw_s": [], "refs": []}
    if tracer is not None:
        tracer.reset()
        tracer.install()
        run = tracer.timed
    else:
        def run(_name, fn):
            return fn()
    try:
        spent = 0.0
        while not rep["setup_raw_s"] or (tracer is None and spent < SETUP_MIN_S):
            start = time.perf_counter()
            run("bench.setup", workload.setup)
            rep["setup_raw_s"].append(time.perf_counter() - start)
            spent += rep["setup_raw_s"][-1]
        rep["refs"].append(host_ref())
        cpu = time.process_time()
        start = time.perf_counter()
        out = run("bench.timed", workload.timed)
        rep["wall_raw_s"] = time.perf_counter() - start
        rep["parent_cpu_s"] = time.process_time() - cpu
        rep["refs"].append(host_ref())
    except Exception:
        rep["error"] = traceback.format_exc()
        rep["failed"] = workload.solves_per_rep
        return rep
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_scale = (REF_NOMINAL_S / rep["refs"][0]) ** REF_ELASTICITY
    rep["setup_s"] = [t * setup_scale for t in rep["setup_raw_s"]]
    # the reference speaks only for the CPU work of this process: with a
    # process pool, most of the timed section runs in the workers
    share = min(1.0, rep["parent_cpu_s"] / rep["wall_raw_s"])
    rep["wall_s"] = (rep["wall_raw_s"] * (REF_NOMINAL_S / statistics.fmean(rep["refs"]))
                     ** (REF_ELASTICITY * share))
    try:
        solves, rep["f1"], problems = workload.solves(out)
        failed = workload.solves_per_rep - len(solves)
        for i, solve in enumerate(solves):
            found = solve.problems + check(solve)
            failed += bool(found)
            problems += [f"solve {i}: {p}" for p in found]
        rep["fingerprint"] = fingerprint(solves)
    except Exception:
        # no usable output: the run is reported as not correct
        failed, problems = workload.solves_per_rep, [traceback.format_exc()]
        rep["f1"] = 0.0
    rep["failed"] = min(workload.solves_per_rep, max(failed, 1 if problems else 0))
    if problems:
        rep["problems"] = problems
    return rep


# engine and projection metrics that only the parent process's spans give;
# with a projection pool that work runs in the workers, and these are not
# measured there (the parent's own value, 0, is reported)
WORKER_SIDE = (
    "pcst.solve_calls", "pcst.solve_s", "pcst.head_solve_ms", "pcst.tail_solve_ms",
    "pcst.prized_frac", "pcst.engine_builds", "pcst.engine_build_s",
    "budget_search.calls", "budget_search.probes_per_call", "budget_search.long_frac",
    "budget_search.first_probe_frac", "budget_search.fallback_frac",
    "budget_search.self_s", "head_project.s", "tail_project.s",
)


def layer_metrics(tracer, rep: dict) -> dict:
    """Per-layer metrics of one traced repetition, in the parent process.

    Times are scaled like ``wall_s`` (``REF_ELASTICITY``), so that runs
    on a faster or slower moment of the host compare.
    """
    from tracer import LONG_SEARCH_PROBES, busy_times, self_times

    busy, own, n = busy_times(tracer.spans), self_times(tracer.spans), tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    searches = n["budget_search"]
    hist = tracer.probe_hist
    metrics = {
        "pcst.solve_calls": n["pcst.solve"],
        "pcst.solve_s": busy.get("pcst.solve", 0.0),
        "pcst.head_solve_ms": mean(tracer.solve_ms["head"]),
        "pcst.tail_solve_ms": mean(tracer.solve_ms["tail"]),
        "pcst.prized_frac": ratio(n["budget_search.prized_nodes"], n["budget_search.nodes"]),
        "pcst.engine_builds": n["pcst.engine_build"],
        "pcst.engine_build_s": busy.get("pcst.engine_build", 0.0),
        "budget_search.calls": searches,
        "budget_search.probes_per_call": ratio(n["budget_search.probes"], searches),
        "budget_search.long_frac": ratio(
            sum(c for p, c in hist.items() if p >= LONG_SEARCH_PROBES), searches),
        "budget_search.first_probe_frac": ratio(hist[1], searches),
        "budget_search.fallback_frac": ratio(n["budget_search.fallback"], searches),
        "budget_search.self_s": own.get("projections.budget_search", 0.0),
        "head_project.s": busy.get("projections.head_project", 0.0),
        "tail_project.s": busy.get("projections.tail_project", 0.0),
        "objectives.gradient_calls": n["objectives.block_gradient"],
        "objectives.local_value_calls": n["objectives.local_value"],
        "objectives.s": sum(busy.get(f"objectives.{m}", 0.0)
                            for m in ("block_gradient", "local_value", "value")),
        "solver.outer_iters": n["solver.outer_iters"],
        "solver.outer_iter_s": ratio(busy.get("solver.gbgp_solve", 0.0),
                                     n["solver.outer_iters"]),
        "solver.inner_s": busy.get("solver.inner", 0.0),
        "solver.step_size_calls": n["solver.step_size"],
        "solver.self_s": own.get("solver.gbgp_solve", 0.0),
        "solver.parent_cpu_s": rep["parent_cpu_s"],
        "graph.block_graph_calls": n["graph.block_graph"],
        "graph.block_graph_s": busy.get("graph.block_graph", 0.0),
        "pool.map_calls": n["pool.map"],
        "pool.tasks": n["pool.tasks"],
        "pool.wait_s": busy.get("pool.map", 0.0),
        "pool.shutdown_s": busy.get("pool.shutdown", 0.0),
        "pool.worker_rss_mb": tracer.worker_hwm_kb / 1024.0,
        "cli.read_bundle_s": busy.get("cli.read_bundle", 0.0),
        "datagen.generate_s": busy.get("datagen.generate", 0.0),
        "objectives.spec_build_s": busy.get("objectives.spec_build", 0.0),
    }
    scale = rep["wall_s"] / rep["wall_raw_s"]
    for name in metrics:
        if name.endswith(("_s", ".s", "_ms")):
            metrics[name] *= scale
    return metrics


def trace_summary(tracer, rep: dict) -> dict:
    """Self time and span count per layer, the probe histogram, attribution.

    ``attributed_frac`` is the share of the traced wall time that the self
    times of the spans below the ``bench.timed`` root add up to; it misses
    only the root's own time. ``untraced_frac`` is the root's own time plus
    the self time of ``gbgp_solve``: work that no layer wrapper covers.
    """
    from tracer import busy_times, self_times, span_self_times

    own_by_name, busy = self_times(tracer.spans), busy_times(tracer.spans)
    counts = {}
    for span in tracer.spans:
        counts[span[2]] = counts.get(span[2], 0) + 1
    layers = {name: {"self_s": own_by_name[name], "busy_s": busy[name],
                     "spans": counts[name]} for name in sorted(own_by_name)}
    own = span_self_times(tracer.spans)
    parent_of = {span[0]: span[1] for span in tracer.spans}
    name_of = {span[0]: span[2] for span in tracer.spans}

    def timed_root(sid):
        while parent_of[sid] is not None:
            sid = parent_of[sid]
        return name_of[sid] == "bench.timed"

    roots = [span for span in tracer.spans if span[2] == "bench.timed"]
    below_root = [span for span in tracer.spans
                  if span[1] is not None and timed_root(span[0])]
    attributed = sum(own[span[6], span[0]] for span in below_root)
    untraced = (sum(own[span[6], span[0]] for span in roots)
                + own_by_name.get("solver.gbgp_solve", 0.0))
    wall = rep["wall_raw_s"]
    return {
        "layers": layers,
        "probe_histogram": {str(k): v for k, v in sorted(tracer.probe_hist.items())},
        "attributed_frac": attributed / wall,
        "untraced_frac": untraced / wall,
        "pcst_solve_frac": busy.get("pcst.solve", 0.0) / wall,
        "not_measured": list(WORKER_SIDE) if tracer.counts["pool.map"] else [],
    }


def write_spans(tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end, trace_id, pid in sorted(tracer.spans,
                                                                    key=lambda s: s[3]):
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start,
                                 "end": end, "trace": trace_id, "pid": pid}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/gbgp")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--spans", help="JSONL file for the traced repetition of instance 0")
    args = parser.parse_args(argv)

    import gbgp

    expected = os.path.realpath(os.path.join(args.root, "src", "gbgp"))
    if os.path.dirname(os.path.realpath(gbgp.__file__)) != expected:
        print(f"gbgp imported from {gbgp.__file__}, not from {expected}", file=sys.stderr)
        return 3
    import workloads
    from tracer import Tracer

    env = environment(args.root)
    count = workloads.INSTANCES[args.workload]
    tracer = Tracer() if args.trace else None
    reps = []
    began = time.perf_counter()

    def next_rep() -> tuple[int, bool] | None:
        """(instance, traced) of the next repetition, or None to stop."""
        elapsed = time.perf_counter() - began
        if args.trace:
            # traced and untraced repetitions of instances 0, 1, ... in pairs,
            # while another pair fits in --seconds; always at least one pair
            if len(reps) % 2:
                return reps[-1]["instance"], False
            pair_s = reps[-1]["rep_s"] + reps[-2]["rep_s"] if reps else 0.0
            if len(reps) // 2 == count or (reps and elapsed + pair_s > args.seconds):
                return None
            return len(reps) // 2, True
        # every instance once, then more passes while a repetition fits
        if len(reps) >= count and elapsed + max(r["rep_s"] for r in reps) > args.seconds:
            return None
        return len(reps) % count, False

    while (step := next_rep()) is not None:
        j, traced = step
        seed = args.seed + workloads.SUB_SEED_STRIDE * j
        start = time.perf_counter()
        rep = run_rep(workloads.make(args.workload, seed, args.workdir),
                      tracer if traced else None)
        rep.update(instance=j, instance_seed=seed, rep_s=time.perf_counter() - start)
        if traced and "wall_s" in rep:
            rep["layers"] = layer_metrics(tracer, rep)
            rep["trace"] = trace_summary(tracer, rep)
            if args.spans and j == 0:
                write_spans(tracer, args.spans)
        reps.append(rep)
        if "error" in rep:
            break
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "ref_nominal_s": REF_NOMINAL_S,
        "ref_elasticity": REF_ELASTICITY,
        "loadavg_end": os.getloadavg(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
    }
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
