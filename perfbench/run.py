"""gbgp benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload non-serial --seed 0 --seconds 30 --trace 0

Runs the workload in a child process (``child.py``) with OpenBLAS, OpenMP
and MKL pinned to one thread, checks every solve's output, prints every
metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
the per-layer ones, taken from traced repetitions. The full record of
the run (repetitions, environment, fingerprints, probe histogram, layer
self times) goes to ``.perfbench/results/`` and the spans of the traced
repetition of instance 0 to ``.perfbench/spans/`` as JSONL.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
# a run must end within 180 s; leave room to summarise after the child
CHILD_DEADLINE_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def run_child(workload: str, seed: int, seconds: float, trace: int,
              out_dir: str) -> tuple[dict | None, str]:
    """Run the workload in a fresh process; returns its record and log path."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = os.path.join(out_dir, "work", tag)
    record_path = os.path.join(out_dir, "results", tag + ".record.json")
    spans_path = os.path.join(out_dir, "spans", tag + ".jsonl")
    log_path = os.path.join(out_dir, "results", tag + ".log")
    for path in (workdir, os.path.dirname(record_path), os.path.dirname(spans_path)):
        os.makedirs(path, exist_ok=True)
    if os.path.exists(record_path):
        os.remove(record_path)
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", workdir, "--record", record_path,
    ]
    if trace:
        cmd += ["--spans", spans_path]
    with open(log_path, "w", encoding="utf-8") as log:
        # own session, so a timeout can stop the child and its pool workers together
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_DEADLINE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
    shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not os.path.exists(record_path):
        return None, log_path
    with open(record_path, encoding="utf-8") as fh:
        return json.load(fh), log_path


def by_instance(reps: list, key: str) -> dict:
    out = {}
    for rep in reps:
        out.setdefault(rep["instance"], []).append(rep[key])
    return out


def summarise(record: dict, trace: int) -> tuple[dict, dict]:
    """Metric values and the run's verdict from the child's record.

    Times are scaled towards the reference host speed (``child.REF_ELASTICITY``).
    Every instance of the run weighs the same. ``wall_s`` is the median
    over instances of each instance's median, so that one rare, slow
    instance does not set it; ``f1`` is the mean over instances and the
    per-layer values are means over the traced repetitions.
    """
    reps = [rep for rep in record["reps"] if "wall_s" in rep]
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    attempted = sum(rep["attempted"] for rep in record["reps"])
    failed = sum(rep["failed"] for rep in record["reps"])
    outputs = {}
    for rep in reps:
        outputs.setdefault(rep["instance"], set()).add(
            (rep.get("f1"), json.dumps(rep.get("fingerprint"), sort_keys=True)))
    verdict = {
        "attempted": attempted,
        "failed": failed,
        "errors": [rep["error"] for rep in record["reps"] if "error" in rep],
        "problems": [p for rep in record["reps"] for p in rep.get("problems", [])],
        "deterministic": all(len(v) == 1 for v in outputs.values()),
    }
    verdict["correct"] = (failed == 0 and not verdict["errors"] and verdict["deterministic"]
                          and bool(plain or traced))
    if trace:
        metrics = {}
        for name in traced[0]["layers"] if traced else ():
            metrics[name] = statistics.fmean(rep["layers"][name] for rep in traced)
        metrics["host.ref_s"] = statistics.median(t for rep in reps for t in rep["refs"])
        # repetitions alternate traced, untraced on the same instance
        pairs = zip(record["reps"][::2], record["reps"][1::2])
        overheads = [a["wall_s"] - b["wall_s"] for a, b in pairs
                     if "wall_s" in a and "wall_s" in b]
        metrics["trace.overhead_s"] = statistics.fmean(overheads) if overheads else 0.0
        return metrics, verdict
    metrics = {
        "wall_s": statistics.median(map(statistics.median, by_instance(plain, "wall_s").values())),
        "setup_s": statistics.median(t for rep in plain for t in rep["setup_s"]),
        "f1": statistics.fmean(v[0] for v in by_instance(plain, "f1").values()),
        "solved_frac": (attempted - failed) / attempted,
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return metrics, verdict


def report(record: dict, metrics: dict, verdict: dict, specs: list) -> None:
    """Human-readable table of the run, printed before the JSON line."""
    env = record["environment"]
    reps = record["reps"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"repetitions {len(reps)} ({sum(r['traced'] for r in reps)} traced)")
    print(f"host: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, start method {env['mp_start_method']}, "
          f"git {env['git_sha'] or 'n/a'}, src sha256 {env['src_sha256'][:16]}, "
          f"load {env['loadavg_start'][0]:.2f}->{record['loadavg_end'][0]:.2f}")
    print(f"times are scaled towards a host on which the reference loop takes "
          f"{record['ref_nominal_s']} s: scaled = raw * ({record['ref_nominal_s']} / ref)"
          f" ** ({record['ref_elasticity']} * cpu_share)")
    for rep in reps:
        kind = "traced" if rep["traced"] else "plain "
        if "wall_s" in rep:
            print(f"  {kind} instance {rep['instance']} (seed {rep['instance_seed']})  "
                  f"ref {' '.join(f'{t:.4f}' for t in rep['refs'])} s  "
                  f"setup {statistics.median(rep['setup_s']):.4f} s "
                  f"(median of {len(rep['setup_s'])})  wall {rep['wall_s']:.4f} s "
                  f"(raw {rep['wall_raw_s']:.4f})  "
                  f"f1 {rep['f1']:.6f}  failed {rep['failed']}/{rep['attempted']}")
    width = max(len(spec["name"]) for spec in specs)
    not_measured = {name for rep in reps for name in rep.get("trace", {}).get("not_measured", ())}
    for spec in specs:
        note = "  NOT MEASURED: runs in pool workers" if spec["name"] in not_measured else ""
        print(f"  {spec['name']:<{width}}  {metrics[spec['name']]:>14.6f} "
              f"{spec['unit']:<12} ({spec['better']} is better){note}")
    for rep in reps:
        if not rep.get("trace"):
            continue
        summary = rep["trace"]
        print(f"  traced instance {rep['instance']}: budget_search probe histogram "
              f"(probes: calls) {summary['probe_histogram']}")
        print(f"    layer self times cover {summary['attributed_frac']:.4f} of the traced "
              f"wall time; untraced remainder {summary['untraced_frac']:.4f}; "
              f"pcst.solve busy share {summary['pcst_solve_frac']:.4f}")
        for name, row in summary["layers"].items():
            print(f"    {name:<30} self {row['self_s']:10.4f} s  "
                  f"busy {row['busy_s']:10.4f} s  spans {row['spans']} (raw times)")
    fingerprints = {(rep["instance"], json.dumps(rep["fingerprint"]))
                    for rep in reps if "fingerprint" in rep}
    for instance, fp in sorted(fingerprints):
        print(f"  fingerprint of instance {instance}: {fp}")
    print(f"  output check: {verdict['failed']} of {verdict['attempted']} solves failed; "
          f"outputs identical across repetitions: {verdict['deterministic']}")
    for line in verdict["problems"][:20]:
        print(f"  problem: {line}")
    for error in verdict["errors"]:
        print(error, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gbgp", "__init__.py")):
        return fail(f"no gbgp sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    specs = bench["per_layer" if args.trace else "end_to_end"]

    started = time.perf_counter()
    record, log_path = run_child(args.workload, args.seed, args.seconds, args.trace, OUT_DIR)
    if record is None:
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        return fail(f"workload process failed after {time.perf_counter() - started:.1f} s; "
                    f"log in {log_path}", 1)
    if not any("wall_s" in rep for rep in record["reps"]):
        for rep in record["reps"]:
            sys.stderr.write(rep.get("error", ""))
        return fail("no repetition finished", 1)
    metrics, verdict = summarise(record, args.trace)
    missing = [spec["name"] for spec in specs if spec["name"] not in metrics]
    if missing:
        return fail(f"metrics not produced: {', '.join(missing)}", 1)
    report(record, metrics, verdict, specs)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "verdict": verdict, "record": record}, fh, indent=1)
    print(json.dumps({
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
                    for spec in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
