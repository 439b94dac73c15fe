"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Two traced runs at seed 0 of each serial workload (one traced
   repetition each, of instance 0) must agree exactly on
   ``pcst.solve_calls``, ``budget_search.calls``, the probe histogram,
   ``solver.outer_iters``, ``f1`` and the output fingerprints. Their
   layer self times must sum to the traced wall time within 5%, and the
   time no layer wrapper covers (the ``bench.timed`` root's own time
   plus ``gbgp_solve``'s) must stay under 5% of it. On ``non-serial``
   ``pcst.solve`` must take at least 85% of it.
2. A held-out seed (1) must run every workload with no failed solve.

Seed-0 ``f1`` and fingerprints are also compared with ``reference.json``
and reported; a difference there means the program's output changed,
which the change must state, and does not fail the self-test.
Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import sys

from run import HERE, OUT_DIR, ROOT, run_child

SERIAL = ("temporal-grid", "non-serial")
EXACT = ("pcst.solve_calls", "budget_search.calls", "solver.outer_iters")
MIN_PCST_SHARE = {"non-serial": 0.85}
MAX_UNTRACED = 0.05


def traced_summary(workload: str) -> list[dict]:
    """One entry per traced repetition of a seed-0 run; --seconds 0 gives one."""
    record, log = run_child(workload, 0, 0, 1, OUT_DIR)
    if record is None or any("error" in rep for rep in record["reps"]):
        raise RuntimeError(f"{workload}: traced run failed, see {log}")
    return [{
        "layers": {name: rep["layers"][name] for name in EXACT},
        "probe_histogram": rep["trace"]["probe_histogram"],
        "f1": rep["f1"],
        "fingerprint": rep["fingerprint"],
        "attributed_frac": rep["trace"]["attributed_frac"],
        "untraced_frac": rep["trace"]["untraced_frac"],
        "pcst_solve_frac": rep["trace"]["pcst_solve_frac"],
        "failed": rep["failed"],
    } for rep in record["reps"] if rep["traced"]]


def main() -> int:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    results = []

    def verdict(ok: bool, what: str) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)

    for workload in SERIAL:
        first, second = traced_summary(workload), traced_summary(workload)
        for key in ("layers", "probe_histogram", "f1", "fingerprint"):
            verdict([a[key] for a in first] == [b[key] for b in second],
                    f"{workload}: {key} repeats across traced runs "
                    f"(instance 0: {first[0][key]})")
        for rep in first + second:
            verdict(abs(rep["attributed_frac"] - 1.0) <= 0.05 and rep["failed"] == 0,
                    f"{workload}: output check passes and layer self times cover "
                    f"{rep['attributed_frac']:.4f} of traced wall (within 5%)")
            verdict(rep["untraced_frac"] < MAX_UNTRACED,
                    f"{workload}: time outside every layer wrapper is "
                    f"{rep['untraced_frac']:.4f} of traced wall (< {MAX_UNTRACED})")
        if workload in MIN_PCST_SHARE:
            share = min(rep["pcst_solve_frac"] for rep in first)
            verdict(share >= MIN_PCST_SHARE[workload],
                    f"{workload}: pcst.solve takes at least {share:.3f} of traced wall "
                    f"(>= {MIN_PCST_SHARE[workload]})")
        ref = reference["seed0"][workload]
        f1 = [rep["f1"] for rep in first]
        same = (ref["f1"][:len(f1)] == f1 and ref["fingerprint"][:len(f1)]
                == [rep["fingerprint"] for rep in first])
        print(f"INFO {workload}: seed-0 f1 per instance {f1}; output "
              f"{'matches' if same else 'DIFFERS FROM'} reference.json", flush=True)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    for workload in workloads:
        record, log = run_child(workload, 1, 0, 0, OUT_DIR)
        ok = record is not None and all(
            "error" not in rep and rep["failed"] == 0 for rep in record["reps"])
        verdict(ok, f"{workload}: held-out seed 1 runs with failed_frac 0"
                + ("" if ok else f" (see {log})"))

    print(f"{sum(results)} of {len(results)} checks passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
