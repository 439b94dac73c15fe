"""The benchmark's three workloads, their set-up, and the output check.

Each workload is built from the seed alone and runs gbgp only through
its public API and CLI, looked up at call time so that the tracer's
wrappers (``tracer.py``) see every call:

- ``temporal-grid``: ``gbgp synth`` writes a 7-step temporal bundle of
  300-node snapshots (set-up); ``gbgp gridsearch`` runs one serial solve
  on it at budget 33, lambda 0.02 (timed). Many short solves over many
  graphs, each rebuilding its 7 block graphs and engines; the only
  workload that runs the CLI layer.
- ``non-serial``: a 4,000-node network of networks in 8 blocks of 500
  nodes (set-up) and one ``gbgp_solve`` pinned to 6 outer iterations
  (timed). A long solve dominated by the PCST engine and long
  bisections.
- ``non-parallel``: the same problem with ``parallel=2``, the only
  workload that runs the projection process pool and
  ``parallel_bcd_solve``.
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

import gbgp.cli
import gbgp.datagen
import gbgp.objectives
import gbgp.solver
from gbgp.evaluation import precision_recall_f1
from gbgp.graph import connected_components

GRID_BUDGETS = (33,)
GRID_LAMBDAS = (0.02,)
# 8 blocks of 500 nodes rather than ROADMAP W2's 20: a block, and so every
# engine call and bisection, is the same size, but a solve takes about 3 s
# instead of 7. The benchmark's time scaling (child.REF_ELASTICITY) tracks
# the host's speed only at the edges of a timed section, and 7-s solves
# left the run-to-run spread at 0.17.
NON_NODES = 4000
NON_BLOCKS = 8
NON_LAMBDA = 0.01
NON_BUDGET = 121
NON_OUTER_ITERS = 6

# A run covers several instances, so that how hard one instance happens to
# be does not set the run's figures. A temporal-grid solve takes 1-3 s for
# most graphs, but about one graph in sixteen takes 5-9 times as long, so
# run.py reports the median over instances. How much work a graph needs
# still sets most of temporal-grid's run-to-run spread: resampling 48
# graphs gave an IQR/median of the median of 12 of 0.09, of 16, 0.07. Instance j of seed S is
# generated from S + SUB_SEED_STRIDE*j; instance 0 is the seed's own. One
# pass over the instances takes 30-45 s on a 2-CPU host.
SUB_SEED_STRIDE = 1000
INSTANCES = {"temporal-grid": 14, "non-serial": 10, "non-parallel": 10}


class Solve:
    """One finished solve and what the output check needs to judge it."""

    def __init__(self, result, partition, budget, num_components, detected, truth):
        self.result = result
        self.partition = partition
        self.budget = budget
        self.num_components = num_components
        self.f1 = precision_recall_f1(detected, truth).f_measure
        self.problems: list[str] = []


class TemporalGrid:
    name = "temporal-grid"
    solves_per_rep = len(GRID_BUDGETS) * len(GRID_LAMBDAS)

    def __init__(self, seed: int, workdir: str):
        self.seed = str(seed)
        self.workdir = workdir
        self.bundle = os.path.join(workdir, "instance")

    def setup(self) -> None:
        code = gbgp.cli.main([
            "synth", "--n", "300", "--m", "4", "--T", "7", "--overlap", "0.5",
            "--size", "30", "--mu", "4", "--seed", self.seed, "--out", self.workdir,
        ])
        if code != 0:
            raise RuntimeError(f"gbgp synth exited with {code}")

    def timed(self) -> list:
        """Run ``gbgp gridsearch``; returns the solve calls it made."""
        calls = []
        solve_instance = gbgp.cli.solve_instance

        def capture(instance, lam, config, *args, **kwargs):
            out = solve_instance(instance, lam, config, *args, **kwargs)
            calls.append((instance, lam, config, out))
            return out

        gbgp.cli.solve_instance = capture
        try:
            code = gbgp.cli.main([
                "gridsearch", "--bundle", self.bundle,
                "--budgets", ",".join(map(str, GRID_BUDGETS)),
                "--lambdas", ",".join(map(str, GRID_LAMBDAS)),
                "--seed", self.seed, "--out", self.workdir,
            ])
        finally:
            gbgp.cli.solve_instance = solve_instance
        if code != 0:
            raise RuntimeError(f"gbgp gridsearch exited with {code}")
        return calls

    def solves(self, calls) -> tuple[list[Solve], float, list[str]]:
        """The solves, the mean F-measure the CLI reported, and problems of the run."""
        problems = []
        reported = _read_gridsearch(os.path.join(self.workdir, "eval", "gridsearch.tsv"))
        expanded = {}
        solves = []
        for instance, lam, config, (pairs, result, _wall) in calls:
            if id(instance) not in expanded:
                expanded[id(instance)] = instance.expand()[1]
            solve = Solve(result, expanded[id(instance)], config.budgets,
                          config.num_components, pairs, instance.truth_pairs())
            key = (int(config.budgets), float(lam))
            if reported.get(key) != f"{solve.f1:.6f}":
                solve.problems.append(
                    f"gridsearch.tsv reports f1 {reported.get(key)} for cell {key}, "
                    f"the solve gives {solve.f1:.6f}"
                )
            solves.append(solve)
        if len(reported) != self.solves_per_rep:
            problems.append(f"gridsearch.tsv has {len(reported)} cells, "
                            f"expected {self.solves_per_rep}")
        f1 = float(np.mean([float(v) for v in reported.values()])) if reported else 0.0
        return solves, f1, problems


class Non:
    solves_per_rep = 1

    def __init__(self, seed: int, parallel: int):
        self.seed = seed
        self.parallel = parallel
        self.name = "non-parallel" if parallel else "non-serial"

    def setup(self) -> None:
        spec = gbgp.datagen.SyntheticSpec(
            n=NON_NODES, m=3, subgraph_size=0.1, mu=5.0, seed=self.seed
        )
        self.instance = gbgp.datagen.generate_non(spec, NON_BLOCKS)
        self.objective = gbgp.objectives.ObjectiveSpec(
            "non", self.instance.partition, self.instance.signal, lam=NON_LAMBDA
        )

    def timed(self):
        config = gbgp.solver.SolverConfig(
            budgets=NON_BUDGET, max_outer_iters=NON_OUTER_ITERS, outer_tol=0.0,
            seed=self.seed, parallel=self.parallel,
        )
        return config, gbgp.solver.gbgp_solve(self.objective, config)

    def solves(self, out) -> tuple[list[Solve], float, list[str]]:
        config, result = out
        detected = {node for support in result.supports for node in support.nodes}
        solve = Solve(result, self.instance.partition, config.budgets,
                      config.num_components, detected, set(self.instance.truth))
        return [solve], solve.f1, []


def make(name: str, seed: int, workdir: str):
    if name == "temporal-grid":
        return TemporalGrid(seed, workdir)
    if name == "non-serial":
        return Non(seed, parallel=0)
    if name == "non-parallel":
        return Non(seed, parallel=2)
    raise ValueError(f"unknown workload {name!r}")


def _read_gridsearch(path: str) -> dict:
    """(budget, lambda) -> f1 text, from the CLI's gridsearch.tsv."""
    cells = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != ["budget", "lambda", "precision", "recall", "f1"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for line in fh:
            budget, lam, _precision, _recall, f1 = line.rstrip("\n").split("\t")
            cells[int(budget), float(lam)] = f1
    return cells


def check(solve: Solve) -> list[str]:
    """Violations of the detector's output contract for one solve.

    Every block's support is non-empty, lies inside its block, holds at
    most ``budget`` nodes and induces at most ``num_components``
    components of the block graph; ``x_final`` is finite, in [0, 1] and
    zero off the supports.
    """
    partition, result = solve.partition, solve.result
    n = partition.graph.node_count
    x = np.asarray(result.x_final)
    problems = []
    if x.shape != (n,):
        return [f"x_final has shape {x.shape}, expected ({n},)"]
    if not np.all(np.isfinite(x)):
        problems.append("x_final is not finite")
    elif x.min() < 0.0 or x.max() > 1.0:
        problems.append(f"x_final leaves [0, 1]: [{x.min()}, {x.max()}]")
    block_ids = sorted(support.block_id for support in result.supports)
    if block_ids != list(range(partition.num_blocks)):
        problems.append(f"supports cover blocks {block_ids}, "
                        f"expected 0..{partition.num_blocks - 1}")
    on_support = np.zeros(n, dtype=bool)
    for support in result.supports:
        k = support.block_id
        nodes = np.asarray(sorted(support.nodes), dtype=np.int64)
        if len(nodes) == 0:
            problems.append(f"block {k}: empty support")
            continue
        if len(nodes) > solve.budget:
            problems.append(f"block {k}: {len(nodes)} nodes over budget {solve.budget}")
        block = partition.block_nodes[k]
        local = np.searchsorted(block, nodes)
        inside = (local < len(block)) & (block[np.minimum(local, len(block) - 1)] == nodes)
        if not inside.all():
            problems.append(f"block {k}: nodes {nodes[~inside].tolist()} outside the block")
            continue
        components = connected_components(partition.block_graph(k), local.tolist())
        if len(components) > solve.num_components:
            problems.append(f"block {k}: {len(components)} components, "
                            f"at most {solve.num_components} allowed")
        on_support[nodes] = True
    if np.any(x[~on_support] != 0.0):
        problems.append(f"x_final is non-zero on {int(np.count_nonzero(x[~on_support]))} "
                        "nodes off the supports")
    return problems


def fingerprint(solves: list[Solve]) -> dict:
    """sha256 of every solve's x_final bytes and of its sorted supports."""
    x_hash = hashlib.sha256()
    support_hash = hashlib.sha256()
    for solve in solves:
        x_hash.update(np.ascontiguousarray(solve.result.x_final, dtype=np.float64).tobytes())
        supports = sorted((s.block_id, sorted(int(v) for v in s.nodes))
                          for s in solve.result.supports)
        support_hash.update(repr(supports).encode())
    return {"x_final_sha256": x_hash.hexdigest(), "supports_sha256": support_hash.hexdigest()}
