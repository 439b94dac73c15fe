"""Command-line front end: synth, detect, eval, bench, gridsearch.

Every command honors --seed and produces byte-identical non-timing
output files on rerun. Exit codes: 0 success, 2 validation error,
3 solver stopped on its iteration cap, 4 I/O error, 5 solver failed
(non-finite objective, step-size underflow, the PCST kernel out of memory).

``detect`` takes its layout from the input (``--objective`` picks only
the coupling): a temporal bundle or several ``--signal`` files stack
snapshots, and only they take the temporal coupling. A bundle holds its
own layout, so ``--partition`` and ``--blocks`` are refused with one.
Otherwise blocks come from ``--partition`` (which needs ``--blocks``) or
from cutting the graph into ``--blocks`` (default 4) contiguous BFS
blocks; ``--budget`` must fit every block.
"""
from __future__ import annotations

import argparse
import os
import sys

from .datagen import (
    SyntheticSpec,
    TemporalInstance,
    expand_temporal,
    generate_non,
    generate_temporal,
    read_bundle,
    read_truth,
    write_bundle,
)
from .evaluation import precision_recall_f1, scaling_bench, solve_instance, support_pairs
from .graph import (
    BlockSignal,
    _Lines,
    _place_signal,
    _read_signal,
    _write_lines,
    load_graph,
    load_partition,
    partition_contiguous,
    save_signal,
)
from .objectives import ObjectiveSpec
from .solver import SolverConfig, gbgp_solve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4
EXIT_SOLVER = 5

DEFAULT_LAMBDA_GRID = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each subcommand, by name."""
    parser = argparse.ArgumentParser(
        prog="gbgp",
        description="Block-structured subgraph detection in interdependent networks",
    )
    parser.add_argument("--config", help="key=value config file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("--parallel", type=int, default=0,
                       help="tau of the block-parallel inner solver (below 2: serial)")

    p = sub.add_parser("synth", help="generate a synthetic instance bundle")
    add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--T", type=int, help="snapshot count (temporal only; default 1)")
    p.add_argument("--mu", type=float, default=5.0)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--size", type=float, default=0.1,
                   help="truth size: a whole number, or a fraction of --n below 1")
    p.add_argument("--kind", choices=["temporal", "non"], default="temporal")
    p.add_argument("--blocks", type=int, help="block count (non only; default 4)")

    p = sub.add_parser("detect", help="run detection on a bundle or explicit files")
    add_common(p)
    p.add_argument("--bundle", help="instance bundle directory")
    p.add_argument("--graph", help="edge-list file (alternative to --bundle)")
    p.add_argument("--signal", action="append", default=None,
                   help="signal file; repeat per timestamp for temporal data")
    p.add_argument("--partition", help="partition file (one-signal input)")
    p.add_argument("--blocks", type=int,
                   help="block count of --partition; without --partition, the graph "
                        "is cut into this many contiguous BFS blocks (default 4)")
    p.add_argument("--objective", choices=["temporal", "non", "ems"], default=None,
                   help="coupling between blocks; the layout comes from the input")
    p.add_argument("--budget", type=int, required=True, help="per-block sparsity budget")
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)
    p.add_argument("--outer-tol", type=float, default=1e-3)
    p.add_argument("--inner-tol", type=float, default=1e-3)
    p.add_argument("--max-outer-iters", type=int, default=30)
    p.add_argument("--step-mode", choices=["fixed", "backtracking"], default="backtracking")
    p.add_argument("--step-size", type=float, default=1.0)
    p.add_argument("--head-capacity", choices=["s", "2s"], default="2s")
    p.add_argument("--components", type=int, default=1)
    p.add_argument("--normalize-signal", action="store_true",
                   help="min-max normalize each block signal to [0,1]")

    p = sub.add_parser("eval", help="score a detection against ground truth")
    add_common(p)
    p.add_argument("--detected", required=True, help="support file (t<TAB>node)")
    p.add_argument("--truth", required=True, help="truth file (t<TAB>node)")

    p = sub.add_parser("bench", help="runtime scaling benchmark")
    add_common(p)
    p.add_argument("--sizes", default="2500,5000,10000", help="comma-separated node counts")
    p.add_argument("--taus", default="0",
                   help="comma-separated taus of the randomized inner solver (below 2: serial)")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--lambda", dest="lam", type=float, default=0.01)

    p = sub.add_parser("gridsearch", help="grid search budget and lambda on a bundle")
    add_common(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--budgets", required=True, help="comma-separated budgets")
    p.add_argument("--lambdas", default=",".join(str(v) for v in DEFAULT_LAMBDA_GRID))
    return parser, sub.choices


def _apply_config_file(subcommands: dict[str, argparse.ArgumentParser],
                       argv: list[str]) -> list[str]:
    """Fold --config ``long-option=value`` lines in as subcommand defaults; flags win."""
    pre = argparse.ArgumentParser(prog="gbgp", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    if known.config is None:
        return argv
    # long option name -> every (subcommand parser, action) that takes it
    options: dict[str, list] = {}
    for sub in subcommands.values():
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--") and action.dest != "help":
                    options.setdefault(opt[2:], []).append((sub, action))
    with _Lines(known.config) as lines:
        for key, value in lines.pairs():
            if key not in options:
                raise ValueError(f"unknown config key {key!r}")
            for sub, action in options[key]:
                default = value
                if isinstance(action, argparse._AppendAction):
                    raise ValueError(f"{key} repeats; give it as --{key}")
                if action.nargs == 0:  # a store_true flag
                    if value not in ("true", "false"):
                        raise ValueError(f"{key} must be true or false")
                    default = value == "true"
                elif action.choices is not None and value not in action.choices:
                    raise ValueError(f"{key} must be one of "
                                     f"{', '.join(action.choices)}, not {value!r}")
                elif action.type is not None:
                    default = action.type(value)
                sub.set_defaults(**{action.dest: default})
    return argv


def _write_manifest(out_dir: str, entries: list[str]) -> None:
    _write_lines(os.path.join(out_dir, "manifest.txt"), sorted(entries))


def cmd_synth(args) -> int:
    # from a flag or --config alike: the kind would ignore it, and a --T
    # would still be recorded in metadata.txt
    if args.kind == "non" and args.T not in (None, 1):
        raise ValueError(f"--T {args.T} does not apply to --kind non, one snapshot")
    if args.kind == "temporal" and args.blocks is not None:
        raise ValueError("--blocks does not apply to --kind temporal, "
                         "whose blocks are its --T snapshots")
    spec = SyntheticSpec(
        n=args.n, m=args.m, T=1 if args.T is None else args.T, subgraph_size=args.size,
        overlap=args.overlap, mu=args.mu, seed=args.seed,
    )
    if args.kind == "temporal":
        instance = generate_temporal(spec)
    else:
        instance = generate_non(spec, 4 if args.blocks is None else args.blocks)
    out_dir = os.path.join(args.out, "instance")
    write_bundle(instance, out_dir)
    print(out_dir)
    return EXIT_OK


def _load_detect_inputs(args):
    """(partition, signal, snapshot size) from the input alone: a temporal
    bundle or several ``--signal`` files stack snapshots of that size; else None."""
    if args.blocks is not None and args.blocks < 1:
        raise ValueError(f"--blocks must be >= 1, got {args.blocks}")
    if args.bundle:
        if args.partition or args.blocks is not None:
            raise ValueError("--partition/--blocks do not apply to --bundle, "
                             "which holds its own layout")
        instance = read_bundle(args.bundle)
        if isinstance(instance, TemporalInstance):
            _, partition, signal = instance.expand()
            return partition, signal, instance.base_graph.node_count
        return instance.partition, instance.signal, None
    if not args.graph or not args.signal:
        raise ValueError("detect needs --bundle, or --graph with --signal")
    # each signal file is parsed once; the longest bounds the graph before its
    # header can allocate anything
    entries = [_read_signal(path) for path in args.signal]
    graph = load_graph(args.graph, max(max(nodes, default=-1) + 1 for _, nodes, _ in entries))
    signals = [_place_signal(signal, graph.node_count) for signal in entries]
    if len(signals) > 1:
        if args.partition or args.blocks is not None:
            raise ValueError("--partition/--blocks apply to one --signal only")
        _, partition, signal = expand_temporal(graph, signals)
        return partition, signal, graph.node_count
    if args.partition:
        if args.blocks is None:
            raise ValueError("--partition needs --blocks")
        partition = load_partition(args.partition, graph, args.blocks)
    else:
        blocks = 4 if args.blocks is None else args.blocks
        partition = partition_contiguous(graph, blocks)
        for k, nodes in enumerate(partition.block_nodes):
            if args.budget > len(nodes):
                raise ValueError(
                    f"budget {args.budget} infeasible for block {k} of {len(nodes)} nodes: "
                    f"without --partition the graph is cut into --blocks {blocks} "
                    f"contiguous blocks; lower --blocks or --budget"
                )
    return partition, signals[0], None


def _normalize_blocks(signal, partition):
    """Min-max map each block to [0, 1]; a constant block maps to 0."""
    values = signal.values.copy()
    for nodes in partition.block_nodes:
        if len(nodes):
            block = values[nodes]
            span = block.max() - block.min()
            values[nodes] = (block - block.min()) / span if span > 0 else 0.0
    return BlockSignal(values)


def cmd_detect(args) -> int:
    partition, signal, snapshot_size = _load_detect_inputs(args)
    kind = args.objective or ("non" if snapshot_size is None else "temporal")
    if kind == "temporal" and snapshot_size is None:
        raise ValueError("temporal coupling needs stacked snapshots: a temporal bundle or "
                         "several --signal files (for one block: --objective ems --blocks 1)")
    if args.normalize_signal:
        signal = _normalize_blocks(signal, partition)
    objective = ObjectiveSpec(kind, partition, signal, lam=args.lam)
    config = SolverConfig(
        budgets=args.budget,
        outer_tol=args.outer_tol,
        inner_tol=args.inner_tol,
        max_outer_iters=args.max_outer_iters,
        step_mode=args.step_mode,
        step_size=args.step_size,
        head_capacity_mode=args.head_capacity,
        num_components=args.components,
        parallel=args.parallel,
        seed=args.seed,
    )
    result = gbgp_solve(objective, config)

    out_dir = os.path.join(args.out, "detect")
    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "supports.txt"),
                 (f"{t}\t{node}" for t, node in support_pairs(result.supports, snapshot_size)))
    save_signal(BlockSignal(result.x_final), os.path.join(out_dir, "x.txt"))
    _write_lines(os.path.join(out_dir, "trace.txt"), (
        f"{i}\t{record.delta!r}\t{record.objective!r}\t{record.wall_ms:.3f}"
        for i, record in enumerate(result.iterations, start=1)))
    _write_manifest(out_dir, ["supports.txt", "x.txt", "trace.txt"])
    print(out_dir)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_eval(args) -> int:
    detected = read_truth(args.detected)
    truth = read_truth(args.truth)
    row = precision_recall_f1(detected, truth)
    out_dir = os.path.join(args.out, "eval")
    os.makedirs(out_dir, exist_ok=True)
    summary = [f"precision={row.precision:.6f}", f"recall={row.recall:.6f}",
               f"f1={row.f_measure:.6f}"]
    _write_lines(os.path.join(out_dir, "summary.txt"), summary)
    _write_manifest(out_dir, ["summary.txt"])
    print(" ".join(summary))
    return EXIT_OK


def _grid(flag: str, text: str, kind) -> list:
    """The values of a comma-separated grid flag.

    A grid naming no value, or one value twice, is an error: a repeated
    value would solve, and write out, the same cell twice.
    """
    values = [kind(v) for v in text.split(",") if v]
    if not values:
        raise ValueError(f"{flag} names no value")
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{flag} repeats {value}")
    return values


def cmd_bench(args) -> int:
    sizes, taus = _grid("--sizes", args.sizes, int), _grid("--taus", args.taus, int)
    if args.repeats < 1:
        raise ValueError("--repeats must be >= 1")
    config = SolverConfig(seed=args.seed)
    table = scaling_bench(
        sizes, config, lam=args.lam, tau_list=taus, repeats=args.repeats, seed=args.seed
    )
    out_dir = os.path.join(args.out, "eval")
    os.makedirs(out_dir, exist_ok=True)
    lines = ["n\tedges\tblocks\ttau\twall_s\tf1"]
    for row in table:
        lines.append(
            f"{row['n']}\t{row['edges']}\t{row['blocks']}\t{row['tau']}"
            f"\t{row['wall_s']:.4f}\t{row['f1']:.6f}"
        )
    _write_lines(os.path.join(out_dir, "scaling.tsv"), lines)
    _write_manifest(out_dir, ["scaling.tsv"])
    print("\n".join(lines))
    return EXIT_OK


def cmd_gridsearch(args) -> int:
    budgets = _grid("--budgets", args.budgets, int)
    lambdas = _grid("--lambdas", args.lambdas, float)
    instance = read_bundle(args.bundle)
    cells = []
    for budget in budgets:
        for lam in lambdas:
            config = SolverConfig(budgets=budget, seed=args.seed, parallel=args.parallel)
            pairs, _, _ = solve_instance(instance, lam, config)
            row = precision_recall_f1(pairs, instance.truth_pairs())
            cells.append((row.f_measure, budget, lam, row))
    # best F first; ties prefer smaller budget then smaller lambda
    cells.sort(key=lambda cell: (-cell[0], cell[1], cell[2]))
    out_dir = os.path.join(args.out, "eval")
    os.makedirs(out_dir, exist_ok=True)
    lines = ["budget\tlambda\tprecision\trecall\tf1"]
    for f1, budget, lam, row in cells:
        lines.append(f"{budget}\t{lam}\t{row.precision:.6f}\t{row.recall:.6f}\t{f1:.6f}")
    _write_lines(os.path.join(out_dir, "gridsearch.tsv"), lines)
    best = cells[0]
    _write_lines(os.path.join(out_dir, "best.txt"),
                 [f"budget={best[1]}", f"lambda={best[2]}", f"f1={best[0]:.6f}"])
    _write_manifest(out_dir, ["gridsearch.tsv", "best.txt"])
    print(f"best budget={best[1]} lambda={best[2]} f1={best[0]:.4f}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subcommands = build_parser()
    handlers = {
        "synth": cmd_synth,
        "detect": cmd_detect,
        "eval": cmd_eval,
        "bench": cmd_bench,
        "gridsearch": cmd_gridsearch,
    }
    try:
        args = parser.parse_args(_apply_config_file(subcommands, argv))
        return handlers[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RuntimeError, MemoryError) as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
