"""Block-structured subgraph detection via head/tail gradient projections."""

from .graph import (
    BlockPartition,
    BlockSignal,
    Graph,
    SupportSet,
    connected_components,
    load_graph,
    load_partition,
    partition_contiguous,
    save_graph,
)
from .objectives import ObjectiveSpec, ems_block_gradient, ems_block_value
from .projections import ProjectionOutcome, budget_search, head_project, tail_project
from .solver import (
    DetectionResult,
    SolverConfig,
    bcd_solve,
    gbgp_solve,
    parallel_bcd_solve,
)

__version__ = "0.1.0"
