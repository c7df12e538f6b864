"""walkstitch: budgeted random-walk stitching on a simulated MPC cluster,
with personalized-PageRank estimation and sweep-cut local clustering."""

__version__ = "0.1.0"

from .graph import (Graph, GraphError, EdgeListParseError,
                    UndefinedConductanceError, load_edge_list, load_cache,
                    save_cache, volume, boundary_size, conductance)
from .mpc import Cluster, ClusterConfig, CapacityError
from .engine import (StitchParams, StitchFailure,
                     EngineError, ParameterError, theory_params, desk_params,
                     initial_budgets, init_walks, stitch, update_budgets,
                     run_budgeted, run_multi_source, uniform_stitching,
                     dyadic_decompose, validate_walks, round_length,
                     cycle_plan, label_multipliers)
from .ppr import (PPRParams, WalkBatch, SweepResult, LocalClusterResult,
                  PPRError, WalkShortfall, approx_ppr, sweep, local_cluster,
                  conductance_bound)
from .vectors import ScoreVector
from . import fixtures, oracle

__all__ = [name for name in dir() if not name.startswith("_")]
